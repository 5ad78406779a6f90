/**
 * @file
 * Hot-partition detection and migration planning, shared by every
 * balancing tier.
 *
 * Static hash placement is blind to skew: a hot spot lands whole key
 * partitions on one node (a board in a rack, a DPU on a board). A
 * LoadTracker folds per-partition request counts into EWMAs once per
 * window, and planMigrations() greedily picks moves off hot nodes;
 * balance/ledger.hh executes them.
 */

#ifndef DPU_BALANCE_PLANNER_HH
#define DPU_BALANCE_PLANNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace dpu::balance {

/** The balancer knobs every tier shares. Defaults leave it OFF
 *  (window = 0) so existing topologies and goldens are untouched. */
struct Policy
{
    /** Observation-window length in ticks; 0 disables balancing. */
    sim::Tick window = 0;
    /** EWMA weight of the newest window, in (0, 1]. */
    double ewmaAlpha = 0.4;
    /** A node is hot above hotFactor x mean node load (>= 1). */
    double hotFactor = 1.5;
    /** Migration budget per window boundary. */
    unsigned maxMigrationsPerWindow = 1;
    /** Partitions below this EWMA load never migrate (not worth
     *  the state transfer). */
    double minPartitionLoad = 4.0;

    /** "" when the knobs are usable (or window = 0, which disables
     *  the balancer and its validation); else a message naming the
     *  offending field as "<owner>.<field>". */
    std::string validate(const char *owner) const;
};

/** Windowed per-partition load: current-window counts + EWMA. */
class LoadTracker
{
  public:
    explicit LoadTracker(unsigned n_partitions);

    unsigned size() const { return unsigned(counts.size()); }

    /** Count one request aimed at @p partition. */
    void record(unsigned partition);

    /** Close the window: fold counts into the EWMAs and reset.
     *  The first roll primes each EWMA with its raw count. */
    void roll(double alpha);

    /** Smoothed (EWMA) load of @p p. */
    double load(unsigned p) const { return ewma[checked(p)]; }
    /** Requests seen for @p p in the open window. */
    std::uint64_t
    windowLoad(unsigned p) const
    {
        return counts[checked(p)];
    }
    /** Lifetime requests recorded against @p p. */
    std::uint64_t
    totalLoad(unsigned p) const
    {
        return totals[checked(p)];
    }
    /** All smoothed loads, indexed by partition. */
    const std::vector<double> &loads() const { return ewma; }
    unsigned rollsDone() const { return rolls; }

  private:
    /** @p partition, asserted in range. */
    unsigned checked(unsigned partition) const;

    std::vector<std::uint64_t> counts; ///< open window
    std::vector<std::uint64_t> totals; ///< lifetime
    std::vector<double> ewma;
    unsigned rolls = 0;
};

/** One planned partition move. */
struct MigrationStep
{
    unsigned partition = 0;
    unsigned from = 0;
    unsigned to = 0;
    /** The partition's smoothed load at planning time. */
    double load = 0;
};

/**
 * Plan up to maxMigrationsPerWindow moves off hot nodes.
 *
 * @p loads   per-partition EWMA loads (LoadTracker::loads()).
 * @p home    partition -> owning node, updated in place as steps
 *            are planned (so one call never plans two moves of the
 *            same partition).
 * @p n_nodes node (DPU or board) count.
 * @p frozen  partitions that may not move (in-flight migrations);
 *            indexed by partition, may be empty.
 *
 * Deterministic: identical inputs give identical plans. Every
 * choice breaks ties by lowest index, and a move requires strict
 * improvement (the destination, with the partition added, must stay
 * below the source's current load) so planning cannot oscillate.
 */
std::vector<MigrationStep>
planMigrations(const std::vector<double> &loads,
               std::vector<unsigned> &home, unsigned n_nodes,
               const Policy &p,
               const std::vector<bool> &frozen = {});

} // namespace dpu::balance

#endif // DPU_BALANCE_PLANNER_HH
