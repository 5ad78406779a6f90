/**
 * @file
 * The migration ledger: the one drain-then-switch state machine of
 * every balancing tier (DESIGN.md §15).
 *
 * It owns what does not depend on how partition state travels: the
 * window roll (harvest, EWMA roll, plan, eligibility filter, launch
 * in plan order), the per-partition frozen table, harvest in launch
 * order (commit a landed transfer, time out a stuck one, abort a
 * failed and drained one), the forwarding epoch (until commit,
 * routing still points at the source, so a request served at an
 * in-flight migration's source is forwarded and ships a delta), and
 * the counters. Every exit path releases the frozen flag and counts,
 * so started == committed + aborted + inFlight always holds.
 *
 * The counters fold into a StatGroup the tier hands over
 * ("rack.balance", "board.balance"), under one set of leaf names
 * for both tiers, each registered once nonzero: `started`,
 * `committed`, `aborted`, `timedOut`, `forwarded`, `deltaBytes`,
 * `deltaDropped`, and `repair.started` / `repair.committed` for
 * Purpose::Repair.
 *
 * A tier supplies a Transport and its Rules (eligibility, commit
 * action). The ledger never asks which tier drives it, and runs in
 * the host phase only, which keeps balanced runs bit-deterministic.
 */

#ifndef DPU_BALANCE_LEDGER_HH
#define DPU_BALANCE_LEDGER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "balance/planner.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace dpu::balance {

/** What a migration does to routing when it commits. */
enum class Purpose : std::uint8_t
{
    Move,   ///< re-home the partition (a balancer step)
    Repair, ///< add a replica (restores replication width)
};

/** How a migration left the ledger. */
enum class Outcome : std::uint8_t
{
    Committed,
    Aborted,  ///< lost at launch, failed and drained, or evicted
    TimedOut, ///< not landed within Rules::timeout
};

/** One migration in flight. */
struct Migration
{
    MigrationStep step;
    Purpose purpose = Purpose::Move;
    unsigned tag = 0; ///< caller data, carried untouched
    sim::Tick launchedAt = 0;
    std::uint64_t absorbed = 0; ///< partition's lifetime load
    std::uint64_t transfer = 0; ///< transport-private handle
};

/** How a tier moves partition state between two of its nodes. */
class Transport
{
  public:
    enum class Status : std::uint8_t
    {
        Moving,
        Landed, ///< every byte is at the destination
        Failed, ///< failed and drained: safe to retire
    };

    virtual ~Transport() = default;
    /** Start moving @p m's state at @p now (may set m.transfer).
     *  @return false when the transfer is lost at launch. */
    virtual bool launch(Migration &m, sim::Tick now) = 0;
    virtual Status poll(const Migration &m, sim::Tick now) = 0;
    /** @p m leaves the ledger; release what its transfer held. */
    virtual void retire(const Migration &m, Outcome how) = 0;
    /** Ship a forwarding delta. @return false when dropped. */
    virtual bool forward(const Migration &m, std::uint64_t bytes,
                         sim::Tick now) = 0;
};

/** Delta shipped per request forwarded during a migration. */
constexpr std::uint64_t forwardDeltaBytes = 256;

/** The tier rules the ledger consults. */
struct Rules
{
    /** Current owner of a partition: the map plans start from. */
    std::function<unsigned(unsigned partition)> homeOf;
    /** May a planned step launch now? */
    std::function<bool(const MigrationStep &)> eligible;
    /** Apply a landed migration to routing. */
    std::function<void(const Migration &)> commit;
    /** Not landed this long after launch: TimedOut. 0 = never. */
    sim::Tick timeout = 0;
};

class MigrationLedger
{
  public:
    /** Per-Purpose lifecycle counts; aborted covers every
     *  non-commit exit, timedOut is its TimedOut share. */
    struct Counters
    {
        std::uint64_t started = 0, committed = 0, aborted = 0;
        std::uint64_t timedOut = 0;
    };

    /** Forwarding epochs: requests, delta bytes (dropped ones
     *  included) and deltas lost on the wire. */
    struct Forwarding
    {
        std::uint64_t requests = 0, bytes = 0, dropped = 0;
    };

    /** @p stats receives the counters through a flush hook, so it
     *  must not be read after the ledger is gone. */
    MigrationLedger(const Policy &policy, unsigned n_partitions,
                    unsigned n_nodes, Transport &transport,
                    Rules rules, sim::StatGroup &stats);

    /** Count one request offered to @p partition. */
    void record(unsigned partition) { track.record(partition); }

    /** A request for @p partition was served at node @p served_at:
     *  forwarded if that is an in-flight migration's source. */
    void forward(unsigned partition, unsigned served_at,
                 sim::Tick now);

    /** Window boundary: harvest, roll the tracker, then plan,
     *  filter and launch (unless draining). */
    void closeWindow(sim::Tick boundary);

    /** Close every boundary due by @p when (multiples of
     *  Policy::window), then harvest at @p when. */
    void advance(sim::Tick when);

    /** Retire, in launch order, what finished by @p now. */
    void harvest(sim::Tick now);

    /** @return true when @p step is in flight, false when its
     *  transfer was lost at launch (started and aborted). */
    bool launch(const MigrationStep &step, sim::Tick now,
                Purpose purpose = Purpose::Move, unsigned tag = 0);

    /** Abort every migration from or to @p node (it left the tier).
     *  @return the aborted migrations, in launch order. */
    std::vector<Migration> abortTouching(unsigned node);

    /** Stop planning new moves (the caller is draining). */
    void setDraining(bool d) { draining = d; }

    const LoadTracker &tracker() const { return track; }
    bool frozen(unsigned part) const { return frozenParts[part]; }
    unsigned inFlight() const { return unsigned(live.size()); }
    unsigned inFlight(Purpose purpose) const;
    const Counters &counters(Purpose purpose = Purpose::Move) const
    {
        return count[unsigned(purpose)];
    }
    const Forwarding &forwarding() const { return fwd; }

  private:
    void retire(std::size_t i, Outcome how);
    void foldStats(sim::StatGroup &stats) const;

    Policy policy;
    unsigned nNodes;
    Transport &xport;
    Rules rules;
    LoadTracker track;
    std::vector<bool> frozenParts;
    std::vector<Migration> live; ///< launch order
    sim::Tick nextRollAt;        ///< advance()'s clock; 0 = off
    bool draining = false;
    std::array<Counters, 2> count{};
    Forwarding fwd;
};

} // namespace dpu::balance

#endif // DPU_BALANCE_LEDGER_HH
