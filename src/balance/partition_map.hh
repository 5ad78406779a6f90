/**
 * @file
 * The partition -> home table both balancing tiers route and commit
 * through (DESIGN.md §14).
 *
 * A PartitionMap records which of nShards nodes owns each of
 * nPartitions key partitions — DPUs under host::BoardScheduler,
 * boards under rack::RackScheduler — and each partition's ordered
 * failover candidates. Every partition starts at its hash home
 * placementHash("", p) % nShards with the replica group of
 * `replication` consecutive shards from there; the tier's migration
 * ledger re-homes one partition per commit (reassign()) and the
 * rack's repair controller pins explicit replica sets
 * (setReplicas()).
 *
 * Determinism: the map changes only in the host phase, in trace
 * order, so the home of request i is a pure function of the trace
 * prefix [0, i] at any thread count.
 */

#ifndef DPU_BALANCE_PARTITION_MAP_HH
#define DPU_BALANCE_PARTITION_MAP_HH

#include <cstdint>
#include <string_view>
#include <vector>

namespace dpu::balance {

/**
 * The one placement mix: FNV over @p app, CRC-folded with the two
 * halves of @p key. Keyless board routing passes (app, seed);
 * partition maps pass ("", partition).
 */
std::uint32_t placementHash(std::string_view app, std::uint64_t key);

/** Partition -> home node, with replica failover order. */
class PartitionMap
{
  public:
    PartitionMap(unsigned n_partitions, unsigned replication);

    unsigned nPartitions() const { return nParts; }
    unsigned replicationWidth() const { return repl; }

    /** @p part's hash home (ignores reassignments). */
    unsigned defaultHomeOf(unsigned part, unsigned nShards) const;

    /** @p part's current home. */
    unsigned homeOf(unsigned part, unsigned nShards) const;

    /**
     * Append @p part's failover candidates to @p out, home first.
     * A pinned replica set is returned as is; otherwise the home
     * leads, followed by the default group minus the home, clamped
     * to the replication width.
     */
    void candidates(unsigned part, unsigned nShards,
                    std::vector<unsigned> &out) const;

    /** Migration commit: re-home @p part onto @p shard (promoted to
     *  the front of a pinned replica set). */
    void reassign(unsigned part, unsigned shard);

    /** Partitions currently re-homed by reassign(). */
    unsigned reassignedCount() const;

    /**
     * Repair hook: pin @p part's full failover order to @p shards
     * (primary first; non-empty, duplicate-free). homeOf() reports
     * shards[0] from then on.
     */
    void setReplicas(unsigned part, std::vector<unsigned> shards);

  private:
    void check(unsigned part) const;

    unsigned nParts;
    unsigned repl;
    /** Per-partition home override; -1 = the hash home. */
    std::vector<std::int32_t> overrides;
    /** Per-partition pinned failover order; empty = hash group. */
    std::vector<std::vector<unsigned>> replicaSets;
};

} // namespace dpu::balance

#endif // DPU_BALANCE_PARTITION_MAP_HH
