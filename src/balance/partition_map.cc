#include "balance/partition_map.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "util/crc32.hh"

namespace dpu::balance {

std::uint32_t
placementHash(std::string_view app, std::uint64_t key)
{
    // Every board and rack golden pins this mix: changing it
    // re-homes every key.
    std::uint32_t h = 2166136261u;
    for (char ch : app)
        h = (h ^ std::uint8_t(ch)) * 16777619u;
    h = util::crc32Key(h ^ std::uint32_t(key));
    h = util::crc32Key(h ^ std::uint32_t(key >> 32));
    return h;
}

PartitionMap::PartitionMap(unsigned n_partitions, unsigned replication)
    : nParts(n_partitions), repl(replication),
      overrides(n_partitions, -1), replicaSets(n_partitions)
{
    sim_assert(n_partitions >= 1,
               "partition map: needs at least one partition");
    sim_assert(replication >= 1,
               "partition map: replication must be >= 1");
}

void
PartitionMap::check(unsigned part) const
{
    sim_assert(part < nParts,
               "partition %u outside the map (%u partitions)", part,
               nParts);
}

unsigned
PartitionMap::defaultHomeOf(unsigned part, unsigned nShards) const
{
    return placementHash("", part) % nShards;
}

unsigned
PartitionMap::homeOf(unsigned part, unsigned nShards) const
{
    check(part);
    const std::vector<unsigned> &rs = replicaSets[part];
    if (!rs.empty()) {
        sim_assert(rs[0] < nShards,
                   "partition %u replica set names shard %u of %u",
                   part, rs[0], nShards);
        return rs[0];
    }
    const std::int32_t o = overrides[part];
    if (o >= 0) {
        sim_assert(unsigned(o) < nShards,
                   "partition %u re-homed onto shard %d of %u", part,
                   o, nShards);
        return unsigned(o);
    }
    return defaultHomeOf(part, nShards);
}

void
PartitionMap::candidates(unsigned part, unsigned nShards,
                         std::vector<unsigned> &out) const
{
    check(part);
    const std::vector<unsigned> &rs = replicaSets[part];
    if (!rs.empty()) {
        // Repair pinned this partition's failover order explicitly
        // (dead boards evicted, re-replicated copies appended).
        for (unsigned s : rs) {
            sim_assert(s < nShards,
                       "partition %u replica set names shard %u of "
                       "%u",
                       part, s, nShards);
            out.push_back(s);
        }
        return;
    }
    const unsigned primary = homeOf(part, nShards);
    const unsigned g = defaultHomeOf(part, nShards);
    const unsigned r = std::min(repl, nShards);
    const std::size_t end = out.size() + r;
    out.push_back(primary);
    // Failover falls back onto the default group, so a re-homed
    // partition keeps the same replica width: the new home plus
    // the strongest prefix of its original group.
    for (unsigned i = 0; i < r && out.size() < end; ++i) {
        const unsigned c = (g + i) % nShards;
        if (c != primary)
            out.push_back(c);
    }
}

void
PartitionMap::reassign(unsigned part, unsigned shard)
{
    check(part);
    overrides[part] = std::int32_t(shard);
    // A pinned replica set stays authoritative for candidates():
    // re-homing promotes @p shard to its front so routing and
    // failover order agree.
    std::vector<unsigned> &rs = replicaSets[part];
    if (!rs.empty()) {
        const auto it = std::find(rs.begin(), rs.end(), shard);
        if (it != rs.end())
            rs.erase(it);
        rs.insert(rs.begin(), shard);
    }
}

unsigned
PartitionMap::reassignedCount() const
{
    return unsigned(std::count_if(overrides.begin(), overrides.end(),
                                  [](std::int32_t o) { return o >= 0; }));
}

void
PartitionMap::setReplicas(unsigned part, std::vector<unsigned> shards)
{
    check(part);
    sim_assert(!shards.empty(),
               "partition %u: an explicit replica set needs at least "
               "one shard",
               part);
    for (std::size_t i = 0; i < shards.size(); ++i)
        for (std::size_t j = i + 1; j < shards.size(); ++j)
            sim_assert(shards[i] != shards[j],
                       "partition %u: shard %u listed twice in its "
                       "replica set",
                       part, shards[i]);
    replicaSets[part] = std::move(shards);
}

} // namespace dpu::balance
