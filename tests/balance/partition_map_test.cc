/**
 * @file
 * Placement laws of balance::PartitionMap, the partition -> home
 * table both balancing tiers route and commit through: replica-group
 * membership as a pure function of the partition, the default map's
 * group shape, single-partition re-homing, and the pinned-replica-set
 * branch the rack's repair controller drives.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "balance/partition_map.hh"

using namespace dpu;
using balance::PartitionMap;

namespace {

std::vector<unsigned>
candidatesOf(const PartitionMap &pm, unsigned part, unsigned n)
{
    std::vector<unsigned> out;
    pm.candidates(part, n, out);
    return out;
}

} // namespace

TEST(PartitionMap, MembershipIsAPureFunctionOfTheKey)
{
    // The group a partition lands in depends only on (partition,
    // nShards) — replication only widens the candidate list. This is
    // what lets a rack raise replication without migrating data.
    const unsigned parts = 512, n = 8;
    const PartitionMap r1(parts, 1), r2(parts, 2), r3(parts, 3);
    for (unsigned p = 0; p < parts; ++p) {
        const unsigned primary = r1.homeOf(p, n);
        EXPECT_EQ(r2.homeOf(p, n), primary);
        EXPECT_EQ(r3.homeOf(p, n), primary);

        const auto c1 = candidatesOf(r1, p, n);
        const auto c2 = candidatesOf(r2, p, n);
        const auto c3 = candidatesOf(r3, p, n);
        ASSERT_EQ(c1.size(), 1u);
        ASSERT_EQ(c2.size(), 2u);
        ASSERT_EQ(c3.size(), 3u);
        // Wider replication extends, never reorders: c2 and c3
        // share c1 as a prefix.
        EXPECT_EQ(c2[0], c1[0]);
        EXPECT_EQ(c3[0], c1[0]);
        EXPECT_EQ(c3[1], c2[1]);
        // Candidates are distinct shards.
        std::set<unsigned> uniq(c3.begin(), c3.end());
        EXPECT_EQ(uniq.size(), c3.size()) << "partition " << p;
    }
}

TEST(PartitionMap, GroupsWrapAndClampToTheShardCount)
{
    const PartitionMap pm(8, 4);
    // replication 4 over 2 shards: candidate list clamps to 2.
    const auto c = candidatesOf(pm, 3, 2);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_NE(c[0], c[1]);
    // And over 3 shards the group wraps modulo nShards.
    const auto w = candidatesOf(pm, 3, 3);
    ASSERT_EQ(w.size(), 3u);
    for (unsigned i = 1; i < w.size(); ++i)
        EXPECT_EQ(w[i], (w[0] + i) % 3);
}

TEST(PartitionMap, DefaultMapMatchesReplicaGroupRouting)
{
    // A map with no reassignments routes each partition to the
    // replica group of consecutive shards from its hash home — this
    // is what keeps static racks on their golden snapshots.
    const unsigned parts = 64, repl = 2;
    const PartitionMap pm(parts, repl);
    for (unsigned n : {4u, 8u}) {
        for (unsigned p = 0; p < parts; ++p) {
            std::vector<unsigned> group;
            for (unsigned i = 0; i < repl; ++i)
                group.push_back(
                    (balance::placementHash("", p) + i) % n);
            EXPECT_EQ(pm.homeOf(p, n), group[0]);
            EXPECT_EQ(pm.homeOf(p, n), pm.defaultHomeOf(p, n));
            EXPECT_EQ(candidatesOf(pm, p, n), group)
                << "partition " << p << ", " << n << " shards";
        }
    }
    EXPECT_EQ(pm.reassignedCount(), 0u);
}

TEST(PartitionMap, ReassignRehomesOnePartitionOnly)
{
    const unsigned parts = 16, n = 4;
    PartitionMap pm(parts, 2);
    const unsigned victim = 5;
    const unsigned oldHome = pm.homeOf(victim, n);
    const unsigned newHome = (oldHome + 2) % n;
    pm.reassign(victim, newHome);

    EXPECT_EQ(pm.reassignedCount(), 1u);
    EXPECT_EQ(pm.homeOf(victim, n), newHome);
    // The hash home is remembered underneath the override.
    EXPECT_EQ(pm.defaultHomeOf(victim, n), oldHome);
    // Every other partition still routes by hash.
    for (unsigned p = 0; p < parts; ++p) {
        if (p == victim)
            continue;
        EXPECT_EQ(pm.homeOf(p, n), pm.defaultHomeOf(p, n));
    }
    // Failover order after the move: the new home leads, and the
    // candidate list keeps its width and stays duplicate-free.
    const auto c = candidatesOf(pm, victim, n);
    ASSERT_EQ(c.size(), 2u);
    EXPECT_EQ(c[0], newHome);
    EXPECT_NE(c[1], c[0]);
}

TEST(PartitionMap, ReassignPromotesTheNewHomeInAPinnedReplicaSet)
{
    const unsigned n = 6;
    PartitionMap pm(4, 3);
    const unsigned part = 2;
    pm.setReplicas(part, {4, 1, 5});
    EXPECT_EQ(pm.homeOf(part, n), 4u);
    EXPECT_EQ(candidatesOf(pm, part, n),
              (std::vector<unsigned>{4, 1, 5}));

    // Re-homing onto a member moves it to the front; the set keeps
    // its width and names no shard twice.
    pm.reassign(part, 5);
    EXPECT_EQ(pm.homeOf(part, n), 5u);
    const auto c = candidatesOf(pm, part, n);
    EXPECT_EQ(c, (std::vector<unsigned>{5, 4, 1}));
    EXPECT_EQ(std::set<unsigned>(c.begin(), c.end()).size(), c.size());

    // Only the pinned partition moved.
    EXPECT_EQ(pm.reassignedCount(), 1u);
    for (unsigned p = 0; p < 4; ++p) {
        if (p == part)
            continue;
        EXPECT_EQ(pm.homeOf(p, n), pm.defaultHomeOf(p, n));
    }
}
