/**
 * @file
 * Routing-law property tests for the board's keyless hash policy
 * (host/router.hh) and the placement hash it shares with the
 * partition maps: purity, spread, and pinned values.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "balance/partition_map.hh"
#include "host/router.hh"

using namespace dpu;

// ----------------------------------------------------------------
// Hash policy
// ----------------------------------------------------------------

TEST(HashRouter, IsAPureFunctionOfTheRequest)
{
    auto a = host::makeHashRouter();
    auto b = host::makeHashRouter();
    for (std::uint64_t k = 0; k < 512; ++k) {
        const unsigned s = a->route("serve", k, 7);
        ASSERT_LT(s, 7u);
        // Same request, same instance, interleaved with other
        // requests: still the same shard (no hidden state).
        EXPECT_EQ(a->route("serve", k, 7), s);
        // And a fresh instance agrees: the policy has no per-
        // instance identity.
        EXPECT_EQ(b->route("serve", k, 7), s);
    }
}

TEST(HashRouter, SpreadsKeysAcrossAllShards)
{
    auto r = host::makeHashRouter();
    std::map<unsigned, unsigned> hist;
    const unsigned n = 8, keys = 4096;
    for (std::uint64_t k = 0; k < keys; ++k)
        ++hist[r->route("serve", k, n)];
    ASSERT_EQ(hist.size(), n);
    for (const auto &[shard, cnt] : hist) {
        // Crude balance bound: every shard within 2x of fair share.
        EXPECT_GT(cnt, keys / n / 2) << "shard " << shard;
        EXPECT_LT(cnt, keys / n * 2) << "shard " << shard;
    }
}

TEST(HashRouter, AppNameAndSeedBothFeedTheMix)
{
    auto r = host::makeHashRouter();
    // Not a universal law for any single pair, so probe many seeds:
    // the two apps must disagree somewhere.
    bool differ = false;
    for (std::uint64_t s = 0; s < 64 && !differ; ++s)
        differ = r->route("serve", s, 16) != r->route("other-app", s, 16);
    EXPECT_TRUE(differ);
}

// ----------------------------------------------------------------
// Shared hash
// ----------------------------------------------------------------

TEST(RouterHash, KeyAndSeedPathsAreBothStable)
{
    // placementHash is the one placement mix both paths share: the
    // board's keyless (app, seed) routing and every partition map's
    // default home. Literal values, so an accidental reformulation
    // (which would silently migrate every key in every golden)
    // shows up here first, not in a golden diff three layers up.
    struct Pin
    {
        const char *app;
        std::uint64_t seed;
        std::uint32_t hash;
    };
    const Pin pins[] = {
        {"serve", 0xdeadbeefull, 0xdcb2ce54u},
        {"serve", 0x0ull, 0x654f0e6cu},
        {"filter", 0x1000ull, 0x9a1d2540u},
        {"", 0x0ull, 0x21e9da04u},
        {"", 0x7ull, 0x2b2cd31du},
        {"svm", 0x123456789abcdefull, 0x960bea8fu},
    };
    const auto r = host::makeHashRouter();
    for (const Pin &p : pins) {
        EXPECT_EQ(balance::placementHash(p.app, p.seed), p.hash)
            << "(\"" << p.app << "\", " << p.seed << ")";
        EXPECT_EQ(r->route(p.app, p.seed, 13), p.hash % 13);
    }

    // Default partition homes, partitions 0..7.
    const balance::PartitionMap pm(8, 1);
    const std::vector<unsigned> at4{0, 2, 1, 3, 2, 0, 3, 1};
    const std::vector<unsigned> at8{4, 2, 1, 7, 6, 0, 3, 5};
    for (unsigned p = 0; p < 8; ++p) {
        EXPECT_EQ(pm.defaultHomeOf(p, 4), at4[p]) << "partition " << p;
        EXPECT_EQ(pm.defaultHomeOf(p, 8), at8[p]) << "partition " << p;
    }
}
