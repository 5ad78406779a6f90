/**
 * @file
 * Board-layer tests: link fabric timing and fault semantics, bulk
 * DMA between DPU DDR spaces, the cross-DPU workloads, shard
 * routing, and the multi-DPU determinism + golden contract — a
 * fixed 2-DPU sharded workload must produce bit-identical stats
 * across reruns (clean and under a seeded link-fault schedule) and
 * match the checked-in snapshot in tests/golden/board.json.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "board/board.hh"
#include "board/board_apps.hh"
#include "host/board_offload.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"
#include "sim/stats_registry.hh"
#include "topo/topology.hh"

using namespace dpu;

#ifndef DPU_GOLDEN_DIR
#error "build must define DPU_GOLDEN_DIR"
#endif

namespace {

/**
 * The canonical board scenario: 2 DPUs, the sharded SQL workload
 * at a fixed seed. Returns the full stats snapshot (plus the end
 * tick); empty on any validation failure.
 */
sim::StatsSnapshot
runBoardScenario(const char *faults = nullptr,
                 std::uint64_t fault_seed = 42)
{
    sim::faultPlane().reset();
    if (faults)
        sim::faultPlane().configure(faults, fault_seed);

    const auto b = topo::ClusterTopology::board(2).buildBoard();
    board::ShardedSqlConfig cfg;
    cfg.rowsPerDpu = 4096;
    const board::ShardedSqlResult res = board::runShardedSql(*b, cfg);
    sim::faultPlane().reset();
    if (!res.valid)
        return {};
    sim::StatsSnapshot snap =
        sim::StatsRegistry::instance().snapshot();
    snap.counters["sim.finalTick"] = b->now();
    return snap;
}

bool
regenRequested()
{
    const char *v = std::getenv("DPU_REGEN_GOLDEN");
    return v && *v && std::string(v) != "0";
}

} // namespace

// ----------------------------------------------------------------
// Link fabric
// ----------------------------------------------------------------

TEST(LinkFabric, RpcDeliveryAndChannelSerialization)
{
    sim::faultPlane().reset();
    const auto b = topo::ClusterTopology::board(2).buildBoard();

    struct Arrival
    {
        unsigned src;
        std::uint64_t payload;
        sim::Tick at;
    };
    std::vector<Arrival> got;
    b->fabric().onRpc(1, [&](unsigned src, std::uint64_t payload) {
        got.push_back({src, payload, b->now()});
    });
    b->fabric().sendRpc(0, 1, 0xabcdull);
    b->fabric().sendRpc(0, 1, 0xef01ull);
    b->run();

    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].src, 0u);
    EXPECT_EQ(got[0].payload, 0xabcdull);
    EXPECT_EQ(got[1].payload, 0xef01ull);
    // Both burned at least the hop latency...
    EXPECT_GE(got[0].at, board::linkTiming.hopLatency);
    // ...and the shared (0,1) channel serialized them: the second
    // message's wire time starts after the first finishes.
    EXPECT_GT(got[1].at, got[0].at);
    EXPECT_EQ(b->fabric().messages(), 2u);
    EXPECT_GT(b->fabric().utilization(0, 1), 0.0);
    EXPECT_EQ(b->fabric().utilization(1, 0), 0.0);
}

TEST(LinkFabric, BulkDmaCopiesBetweenDdrSpaces)
{
    sim::faultPlane().reset();
    const auto b = topo::ClusterTopology::board(2).buildBoard();

    std::vector<std::uint8_t> pattern(4096);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = std::uint8_t(i * 7 + 3);
    b->dpu(0).memory().store().write(0x2000, pattern.data(),
                                     pattern.size());

    bool ok = false;
    b->dma(0, 0x2000, 1, 0x9000, pattern.size(),
           [&](bool k) { ok = k; });
    b->run();

    EXPECT_TRUE(ok);
    std::vector<std::uint8_t> got(pattern.size());
    b->dpu(1).memory().store().read(0x9000, got.data(), got.size());
    EXPECT_EQ(got, pattern);
    EXPECT_GE(b->fabric().bytesCarried(), pattern.size());
}

TEST(LinkFabric, DroppedBulkIsRetriedTransparently)
{
    sim::faultPlane().reset();
    // Exactly the first link message is lost; the Board's bounded
    // retransmit must deliver on the second attempt.
    sim::faultPlane().configure("link.drop@nth=1,max=1", 7);
    const auto b = topo::ClusterTopology::board(2).buildBoard();

    std::vector<std::uint8_t> pattern(512, 0x5a);
    b->dpu(0).memory().store().write(0x2000, pattern.data(),
                                     pattern.size());
    bool ok = false;
    b->dma(0, 0x2000, 1, 0x9000, pattern.size(),
           [&](bool k) { ok = k; });
    b->run();
    sim::faultPlane().reset();

    EXPECT_TRUE(ok);
    std::vector<std::uint8_t> got(pattern.size());
    b->dpu(1).memory().store().read(0x9000, got.data(), got.size());
    EXPECT_EQ(got, pattern);
    EXPECT_EQ(b->fabric().statGroup().get("bulkRetries"), 1u);
}

TEST(LinkFabric, ExhaustedRetriesReportFailure)
{
    sim::faultPlane().reset();
    sim::faultPlane().configure("link.drop@p=1", 7);
    const auto b = topo::ClusterTopology::board(2).buildBoard();

    b->dpu(0).memory().store().store<std::uint32_t>(0x2000, 17);
    bool called = false, ok = true;
    b->dma(0, 0x2000, 1, 0x9000, 4, [&](bool k) {
        called = true;
        ok = k;
    });
    b->run();
    sim::faultPlane().reset();

    EXPECT_TRUE(called);
    EXPECT_FALSE(ok);
    EXPECT_EQ(b->fabric().statGroup().get("bulkFailed"), 1u);
}

// ----------------------------------------------------------------
// Cross-DPU workloads
// ----------------------------------------------------------------

TEST(BoardApps, ShardedSqlValidAtEveryBoardSize)
{
    for (unsigned n : {1u, 2u, 4u}) {
        sim::faultPlane().reset();
        const auto b = topo::ClusterTopology::board(n).buildBoard();
        board::ShardedSqlConfig cfg;
        cfg.rowsPerDpu = 4096;
        const auto res = board::runShardedSql(*b, cfg);
        EXPECT_TRUE(res.valid) << n << " DPUs";
        EXPECT_EQ(res.rows, std::uint64_t(4096) * n);
        EXPECT_GT(res.seconds, 0.0);
        if (n > 1) {
            EXPECT_GT(res.bytesShipped, 0u);
            EXPECT_GT(res.peakLinkUtilization, 0.0);
        } else {
            EXPECT_EQ(res.bytesShipped, 0u);
        }
    }
}

TEST(BoardApps, DistributedHllMergesExactly)
{
    sim::faultPlane().reset();
    const auto b = topo::ClusterTopology::board(2).buildBoard();
    board::DistHllConfig cfg;
    cfg.elementsPerDpu = 1 << 12;
    cfg.cardinality = 1 << 10;
    const auto res = board::runDistributedHll(*b, cfg);
    EXPECT_TRUE(res.valid);
    EXPECT_TRUE(res.sketchExact);
    EXPECT_GT(res.trueDistinct, 0u);
    EXPECT_LT(res.errorFrac, 0.15);
    // Simulated time pinned to the tick (all four phases).
    EXPECT_EQ(std::llround(res.seconds * 1e12), 16308379);
}

// ----------------------------------------------------------------
// Shard routing
// ----------------------------------------------------------------

TEST(BoardScheduler, HashRoutingIsDeterministicAndSpread)
{
    sim::faultPlane().reset();
    const auto b = topo::ClusterTopology::board(4).buildBoard();
    host::BoardScheduler sched(*b, host::OffloadParams{},
                               host::makeHashRouter());

    std::vector<unsigned> counts(4, 0);
    for (unsigned i = 0; i < 64; ++i) {
        host::JobRequest req;
        req.app = "filter";
        req.seed = 0x1000 + i;
        const unsigned d = sched.route(req);
        // Same request, same home DPU — a pure function.
        EXPECT_EQ(sched.route(req), d);
        ++counts[d];
    }
    unsigned used = 0;
    for (unsigned c : counts)
        used += c > 0;
    EXPECT_GE(used, 3u) << "hash routing collapsed onto few shards";
}

// ----------------------------------------------------------------
// Determinism + golden
// ----------------------------------------------------------------

TEST(BoardDeterminism, RerunsAreBitIdentical)
{
    const auto a = runBoardScenario();
    const auto b = runBoardScenario();
    ASSERT_FALSE(a.counters.empty());
    const auto diffs = sim::diffSnapshots(a, b);
    EXPECT_TRUE(diffs.empty())
        << diffs.size() << " stat(s) differ across reruns:\n"
        << sim::formatDiffs(diffs);
}

TEST(BoardDeterminism, FaultReplayIsBitIdentical)
{
    const char *spec = "link.drop@p=0.02;link.delay@p=0.05";
    const auto a = runBoardScenario(spec, 42);
    const auto b = runBoardScenario(spec, 42);
    ASSERT_FALSE(a.counters.empty())
        << "workload did not survive the fault schedule";
    const auto diffs = sim::diffSnapshots(a, b);
    EXPECT_TRUE(diffs.empty())
        << diffs.size()
        << " stat(s) differ across seeded fault replays:\n"
        << sim::formatDiffs(diffs);
}

TEST(BoardDeterminism, GoldenSnapshotMatches)
{
    const auto actual = runBoardScenario();
    ASSERT_FALSE(actual.counters.empty());

    const std::string path =
        std::string(DPU_GOLDEN_DIR) + "/board.json";
    if (regenRequested()) {
        std::ofstream os(path, std::ios::trunc);
        ASSERT_TRUE(os) << "cannot write " << path;
        actual.writeJson(os);
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream is(path);
    ASSERT_TRUE(is) << "missing golden file " << path
                    << " (run with DPU_REGEN_GOLDEN=1 to create)";
    std::stringstream buf;
    buf << is.rdbuf();
    sim::StatsSnapshot golden;
    std::string err;
    ASSERT_TRUE(
        sim::StatsSnapshot::readJson(buf.str(), golden, err))
        << path << ": " << err;

    const auto diffs = sim::diffSnapshots(golden, actual);
    EXPECT_TRUE(diffs.empty())
        << diffs.size() << " stat(s) drifted from " << path
        << ":\n"
        << sim::formatDiffs(diffs)
        << "(if the board model change is intentional, regenerate "
           "with DPU_REGEN_GOLDEN=1)";
}
