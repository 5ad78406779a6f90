/**
 * @file
 * The board-tier balance test wall.
 *
 * Three layers, mirroring the module's split:
 *
 *  - planner laws: balance::planMigrations, the rack planner, run
 *    one tier down — strict improvement, freeze and
 *    min-load guards, the per-window budget, lowest-index ties, and
 *    the no-double-move invariant;
 *
 *  - drain-then-switch probes: a live skewed run must commit real
 *    migrations (forwarding-epoch deltas observed, exactly one
 *    partition-map flip per commit), land byte-identical partition images
 *    wherever a partition ends up homed, and keep the link fabric's
 *    fate-exclusive byte accounting (workload / dropped / migration
 *    sum to offered);
 *
 *  - failure + determinism walls: retransmit-exhausted migrations
 *    abort cleanly with every partition intact at its old home; a
 *    wedged DMAC mid-migration times out and poisons the engine
 *    roles without wedging the run; and ten runs across --threads
 *    {1, 2, 4} with live migrations under a seeded fault schedule
 *    are bit-identical in stats, traces, homes and memory images.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "board/balance.hh"
#include "board/board.hh"
#include "host/board_offload.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"
#include "sim/stats_registry.hh"
#include "sim/trace.hh"
#include "topo/topology.hh"

using namespace dpu;
using balance::MigrationStep;
using balance::Policy;

namespace {

struct PlaneGuard
{
    PlaneGuard() { sim::faultPlane().reset(); }
    ~PlaneGuard() { sim::faultPlane().reset(); }
};

// ----------------------------------------------------------------
// The shared balanced-board scenario
// ----------------------------------------------------------------

constexpr sim::Tick kWindow = 500'000'000;   // 0.5 ms
constexpr unsigned kDpus = 4;
constexpr unsigned kParts = 8;
constexpr std::uint64_t kStateBytes = 4096;

/** A trivial local job: lanes charge a few ALU ops and ack. No DMS
 *  and no cross-DPU traffic, so the link fabric carries ONLY the
 *  balancer's migration chunks and deltas. */
host::JobRequest
quickJob()
{
    host::JobRequest req;
    req.makeJob = [](const apps::ServingContext &) {
        apps::ServingJob job;
        job.stage = [] {};
        job.lane = [](core::DpCore &c, unsigned) { c.alu(16); };
        return job;
    };
    return req;
}

std::unique_ptr<board::Board>
balancedBoard(unsigned threads)
{
    board::BalanceParams bal;
    bal.window = kWindow;
    bal.ewmaAlpha = 0.7;
    bal.hotFactor = 1.1;
    bal.maxMigrationsPerWindow = 2;
    bal.minPartitionLoad = 2.0;
    bal.keyPartitions = kParts;
    bal.stateBytesPerPartition = kStateBytes;
    bal.stagingBufBytes = 1024; // 4 chunks per partition
    bal.migrationTimeout = 2 * kWindow;
    return topo::ClusterTopology::board(kDpus)
        .threads(threads)
        .boardBalance(bal)
        .buildBoard();
}

/** A balanced 4-DPU board with a skewed keyed offer stream: 90% of
 *  requests hammer the partitions initially homed on one DPU. */
struct Scenario
{
    std::unique_ptr<board::Board> brd;
    std::unique_ptr<host::BoardScheduler> sched;
    unsigned hotDpu = 0;
    std::vector<unsigned> hotParts;
    std::vector<unsigned> initialHome;

    explicit Scenario(unsigned threads)
    {
        brd = balancedBoard(threads);
        host::OffloadParams op;
        op.nCores = 8; // engine core 31 stays unmanaged
        op.groupSize = 4;
        sched = std::make_unique<host::BoardScheduler>(*brd, op);
        hotDpu = sched->partitions().homeOf(0, kDpus);
        for (unsigned p = 0; p < kParts; ++p) {
            initialHome.push_back(
                sched->partitions().homeOf(p, kDpus));
            if (initialHome.back() == hotDpu)
                hotParts.push_back(p);
        }
    }

    /** @p n offers, 4 us apart: 90% on the hot DPU's partitions. */
    void
    offerSkewed(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            const std::uint64_t key =
                i % 10 < 9 ? hotParts[i % hotParts.size()]
                           : i % kParts;
            sched->offer(sim::Tick(i) * 4'000'000, key, quickJob());
        }
    }

    board::BoardBalancer &bal() { return *sched->balancer(); }

    /** Every partition's state range, read from its CURRENT home,
     *  concatenated in partition order. */
    std::vector<std::uint8_t>
    images() const
    {
        std::vector<std::uint8_t> out;
        for (unsigned p = 0; p < kParts; ++p) {
            const auto img = sched->balancer()->stateImage(p);
            out.insert(out.end(), img.begin(), img.end());
        }
        return out;
    }

    std::vector<unsigned>
    homes() const
    {
        std::vector<unsigned> h;
        for (unsigned p = 0; p < kParts; ++p)
            h.push_back(sched->partitions().homeOf(p, kDpus));
        return h;
    }
};

/** EXPECTs that every partition's image matches its seed pattern
 *  byte for byte, wherever the partition is homed now. */
void
expectImagesIntact(Scenario &s)
{
    for (unsigned part = 0; part < kParts; ++part) {
        const auto img = s.bal().stateImage(part);
        ASSERT_EQ(img.size(), kStateBytes);
        for (std::uint64_t i = 0; i < kStateBytes; ++i)
            ASSERT_EQ(img[i],
                      board::BoardBalancer::statePattern(part, i))
                << "partition " << part << " byte " << i
                << " corrupted (home "
                << s.sched->partitions().homeOf(part, kDpus) << ")";
    }
}

/** EXPECTs the fabric's fate-exclusive byte classes sum to the
 *  offered total and every planned migration retired. */
void
expectInvariants(Scenario &s)
{
    board::LinkFabric &f = s.brd->fabric();
    EXPECT_EQ(f.offeredBytes(), f.bytesCarried() +
                                    f.droppedBytes() +
                                    f.migrationBytes())
        << "link byte classes must partition the offered total";
    const auto &rep = s.bal().report();
    EXPECT_EQ(rep.committed + rep.aborted, rep.planned);
}

} // namespace

// ----------------------------------------------------------------
// Planner laws (pure, no board)
// ----------------------------------------------------------------

TEST(BoardPlanner, BalancedLoadPlansNothing)
{
    const std::vector<double> loads{10, 10, 10, 10};
    std::vector<unsigned> home{0, 1, 2, 3};
    const auto plan =
        balance::planMigrations(loads, home, 4, Policy{});
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(home, (std::vector<unsigned>{0, 1, 2, 3}));
}

TEST(BoardPlanner, HotNodeShedsHeaviestToColdest)
{
    // Node 0 owns three partitions and is far above the mean; the
    // heaviest movable one goes to the coldest node (ties: lowest
    // index), and the home map is updated in place.
    const std::vector<double> loads{60, 40, 20, 5};
    std::vector<unsigned> home{0, 0, 0, 1};
    const auto plan =
        balance::planMigrations(loads, home, 3, Policy{});
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].partition, 0u);
    EXPECT_EQ(plan[0].from, 0u);
    EXPECT_EQ(plan[0].to, 2u); // node 2 (load 0) colder than 1 (5)
    EXPECT_DOUBLE_EQ(plan[0].load, 60.0);
    EXPECT_EQ(home[0], 2u);
}

TEST(BoardPlanner, StrictImprovementBlocksOscillation)
{
    // Moving the only heavy partition would just relocate the hot
    // spot (dest + load >= src), so the planner must refuse.
    const std::vector<double> loads{50, 1};
    std::vector<unsigned> home{0, 1};
    Policy p;
    p.hotFactor = 1.1;
    p.minPartitionLoad = 1.0;
    const auto plan = balance::planMigrations(loads, home, 2, p);
    EXPECT_TRUE(plan.empty());
}

TEST(BoardPlanner, FrozenAndLightPartitionsNeverMove)
{
    const std::vector<double> loads{60, 3, 40};
    std::vector<unsigned> home{0, 0, 0};
    Policy p;
    p.minPartitionLoad = 4.0;
    // Partition 0 (heaviest) is mid-migration: frozen. Partition 1
    // is below minPartitionLoad. Only partition 2 may move.
    const std::vector<bool> frozen{true, false, false};
    const auto plan =
        balance::planMigrations(loads, home, 2, p, frozen);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].partition, 2u);
}

TEST(BoardPlanner, BudgetBoundsThePlanAndNoPartitionMovesTwice)
{
    const std::vector<double> loads{30, 28, 26, 24, 1, 1};
    std::vector<unsigned> home{0, 0, 0, 0, 1, 2};
    Policy p;
    p.hotFactor = 1.0;
    p.maxMigrationsPerWindow = 3;
    p.minPartitionLoad = 1.0;
    const auto plan = balance::planMigrations(loads, home, 4, p);
    EXPECT_LE(plan.size(), 3u);
    ASSERT_GE(plan.size(), 2u);
    std::vector<bool> seen(loads.size(), false);
    for (const MigrationStep &s : plan) {
        EXPECT_FALSE(seen[s.partition])
            << "partition " << s.partition << " planned twice";
        seen[s.partition] = true;
    }
}

// ----------------------------------------------------------------
// Drain-then-switch: live migrations commit, bytes survive
// ----------------------------------------------------------------

TEST(BoardBalance, SkewedRunCommitsMigrationsOffTheHotDpu)
{
    PlaneGuard g;
    Scenario s(2);
    ASSERT_GE(s.hotParts.size(), 1u);
    s.offerSkewed(240);
    s.sched->run();

    const auto &rep = s.bal().report();
    EXPECT_GE(rep.planned, 1u);
    EXPECT_GE(rep.committed, 1u);
    EXPECT_EQ(rep.aborted, 0u) << "no faults, nothing may abort";

    // At least one of the hot DPU's partitions found a new home,
    // and each commit flipped the map (drain-then-switch: the flip
    // count is visible as reassigned partitions).
    unsigned moved = 0;
    for (unsigned p : s.hotParts)
        if (s.sched->partitions().homeOf(p, kDpus) != s.hotDpu)
            ++moved;
    EXPECT_GE(moved, 1u);
    EXPECT_GE(s.sched->partitions().reassignedCount(), 1u);
    EXPECT_LE(s.sched->partitions().reassignedCount(),
              unsigned(rep.committed));

    // Forwarding epoch observed: requests kept arriving for the
    // partition while it was in flight, each shipping a delta.
    EXPECT_GE(rep.forwarded, 1u);
    EXPECT_GE(rep.deltaBytes, rep.forwarded * 256);

    // The migrated images are byte-identical to the seed pattern,
    // and the migration traffic rode its own accounting class.
    expectImagesIntact(s);
    expectInvariants(s);
    EXPECT_GE(s.brd->fabric().migrationBytes(), rep.stateBytes);
    EXPECT_GE(s.brd->fabric().migrationMessages(),
              rep.committed * (kStateBytes / 1024));

    // The workload itself was untouched by the re-sharding.
    const auto sum = s.sched->summary();
    EXPECT_EQ(sum.completed, 240u);
    EXPECT_EQ(sum.timedOut, 0u);
}

TEST(BoardBalance, StaticWindowZeroBoardMovesNothing)
{
    PlaneGuard g;
    // balance.window stays 0: static placement.
    const auto b = topo::ClusterTopology::board(kDpus).threads(2).buildBoard();
    host::OffloadParams op;
    op.nCores = 8;
    op.groupSize = 4;
    host::BoardScheduler sched(*b, op);
    EXPECT_FALSE(sched.balanced());
    for (unsigned i = 0; i < 64; ++i)
        sched.offer(sim::Tick(i) * 4'000'000, i % 7, quickJob());
    sched.run();
    EXPECT_EQ(sched.partitions().reassignedCount(), 0u);
    EXPECT_EQ(b->fabric().migrationBytes(), 0u);
    EXPECT_EQ(b->fabric().migrationMessages(), 0u);
    EXPECT_EQ(sched.summary().completed, 64u);
}

// ----------------------------------------------------------------
// Failure walls
// ----------------------------------------------------------------

TEST(BoardBalance, ExhaustedRetransmitsAbortCleanlyAndKeepHomes)
{
    PlaneGuard g;
    // Every fabric message drops: each migration chunk burns its
    // full retransmit budget, fails at the source, and the
    // migration aborts once its engines drain. Homes never flip.
    sim::faultPlane().configure("link.drop@p=1", 7);
    Scenario s(2);
    s.offerSkewed(240);
    s.sched->run();

    const auto &rep = s.bal().report();
    EXPECT_EQ(rep.committed, 0u);
    EXPECT_GE(rep.aborted, 1u);
    EXPECT_EQ(rep.timeoutAborts, 0u)
        << "a drained failure must abort cleanly, not time out";
    // The first chunk alone retries 1 + bulkRetries times.
    EXPECT_GE(rep.chunkRetries, std::uint64_t(1 + board::bulkRetries));
    EXPECT_EQ(s.homes(), s.initialHome);
    EXPECT_EQ(s.sched->partitions().reassignedCount(), 0u);

    // Forwarding-epoch deltas were all lost on the wire — counted,
    // never retried (best effort, like PR-8).
    EXPECT_EQ(rep.deltaDropped, rep.forwarded);

    // Nothing landed: the migration byte class carries only
    // DELIVERED migration traffic; drops burn the dropped class.
    EXPECT_EQ(s.brd->fabric().migrationBytes(), 0u);
    EXPECT_GT(s.brd->fabric().droppedBytes(), 0u);
    expectImagesIntact(s);
    expectInvariants(s);
    EXPECT_EQ(s.sched->summary().completed, 240u);
}

TEST(BoardBalance, WedgedDmacTimesOutPoisonsRolesAndRunFinishes)
{
    PlaneGuard g;
    // The first staging descriptor wedges its DMAC: the chunk never
    // completes, the migration cannot drain, and only the timeout
    // bound at a window boundary can retire it. ate.drop is armed
    // too (the chaos slice's second site); this workload gives it
    // nothing to bite, which is the point — it must stay inert.
    sim::faultPlane().configure(
        "dms.wedge@nth=1,max=1;ate.drop@p=0.05", 13);
    Scenario s(2);
    s.offerSkewed(240);
    s.sched->run();

    const auto &rep = s.bal().report();
    EXPECT_GE(rep.timeoutAborts, 1u);
    // The wedge budget is per fault domain (per DPU), so every
    // source DPU that attempted a hand-off lost its engine DMAC.
    unsigned poisoned = 0;
    for (unsigned d = 0; d < kDpus; ++d)
        poisoned += s.bal().srcPoisoned(d) ? 1 : 0;
    EXPECT_GE(poisoned, 1u) << "a wedged source role must poison";
    EXPECT_EQ(std::uint64_t(poisoned), rep.timeoutAborts);

    // The wedged partition stayed home with its bytes intact, and
    // the run terminated (we are here) despite the hung engine.
    expectImagesIntact(s);
    expectInvariants(s);
    EXPECT_EQ(s.sched->summary().completed, 240u);
    EXPECT_GE(sim::faultPlane().injected(sim::FaultSite::DmsWedge),
              1u);
}

// ----------------------------------------------------------------
// Determinism wall: migrations live, thread count invisible
// ----------------------------------------------------------------

namespace {

struct BalancedRunResult
{
    sim::StatsSnapshot snap;
    std::string trace;
    std::vector<std::uint8_t> images;
    std::vector<unsigned> homes;
};

BalancedRunResult
runBalancedScenario(unsigned threads, const char *faults,
                    std::uint64_t fault_seed)
{
    sim::faultPlane().reset();
    if (faults)
        sim::faultPlane().configure(faults, fault_seed);
    sim::tracer().arm(std::size_t(1) << 14);

    BalancedRunResult out;
    {
        Scenario s(threads);
        s.offerSkewed(160);
        s.sched->run();
        const balance::MigrationLedger &led = s.bal().ledger();
        const auto &c = led.counters();
        EXPECT_EQ(c.started, c.committed + c.aborted + led.inFlight());
        out.images = s.images();
        out.homes = s.homes();
        out.snap = sim::StatsRegistry::instance().snapshot();
        out.snap.counters["sim.finalTick"] = s.brd->now();
    }
    std::ostringstream os;
    sim::tracer().exportJson(os);
    out.trace = os.str();

    sim::tracer().disarm();
    sim::tracer().clear();
    sim::faultPlane().reset();
    return out;
}

} // namespace

TEST(BoardBalance, TenMigratingRunsAcrossThreadCountsBitIdentical)
{
    // Live migrations under a seeded link-fault schedule (drops
    // exercise the retransmit path mid-run), ten runs across
    // --threads {1, 2, 4}: stats, traces, homes and every DDR
    // partition image must match the serial reference bit for bit.
    const char *spec = "link.drop@p=0.05;link.delay@p=0.05";
    const unsigned plan[10] = {1, 1, 2, 2, 2, 2, 4, 4, 4, 4};

    BalancedRunResult ref;
    for (unsigned i = 0; i < 10; ++i) {
        BalancedRunResult r = runBalancedScenario(plan[i], spec, 42);
        ASSERT_FALSE(r.snap.counters.empty());
        if (i == 0) {
            ref = std::move(r);
            EXPECT_FALSE(ref.trace.empty());
            continue;
        }
        const auto diffs = sim::diffSnapshots(ref.snap, r.snap);
        EXPECT_TRUE(diffs.empty())
            << "run " << i << " (threads=" << plan[i] << "): "
            << diffs.size() << " stat(s) diverged from serial:\n"
            << sim::formatDiffs(diffs);
        EXPECT_EQ(r.trace, ref.trace)
            << "run " << i << " (threads=" << plan[i]
            << "): trace digest diverged";
        EXPECT_EQ(r.homes, ref.homes)
            << "run " << i << ": partition homes diverged";
        EXPECT_EQ(r.images, ref.images)
            << "run " << i << ": DDR partition images diverged";
    }
}

// ----------------------------------------------------------------
// Topology validation + misuse
// ----------------------------------------------------------------

TEST(BoardBalance, TopologyValidatesBalancerKnobs)
{
    auto bad = [](board::BalanceParams p) {
        return topo::ClusterTopology::board(4)
            .boardBalance(p)
            .validate();
    };
    board::BalanceParams on;
    on.window = kWindow;
    EXPECT_EQ(bad(on), "");

    board::BalanceParams alpha = on;
    alpha.ewmaAlpha = 0;
    EXPECT_NE(bad(alpha).find("ewmaAlpha"), std::string::npos);

    board::BalanceParams hot = on;
    hot.hotFactor = 0.5;
    EXPECT_NE(bad(hot).find("hotFactor"), std::string::npos);

    board::BalanceParams buf = on;
    buf.stagingBufBytes = 4096;
    EXPECT_NE(bad(buf).find("stagingBufBytes"), std::string::npos);

    board::BalanceParams ragged = on;
    ragged.stateBytesPerPartition = 100; // not a multiple of 8
    EXPECT_NE(bad(ragged).find("stateBytesPerPartition"),
              std::string::npos);

    // window = 0 disables the balancer AND its validation.
    board::BalanceParams off = alpha;
    off.window = 0;
    EXPECT_EQ(bad(off), "");
}

TEST(BoardBalanceDeathTest, EngineCoreManagedBySchedulerDies)
{
    PlaneGuard g;
    const auto b = balancedBoard(1);
    host::OffloadParams op;
    op.nCores = 32; // claims every core, including the engine's
    EXPECT_DEATH(host::BoardScheduler(*b, op), "engine core");
}
