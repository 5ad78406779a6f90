/**
 * @file
 * Balancer tests: LoadTracker windowing, the planMigrations
 * planning laws (hot detection, strict improvement, tie-breaks,
 * frozen partitions), and the RackScheduler's drain-then-switch
 * protocol end to end — the forwarding epoch, abort-on-drop with a
 * later-window retry, a board outage overlapping an active
 * migration with full request accounting, and a 10-run determinism
 * wall across --threads {1, 2, 4} while migrations are live.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "balance/planner.hh"
#include "host/offload.hh"
#include "rack/rack.hh"
#include "rack/scheduler.hh"
#include "rack/trace.hh"
#include "rack/workload.hh"
#include "sim/fault.hh"
#include "sim/stats_registry.hh"
#include "topo/topology.hh"

using namespace dpu;

namespace {

constexpr sim::Tick kUs = 1'000'000;
constexpr sim::Tick kMs = 1'000'000'000;

/**
 * Keys with pairwise-distinct partitions all homed on one board —
 * the adversarial skew shape: a hot step onto these keys piles
 * whole partitions onto a single board. Pure function of the
 * placement constants (rack::keyPartition / rack::partitionHome).
 */
std::vector<std::uint64_t>
coHomedKeys(unsigned want, unsigned parts, unsigned boards,
            unsigned *hot_out = nullptr)
{
    const unsigned hot =
        rack::partitionHome(rack::keyPartition(0, parts), boards);
    std::vector<std::uint64_t> keys;
    std::set<unsigned> seen;
    for (std::uint64_t k = 0; k < 65536 && keys.size() < want;
         ++k) {
        const unsigned p = rack::keyPartition(k, parts);
        if (rack::partitionHome(p, boards) != hot || seen.count(p))
            continue;
        seen.insert(p);
        keys.push_back(k);
    }
    if (hot_out)
        *hot_out = hot;
    return keys;
}

rack::RackRequest
keyedRequest(sim::Tick at, std::uint64_t key, std::uint64_t seed)
{
    return rack::makeRequest({at, key, 0, seed},
                             rack::servingMix());
}

/** A 4-board rack with one DPU per board (protocol tests only —
 *  the boards never run). */
std::unique_ptr<rack::Rack>
smallRack()
{
    soc::SocParams sp = soc::dpu40nm();
    sp.ddrBytes = std::size_t(16) << 20;
    return topo::ClusterTopology::rack(4, 1).chip(sp).buildRack();
}

/** Balancer knobs the protocol tests share: 1 ms windows, raw
 *  window counts (alpha 1), a twitchy hot threshold. */
rack::PlacementParams
balancedPlace()
{
    rack::PlacementParams place;
    place.balance.window = kMs;
    place.balance.ewmaAlpha = 1.0;
    place.balance.hotFactor = 1.1;
    place.balance.minPartitionLoad = 2.0;
    return place;
}

/**
 * The balanced end-to-end scenario: a 4 x 1 rack under a skew-step
 * trace (90% of post-step traffic onto three partitions co-homed
 * on one board) with the balancer live. Returns the full stats
 * snapshot; optionally the rack summary and drain flag.
 */
sim::StatsSnapshot
runBalancedScenario(unsigned threads, const char *faults = nullptr,
                    rack::RackSummary *sum_out = nullptr,
                    bool *finished_out = nullptr)
{
    sim::faultPlane().reset();
    if (faults)
        sim::faultPlane().configure(faults, 42);

    soc::SocParams sp = soc::dpu40nm();
    sp.ddrBytes = std::size_t(64) << 20;

    rack::PlacementParams place;
    place.balance.window = 500 * kUs;
    place.balance.ewmaAlpha = 0.7;
    place.balance.hotFactor = 1.1;
    place.balance.maxMigrationsPerWindow = 2;
    place.balance.minPartitionLoad = 2.0;

    auto r = topo::ClusterTopology::rack(4, 1)
                 .chip(sp)
                 .threads(threads)
                 .placement(place)
                 .buildRack();
    rack::RackScheduler sched(*r, host::OffloadParams{}, place);

    rack::TraceConfig tc;
    tc.ratePerSec = 30000;
    tc.durationSec = 0.004;
    tc.diurnalPeriodSec = 0.004;
    tc.nApps = unsigned(rack::servingMix().size());
    tc.seed = 33;
    tc.hotStepAtSec = 0.001;
    tc.hotStepFraction = 0.9;
    tc.hotStepKeys = coHomedKeys(3, place.keyPartitions, 4);

    const std::vector<rack::TraceEvent> trace =
        rack::generateTrace(tc);
    const std::vector<rack::MixApp> mix = rack::servingMix();
    for (const rack::TraceEvent &ev : trace)
        sched.enqueueAt(ev.at, rack::makeRequest(ev, mix));
    sched.start();
    r->run();

    if (finished_out)
        *finished_out = r->allFinished();
    // Every migration the ledger started is accounted for.
    const balance::MigrationLedger &led = sched.migrations();
    for (balance::Purpose p :
         {balance::Purpose::Move, balance::Purpose::Repair}) {
        const auto &c = led.counters(p);
        EXPECT_EQ(c.started,
                  c.committed + c.aborted + led.inFlight(p));
    }
    const rack::RackSummary sum = sched.summary();
    if (sum_out)
        *sum_out = sum;
    sim::faultPlane().reset();
    if (sum.serving.validationFailed != 0)
        return {};
    sim::StatsSnapshot snap =
        sim::StatsRegistry::instance().snapshot();
    snap.counters["sim.finalTick"] = r->now();
    return snap;
}

} // namespace

// ----------------------------------------------------------------
// LoadTracker
// ----------------------------------------------------------------

TEST(LoadTracker, WindowCountsFoldIntoAPrimedEwma)
{
    balance::LoadTracker t(3);
    t.record(0);
    t.record(0);
    t.record(1);
    EXPECT_EQ(t.windowLoad(0), 2u);
    EXPECT_EQ(t.windowLoad(1), 1u);
    EXPECT_DOUBLE_EQ(t.load(0), 0.0); // nothing rolled yet

    // The first roll primes each EWMA with its raw window count,
    // whatever alpha says — otherwise every rack would boot with a
    // (1 - alpha) bias toward zero load.
    t.roll(0.5);
    EXPECT_DOUBLE_EQ(t.load(0), 2.0);
    EXPECT_DOUBLE_EQ(t.load(1), 1.0);
    EXPECT_DOUBLE_EQ(t.load(2), 0.0);
    EXPECT_EQ(t.windowLoad(0), 0u); // window reset

    for (int i = 0; i < 4; ++i)
        t.record(0);
    t.roll(0.5);
    EXPECT_DOUBLE_EQ(t.load(0), 0.5 * 4 + 0.5 * 2);
    EXPECT_DOUBLE_EQ(t.load(1), 0.5); // decays toward silence
    EXPECT_EQ(t.totalLoad(0), 6u);    // lifetime, not windowed
    EXPECT_EQ(t.rollsDone(), 2u);
}

// ----------------------------------------------------------------
// planMigrations laws
// ----------------------------------------------------------------

TEST(MigrationPlan, MovesTheHeaviestEligiblePartitionToTheColdest)
{
    // Partitions 0..3 all live on board 0; the rest of the rack is
    // idle. Partition 3 sits below minPartitionLoad (default 4).
    std::vector<double> loads = {10, 30, 20, 1};
    std::vector<unsigned> home = {0, 0, 0, 0};
    balance::Policy p;
    p.window = 1;
    const auto plan = balance::planMigrations(loads, home, 4, p);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].partition, 1u); // heaviest eligible
    EXPECT_EQ(plan[0].from, 0u);
    EXPECT_EQ(plan[0].to, 1u); // coldest; ties break low index
    EXPECT_DOUBLE_EQ(plan[0].load, 30.0);
    EXPECT_EQ(home[1], 1u); // the plan applies in place
}

TEST(MigrationPlan, BudgetAndStrictImprovementBoundThePlan)
{
    std::vector<double> loads = {10, 30, 20, 1};
    std::vector<unsigned> home = {0, 0, 0, 0};
    balance::Policy p;
    p.window = 1;
    p.maxMigrationsPerWindow = 3;
    const auto plan = balance::planMigrations(loads, home, 4, p);
    // Two moves drain board 0 to {10, 1}; a third would have to
    // move 30 off board 1 onto an empty board, which is not a
    // strict improvement (30 -> 30), so the plan stops at two even
    // with budget left.
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0].partition, 1u);
    EXPECT_EQ(plan[0].to, 1u);
    EXPECT_EQ(plan[1].partition, 2u);
    EXPECT_EQ(plan[1].to, 2u);
    EXPECT_EQ(home[0], 0u);
    EXPECT_EQ(home[3], 0u);
}

TEST(MigrationPlan, ASingleMegaPartitionNeverOscillates)
{
    // One partition carries everything: moving it just relocates
    // the hot spot, so the strict-improvement guard keeps it put.
    std::vector<double> loads = {100};
    std::vector<unsigned> home = {0};
    balance::Policy p;
    p.window = 1;
    p.maxMigrationsPerWindow = 4;
    EXPECT_TRUE(balance::planMigrations(loads, home, 4, p).empty());
    EXPECT_EQ(home[0], 0u);
}

TEST(MigrationPlan, FrozenAndFeatherweightPartitionsStayPut)
{
    std::vector<double> loads = {30, 3};
    std::vector<unsigned> home = {0, 0};
    balance::Policy p;
    p.window = 1;
    std::vector<bool> frozen = {true, false};
    // Partition 0 is mid-migration (frozen) and partition 1 sits
    // below minPartitionLoad: a hot board with nothing movable.
    EXPECT_TRUE(
        balance::planMigrations(loads, home, 2, p, frozen).empty());
    frozen[0] = false;
    const auto plan =
        balance::planMigrations(loads, home, 2, p, frozen);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].partition, 0u);
    EXPECT_EQ(plan[0].to, 1u);
}

TEST(MigrationPlan, NeedsAtLeastTwoBoardsAndRealLoad)
{
    std::vector<double> loads = {50};
    std::vector<unsigned> home = {0};
    balance::Policy p;
    p.window = 1;
    EXPECT_TRUE(balance::planMigrations(loads, home, 1, p).empty());
    // And a silent rack plans nothing (mean load 0).
    std::vector<double> idle = {0, 0};
    std::vector<unsigned> home2 = {0, 1};
    EXPECT_TRUE(balance::planMigrations(idle, home2, 2, p).empty());
}

// ----------------------------------------------------------------
// The drain-then-switch protocol at the scheduler
// ----------------------------------------------------------------

TEST(RackBalance, MigrationDrainsAtTheSourceThenSwitches)
{
    sim::faultPlane().reset();
    const auto r = smallRack();
    const rack::PlacementParams place = balancedPlace();
    rack::RackScheduler sched(*r, {}, place);

    unsigned hot = 0;
    const auto keys =
        coHomedKeys(2, place.keyPartitions, r->nBoards(), &hot);
    ASSERT_EQ(keys.size(), 2u);
    const unsigned p0 = sched.partitionOf(keys[0]);
    const unsigned p1 = sched.partitionOf(keys[1]);
    ASSERT_NE(p0, p1);
    ASSERT_EQ(sched.homeOf(p0), hot);
    ASSERT_EQ(sched.homeOf(p1), hot);

    // Window 1: both partitions hammer the hot board.
    for (unsigned i = 0; i < 98; ++i) {
        const sim::Tick t = 10 * kUs + i * 10 * kUs; // .. 980 us
        unsigned board = 99;
        ASSERT_EQ(sched.enqueueAt(
                      t, keyedRequest(t, keys[i % 2], i), &board),
                  rack::AdmitResult::Admitted);
        ASSERT_EQ(board, hot);
    }
    EXPECT_EQ(sched.migrations().counters().started, 0u);

    // The first arrivals past the 1 ms boundary trigger the roll
    // and one migration; its ~80 KB transfer is still on the wire
    // (~25 us), so this is the forwarding epoch: the map must keep
    // pointing at the source and the hit on the migrating
    // partition counts as forwarded.
    sim::Tick at = kMs + 100'000; // 1.0001 ms
    unsigned b0 = 99, b1 = 99;
    ASSERT_EQ(sched.enqueueAt(at, keyedRequest(at, keys[0], 1000),
                              &b0),
              rack::AdmitResult::Admitted);
    at += 100'000;
    ASSERT_EQ(sched.enqueueAt(at, keyedRequest(at, keys[1], 1001),
                              &b1),
              rack::AdmitResult::Admitted);
    EXPECT_EQ(sched.migrations().counters().started, 1u);
    EXPECT_EQ(sched.migrations().inFlight(), 1u);
    EXPECT_EQ(sched.migrations().counters().committed, 0u);
    EXPECT_EQ(b0, hot);
    EXPECT_EQ(b1, hot);
    EXPECT_EQ(sched.homeOf(p0), hot);
    EXPECT_EQ(sched.homeOf(p1), hot);
    // Exactly one of the two arrivals hit the migrating partition.
    EXPECT_EQ(sched.migrations().forwarding().requests, 1u);

    // Past the transfer's delivery tick the map flips: exactly one
    // partition re-homed, and arrivals follow the new map.
    at = kMs + 100 * kUs; // 1.1 ms, safely past delivery
    unsigned c0 = 99, c1 = 99;
    ASSERT_EQ(sched.enqueueAt(at, keyedRequest(at, keys[0], 2000),
                              &c0),
              rack::AdmitResult::Admitted);
    ASSERT_EQ(sched.enqueueAt(at + 1000,
                              keyedRequest(at + 1000, keys[1], 2001),
                              &c1),
              rack::AdmitResult::Admitted);
    EXPECT_EQ(sched.migrations().counters().committed, 1u);
    EXPECT_EQ(sched.migrations().inFlight(), 0u);
    const unsigned h0 = sched.homeOf(p0);
    const unsigned h1 = sched.homeOf(p1);
    EXPECT_TRUE((h0 == hot) != (h1 == hot))
        << "exactly one partition should have moved";
    EXPECT_EQ(c0, h0);
    EXPECT_EQ(c1, h1);
    // The hand-off payload rode the net as Migration traffic.
    EXPECT_GT(r->net().migrationBytes(), rack::migrationBaseBytes);
    sim::faultPlane().reset();
}

TEST(RackBalance, DroppedTransferAbortsAndRetriesNextWindow)
{
    sim::faultPlane().reset();
    // The drop window brackets only the first boundary: the 1 ms
    // hand-off dies on the wire, the 2 ms retry sails through. No
    // request delivery falls inside the window.
    sim::faultPlane().configure(
        "rack.netDrop@p=1,from=900000000,to=1100000000", 42);
    const auto r = smallRack();
    const rack::PlacementParams place = balancedPlace();
    rack::RackScheduler sched(*r, {}, place);

    unsigned hot = 0;
    const auto keys =
        coHomedKeys(2, place.keyPartitions, r->nBoards(), &hot);
    ASSERT_EQ(keys.size(), 2u);
    const unsigned p0 = sched.partitionOf(keys[0]);
    const unsigned p1 = sched.partitionOf(keys[1]);

    // Window 1 load, stopping short of the drop window.
    for (unsigned i = 0; i < 88; ++i) {
        const sim::Tick t = 10 * kUs + i * 10 * kUs; // .. 880 us
        ASSERT_EQ(sched.enqueueAt(
                      t, keyedRequest(t, keys[i % 2], i), nullptr),
                  rack::AdmitResult::Admitted);
    }

    // First arrival past the boundary: the transfer (sent at the
    // 1 ms boundary, inside the drop window) was lost. Fault-safe
    // abort: nothing in flight, nothing frozen, the map untouched.
    sim::Tick at = kMs + 150 * kUs; // 1.15 ms
    unsigned b = 99;
    ASSERT_EQ(sched.enqueueAt(at, keyedRequest(at, keys[0], 500),
                              &b),
              rack::AdmitResult::Admitted);
    EXPECT_EQ(b, hot);
    EXPECT_EQ(sched.migrations().counters().started, 1u);
    EXPECT_EQ(sched.migrations().counters().aborted, 1u);
    EXPECT_EQ(sched.migrations().inFlight(), 0u);
    EXPECT_EQ(sched.migrations().counters().committed, 0u);
    EXPECT_EQ(sched.homeOf(p0), hot);
    EXPECT_EQ(sched.homeOf(p1), hot);

    // Keep the skew alive through window 2; the 2 ms boundary
    // retries outside the fault window and that attempt commits.
    unsigned i = 0;
    for (at = kMs + 200 * kUs; at <= 2 * kMs + 200 * kUs;
         at += 20 * kUs, ++i)
        ASSERT_EQ(sched.enqueueAt(
                      at, keyedRequest(at, keys[i % 2], 600 + i),
                      nullptr),
                  rack::AdmitResult::Admitted);
    EXPECT_EQ(sched.migrations().counters().started, 2u);
    EXPECT_EQ(sched.migrations().counters().aborted, 1u);
    EXPECT_EQ(sched.migrations().counters().committed, 1u);
    EXPECT_EQ(sched.migrations().inFlight(), 0u);
    const unsigned h0 = sched.homeOf(p0);
    const unsigned h1 = sched.homeOf(p1);
    EXPECT_TRUE((h0 == hot) != (h1 == hot))
        << "the retry should have re-homed exactly one partition";

    // The window dropped the state transfer, not a delta: the lost
    // migration never opened a forwarding epoch, and the retry's
    // epoch ran after the window closed. The counter is exact, and
    // its stat stays unregistered while zero.
    const auto &fwd = sched.migrations().forwarding();
    EXPECT_GE(fwd.requests, 1u);
    EXPECT_EQ(fwd.dropped, 0u);
    EXPECT_EQ(sim::StatsRegistry::instance().snapshot().counters.count(
                  "rack.balance.deltaDropped"),
              0u);
    sim::faultPlane().reset();
}

// ----------------------------------------------------------------
// Chaos overlap + the determinism wall
// ----------------------------------------------------------------

TEST(RackBalance, BoardOutageMidMigrationKeepsFullAccounting)
{
    // Take the skew target board down across the post-step windows
    // where hand-offs are in flight: every offered request must
    // still be attributed exactly once, every admitted request
    // must reach exactly one board scheduler, and the whole
    // schedule must replay bit-identically under threads.
    unsigned hot = 0;
    coHomedKeys(1, rack::PlacementParams{}.keyPartitions, 4, &hot);
    const std::string spec =
        "rack.boardDown@p=1,unit=" + std::to_string(hot) +
        ",from=1200000000,to=2500000000";

    rack::RackSummary sum{};
    bool finished = false;
    const auto a =
        runBalancedScenario(1, spec.c_str(), &sum, &finished);
    ASSERT_FALSE(a.counters.empty())
        << "scenario failed validation under the outage";
    EXPECT_TRUE(finished);
    EXPECT_EQ(sum.offered, sum.admitted + sum.rejected +
                               sum.boardsDown + sum.netLost);
    EXPECT_EQ(sum.serving.submitted, sum.admitted)
        << "outage + migration overlap lost or duplicated jobs";
    EXPECT_GE(sum.migStarted, 1u)
        << "the balancer never reacted to the skew step";

    const auto b2 = runBalancedScenario(2, spec.c_str());
    const auto diffs = sim::diffSnapshots(a, b2);
    EXPECT_TRUE(diffs.empty())
        << diffs.size()
        << " stat(s) differ between threads 1 and 2 under the "
           "chaos schedule:\n"
        << sim::formatDiffs(diffs);
}

TEST(RackBalance, TenRunDeterminismWallWithActiveMigrations)
{
    const auto base = runBalancedScenario(1);
    ASSERT_FALSE(base.counters.empty());
    const auto it = base.counters.find("rack.balance.committed");
    ASSERT_NE(it, base.counters.end())
        << "scenario committed no migration — the wall would not "
           "exercise the balancer";
    EXPECT_GE(it->second, 1u);

    const unsigned threads[] = {2, 4, 1, 2, 4, 1, 2, 4, 1};
    for (unsigned i = 0; i < 9; ++i) {
        const auto snap = runBalancedScenario(threads[i]);
        const auto diffs = sim::diffSnapshots(base, snap);
        ASSERT_TRUE(diffs.empty())
            << "run " << i + 2 << " (--threads " << threads[i]
            << "): " << diffs.size() << " stat(s) differ:\n"
            << sim::formatDiffs(diffs);
    }
}
