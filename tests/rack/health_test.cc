/**
 * @file
 * Failure-detection tests: the HealthMonitor's hysteresis state
 * machine driven by raw observations, detection latency against an
 * injected crash, false-positive immunity under network-drop
 * bursts, the Probation rejoin hysteresis after a transient
 * outage, the brown-out controller's deadline-scoped shedding, the
 * S1 admission-window growth regression, the S2 failover-vs-
 * reroute attribution split, and a chaos slice where a board crash
 * overlaps an in-flight balancer migration — plus a determinism
 * wall across --threads {1, 2, 4} with detection and repair live.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "host/offload.hh"
#include "rack/health.hh"
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

/** Keys with pairwise-distinct partitions all homed on one board
 *  (see balance_test.cc). */
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

/** Detection knobs the integration tests share: 200 us heartbeat,
 *  50 us ack timeout, 2-miss suspect / 4-miss down / 3-ack rejoin
 *  hysteresis. */
rack::HealthParams
monitoredParams()
{
    rack::HealthParams hp;
    hp.heartbeatPeriod = 200 * kUs;
    hp.ackTimeout = 50 * kUs;
    hp.suspectAfter = 2;
    hp.downAfter = 4;
    hp.rejoinAfter = 3;
    return hp;
}

/** Detection knobs for the unit tests: armed (so observations
 *  register) but with the first probe round far past the test
 *  horizon, keeping probe acks out of the miss streaks. */
rack::HealthParams
quietMonitor()
{
    rack::HealthParams hp = monitoredParams();
    hp.heartbeatPeriod = 100 * kMs;
    return hp;
}

struct MonitoredRun
{
    sim::StatsSnapshot snap;
    rack::RackSummary sum;
    std::vector<rack::HealthTransition> transitions;
    std::vector<rack::BoardHealth> finalState;
    std::uint64_t drops = 0;
    std::uint64_t misses = 0;
    bool finished = false;
};

/**
 * The monitored end-to-end scenario: a 4 x 1 rack with the failure
 * detector live, optionally under the balancer + skew-step trace
 * (the chaos overlap shape). @p inspect, when set, runs against
 * the scheduler after the rack finishes — structural assertions on
 * the replica sets go there.
 */
MonitoredRun
runMonitoredScenario(
    unsigned threads, const char *faults,
    const rack::HealthParams &hp, bool skew = false,
    const std::function<void(rack::RackScheduler &)> &inspect = {})
{
    sim::faultPlane().reset();
    if (faults)
        sim::faultPlane().configure(faults, 42);

    soc::SocParams sp = soc::dpu40nm();
    sp.ddrBytes = std::size_t(64) << 20;

    rack::PlacementParams place;
    place.health = hp;
    if (skew) {
        place.balance.window = 500 * kUs;
        place.balance.ewmaAlpha = 0.7;
        place.balance.hotFactor = 1.1;
        place.balance.maxMigrationsPerWindow = 2;
        place.balance.minPartitionLoad = 2.0;
    }
    auto r = topo::ClusterTopology::rack(4, 1)
                 .chip(sp)
                 .threads(threads)
                 .placement(place)
                 .buildRack();
    rack::RackScheduler sched(*r, host::OffloadParams{}, place);

    rack::TraceConfig tc;
    tc.ratePerSec = 25000;
    tc.durationSec = 0.006;
    tc.diurnalPeriodSec = 0.006;
    tc.nApps = unsigned(rack::servingMix().size());
    tc.seed = 33;
    if (skew) {
        tc.hotStepAtSec = 0.001;
        tc.hotStepFraction = 0.9;
        tc.hotStepKeys = coHomedKeys(3, place.keyPartitions, 4);
    }

    const std::vector<rack::TraceEvent> trace =
        rack::generateTrace(tc);
    const std::vector<rack::MixApp> mix = rack::servingMix();
    for (const rack::TraceEvent &ev : trace)
        sched.enqueueAt(ev.at, rack::makeRequest(ev, mix));
    sched.start();
    r->run();

    MonitoredRun out;
    out.finished = r->allFinished();
    out.sum = sched.summary();
    out.transitions = sched.health().transitions();
    for (unsigned b = 0; b < r->nBoards(); ++b)
        out.finalState.push_back(sched.health().state(b));
    out.drops = r->net().drops();
    out.misses = sched.health().missesSeen();
    if (inspect)
        inspect(sched);
    sim::faultPlane().reset();
    if (out.sum.serving.validationFailed == 0) {
        out.snap = sim::StatsRegistry::instance().snapshot();
        out.snap.counters["sim.finalTick"] = r->now();
    }
    return out;
}

/** The accounting identity every scenario must keep: one verdict
 *  per offered request. */
void
expectFullAttribution(const rack::RackSummary &sum)
{
    EXPECT_EQ(sum.offered, sum.admitted + sum.rejected +
                               sum.boardsDown + sum.netLost +
                               sum.shed);
}

} // namespace

// ----------------------------------------------------------------
// The detector state machine on raw observations
// ----------------------------------------------------------------

TEST(HealthDetector, MissHysteresisWalksHealthySuspectDown)
{
    sim::faultPlane().reset();
    rack::RackNet net(4);
    rack::HealthMonitor mon(net, 4, quietMonitor());
    ASSERT_TRUE(mon.monitoring());

    mon.observeMiss(1, 10);
    mon.advanceTo(10);
    EXPECT_EQ(mon.state(1), rack::BoardHealth::Healthy);
    EXPECT_TRUE(mon.routable(1));

    mon.observeMiss(1, 20);
    mon.advanceTo(20);
    EXPECT_EQ(mon.state(1), rack::BoardHealth::Suspect);
    EXPECT_TRUE(mon.routable(1)) << "Suspect boards still serve";

    mon.observeMiss(1, 30);
    mon.advanceTo(30);
    EXPECT_EQ(mon.state(1), rack::BoardHealth::Suspect);

    mon.observeMiss(1, 40);
    mon.advanceTo(40);
    EXPECT_EQ(mon.state(1), rack::BoardHealth::Down);
    EXPECT_FALSE(mon.routable(1));

    // The other boards never moved, and the log holds exactly the
    // two transitions with their deciding observation ticks.
    EXPECT_EQ(mon.state(0), rack::BoardHealth::Healthy);
    ASSERT_EQ(mon.transitions().size(), 2u);
    EXPECT_EQ(mon.transitions()[0].at, 20u);
    EXPECT_EQ(mon.transitions()[0].to, rack::BoardHealth::Suspect);
    EXPECT_EQ(mon.transitions()[1].at, 40u);
    EXPECT_EQ(mon.transitions()[1].to, rack::BoardHealth::Down);
}

TEST(HealthDetector, AcksClearSuspectsAndWalkDownThroughProbation)
{
    sim::faultPlane().reset();
    rack::RackNet net(4);
    rack::HealthMonitor mon(net, 4, quietMonitor());

    // Two misses suspect the board; one ack absolves it — misses
    // are ambiguous (drop or death), acks are not.
    mon.observeMiss(2, 10);
    mon.observeMiss(2, 20);
    mon.advanceTo(20);
    EXPECT_EQ(mon.state(2), rack::BoardHealth::Suspect);
    mon.observeAck(2, 30);
    mon.advanceTo(30);
    EXPECT_EQ(mon.state(2), rack::BoardHealth::Healthy);

    // Four misses take it Down; the first ack only reaches
    // Probation (still unroutable), a relapse goes straight back
    // Down, and rejoinAfter consecutive acks earn Healthy again.
    for (sim::Tick t = 40; t <= 70; t += 10)
        mon.observeMiss(2, t);
    mon.advanceTo(70);
    EXPECT_EQ(mon.state(2), rack::BoardHealth::Down);

    mon.observeAck(2, 80);
    mon.advanceTo(80);
    EXPECT_EQ(mon.state(2), rack::BoardHealth::Probation);
    EXPECT_FALSE(mon.routable(2));

    mon.observeMiss(2, 90);
    mon.advanceTo(90);
    EXPECT_EQ(mon.state(2), rack::BoardHealth::Down);

    mon.observeAck(2, 100);
    mon.observeAck(2, 110);
    mon.observeAck(2, 120);
    mon.advanceTo(120);
    EXPECT_EQ(mon.state(2), rack::BoardHealth::Healthy);
    EXPECT_TRUE(mon.routable(2));
}

TEST(HealthDetector, ObservationsResolveInTickOrderNotPushOrder)
{
    sim::faultPlane().reset();
    rack::HealthParams hp = quietMonitor();
    hp.downAfter = 3;
    rack::RackNet net(4);
    rack::HealthMonitor mon(net, 4, hp);

    mon.observeMiss(0, 10);
    mon.observeMiss(0, 20);
    mon.advanceTo(20);
    EXPECT_EQ(mon.state(0), rack::BoardHealth::Suspect);

    // Pushed out of order: the ack (t=40) before the miss (t=30).
    // Tick order must win — the miss lands first (third consecutive
    // miss, Down), then the ack opens Probation. Push order would
    // instead absolve the board and leave it Healthy.
    mon.observeAck(0, 40);
    mon.observeMiss(0, 30);
    mon.advanceTo(50);
    EXPECT_EQ(mon.state(0), rack::BoardHealth::Probation);
}

// ----------------------------------------------------------------
// Detection latency, false positives, rejoin hysteresis
// ----------------------------------------------------------------

TEST(HealthIntegration, CrashIsDetectedWithinTheHysteresisBound)
{
    const rack::HealthParams hp = monitoredParams();
    const sim::Tick crashAt = 2 * kMs;
    const auto run = runMonitoredScenario(
        1, "rack.boardCrash@p=1,unit=1,from=2000000000,max=1", hp);
    ASSERT_FALSE(run.snap.counters.empty());
    EXPECT_TRUE(run.finished);
    expectFullAttribution(run.sum);
    EXPECT_EQ(run.sum.serving.submitted, run.sum.admitted);
    EXPECT_GT(run.sum.probes, 0u);

    // Detection latency: the detector may not know before the
    // crash, and must declare Down within downAfter heartbeat
    // rounds plus the ack timeout (request misses interleave and
    // only speed it up).
    const rack::HealthTransition *down = nullptr;
    for (const rack::HealthTransition &t : run.transitions)
        if (t.board == 1 && t.to == rack::BoardHealth::Down) {
            down = &t;
            break;
        }
    ASSERT_NE(down, nullptr) << "the crash was never detected";
    EXPECT_GE(down->at, crashAt);
    EXPECT_LE(down->at, crashAt +
                            sim::Tick(hp.downAfter) *
                                hp.heartbeatPeriod +
                            2 * hp.ackTimeout);

    // Repair made the board whole again: every owed re-replication
    // committed, the crash latch cleared, and heartbeats walked it
    // back through Probation to Healthy before the trace ended.
    EXPECT_GE(run.sum.repairsStarted, 1u);
    EXPECT_GE(run.sum.repairsCommitted, 1u);
    bool probation = false, rejoined = false;
    for (const rack::HealthTransition &t : run.transitions) {
        if (t.board != 1)
            continue;
        if (t.from == rack::BoardHealth::Down &&
            t.to == rack::BoardHealth::Probation)
            probation = true;
        else if (probation &&
                 t.from == rack::BoardHealth::Probation &&
                 t.to == rack::BoardHealth::Healthy)
            rejoined = true;
    }
    EXPECT_TRUE(probation) << "repair never cleared the latch";
    EXPECT_TRUE(rejoined) << "the board never rejoined";
    EXPECT_EQ(run.finalState[1], rack::BoardHealth::Healthy);
}

TEST(HealthIntegration, DropBurstsAloneNeverDeclareABoardDown)
{
    // A lossy fabric feeds the detector the same misses a dead
    // board would — the hysteresis must absorb them, because every
    // surviving ack refutes the death hypothesis.
    const auto run = runMonitoredScenario(1, "rack.netDrop@p=0.05",
                                          monitoredParams());
    ASSERT_FALSE(run.snap.counters.empty());
    EXPECT_GT(run.drops, 0u) << "the burst never fired";
    EXPECT_GT(run.misses, 0u) << "drops never reached the detector";
    for (const rack::HealthTransition &t : run.transitions)
        EXPECT_NE(t.to, rack::BoardHealth::Down)
            << "drops alone declared board " << t.board
            << " dead at tick " << t.at;
    for (unsigned b = 0; b < 4; ++b)
        EXPECT_TRUE(run.finalState[b] ==
                        rack::BoardHealth::Healthy ||
                    run.finalState[b] == rack::BoardHealth::Suspect)
            << "board " << b << " ended unroutable";
    expectFullAttribution(run.sum);
}

TEST(HealthIntegration, TransientOutageRejoinsThroughProbation)
{
    const rack::HealthParams hp = monitoredParams();
    const auto run = runMonitoredScenario(
        1,
        "rack.boardDown@p=1,unit=1,from=1500000000,to=3000000000",
        hp);
    ASSERT_FALSE(run.snap.counters.empty());

    // The board's life story: suspected, declared Down inside the
    // window, Probation on the first clean probe after it, Healthy
    // only after rejoinAfter consecutive probe acks.
    std::vector<rack::HealthTransition> mine;
    for (const rack::HealthTransition &t : run.transitions)
        if (t.board == 1)
            mine.push_back(t);
    ASSERT_EQ(mine.size(), 4u);
    EXPECT_EQ(mine[0].to, rack::BoardHealth::Suspect);
    EXPECT_EQ(mine[1].to, rack::BoardHealth::Down);
    EXPECT_EQ(mine[2].to, rack::BoardHealth::Probation);
    EXPECT_EQ(mine[3].to, rack::BoardHealth::Healthy);
    EXPECT_GE(mine[2].at, sim::Tick(3000000000))
        << "Probation opened while the outage was still active";

    // Rejoin hysteresis: Probation acks arrive one per heartbeat
    // round (nothing else routes to an unroutable board), so the
    // rejoin takes at least rejoinAfter - 1 further rounds.
    EXPECT_GE(mine[3].at - mine[2].at,
              sim::Tick(hp.rejoinAfter - 1) * hp.heartbeatPeriod);
    EXPECT_EQ(run.finalState[1], rack::BoardHealth::Healthy);
    expectFullAttribution(run.sum);
}

// ----------------------------------------------------------------
// The brown-out controller
// ----------------------------------------------------------------

TEST(BrownOut, SuspectReplicasShedOnlyDeadlineRiskyRequests)
{
    sim::faultPlane().reset();
    const auto r = smallRack();
    rack::PlacementParams place;
    place.health = quietMonitor();
    rack::RackScheduler sched(*r, {}, place);

    const std::uint64_t key = 0;
    const std::vector<unsigned> reps = sched.replicasOf(key);
    ASSERT_EQ(reps.size(), 2u);
    for (unsigned b : reps) {
        sched.health().observeMiss(b, 1 * kUs);
        sched.health().observeMiss(b, 2 * kUs);
    }
    sched.health().advanceTo(3 * kUs);
    ASSERT_EQ(sched.health().state(reps[0]),
              rack::BoardHealth::Suspect);
    ASSERT_EQ(sched.health().state(reps[1]),
              rack::BoardHealth::Suspect);

    // A 100 us deadline with a 25% budget: the 50 us ack-timeout
    // stall a Suspect board risks already blows it, on both
    // replicas — shed at the front-end instead of queueing doomed
    // work.
    rack::RackRequest tight = keyedRequest(10 * kUs, key, 7);
    tight.job.timeout = 100 * kUs;
    EXPECT_EQ(sched.enqueueAt(10 * kUs, std::move(tight)),
              rack::AdmitResult::Shed);
    EXPECT_EQ(sched.shedCount(), 1u);

    // A lazy deadline rides through the same suspect pair: shed is
    // deadline-scoped, not a blanket Suspect ban.
    rack::RackRequest lazy = keyedRequest(20 * kUs, key, 8);
    lazy.job.timeout = 10 * kMs;
    unsigned board = 99;
    EXPECT_EQ(sched.enqueueAt(20 * kUs, std::move(lazy), &board),
              rack::AdmitResult::Admitted);
    EXPECT_EQ(board, reps[0]);
    EXPECT_EQ(sched.shedCount(), 1u);
}

TEST(BrownOut, NearlyFullAdmissionWindowShedsDeadlineRiskyRequests)
{
    // A Healthy board whose admission window holds `prior` of its
    // 10 slots, then a request whose 10 us deadline the ~5.5 us
    // hop-plus-wire delay cannot meet within the 25% budget.
    auto offerAfter = [](unsigned prior) {
        sim::faultPlane().reset();
        const auto r = smallRack();
        rack::PlacementParams place;
        place.replication = 1;
        place.admitWindow = kMs;
        place.admitPerWindow = 10;
        place.health = quietMonitor();
        rack::RackScheduler sched(*r, {}, place);
        for (unsigned i = 0; i < prior; ++i) {
            const sim::Tick t = sim::Tick(i + 1) * kUs;
            EXPECT_EQ(sched.enqueueAt(t, keyedRequest(t, 0, i)),
                      rack::AdmitResult::Admitted);
        }
        rack::RackRequest tight = keyedRequest(20 * kUs, 0, 99);
        tight.job.timeout = 10 * kUs;
        return sched.enqueueAt(20 * kUs, std::move(tight));
    };
    // 9 of 10 slots is pressure (occupancy 0.9), so the risky
    // request is shed; 8 of 10 is not, so it is admitted.
    EXPECT_EQ(offerAfter(9), rack::AdmitResult::Shed);
    EXPECT_EQ(offerAfter(8), rack::AdmitResult::Admitted);
}

// ----------------------------------------------------------------
// S1: the admission window must not grow without the cap
// ----------------------------------------------------------------

TEST(RackAdmissionWindow, DepthStaysEmptyWithTheCapDisabled)
{
    sim::faultPlane().reset();
    const auto r = smallRack();
    rack::RackScheduler sched(*r, {}, rack::PlacementParams{});
    for (unsigned i = 0; i < 300; ++i) {
        const sim::Tick t = sim::Tick(i + 1) * 10 * kUs;
        ASSERT_EQ(sched.enqueueAt(t, keyedRequest(t, i, i)),
                  rack::AdmitResult::Admitted);
    }
    for (unsigned b = 0; b < r->nBoards(); ++b)
        EXPECT_EQ(sched.admitWindowDepth(b), 0u)
            << "board " << b
            << " accumulated window state with the cap disabled";
}

TEST(RackAdmissionWindow, DepthIsBoundedByThePerWindowCap)
{
    sim::faultPlane().reset();
    const auto r = smallRack();
    rack::PlacementParams place;
    place.admitWindow = kMs;
    place.admitPerWindow = 4;
    rack::RackScheduler sched(*r, {}, place);
    for (unsigned i = 0; i < 300; ++i) {
        const sim::Tick t = sim::Tick(i + 1) * 10 * kUs;
        sched.enqueueAt(t, keyedRequest(t, i, i));
        for (unsigned b = 0; b < r->nBoards(); ++b)
            ASSERT_LE(sched.admitWindowDepth(b),
                      std::size_t(place.admitPerWindow))
                << "board " << b << " at tick " << t;
    }
}

// ----------------------------------------------------------------
// S2: failovers are outages; admission re-routes are not
// ----------------------------------------------------------------

TEST(RackAttribution, AdmissionReroutesAreNotFailovers)
{
    sim::faultPlane().reset();
    const auto r = smallRack();
    rack::PlacementParams place;
    place.admitWindow = kMs;
    place.admitPerWindow = 1;
    rack::RackScheduler sched(*r, {}, place);

    const std::uint64_t key = 0;
    const std::vector<unsigned> reps = sched.replicasOf(key);
    ASSERT_EQ(reps.size(), 2u);

    unsigned b0 = 99, b1 = 99;
    EXPECT_EQ(sched.enqueueAt(10 * kUs,
                              keyedRequest(10 * kUs, key, 1), &b0),
              rack::AdmitResult::Admitted);
    EXPECT_EQ(b0, reps[0]);
    // The primary's window is full: the replica takes the load —
    // spreading, not failure.
    EXPECT_EQ(sched.enqueueAt(20 * kUs,
                              keyedRequest(20 * kUs, key, 2), &b1),
              rack::AdmitResult::Admitted);
    EXPECT_EQ(b1, reps[1]);
    EXPECT_EQ(sched.admitRerouteCount(), 1u);
    EXPECT_EQ(sched.summary().failovers, 0u);
    EXPECT_EQ(sched.enqueueAt(30 * kUs,
                              keyedRequest(30 * kUs, key, 3)),
              rack::AdmitResult::Rejected);
}

TEST(RackAttribution, OutageFailoversStayFailovers)
{
    sim::faultPlane().reset();
    const auto r = smallRack();
    rack::RackScheduler sched(*r, {}, rack::PlacementParams{});
    const std::vector<unsigned> reps = sched.replicasOf(0);
    ASSERT_EQ(reps.size(), 2u);
    const std::string spec = "rack.boardDown@p=1,unit=" +
                             std::to_string(reps[0]) +
                             ",to=100000000000";
    sim::faultPlane().configure(spec.c_str(), 42);

    unsigned b = 99;
    EXPECT_EQ(
        sched.enqueueAt(10 * kUs, keyedRequest(10 * kUs, 0, 1), &b),
        rack::AdmitResult::Admitted);
    EXPECT_EQ(b, reps[1]);
    const rack::RackSummary sum = sched.summary();
    EXPECT_EQ(sum.failovers, 1u);
    EXPECT_EQ(sum.admitReroutes, 0u);
    sim::faultPlane().reset();
}

// ----------------------------------------------------------------
// Chaos: a crash overlapping an in-flight migration + the wall
// ----------------------------------------------------------------

TEST(HealthChaos, CrashMidMigrationLeavesNoDoubleAssignment)
{
    // Crash the skew target board right after the hot step, while
    // balancer hand-offs are in flight: repair must abort the dead
    // transfers, evict the board everywhere, and restore
    // replication — with every partition owned exactly once and
    // every request attributed exactly once.
    unsigned hot = 0;
    coHomedKeys(1, rack::PlacementParams{}.keyPartitions, 4, &hot);
    const std::string spec =
        "rack.boardCrash@p=1,unit=" + std::to_string(hot) +
        ",from=1200000000,max=1";

    const auto inspect = [hot](rack::RackScheduler &sched) {
        const unsigned parts = sched.placement().keyPartitions;
        for (unsigned p = 0; p < parts; ++p)
            EXPECT_LT(sched.homeOf(p), 4u);
        for (std::uint64_t key = 0; key < 2048; ++key) {
            const std::vector<unsigned> reps =
                sched.replicasOf(key);
            ASSERT_FALSE(reps.empty());
            std::set<unsigned> uniq(reps.begin(), reps.end());
            EXPECT_EQ(uniq.size(), reps.size())
                << "key " << key
                << " is double-assigned after the repair";
            EXPECT_EQ(sched.homeOf(sched.partitionOf(key)),
                      reps[0])
                << "map and replica set disagree for key " << key;
        }
        (void)hot;
    };

    const auto a = runMonitoredScenario(
        1, spec.c_str(), monitoredParams(), true, inspect);
    ASSERT_FALSE(a.snap.counters.empty())
        << "scenario failed validation under the crash";
    EXPECT_TRUE(a.finished);
    expectFullAttribution(a.sum);
    EXPECT_EQ(a.sum.serving.submitted, a.sum.admitted)
        << "crash + migration overlap lost or duplicated jobs";
    EXPECT_GE(a.sum.repairsStarted, 1u);
    EXPECT_GE(a.sum.repairsCommitted, 1u);

    const auto b =
        runMonitoredScenario(2, spec.c_str(), monitoredParams(),
                             true);
    const auto diffs = sim::diffSnapshots(a.snap, b.snap);
    EXPECT_TRUE(diffs.empty())
        << diffs.size()
        << " stat(s) differ between threads 1 and 2 under the "
           "chaos schedule:\n"
        << sim::formatDiffs(diffs);
}

TEST(HealthChaos, TenRunDeterminismWallWithDetectionLive)
{
    const char *spec =
        "rack.boardCrash@p=1,unit=1,from=2000000000,max=1";
    const auto base =
        runMonitoredScenario(1, spec, monitoredParams());
    ASSERT_FALSE(base.snap.counters.empty());
    ASSERT_NE(base.snap.counters.find("health.probes"),
              base.snap.counters.end())
        << "the wall would not exercise the detector";
    ASSERT_NE(base.snap.counters.find("rack.balance.repair.committed"),
              base.snap.counters.end())
        << "the wall would not exercise the repair path";

    const unsigned threads[] = {2, 4, 1, 2, 4, 1, 2, 4, 1};
    for (unsigned i = 0; i < 9; ++i) {
        const auto run =
            runMonitoredScenario(threads[i], spec,
                                 monitoredParams());
        const auto diffs = sim::diffSnapshots(base.snap, run.snap);
        ASSERT_TRUE(diffs.empty())
            << "run " << i + 2 << " (--threads " << threads[i]
            << "): " << diffs.size() << " stat(s) differ:\n"
            << sim::formatDiffs(diffs);
    }
}
