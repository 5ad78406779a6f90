/**
 * @file
 * MigrationLedger laws, driven by a scripted fake transport: launch
 * and harvest order, the frozen flag released on every exit path
 * (commit, clean abort, drop at launch, timeout, external abort),
 * the accounting identity started == committed + aborted + inFlight
 * after every step, and the forwarding rule (only requests served at
 * an in-flight migration's source are forwarded).
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "balance/ledger.hh"

using namespace dpu;
using balance::Migration;
using balance::MigrationLedger;
using balance::MigrationStep;
using balance::Outcome;
using balance::Purpose;
using balance::Transport;

namespace {

constexpr sim::Tick kWindow = 1000;
constexpr sim::Tick kTimeout = 5000;
constexpr unsigned kParts = 4;
constexpr unsigned kNodes = 3;

/** A transport whose transfers do whatever the test scripts. */
class FakeTransport : public Transport
{
  public:
    bool
    launch(Migration &m, sim::Tick) override
    {
        launched.push_back(m.step.partition);
        if (dropAtLaunch.count(m.step.partition))
            return false;
        m.transfer = m.step.partition;
        state[m.step.partition] = Status::Moving;
        return true;
    }

    Status
    poll(const Migration &m, sim::Tick) override
    {
        return state.at(unsigned(m.transfer));
    }

    void
    retire(const Migration &m, Outcome how) override
    {
        retired.push_back({m.step.partition, how});
    }

    bool
    forward(const Migration &m, std::uint64_t bytes,
            sim::Tick) override
    {
        deltas.push_back({m.step.partition, bytes});
        return !dropDeltas;
    }

    std::set<unsigned> dropAtLaunch;
    bool dropDeltas = false;
    std::map<unsigned, Status> state; ///< by partition
    std::vector<unsigned> launched;
    std::vector<std::pair<unsigned, Outcome>> retired;
    std::vector<std::pair<unsigned, std::uint64_t>> deltas;
};

/** A ledger over kParts partitions on kNodes nodes, with the home
 *  map, eligibility set and commit log held here. */
struct Fixture
{
    FakeTransport xport;
    std::vector<unsigned> home = std::vector<unsigned>(kParts, 0);
    std::set<unsigned> ineligibleTargets;
    std::vector<unsigned> commits;
    std::unique_ptr<MigrationLedger> ledger;
    sim::StatGroup stats{"ledger"};

    Fixture()
    {
        balance::Policy policy;
        policy.window = kWindow;
        policy.ewmaAlpha = 1.0;
        policy.hotFactor = 1.0;
        policy.maxMigrationsPerWindow = 2;
        policy.minPartitionLoad = 1.0;
        balance::Rules rules;
        rules.homeOf = [this](unsigned p) { return home[p]; };
        rules.eligible = [this](const MigrationStep &s) {
            return !ineligibleTargets.count(s.to);
        };
        rules.commit = [this](const Migration &m) {
            commits.push_back(m.step.partition);
            if (m.purpose == Purpose::Move)
                home[m.step.partition] = m.step.to;
        };
        rules.timeout = kTimeout;
        ledger = std::make_unique<MigrationLedger>(
            policy, kParts, kNodes, xport, std::move(rules), stats);
    }

    bool
    launch(unsigned part, unsigned from, unsigned to, sim::Tick at,
           Purpose purpose = Purpose::Move)
    {
        MigrationStep s;
        s.partition = part;
        s.from = from;
        s.to = to;
        return ledger->launch(s, at, purpose);
    }
};

/** started == committed + aborted + inFlight, for every purpose. */
void
expectIdentity(const MigrationLedger &l)
{
    for (Purpose p : {Purpose::Move, Purpose::Repair}) {
        const MigrationLedger::Counters &c = l.counters(p);
        EXPECT_EQ(c.started, c.committed + c.aborted + l.inFlight(p))
            << "purpose " << unsigned(p);
    }
}

} // namespace

TEST(MigrationLedger, HarvestRetiresInLaunchOrder)
{
    Fixture f;
    ASSERT_TRUE(f.launch(2, 0, 1, 0));
    ASSERT_TRUE(f.launch(0, 0, 2, 0));
    ASSERT_TRUE(f.launch(1, 0, 1, 0));
    expectIdentity(*f.ledger);
    EXPECT_EQ(f.xport.launched, (std::vector<unsigned>{2, 0, 1}));
    EXPECT_EQ(f.ledger->inFlight(), 3u);

    // Land them in reverse: the harvest still retires in launch
    // order, and a transfer still moving stays put.
    f.xport.state[1] = Transport::Status::Landed;
    f.xport.state[2] = Transport::Status::Landed;
    f.ledger->harvest(10);
    EXPECT_EQ(f.commits, (std::vector<unsigned>{2, 1}));
    EXPECT_EQ(f.ledger->inFlight(), 1u);
    expectIdentity(*f.ledger);

    f.xport.state[0] = Transport::Status::Landed;
    f.ledger->harvest(20);
    EXPECT_EQ(f.commits, (std::vector<unsigned>{2, 1, 0}));
    EXPECT_EQ(f.home, (std::vector<unsigned>{2, 1, 1, 0}));
    EXPECT_EQ(f.ledger->counters().committed, 3u);
    expectIdentity(*f.ledger);
}

TEST(MigrationLedger, WindowLaunchesTheEligiblePlanInPlanOrder)
{
    Fixture f;
    // Everything on node 0: partition 3 is heaviest, then 1.
    for (unsigned p : {3u, 3u, 3u, 3u, 1u, 1u, 1u, 0u, 0u})
        f.ledger->record(p);
    f.ledger->closeWindow(kWindow);
    EXPECT_EQ(f.xport.launched, (std::vector<unsigned>{3, 1}));
    EXPECT_TRUE(f.ledger->frozen(3));
    EXPECT_TRUE(f.ledger->frozen(1));
    EXPECT_FALSE(f.ledger->frozen(0));
    expectIdentity(*f.ledger);

    // A refused step is skipped, not launched: with node 1 barred,
    // the next window's move of partition 0 (to node 1, the
    // coldest) never starts. The frozen partitions stay out of the
    // plan.
    for (unsigned p : {3u, 3u, 3u, 3u, 1u, 1u, 1u, 0u, 0u})
        f.ledger->record(p);
    f.ineligibleTargets = {1};
    f.ledger->closeWindow(2 * kWindow);
    EXPECT_EQ(f.xport.launched, (std::vector<unsigned>{3, 1}));
    EXPECT_EQ(f.ledger->counters().started, 2u);
    expectIdentity(*f.ledger);

    // Draining stops planning but not harvesting.
    f.xport.state[3] = Transport::Status::Landed;
    f.xport.state[1] = Transport::Status::Landed;
    f.ledger->setDraining(true);
    f.ineligibleTargets = {};
    f.ledger->closeWindow(3 * kWindow);
    EXPECT_EQ(f.commits, (std::vector<unsigned>{3, 1}));
    EXPECT_EQ(f.xport.launched.size(), 2u);
    EXPECT_EQ(f.ledger->inFlight(), 0u);
    expectIdentity(*f.ledger);
}

TEST(MigrationLedger, EveryExitPathReleasesTheFrozenFlag)
{
    Fixture f;

    // Drop at launch: counted, never frozen, never in flight.
    f.xport.dropAtLaunch = {3};
    EXPECT_FALSE(f.launch(3, 0, 1, 0));
    EXPECT_FALSE(f.ledger->frozen(3));
    EXPECT_EQ(f.ledger->inFlight(), 0u);
    EXPECT_EQ(f.ledger->counters().aborted, 1u);
    expectIdentity(*f.ledger);
    f.xport.dropAtLaunch.clear();

    ASSERT_TRUE(f.launch(0, 0, 1, 0));    // will commit
    ASSERT_TRUE(f.launch(1, 0, 2, 0));    // will abort cleanly
    ASSERT_TRUE(f.launch(2, 1, 2, 0));    // will time out
    for (unsigned p : {0u, 1u, 2u})
        EXPECT_TRUE(f.ledger->frozen(p));
    expectIdentity(*f.ledger);

    // Commit.
    f.xport.state[0] = Transport::Status::Landed;
    f.ledger->harvest(100);
    EXPECT_FALSE(f.ledger->frozen(0));
    expectIdentity(*f.ledger);

    // Clean abort: failed and drained.
    f.xport.state[1] = Transport::Status::Failed;
    f.ledger->harvest(200);
    EXPECT_FALSE(f.ledger->frozen(1));
    EXPECT_EQ(f.commits, (std::vector<unsigned>{0}));
    expectIdentity(*f.ledger);

    // Timeout: still moving at launch + timeout.
    f.ledger->harvest(kTimeout - 1);
    EXPECT_TRUE(f.ledger->frozen(2));
    f.ledger->harvest(kTimeout);
    EXPECT_FALSE(f.ledger->frozen(2));
    EXPECT_EQ(f.ledger->counters().timedOut, 1u);
    expectIdentity(*f.ledger);

    // External abort: node 2 left the tier; only the migration
    // touching it goes, the other keeps moving.
    ASSERT_TRUE(f.launch(3, 0, 2, kTimeout, Purpose::Repair));
    ASSERT_TRUE(f.launch(1, 0, 1, kTimeout));
    const std::vector<Migration> gone = f.ledger->abortTouching(2);
    ASSERT_EQ(gone.size(), 1u);
    EXPECT_EQ(gone[0].step.partition, 3u);
    EXPECT_EQ(gone[0].purpose, Purpose::Repair);
    EXPECT_FALSE(f.ledger->frozen(3));
    EXPECT_TRUE(f.ledger->frozen(1));
    expectIdentity(*f.ledger);

    const MigrationLedger::Counters &mv = f.ledger->counters();
    EXPECT_EQ(mv.started, 5u);
    EXPECT_EQ(mv.committed, 1u);
    EXPECT_EQ(mv.aborted, 3u); // drop, clean abort, timeout
    const MigrationLedger::Counters &rp =
        f.ledger->counters(Purpose::Repair);
    EXPECT_EQ(rp.started, 1u);
    EXPECT_EQ(rp.aborted, 1u);

    // The transport saw every retirement, with its outcome.
    const std::vector<std::pair<unsigned, Outcome>> want = {
        {0, Outcome::Committed},
        {1, Outcome::Aborted},
        {2, Outcome::TimedOut},
        {3, Outcome::Aborted},
    };
    EXPECT_EQ(f.xport.retired, want);
}

TEST(MigrationLedger, ALandedTransferCommitsEvenPastTheTimeout)
{
    Fixture f;
    ASSERT_TRUE(f.launch(0, 0, 1, 0));
    f.xport.state[0] = Transport::Status::Landed;
    f.ledger->harvest(10 * kTimeout);
    EXPECT_EQ(f.ledger->counters().committed, 1u);
    EXPECT_EQ(f.ledger->counters().timedOut, 0u);
    expectIdentity(*f.ledger);
}

TEST(MigrationLedger, OnlyRequestsServedAtTheSourceAreForwarded)
{
    Fixture f;
    ASSERT_TRUE(f.launch(0, 0, 1, 0));

    f.ledger->forward(0, 0, 10); // at the source: forwarded
    f.ledger->forward(0, 1, 20); // served elsewhere (a replica)
    f.ledger->forward(2, 0, 30); // partition not in flight
    EXPECT_EQ(f.ledger->forwarding().requests, 1u);
    EXPECT_EQ(f.ledger->forwarding().bytes, balance::forwardDeltaBytes);
    EXPECT_EQ(f.ledger->forwarding().dropped, 0u);
    ASSERT_EQ(f.xport.deltas.size(), 1u);
    EXPECT_EQ(f.xport.deltas[0].first, 0u);
    EXPECT_EQ(f.xport.deltas[0].second, balance::forwardDeltaBytes);

    // A delta lost on the wire is still a forwarded request; the
    // drop is counted, never retried.
    f.xport.dropDeltas = true;
    f.ledger->forward(0, 0, 40);
    EXPECT_EQ(f.ledger->forwarding().requests, 2u);
    EXPECT_EQ(f.ledger->forwarding().dropped, 1u);

    // After the commit the epoch is over.
    f.xport.state[0] = Transport::Status::Landed;
    f.ledger->harvest(50);
    f.ledger->forward(0, 0, 60);
    f.ledger->forward(0, 1, 70);
    EXPECT_EQ(f.ledger->forwarding().requests, 2u);
    EXPECT_EQ(f.xport.deltas.size(), 2u);
    expectIdentity(*f.ledger);
}

TEST(MigrationLedger, AdvanceClosesEveryDueWindowThenHarvests)
{
    Fixture f;
    for (unsigned p : {3u, 3u, 3u, 3u, 1u, 1u, 1u, 0u, 0u})
        f.ledger->record(p);
    // Two boundaries are due by 2.5 windows: the first plans on
    // the recorded load, the second sees an idle window.
    f.ledger->advance(2 * kWindow + kWindow / 2);
    EXPECT_EQ(f.ledger->tracker().rollsDone(), 2u);
    EXPECT_EQ(f.xport.launched.size(), 2u);

    // A transfer landing between boundaries commits at the next
    // advance, without waiting for a window.
    for (unsigned p : f.xport.launched)
        f.xport.state[p] = Transport::Status::Landed;
    f.ledger->advance(2 * kWindow + kWindow / 2 + 1);
    EXPECT_EQ(f.ledger->tracker().rollsDone(), 2u);
    EXPECT_EQ(f.commits.size(), 2u);
    expectIdentity(*f.ledger);
}
