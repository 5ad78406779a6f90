/**
 * @file
 * ClusterTopology tests: the builder is the only way to construct a
 * board or rack, the built objects carry the fluent spec, validation
 * catches every malformed shape with a message naming the offending
 * field, and the components that consume a parameter struct enforce
 * the same rule with the same sentence.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "topo/topology.hh"

using namespace dpu;
using topo::ClusterTopology;

// Only the builder constructs a board or a rack.
static_assert(
    !std::is_constructible_v<board::Board, const board::BoardParams &>);
static_assert(
    !std::is_constructible_v<rack::Rack, const rack::RackParams &>);

TEST(ClusterTopology, BuildsASoc)
{
    sim::faultPlane().reset();
    ClusterTopology t = ClusterTopology::soc().chip(soc::dpu16nm());
    EXPECT_EQ(t.validate(), "");
    EXPECT_EQ(t.tier(), topo::Tier::Soc);
    EXPECT_EQ(t.totalDpus(), 1u);
    sim::EventQueue q;
    auto s = t.buildSoc(q);
    ASSERT_TRUE(s);
    EXPECT_EQ(s->params().nComplexes,
              soc::dpu16nm().nComplexes);
}

TEST(ClusterTopology, BuildsABoardCarryingTheSpec)
{
    sim::faultPlane().reset();
    ClusterTopology t = ClusterTopology::board(4).threads(2);
    EXPECT_EQ(t.validate(), "");
    EXPECT_EQ(t.totalDpus(), 4u);

    auto b = t.buildBoard();
    ASSERT_TRUE(b);
    EXPECT_EQ(b->nDpus(), 4u);
    EXPECT_EQ(b->params().nDpus, 4u);
    EXPECT_EQ(b->params().threads, 2u);
}

TEST(ClusterTopology, BuildsARackCarryingTheSpec)
{
    sim::faultPlane().reset();
    rack::PlacementParams place;
    place.replication = 3;
    ClusterTopology t = ClusterTopology::rack(4, 2).placement(place);
    EXPECT_EQ(t.validate(), "");
    EXPECT_EQ(t.nBoards(), 4u);
    EXPECT_EQ(t.totalDpus(), 8u);

    auto r = t.buildRack();
    ASSERT_TRUE(r);
    EXPECT_EQ(r->nBoards(), 4u);
    EXPECT_EQ(r->nDpus(), 8u);
    EXPECT_EQ(r->params().nBoards, 4u);
    EXPECT_EQ(r->params().board.nDpus, 2u);
}

TEST(ClusterTopologyValidation, NamesTheOffendingField)
{
    using topo::ClusterTopology;

    EXPECT_NE(ClusterTopology::board(0).validate().find("DPU"),
              std::string::npos);
    EXPECT_NE(
        ClusterTopology::rack(0, 2).validate().find("nBoards"),
        std::string::npos);
    EXPECT_NE(ClusterTopology::board(2).threads(0).validate().find(
                  "threads"),
              std::string::npos);

    rack::PlacementParams rep4;
    rep4.replication = 4;
    const std::string overRep =
        ClusterTopology::rack(2, 2).placement(rep4).validate();
    EXPECT_NE(overRep.find("replication 4"), std::string::npos);
    EXPECT_NE(overRep.find("2 boards"), std::string::npos);

    rack::PlacementParams halfAdmit;
    halfAdmit.admitWindow = 100;
    halfAdmit.admitPerWindow = 0;
    EXPECT_NE(ClusterTopology::rack(2, 2)
                  .placement(halfAdmit)
                  .validate()
                  .find("admit"),
              std::string::npos);

    // A valid spec reports no error.
    EXPECT_EQ(ClusterTopology::rack(2, 2).validate(), "");
}

TEST(ClusterTopologyValidation, DegenerateRackIsStillARack)
{
    // One board, one chip, replication 1: a valid (if pointless)
    // rack — the builder doesn't second-guess scale.
    rack::PlacementParams rep1;
    rep1.replication = 1;
    ClusterTopology t = ClusterTopology::rack(1, 1).placement(rep1);
    EXPECT_EQ(t.validate(), "");
    sim::faultPlane().reset();
    auto r = t.buildRack();
    EXPECT_EQ(r->nDpus(), 1u);
}

// The scheduler enforces the builder's placement rules itself, with
// the builder's sentence: a RackScheduler handed a PlacementParams
// the builder never saw still cannot run an invalid placement.

TEST(RackSchedulerDeathTest, ReplicationAboveTheBoardCountDies)
{
    sim::faultPlane().reset();
    rack::PlacementParams place;
    place.replication = 3;
    const std::string rule =
        ClusterTopology::rack(2, 1).placement(place).validate();
    EXPECT_EQ(rule, "replication 3 exceeds the rack's 2 boards");
    auto r = ClusterTopology::rack(2, 1).buildRack();
    EXPECT_DEATH(rack::RackScheduler(*r, {}, place), rule);
}

TEST(RackSchedulerDeathTest, DownBeforeSuspectDies)
{
    sim::faultPlane().reset();
    rack::PlacementParams place;
    place.health.heartbeatPeriod = sim::Tick(200'000'000);
    place.health.suspectAfter = 3;
    place.health.downAfter = 2;
    const std::string rule =
        ClusterTopology::rack(2, 1).placement(place).validate();
    EXPECT_EQ(rule,
              "downAfter 2 below suspectAfter 3 would skip the "
              "Suspect state");
    auto r = ClusterTopology::rack(2, 1).buildRack();
    EXPECT_DEATH(rack::RackScheduler(*r, {}, place), rule);
}
