/**
 * @file
 * The topology builder: the one way to build a chip, board or rack.
 *
 * topo::ClusterTopology holds one validated spec — the rack-shaped
 * rack::RackParams (a board tier is a one-board rack, a chip tier a
 * one-chip board) plus the rack's PlacementParams — and builds
 * whichever tier it anchors:
 *
 *   auto soc  = topo::ClusterTopology::soc().chip(soc::dpu16nm());
 *   auto brd  = topo::ClusterTopology::board(4).threads(4);
 *   auto rack = topo::ClusterTopology::rack(8, 2)
 *                   .placement(place)
 *                   .network(myNet);
 *
 *   std::string err = rack.validate();   // "" when buildable
 *   auto r = rack.buildRack();           // fatal with err otherwise
 *
 * Every shape error is reported as a sentence naming the offending
 * field and tier. Each parameter struct checks its own fields
 * (LinkParams, NetParams, board::BalanceParams, HealthParams,
 * PlacementParams::validate); validate() adds the tier-shape rules
 * and calls them, and the components that consume a struct
 * (BoardBalancer, RackScheduler, ...) call the same validator. The
 * Board and Rack constructors are private to this builder.
 */

#ifndef DPU_TOPO_TOPOLOGY_HH
#define DPU_TOPO_TOPOLOGY_HH

#include <memory>
#include <string>

#include "board/board.hh"
#include "rack/rack.hh"
#include "rack/scheduler.hh"
#include "soc/soc.hh"

namespace dpu::topo {

/** Which tier a topology describes. */
enum class Tier : std::uint8_t
{
    Soc,
    Board,
    Rack,
};

/** Tier name for error messages ("soc", "board", "rack"). */
const char *tierName(Tier t);

/** One validated cluster shape, buildable at any tier. */
class ClusterTopology
{
  public:
    // ------------------------------------------------------------
    // Tier anchors
    // ------------------------------------------------------------

    /** A single chip. */
    static ClusterTopology soc();

    /** One board of @p n_dpus chips. */
    static ClusterTopology board(unsigned n_dpus);

    /** @p n_boards boards of @p dpus_per_board chips each. */
    static ClusterTopology rack(unsigned n_boards,
                                unsigned dpus_per_board);

    // ------------------------------------------------------------
    // Fluent spec
    // ------------------------------------------------------------

    /** Chip configuration (default soc::dpu40nm()). */
    ClusterTopology &chip(const soc::SocParams &p);

    /** Intra-board link fabric timing. */
    ClusterTopology &link(const board::LinkParams &p);

    /** Inter-board rack network timing. */
    ClusterTopology &network(const rack::NetParams &p);

    /** Rack placement / admission / balance / health knobs; hand
     *  the same struct to the rack::RackScheduler. */
    ClusterTopology &placement(const rack::PlacementParams &p);

    /** Intra-board live re-sharding knobs (board/balance.hh); the
     *  default window = 0 keeps it off. Board and Rack tiers. */
    ClusterTopology &boardBalance(const board::BalanceParams &p);

    /** Epoch-runner worker threads per board. */
    ClusterTopology &threads(unsigned n);

    // ------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------

    Tier tier() const { return tier_; }
    unsigned nBoards() const { return spec_.nBoards; }
    unsigned dpusPerBoard() const { return spec_.board.nDpus; }

    /** Total chips across the topology. */
    unsigned totalDpus() const { return nBoards() * dpusPerBoard(); }

    /**
     * Validate the shape. @return "" when buildable, otherwise one
     * sentence naming the offending field ("a rack needs at least
     * one board (nBoards = 0)", "replication 4 exceeds the rack's 2
     * boards", ...). build*() is fatal on a non-empty result.
     */
    std::string validate() const;

    // ------------------------------------------------------------
    // Builders (fatal when validate() or the tier disagrees)
    // ------------------------------------------------------------

    /** Build the chip onto @p q (Soc tier only). */
    std::unique_ptr<soc::Soc> buildSoc(sim::EventQueue &q) const;

    /** Build the board (Board tier only). */
    std::unique_ptr<board::Board> buildBoard() const;

    /** Build the rack (Rack tier only). */
    std::unique_ptr<rack::Rack> buildRack() const;

  private:
    ClusterTopology(Tier t, unsigned n_boards, unsigned n_dpus);

    /** Fatal unless validate() passes and the tier is @p want. */
    void require(Tier want) const;

    Tier tier_;
    /** The whole spec; the Board tier builds spec_.board. */
    rack::RackParams spec_;
    rack::PlacementParams place_;
};

} // namespace dpu::topo

#endif // DPU_TOPO_TOPOLOGY_HH
