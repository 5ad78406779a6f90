#include "topo/topology.hh"

#include "sim/logging.hh"

namespace dpu::topo {

const char *
tierName(Tier t)
{
    switch (t) {
      case Tier::Soc:
        return "soc";
      case Tier::Board:
        return "board";
      case Tier::Rack:
        return "rack";
    }
    return "?";
}

ClusterTopology::ClusterTopology(Tier t, unsigned n_boards,
                                 unsigned n_dpus)
    : tier_(t)
{
    spec_.nBoards = n_boards;
    spec_.board.nDpus = n_dpus;
}

ClusterTopology
ClusterTopology::soc()
{
    return ClusterTopology(Tier::Soc, 1, 1);
}

ClusterTopology
ClusterTopology::board(unsigned n_dpus)
{
    return ClusterTopology(Tier::Board, 1, n_dpus);
}

ClusterTopology
ClusterTopology::rack(unsigned n_boards, unsigned dpus_per_board)
{
    return ClusterTopology(Tier::Rack, n_boards, dpus_per_board);
}

ClusterTopology &
ClusterTopology::chip(const soc::SocParams &p)
{
    spec_.board.soc = p;
    return *this;
}

ClusterTopology &
ClusterTopology::link(const board::LinkParams &p)
{
    spec_.board.link = p;
    return *this;
}

ClusterTopology &
ClusterTopology::network(const rack::NetParams &p)
{
    spec_.net = p;
    return *this;
}

ClusterTopology &
ClusterTopology::placement(const rack::PlacementParams &p)
{
    place_ = p;
    return *this;
}

ClusterTopology &
ClusterTopology::boardBalance(const board::BalanceParams &p)
{
    spec_.board.balance = p;
    return *this;
}

ClusterTopology &
ClusterTopology::threads(unsigned n)
{
    spec_.board.threads = n;
    return *this;
}

std::string
ClusterTopology::validate() const
{
    const board::BoardParams &b = spec_.board;
    if (b.nDpus == 0)
        return "a " + std::string(tierName(tier_)) +
               " needs at least one DPU per board (dpusPerBoard = 0)";
    if (tier_ == Tier::Soc && b.nDpus != 1)
        return "a soc is exactly one DPU; use "
               "ClusterTopology::board() for " +
               std::to_string(b.nDpus) + " chips";
    if (tier_ == Tier::Rack && spec_.nBoards == 0)
        return "a rack needs at least one board (nBoards = 0)";
    if (b.soc.nCores() == 0)
        return "the chip needs at least one core "
               "(nComplexes x coresPerComplex = 0)";
    if (b.threads == 0)
        return "the epoch runner needs at least one worker thread "
               "(threads = 0)";

    if (tier_ == Tier::Soc)
        return "";
    std::string err = b.link.validate("board link");
    if (err.empty())
        err = b.balance.validate();
    if (err.empty() && tier_ == Tier::Rack)
        err = spec_.net.validate("rack network");
    if (err.empty() && tier_ == Tier::Rack)
        err = place_.validate(spec_.nBoards);
    return err;
}

void
ClusterTopology::require(Tier want) const
{
    sim_assert(tier_ == want,
               "build mismatch: this is a %s topology, not a %s",
               tierName(tier_), tierName(want));
    const std::string err = validate();
    sim_assert(err.empty(), "invalid topology: %s", err.c_str());
}

std::unique_ptr<soc::Soc>
ClusterTopology::buildSoc(sim::EventQueue &q) const
{
    require(Tier::Soc);
    return std::make_unique<soc::Soc>(q, spec_.board.soc);
}

std::unique_ptr<board::Board>
ClusterTopology::buildBoard() const
{
    require(Tier::Board);
    return std::unique_ptr<board::Board>(new board::Board(spec_.board));
}

std::unique_ptr<rack::Rack>
ClusterTopology::buildRack() const
{
    require(Tier::Rack);
    return std::unique_ptr<rack::Rack>(new rack::Rack(spec_));
}

} // namespace dpu::topo
