#include "rack/rack.hh"

#include <algorithm>

namespace dpu::rack {

Rack::Rack(const RackParams &params)
    : p(params), network(p.nBoards)
{
    boards.reserve(p.nBoards);
    for (unsigned b = 0; b < p.nBoards; ++b)
        boards.emplace_back(new board::Board(p.board));
}

sim::Tick
Rack::run()
{
    // Sequential in board order: boards only interact at admission
    // time (host phase), so ordering their runs is a presentation
    // choice, not a synchronization one — see the file header.
    for (auto &b : boards)
        rackNow = std::max(rackNow, b->run());
    return rackNow;
}

bool
Rack::allFinished() const
{
    for (const auto &b : boards)
        if (!b->allFinished())
            return false;
    return true;
}

} // namespace dpu::rack
