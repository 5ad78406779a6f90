#include "host/router.hh"

#include "balance/partition_map.hh"

namespace dpu::host {

unsigned
Router::route(std::string_view app, std::uint64_t seed,
              unsigned nShards) const
{
    return balance::placementHash(app, seed) % nShards;
}

std::unique_ptr<Router>
makeHashRouter()
{
    return std::make_unique<Router>();
}

} // namespace dpu::host
