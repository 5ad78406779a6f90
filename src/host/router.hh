/**
 * @file
 * The board's keyless request-routing policy.
 *
 * A request without a placement key lands on the DPU its
 * (app, seed) pair hashes to: balance::placementHash, the same mix
 * the partition maps (balance/partition_map.hh) use for their
 * default homes. The route is a pure function of the request — no
 * hidden state, no wall clock, no RNG, no fault plane — so a fixed
 * enqueue order yields a fixed assignment at any thread count.
 * Keyed traffic routes through the scheduler's PartitionMap instead.
 */

#ifndef DPU_HOST_ROUTER_HH
#define DPU_HOST_ROUTER_HH

#include <cstdint>
#include <memory>
#include <string_view>

namespace dpu::host {

/** The hash routing policy. */
class Router
{
  public:
    /** The shard (app, @p seed) lands on, in [0, nShards). */
    unsigned route(std::string_view app, std::uint64_t seed,
                   unsigned nShards) const;
};

/** The board scheduler's default (and only) routing policy. */
std::unique_ptr<Router> makeHashRouter();

} // namespace dpu::host

#endif // DPU_HOST_ROUTER_HH
