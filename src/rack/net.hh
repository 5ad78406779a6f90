/**
 * @file
 * Inter-board rack network.
 *
 * The paper's deployment put 500+ DPUs behind an Infiniband fabric
 * (Section 6); a rack here is N boards fed by one front-end over a
 * network that is slower and fatter-grained than the intra-board
 * LinkFabric: a few microseconds of stack+switch latency per
 * message instead of 600 ns, and one ingress pipe per board instead
 * of an all-pairs channel matrix. Each pipe is one channel of a
 * sim::Wire (sim/wire.hh: timing, faults, accounting), channel b
 * feeding board b, so a burst aimed at one board queues behind
 * itself while other boards' pipes stay clear.
 *
 * The model is host-phase only. Rack routing is static — every
 * request's destination board and delivery tick are decided at
 * enqueue time, before any board simulates a single event — so the
 * network never schedules into a board's event-queue partitions,
 * and its fault draws (`rack.netDelay`, `rack.netDrop`, unit = the
 * destination board) run in domain 0 in admission order. The whole
 * rack schedule stays a pure function of the trace: bit-identical
 * at any --threads count. Sends may come slightly out of tick order
 * (failover-penalty retries landing behind later arrivals); the
 * Wire never rewinds a channel.
 *
 * Stats land in the "racknet" group (channel cells `board<b>.*`).
 */

#ifndef DPU_RACK_NET_HH
#define DPU_RACK_NET_HH

#include <string>

#include "sim/wire.hh"

namespace dpu::rack {

/** Rack network timing: a 4 GB/s ingress pipe per board behind
 *  ~5 us of switch + NIC + host software stack, 256-byte minimum
 *  (header + RDMA setup). */
inline constexpr sim::WireParams netTiming{sim::Tick(5'000'000), 4.0,
                                           256};

/** N per-board ingress channels behind one front-end. */
class RackNet : public sim::Wire
{
  public:
    explicit RackNet(unsigned n_boards)
        : sim::Wire(n_boards, netTiming, "racknet",
                    sim::FaultSite::RackNetDelay,
                    sim::FaultSite::RackNetDrop, [](unsigned b) {
                        return "board" + std::to_string(b);
                    })
    {
    }
};

} // namespace dpu::rack

#endif // DPU_RACK_NET_HH
