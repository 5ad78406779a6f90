/**
 * @file
 * A multi-DPU board: N chips, N event-kernel partitions, one link
 * fabric, one epoch runner.
 *
 * The paper evaluates a single 32-dpCore DPU; its DMS partitioner
 * and ATE fabric, however, compose beyond one chip, and the serving
 * deployment model (Section 2.4) places many DPUs behind one host.
 * The Board models that next tier: every Soc is constructed on its
 * OWN sim::EventQueue partition, and a sim::EpochRunner advances the
 * partitions in conservative epochs bounded by the LinkFabric's
 * store-and-forward latency — serially with threads=1 (the default),
 * or on a worker pool with ClusterTopology::threads(n > 1). Boards
 * are built only through topo::ClusterTopology. Cross-chip
 * traffic (RPC doorbells, bulk DMA) moves only through the fabric's
 * epoch mailboxes, so the simulated schedule — every stat, trace
 * record and memory image — is bit-identical at any thread count
 * (see DESIGN.md §13).
 *
 * Bulk data movement (dma()) is descriptor-style: the payload is
 * snapshotted from the source chip's functional DDR store when the
 * descriptor is issued, occupies the (src, dst) link channel for its
 * serialization time, and lands in the destination store at the
 * delivery tick (executed on the destination's partition). Link-level
 * drops are retried a bounded number of times before the completion
 * hook reports failure; DDR-side timing on the endpoints is not
 * charged (the link, two orders of magnitude slower than a DDR
 * channel, is the modelled bottleneck — see DESIGN.md §12).
 *
 * Each DPU also gets its own HostA9 (the per-chip offload driver
 * endpoint); host::BoardScheduler runs one OffloadScheduler per chip
 * on top of these.
 */

#ifndef DPU_BOARD_BOARD_HH
#define DPU_BOARD_BOARD_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "board/balance.hh"
#include "board/link.hh"
#include "sim/event_queue.hh"
#include "sim/parallel.hh"
#include "soc/host_a9.hh"
#include "soc/soc.hh"

namespace dpu::topo {
class ClusterTopology;
}
namespace dpu::rack {
class Rack;
}

namespace dpu::board {

/** Bulk-transfer retransmissions on the board links before a
 *  transfer reports failure. */
constexpr unsigned bulkRetries = 4;

/** Board shape, filled in and validated by topo::ClusterTopology. */
struct BoardParams
{
    unsigned nDpus = 2;
    soc::SocParams soc = soc::dpu40nm();
    /** Worker threads for the epoch runner (1 = serial epochs; the
     *  schedule is identical either way). */
    unsigned threads = 1;
    /** Intra-board live re-sharding knobs (board/balance.hh). The
     *  default window = 0 disables the balancer entirely; the host
     *  BoardScheduler builds one when enabled. */
    BalanceParams balance{};
};

/** N DPUs on per-chip kernel partitions, connected by a LinkFabric. */
class Board
{
  public:
    unsigned nDpus() const { return unsigned(dpus.size()); }
    const BoardParams &params() const { return p; }

    /** DPU @p d's event-queue partition. */
    sim::EventQueue &eventQueue(unsigned d = 0) { return *queues[d]; }

    /** The board clock: the executing partition's clock from inside
     *  an event, the common aligned tick from the host phase. */
    sim::Tick now() const;

    double seconds() const { return double(now()) * 1e-12; }

    soc::Soc &dpu(unsigned d) { return *dpus[d]; }
    soc::HostA9 &host(unsigned d) { return *hosts[d]; }
    LinkFabric &fabric() { return link; }

    /** Run every partition until the board drains; @return end tick. */
    sim::Tick run();

    /** Run with a simulated-time limit (deadlock detection). */
    sim::Tick runFor(sim::Tick limit);

    /** True when every started kernel on every chip has returned. */
    bool allFinished() const;

    /** Epoch-runner counters (epochs, idle skips; diagnostics). */
    const sim::EpochRunner::Stats &runnerStats() const;

    /**
     * Ship @p bytes from DPU @p src_dpu's DDR at @p src_addr to DPU
     * @p dst_dpu's DDR at @p dst_addr over the fabric. The payload
     * is snapshotted now; the destination bytes appear at the
     * delivery tick. Dropped transfers are retransmitted up to
     * bulkRetries times, then @p done (optional) reports
     * false. @p done runs on the SOURCE chip's partition at the
     * final delivery tick. Callable from the host phase or from
     * events on the source chip's partition.
     */
    void dma(unsigned src_dpu, mem::Addr src_addr, unsigned dst_dpu,
             mem::Addr dst_addr, std::uint64_t bytes,
             LinkFabric::BulkHandler done = {});

  private:
    friend class topo::ClusterTopology;
    friend class rack::Rack;

    explicit Board(const BoardParams &params);

    void dmaAttempt(unsigned src_dpu, unsigned dst_dpu,
                    mem::Addr dst_addr,
                    std::shared_ptr<std::vector<std::uint8_t>> buf,
                    LinkFabric::BulkHandler done, unsigned attempts);

    /** Per-source-DPU DMA recovery tallies (src thread owned). */
    struct DmaShadow
    {
        std::uint64_t retries = 0;
        std::uint64_t failed = 0;
    };

    BoardParams p;
    std::vector<std::unique_ptr<sim::EventQueue>> queues;
    LinkFabric link;
    std::vector<std::unique_ptr<soc::Soc>> dpus;
    std::vector<std::unique_ptr<soc::HostA9>> hosts;
    std::vector<DmaShadow> dmaShadows;
    std::unique_ptr<sim::EpochRunner> runner;
    /** Host-phase board clock: the common tick every partition was
     *  aligned on at the end of the last run. */
    sim::Tick boardNow = 0;
};

} // namespace dpu::board

#endif // DPU_BOARD_BOARD_HH
