/**
 * @file
 * Intra-board live re-sharding: partition hand-offs between the DPUs
 * of one board over the real DMS descriptor + link-fabric path.
 *
 * The shared migration ledger (balance/ledger.hh) tracks load,
 * plans and runs drain-then-switch at window boundaries, in the host
 * phase. This module supplies the board's transport, eligibility
 * rule and commit action (DESIGN.md §15, §17). The transport runs in
 * the kernel: a DdrToDmem descriptor chain (dms::HandoffExec) stages
 * the partition's DDR range on the source, each chunk ships as
 * Migration-class bulk DMA over the LinkFabric with bounded
 * retransmit, and DmemToDdr descriptors (dms::HandoffLander) land it
 * on the destination. A wedged DMAC never drains: its migration
 * times out and poisons the engine roles for good.
 */

#ifndef DPU_BOARD_BALANCE_HH
#define DPU_BOARD_BALANCE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "balance/ledger.hh"
#include "balance/partition_map.hh"
#include "mem/addr.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace dpu::board {

class Board;

/** Board-balancer knobs: the shared policy plus the hand-off
 *  layout. Defaults leave it OFF (window = 0). */
struct BalanceParams : balance::Policy
{
    /** Key partitions the board's requests hash into. */
    unsigned keyPartitions = 16;
    /** DMS-owned state bytes per partition (the migrated range). */
    std::uint64_t stateBytesPerPartition = 64 * 1024;
    /** DDR base of the per-partition state ranges (identical on
     *  every DPU; clear of the offload arenas). */
    mem::Addr stateBase = mem::Addr(192) << 20;
    /** Staging-chunk / DMEM-buffer bytes (<= 2048, the engine
     *  roles' ping-pong buffer size). */
    std::uint32_t stagingBufBytes = 2048;
    /** A migration not fully landed this long after launch is
     *  aborted at the next window boundary; its engine roles are
     *  poisoned (a wedged DMAC never completes). */
    sim::Tick migrationTimeout = sim::Tick(2'000'000'000); // 2 ms

    /** The shared Policy rules plus the hand-off layout's: "" when
     *  usable (or window = 0); else a sentence naming the field. */
    std::string validate() const;
};

/** The core driving the hand-off descriptor chains on each DPU of
 *  @p brd: the chip's last. The offload scheduler must not manage
 *  it. */
unsigned handoffCore(const Board &brd);

/**
 * The board-tier balancer: owns the per-DPU hand-off engines and
 * the migration ledger, and commits into the scheduler's partition
 * map. Driven by host::BoardScheduler through ledger(): record()
 * and forward() per routed request, closeWindow() between runFor()
 * segments.
 */
class BoardBalancer
{
  public:
    /** Migration accounting. */
    struct Report
    {
        std::uint64_t planned = 0;   ///< migrations launched
        std::uint64_t committed = 0;
        std::uint64_t aborted = 0;   ///< failed + timed out
        std::uint64_t timeoutAborts = 0;
        std::uint64_t chunkRetries = 0; ///< link-drop retransmits
        std::uint64_t forwarded = 0; ///< forwarding-epoch requests
        std::uint64_t deltaBytes = 0;
        std::uint64_t deltaDropped = 0; ///< delta msgs lost on wire
        std::uint64_t stateBytes = 0;   ///< committed state moved
        std::uint64_t staleDeliveries = 0;
    };

    /** Seeds each partition's state pattern into its current
     *  home's DDR and builds the per-DPU engine roles (host phase,
     *  before the board runs). Reads and re-homes partitions in
     *  @p parts, which must outlive the balancer. */
    BoardBalancer(Board &brd, balance::PartitionMap &parts,
                  const BalanceParams &params);
    ~BoardBalancer();

    /** The drain-then-switch state machine. */
    balance::MigrationLedger &ledger() { return *led; }

    // ------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------

    /** The partition's state range, read from its CURRENT home. */
    std::vector<std::uint8_t> stateImage(unsigned part) const;
    /** Expected byte @p i of partition @p part's state pattern. */
    static std::uint8_t statePattern(unsigned part, std::uint64_t i);

    /** Ledger counters plus the hand-off engines' own. */
    Report report() const;
    /** Source engine role poisoned by a timed-out migration. */
    bool srcPoisoned(unsigned dpu) const;

  private:
    /** The balance::Transport: DMS chains over the LinkFabric. */
    class Handoff;

    void seedState(unsigned part, unsigned dpu);
    void foldStats();

    Board &brd;
    balance::PartitionMap &parts;
    BalanceParams p;
    std::unique_ptr<Handoff> handoff;
    std::unique_ptr<balance::MigrationLedger> led;
    sim::StatGroup stats;
};

} // namespace dpu::board

#endif // DPU_BOARD_BALANCE_HH
