#include "board/balance.hh"

#include "board/board.hh"
#include "dms/handoff.hh"
#include "dms/handoff_exec.hh"
#include "sim/logging.hh"

namespace dpu::board {

namespace {

/** Engine-role layouts: disjoint channels, buffers, chain windows
 *  and events, so one DPU can source and land concurrently. */
dms::HandoffExecParams
srcRole(std::uint32_t buf_bytes)
{
    dms::HandoffExecParams r;
    r.channel = 0;
    r.bufBase = 0x5000;
    r.bufBytes = std::uint16_t(buf_bytes);
    r.chainBase = 0x6000;
    r.chainBytes = 0x800;
    r.eventA = 16;
    r.eventB = 17;
    return r;
}

dms::HandoffExecParams
dstRole(std::uint32_t buf_bytes)
{
    dms::HandoffExecParams r;
    r.channel = 1;
    r.bufBase = 0x4000;
    r.bufBytes = std::uint16_t(buf_bytes);
    r.chainBase = 0x6800;
    r.chainBytes = 32; // two 16 B slots, ping/pong
    r.eventA = 18;
    r.eventB = 19;
    return r;
}

} // namespace

// ----------------------------------------------------------------
// Handoff: the board's balance::Transport
// ----------------------------------------------------------------

class BoardBalancer::Handoff : public balance::Transport
{
  public:
    /** Per-DPU hand-off engine roles on the engine core. */
    struct Engines
    {
        std::unique_ptr<dms::HandoffExec> exec;     ///< source role
        std::unique_ptr<dms::HandoffLander> lander; ///< dest role
        bool srcBusy = false;
        bool dstBusy = false;
        bool srcPoisoned = false;
        bool dstPoisoned = false;
    };

    std::vector<Engines> engines;
    std::uint64_t chunkRetries = 0; ///< of retired transfers
    std::uint64_t stateBytes = 0;   ///< of committed transfers

    Handoff(Board &brd_, const BalanceParams &p_)
        : brd(brd_), p(p_), coreId(handoffCore(brd_))
    {
        engines.resize(brd.nDpus());
        for (unsigned d = 0; d < brd.nDpus(); ++d) {
            soc::Soc &chip = brd.dpu(d);
            const unsigned local =
                coreId % chip.params().coresPerComplex;
            dms::Dms &dms = chip.dmsFor(coreId);
            mem::Dmem &dmem = chip.core(coreId).dmem();
            engines[d].exec = std::make_unique<dms::HandoffExec>(
                dms, local, dmem, srcRole(p.stagingBufBytes));
            engines[d].lander = std::make_unique<dms::HandoffLander>(
                dms, local, dmem, dstRole(p.stagingBufBytes));
        }
    }

    mem::Addr
    stateAddr(unsigned part) const
    {
        return p.stateBase +
               mem::Addr(part) * p.stateBytesPerPartition;
    }

    std::uint64_t
    staleDeliveries() const
    {
        std::uint64_t stale = 0;
        for (const Engines &e : engines)
            stale += e.lander->staleDeliveries();
        return stale;
    }

    /** The board's eligibility rule: both engine roles idle and
     *  unpoisoned, and neither engine DMAC hung (a wedged DMAC
     *  cannot run a hand-off). */
    bool
    canRun(const balance::MigrationStep &s) const
    {
        const Engines &se = engines[s.from];
        const Engines &de = engines[s.to];
        return !se.srcBusy && !se.srcPoisoned && !de.dstBusy &&
               !de.dstPoisoned &&
               !brd.dpu(s.from).dmsFor(coreId).dmac().hung() &&
               !brd.dpu(s.to).dmsFor(coreId).dmac().hung();
    }

    bool
    launch(balance::Migration &m, sim::Tick now) override
    {
        auto owned = std::make_unique<Transfer>();
        Transfer &t = *owned;
        t.from = m.step.from;
        t.to = m.step.to;
        t.plan = dms::planRangeHandoff(stateAddr(m.step.partition),
                                       p.stateBytesPerPartition,
                                       p.stagingBufBytes, 8);
        t.chunks = unsigned(t.plan.chunks.size());
        t.gen = engines[t.to].lander->expect(t.chunks);
        engines[t.from].srcBusy = true;
        engines[t.to].dstBusy = true;

        // Execution starts inside the kernel, on the source
        // partition.
        brd.eventQueue(t.from).schedule(
            now,
            [this, tp = &t] {
                engines[tp->from].exec->start(
                    tp->plan, [this, tp](unsigned chunk, bool error) {
                        onChunkStaged(*tp, chunk, error);
                    });
            },
            sim::EvTag::Link);
        m.transfer = transfers.size();
        transfers.push_back(std::move(owned));
        return true;
    }

    Status
    poll(const balance::Migration &m, sim::Tick) override
    {
        const Transfer &t = *transfers[m.transfer];
        const dms::HandoffLander &lander = *engines[t.to].lander;
        if (!t.srcFailed && lander.landed() == t.chunks)
            return Status::Landed; // every chunk is in the dest DDR
        // Retransmits exhausted (or a descError poisoned the
        // staging chain): abort once both engines have drained.
        if (t.srcFailed && !engines[t.from].exec->active() &&
            !lander.busy())
            return Status::Failed;
        return Status::Moving;
    }

    void
    retire(const balance::Migration &m, balance::Outcome how) override
    {
        const Transfer &t = *transfers[m.transfer];
        Engines &se = engines[t.from];
        Engines &de = engines[t.to];
        chunkRetries += t.srcRetries;
        if (how == balance::Outcome::Committed)
            stateBytes += t.plan.totalBytes();
        else
            de.lander->cancel();
        if (how == balance::Outcome::TimedOut) {
            // The staging chain (or the landing slot) is stuck for
            // good: poison both roles so no later plan touches them.
            se.srcPoisoned = true;
            de.dstPoisoned = true;
            return;
        }
        se.srcBusy = false;
        de.dstBusy = false;
    }

    bool
    forward(const balance::Migration &m, std::uint64_t bytes,
            sim::Tick) override
    {
        // Host-phase send: deterministic, and the delivery tick is
        // at least one hop into the next segment.
        bool dropped = false;
        const sim::Tick at = brd.fabric().startBulk(
            m.step.from, m.step.to, bytes, dropped,
            sim::Traffic::Migration);
        if (!dropped)
            brd.fabric().postDelivery(m.step.from, m.step.to, at,
                                      [] {});
        return !dropped;
    }

  private:
    /** One hand-off. The source partition's thread writes srcFailed
     *  and srcRetries; the ledger reads them host-phase (the
     *  boundary's barrier orders the two). */
    struct Transfer
    {
        unsigned from = 0;
        unsigned to = 0;
        unsigned gen = 0; ///< lander generation token
        dms::HandoffPlan plan;
        unsigned chunks = 0;
        bool srcFailed = false;
        unsigned srcRetries = 0;
    };

    void
    onChunkStaged(Transfer &t, unsigned chunk, bool error)
    {
        dms::HandoffExec &exec = *engines[t.from].exec;
        if (error) {
            // dms.descError: the buffer is garbage. Keep draining
            // the chain (every chunk must be released) but ship
            // nothing more; the migration aborts once the engines
            // empty.
            t.srcFailed = true;
            exec.release(chunk);
            return;
        }
        // Snapshot the staged bytes before releasing the buffer to
        // the chain (the next descriptor overwrites it).
        const dms::HandoffChunk &hc = t.plan.chunks[chunk];
        auto payload = std::make_shared<std::vector<std::uint8_t>>(
            hc.bytes());
        const dms::HandoffExecParams &role = exec.params();
        brd.dpu(t.from).core(coreId).dmem().read(
            role.bufBase + (chunk & 1) * role.bufBytes,
            payload->data(), payload->size());
        exec.release(chunk);
        ship(t, chunk, std::move(payload), 1 + bulkRetries);
    }

    void
    ship(Transfer &t, unsigned chunk,
         std::shared_ptr<std::vector<std::uint8_t>> payload,
         unsigned attempts)
    {
        if (t.srcFailed)
            return; // a sibling chunk exhausted its retries; give up
        bool dropped = false;
        const sim::Tick at = brd.fabric().startBulk(
            t.from, t.to, payload->size(), dropped,
            sim::Traffic::Migration);
        if (!dropped) {
            const mem::Addr ddr = t.plan.chunks[chunk].ddrAddr;
            const std::uint8_t width = t.plan.chunks[chunk].colWidth;
            brd.fabric().postDelivery(
                t.from, t.to, at,
                [this, tp = &t, chunk, ddr, width,
                 payload = std::move(payload)] {
                    engines[tp->to].lander->deliver(
                        tp->gen, chunk, ddr, *payload, width);
                });
            return;
        }
        ++t.srcRetries;
        if (attempts <= 1) {
            t.srcFailed = true; // retransmit budget exhausted
            return;
        }
        // Retransmit from the snapshot once the wire time is burned.
        brd.eventQueue(t.from).schedule(
            at,
            [this, tp = &t, chunk, payload = std::move(payload),
             attempts] { ship(*tp, chunk, payload, attempts - 1); },
            sim::EvTag::Link);
    }

    Board &brd;
    const BalanceParams &p;
    unsigned coreId;
    /** Owning store; stable addresses (events capture Transfer&). */
    std::vector<std::unique_ptr<Transfer>> transfers;
};

unsigned
handoffCore(const Board &brd)
{
    return brd.params().soc.nCores() - 1;
}

// ----------------------------------------------------------------
// BalanceParams
// ----------------------------------------------------------------

std::string
BalanceParams::validate() const
{
    std::string err = Policy::validate("board BalanceParams");
    if (!err.empty() || !window)
        return err;
    if (keyPartitions == 0)
        return "the board balancer needs at least one key partition "
               "(board BalanceParams.keyPartitions = 0)";
    if (stagingBufBytes == 0 || stagingBufBytes > 2048)
        return "the board balancer staging buffer must be 1..2048 "
               "bytes (board BalanceParams.stagingBufBytes = " +
               std::to_string(stagingBufBytes) + ")";
    if (stateBytesPerPartition == 0 || stateBytesPerPartition % 8 != 0)
        return "partition state bytes must be a positive multiple "
               "of the 8-byte column width (board BalanceParams."
               "stateBytesPerPartition = " +
               std::to_string(stateBytesPerPartition) + ")";
    return "";
}

// ----------------------------------------------------------------
// BoardBalancer
// ----------------------------------------------------------------

BoardBalancer::BoardBalancer(Board &brd_, balance::PartitionMap &parts_,
                             const BalanceParams &params)
    : brd(brd_), parts(parts_), p(params), stats("board.balance")
{
    sim_assert(p.window > 0, "balancer built with window = 0");
    const std::string err = p.validate();
    sim_assert(err.empty(), "%s", err.c_str());

    handoff = std::make_unique<Handoff>(brd, p);
    balance::Rules rules;
    rules.homeOf = [this](unsigned part) {
        return parts.homeOf(part, brd.nDpus());
    };
    rules.eligible = [this](const balance::MigrationStep &s) {
        return handoff->canRun(s);
    };
    rules.commit = [this](const balance::Migration &m) {
        // Drain-then-switch: the single partition flips; every
        // offer forwarded afterwards routes to the new home.
        parts.reassign(m.step.partition, m.step.to);
    };
    rules.timeout = p.migrationTimeout;
    led = std::make_unique<balance::MigrationLedger>(
        p, parts.nPartitions(), brd.nDpus(), *handoff,
        std::move(rules), stats);

    for (unsigned part = 0; part < parts.nPartitions(); ++part)
        seedState(part, parts.homeOf(part, brd.nDpus()));

    stats.addFlushHook([this] { foldStats(); });
}

BoardBalancer::~BoardBalancer() = default;

std::uint8_t
BoardBalancer::statePattern(unsigned part, std::uint64_t i)
{
    return std::uint8_t(0x5A ^ (part * 131) ^ (i * 0x9E) ^ (i >> 8));
}

void
BoardBalancer::seedState(unsigned part, unsigned dpu)
{
    std::vector<std::uint8_t> img(p.stateBytesPerPartition);
    for (std::uint64_t i = 0; i < img.size(); ++i)
        img[i] = statePattern(part, i);
    brd.dpu(dpu).memory().store().write(handoff->stateAddr(part),
                                        img.data(), img.size());
}

std::vector<std::uint8_t>
BoardBalancer::stateImage(unsigned part) const
{
    std::vector<std::uint8_t> img(p.stateBytesPerPartition);
    const_cast<Board &>(brd)
        .dpu(parts.homeOf(part, brd.nDpus()))
        .memory()
        .store()
        .read(handoff->stateAddr(part), img.data(), img.size());
    return img;
}

bool
BoardBalancer::srcPoisoned(unsigned dpu) const
{
    return handoff->engines[dpu].srcPoisoned;
}

BoardBalancer::Report
BoardBalancer::report() const
{
    const balance::MigrationLedger::Counters &c = led->counters();
    const balance::MigrationLedger::Forwarding &f = led->forwarding();
    return {.planned = c.started,
            .committed = c.committed,
            .aborted = c.aborted,
            .timeoutAborts = c.timedOut,
            .chunkRetries = handoff->chunkRetries,
            .forwarded = f.requests,
            .deltaBytes = f.bytes,
            .deltaDropped = f.dropped,
            .stateBytes = handoff->stateBytes,
            .staleDeliveries = handoff->staleDeliveries()};
}

void
BoardBalancer::foldStats()
{
    // The ledger folds its own counters into this group; these are
    // the hand-off engines' extras.
    auto put = [this](const char *name, std::uint64_t v) {
        if (v)
            stats.counter(name) = v;
    };
    put("stateBytes", handoff->stateBytes);
    put("chunkRetries", handoff->chunkRetries);
    put("staleDeliveries", handoff->staleDeliveries());
}

} // namespace dpu::board
