#include "board/board.hh"

#include "sim/logging.hh"

namespace dpu::board {

Board::Board(const BoardParams &params)
    : p(params), link(p.nDpus)
{
    queues.reserve(p.nDpus);
    dpus.reserve(p.nDpus);
    hosts.reserve(p.nDpus);
    for (unsigned d = 0; d < p.nDpus; ++d) {
        queues.push_back(std::make_unique<sim::EventQueue>());
        link.attach(d, *queues[d]);
        dpus.push_back(std::make_unique<soc::Soc>(*queues[d], p.soc));
        hosts.push_back(
            std::make_unique<soc::HostA9>(*queues[d], dpus[d]->mbc()));
    }
    dmaShadows.resize(p.nDpus);
    link.statGroup().addFlushHook([this] {
        std::uint64_t retries = 0, failed = 0;
        for (const DmaShadow &s : dmaShadows) {
            retries += s.retries;
            failed += s.failed;
        }
        if (retries)
            link.statGroup().counter("bulkRetries") = retries;
        if (failed)
            link.statGroup().counter("bulkFailed") = failed;
    });

    std::vector<sim::EventQueue *> qs;
    qs.reserve(p.nDpus);
    for (auto &q : queues)
        qs.push_back(q.get());
    sim::ParallelParams pp;
    pp.threads = p.threads;
    // The link hop latency is the largest window that keeps
    // cross-chip delivery conservative.
    pp.lookahead = linkTiming.hopLatency;
    runner = std::make_unique<sim::EpochRunner>(
        std::move(qs), pp, [this](unsigned d) { link.drainInbound(d); });
}

sim::Tick
Board::now() const
{
    if (const sim::EventQueue *q = sim::activeEventQueue())
        return q->now();
    return boardNow;
}

sim::Tick
Board::run()
{
    boardNow = runner->run();
    return boardNow;
}

sim::Tick
Board::runFor(sim::Tick limit)
{
    boardNow = runner->run(boardNow + limit);
    return boardNow;
}

bool
Board::allFinished() const
{
    for (const auto &d : dpus)
        if (!d->allFinished())
            return false;
    return true;
}

const sim::EpochRunner::Stats &
Board::runnerStats() const
{
    return runner->stats();
}

void
Board::dma(unsigned src_dpu, mem::Addr src_addr, unsigned dst_dpu,
           mem::Addr dst_addr, std::uint64_t bytes,
           LinkFabric::BulkHandler done)
{
    sim_assert(src_dpu < nDpus() && dst_dpu < nDpus() &&
                   src_dpu != dst_dpu,
               "bad DMA route %u -> %u", src_dpu, dst_dpu);
    sim_assert(sim::activeEventQueue() == nullptr ||
                   sim::activeEventQueue() == queues[src_dpu].get(),
               "dma %u -> %u issued from another chip's partition",
               src_dpu, dst_dpu);
    auto buf = std::make_shared<std::vector<std::uint8_t>>(bytes);
    dpus[src_dpu]->memory().store().read(src_addr, buf->data(),
                                         bytes);
    dmaAttempt(src_dpu, dst_dpu, dst_addr, std::move(buf),
               std::move(done), 1 + bulkRetries);
}

void
Board::dmaAttempt(unsigned src_dpu, unsigned dst_dpu,
                  mem::Addr dst_addr,
                  std::shared_ptr<std::vector<std::uint8_t>> buf,
                  LinkFabric::BulkHandler done, unsigned attempts)
{
    // Runs on the source chip (issue context or a retry event), so
    // the fate is known immediately and everything that follows is
    // a plain schedule: the byte copy rides the fabric mailbox to
    // the destination partition, completion and retries stay on the
    // source partition at the delivery tick — exactly when the old
    // shared-queue delivery event would have run them.
    bool dropped = false;
    const sim::Tick arrive =
        link.startBulk(src_dpu, dst_dpu, buf->size(), dropped);
    if (!dropped) {
        link.postDelivery(
            src_dpu, dst_dpu, arrive,
            [this, dst_dpu, dst_addr, buf] {
                dpus[dst_dpu]->memory().store().write(
                    dst_addr, buf->data(), buf->size());
            });
        if (done)
            queues[src_dpu]->schedule(
                arrive, [done = std::move(done)] { done(true); },
                sim::EvTag::Link);
        return;
    }
    if (attempts > 1) {
        ++dmaShadows[src_dpu].retries;
        queues[src_dpu]->schedule(
            arrive,
            [this, src_dpu, dst_dpu, dst_addr, buf = std::move(buf),
             done = std::move(done), attempts]() mutable {
                dmaAttempt(src_dpu, dst_dpu, dst_addr,
                           std::move(buf), std::move(done),
                           attempts - 1);
            },
            sim::EvTag::Link);
        return;
    }
    ++dmaShadows[src_dpu].failed;
    if (done)
        queues[src_dpu]->schedule(
            arrive, [done = std::move(done)] { done(false); },
            sim::EvTag::Link);
}

} // namespace dpu::board
