#include "host/offload.hh"

#include <algorithm>
#include <limits>

#include "host/prepare.hh"
#include "host/summary.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace dpu::host {

namespace {

constexpr sim::Tick noTick = std::numeric_limits<sim::Tick>::max();

/** Worker shutdown sentinel (no valid dispatch encodes to it). */
constexpr std::uint64_t shutdownMsg = ~0ull;

/** Host -> worker dispatch message (carries the dispatch id, not
 *  the job id: requeued jobs get a fresh id per dispatch so stale
 *  acks from an earlier attempt can never credit a later one). */
std::uint64_t
dispatchMsg(std::uint64_t dispatch_id, unsigned group)
{
    return (dispatch_id << 8) | group;
}

/** Worker -> host completion ack. */
std::uint64_t
ackMsg(std::uint64_t dispatch_id, unsigned group, unsigned lane)
{
    return (dispatch_id << 16) | (std::uint64_t(group) << 8) | lane;
}

/** Driver time per dispatch (staging, descriptor writes). */
constexpr double dispatchDriverUs = 2.0;
/** Driver time per completion (validation readback). */
constexpr double completeDriverUs = 1.0;
/** DDR base of the per-group job arenas. */
constexpr mem::Addr jobArenaBase = 1 << 20;
/** Arena bytes per group (inputs + outputs + DMS prefetch slack). */
constexpr std::uint64_t jobArenaBytes = 6 << 20;

/**
 * Lookahead bounds, per scheduler: requests whose preparation has
 * started and that are not yet dispatched, and their image bytes
 * (estimated from each app's latest preparation). Prepared images
 * wait in host memory, so these bounds are what keep the peak
 * resident set near inline staging's (one svm input is 2 MiB, and
 * a rack runs one scheduler per chip).
 */
constexpr unsigned lookaheadJobs = 4;
constexpr std::uint64_t lookaheadBytes = 1 << 20;

/** Trace track ids on TraceCat::Soc. */
constexpr std::uint32_t hostTid = 0x500;
constexpr std::uint32_t groupTid = 0x510;

} // namespace

OffloadScheduler::OffloadScheduler(soc::Soc &soc_, soc::HostA9 &a9_,
                                   OffloadParams params)
    : soc(soc_), a9(a9_), p(std::move(params)), stats(p.statName),
      budget(std::make_shared<PrepBudget>())
{
    sim_assert(p.groupSize > 0 && p.nCores % p.groupSize == 0,
               "group size %u must divide the %u managed cores",
               p.groupSize, p.nCores);
    sim_assert(p.nCores <= soc.nCores(),
               "scheduler manages %u cores but the chip has %u",
               p.nCores, soc.nCores());
    const unsigned n_groups = p.nCores / p.groupSize;
    sim_assert(n_groups <= 0xff, "group id must fit a message byte");
    groups.resize(n_groups);
    for (unsigned g = 0; g < n_groups; ++g) {
        groups[g].base = g * p.groupSize;
        groups[g].size = p.groupSize;
        sim::tracer().nameTrack(sim::TraceCat::Soc, groupTid + g,
                                "sched.group" + std::to_string(g));
    }
    sim::tracer().nameTrack(sim::TraceCat::Soc, hostTid, "a9.sched");
}

void
OffloadScheduler::enqueueAt(sim::Tick when, JobRequest req)
{
    if (started) {
        // Held-open appends ride the already-sorted tail: the
        // stepped driver forwards offers window by window, so
        // time order comes for free and admitArrivals' cursor
        // stays valid.
        sim_assert(open, "arrivals must precede start() unless "
                         "the driver is held open");
        sim_assert(arrivals.empty() ||
                       when >= arrivals.back().when,
                   "held-open arrivals must be time-ordered");
    }
    arrivals.push_back({when, std::move(req), nullptr});
}

void
OffloadScheduler::start()
{
    sim_assert(!started, "scheduler already started");
    started = true;
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const Arrival &a, const Arrival &b) {
                         return a.when < b.when;
                     });
    // The first requests' inputs, before the run admits them.
    prepareAhead();

    // Persistent worker loop on every managed core: receive a
    // dispatch pointer, run the group's kernel lane, ack the host.
    for (unsigned id = 0; id < p.nCores; ++id) {
        soc.start(id, [this, id](core::DpCore &c) {
            mbc::Mbc &mbc = soc.mbc();
            for (;;) {
                std::uint64_t msg = mbc.recv(c);
                if (msg == shutdownMsg)
                    break;
                const unsigned g = unsigned(msg & 0xff);
                const std::uint64_t did = msg >> 8;
                Group &grp = groups[g];
                const unsigned lane = id - grp.base;
                // The message is a pointer: chase it to the job
                // descriptor the driver wrote in DRAM.
                c.cycles(60);
                // Fault plane: stall this worker before its lane
                // runs — mag cycles, or forever when mag is 0 (a
                // hung core; the job is reaped at its deadline).
                std::uint64_t stall = 0;
                if (sim::faultPlane().active() &&
                    sim::faultPlane().fires(sim::FaultSite::CoreStall,
                                            c.now(), int(id),
                                            &stall)) {
                    DPU_TRACE_INSTANT(sim::TraceCat::Core, id,
                                      "faultStall", c.now(),
                                      "cycles", stall);
                    if (stall == 0)
                        c.blockUntil([] { return false; });
                    c.sleepCycles(stall);
                }
                grp.job.lane(c, lane);
                mbc.send(c, mbc.a9Box(), ackMsg(did, g, lane));
            }
        });
    }

    a9.start([this](soc::HostA9 &host) { hostMain(host); });
}

void
OffloadScheduler::usePreparePool(PreparePool *pool_)
{
    sim_assert(!started, "choose the prepare pool before start()");
    pool = pool_;
    poolChosen = true;
}

bool
OffloadScheduler::submitNow(JobRequest req)
{
    return admit(std::move(req), nullptr);
}

bool
OffloadScheduler::admit(JobRequest req, std::shared_ptr<PrepSlot> slot)
{
    const sim::Tick now = a9.now();
    ++stats.counter("submitted");

    JobRecord rec;
    rec.id = nextJobId++;
    rec.app = req.makeJob ? "<custom>" : req.app;
    rec.enqueuedAt = now;

    if (queue.size() >= p.queueDepth) {
        rec.state = JobState::Rejected;
        rec.finishedAt = now;
        ++stats.counter("rejected");
        DPU_TRACE_INSTANT(sim::TraceCat::Soc, hostTid, "job.reject",
                          now, "job", rec.id);
        records.push_back(std::move(rec));
        return false;
    }

    ++stats.counter("accepted");
    Pending pend;
    pend.id = rec.id;
    pend.req = std::move(req);
    pend.deadline =
        now + (pend.req.timeout ? pend.req.timeout : p.defaultTimeout);
    pend.queueSpan = DPU_TRACE_NEXT_ID();
    pend.slot = std::move(slot);
    DPU_TRACE_SPAN_BEGIN(sim::TraceCat::Soc, hostTid, "job.queued",
                         pend.queueSpan, now, "job", rec.id, nullptr,
                         0);
    records.push_back(std::move(rec));
    queue.push_back(std::move(pend));
    return true;
}

void
OffloadScheduler::prepareAhead()
{
    aheadCursor = std::max(aheadCursor, nextArrival);
    for (; aheadCursor < arrivals.size(); ++aheadCursor) {
        if (budget->slots >= lookaheadJobs ||
            budget->bytes >= lookaheadBytes)
            return;
        Arrival &a = arrivals[aheadCursor];
        const apps::AppSpec *spec =
            a.req.app.empty() ? nullptr : apps::findApp(a.req.app);
        if (!spec)
            continue; // makeJob-only: nothing registered to prepare
        if (!poolChosen) {
            pool = &PreparePool::shared();
            poolChosen = true;
        }
        if (!pool || pool->helpers() == 0)
            return;
        // Pin the config: the job must be served from the very
        // handle its inputs were prepared for.
        if (!a.req.cfg)
            a.req.cfg = spec->makeConfig();
        const auto last = lastBytes.find(a.req.app);
        a.slot = std::make_shared<PrepSlot>(
            *spec, a.req.cfg, a.req.seed, p.groupSize, budget,
            last == lastBytes.end() ? 0 : last->second);
        pool->submit(a.when, a.slot);
        ++preparedAheadCnt;
    }
}

apps::ServingJob
OffloadScheduler::buildJob(const JobRequest &req, unsigned group,
                           PrepSlot *slot)
{
    apps::ServingContext ctx;
    ctx.soc = &soc;
    ctx.baseCore = groups[group].base;
    ctx.nLanes = groups[group].size;
    ctx.arena = jobArenaBase + std::uint64_t(group) * jobArenaBytes;
    ctx.arenaBytes = jobArenaBytes;
    ctx.seed = req.seed;
    if (slot) {
        ctx.prepared = slot->take();
        lastBytes[req.app] = ctx.prepared.bytes;
    }
    if (req.makeJob)
        return req.makeJob(ctx);
    const apps::AppSpec *spec = apps::findApp(req.app);
    sim_assert(spec, "request names unknown app \"%s\"",
               req.app.c_str());
    apps::ConfigHandle cfg = req.cfg ? req.cfg : spec->makeConfig();
    return spec->serve(cfg, ctx);
}

void
OffloadScheduler::resolveJob(JobRecord &rec)
{
    if (completeHook)
        completeHook(rec);
}

void
OffloadScheduler::admitArrivals(soc::HostA9 &host)
{
    while (nextArrival < arrivals.size() &&
           arrivals[nextArrival].when <= host.now()) {
        Arrival &a = arrivals[nextArrival++];
        (void)admit(std::move(a.req), std::move(a.slot));
    }
    prepareAhead();
}

void
OffloadScheduler::reapTimeouts(soc::HostA9 &host)
{
    const sim::Tick now = host.now();

    // Queued jobs whose deadline passed never get dispatched.
    for (auto it = queue.begin(); it != queue.end();) {
        if (it->deadline > now) {
            ++it;
            continue;
        }
        JobRecord &rec = records[it->id - 1];
        rec.state = JobState::TimedOut;
        rec.finishedAt = now;
        rec.cause = "queue";
        ++stats.counter("timedOut");
        DPU_TRACE_SPAN_END(sim::TraceCat::Soc, hostTid, "job.queued",
                           it->queueSpan, now);
        DPU_TRACE_INSTANT(sim::TraceCat::Soc, hostTid, "job.timeout",
                          now, "job", rec.id);
        it = queue.erase(it);
        resolveJob(rec);
    }

    // In-flight jobs past their deadline: quarantine the group
    // (late acks reclaim it), then either requeue the job onto a
    // healthy group or report it timed out, attributed to a hung
    // DMAC when one of the group's cores shows a wedge.
    for (unsigned g = 0; g < groups.size(); ++g) {
        Group &grp = groups[g];
        if (grp.state != GroupState::Busy || grp.deadline > now)
            continue;
        JobRecord &rec = records[grp.jobId - 1];

        bool wedged = false;
        for (unsigned lane = 0; lane < grp.size && !wedged; ++lane)
            wedged = soc.dmsFor(grp.base + lane).dmac().hung();

        grp.state = GroupState::Quarantined;
        grp.quarantinedAt = now;
        ++stats.counter("quarantines");
        DPU_TRACE_SPAN_END(sim::TraceCat::Soc, groupTid + g,
                           "job.run", grp.runSpan, now);
        DPU_TRACE_INSTANT(sim::TraceCat::Soc, groupTid + g,
                          "job.timeout", now, "job", rec.id);

        const unsigned max_att = grp.req.maxAttempts
                                     ? grp.req.maxAttempts
                                     : p.maxAttempts;
        if (rec.attempts < max_att) {
            // Retry on another group with a fresh deadline. The
            // requeue bypasses the admission bound: the job was
            // already admitted once.
            ++stats.counter("requeued");
            rec.state = JobState::Queued;
            Pending pend;
            pend.id = rec.id;
            pend.req = std::move(grp.req);
            pend.slot = std::move(grp.slot);
            pend.deadline = now + (pend.req.timeout
                                       ? pend.req.timeout
                                       : p.defaultTimeout);
            pend.queueSpan = DPU_TRACE_NEXT_ID();
            DPU_TRACE_SPAN_BEGIN(sim::TraceCat::Soc, hostTid,
                                 "job.queued", pend.queueSpan, now,
                                 "job", rec.id, nullptr, 0);
            DPU_TRACE_INSTANT(sim::TraceCat::Soc, hostTid,
                              "job.requeue", now, "job", rec.id);
            queue.push_back(std::move(pend));
            continue;
        }

        rec.state = JobState::TimedOut;
        rec.finishedAt = now;
        rec.cause = wedged ? "dmsWedge" : "deadline";
        ++stats.counter("timedOut");
        if (wedged)
            ++stats.counter("wedgeTimeouts");
        resolveJob(rec);
    }
}

void
OffloadScheduler::dispatchReady(soc::HostA9 &host)
{
    for (;;) {
        if (queue.empty())
            return;
        unsigned g = 0;
        for (; g < groups.size(); ++g)
            if (groups[g].state == GroupState::Free)
                break;
        if (g == groups.size())
            return;

        Pending pend = std::move(queue.front());
        queue.pop_front();
        Group &grp = groups[g];
        JobRecord &rec = records[pend.id - 1];

        // Driver work: build the job, stage its inputs in the
        // group's arena, write the descriptors.
        apps::ServingJob job = buildJob(pend.req, g, pend.slot.get());
        host.busyUs(dispatchDriverUs);
        job.stage();
        prepareAhead();

        const sim::Tick now = host.now();
        rec.state = JobState::Running;
        rec.dispatchedAt = now;
        ++rec.attempts;
        ++stats.counter("dispatched");
        DPU_TRACE_SPAN_END(sim::TraceCat::Soc, hostTid, "job.queued",
                           pend.queueSpan, now);

        grp.state = GroupState::Busy;
        grp.jobId = pend.id;
        grp.dispatchId = nextDispatchId++;
        grp.deadline = pend.deadline;
        grp.acksOutstanding = grp.size;
        grp.job = std::move(job);
        grp.req = std::move(pend.req);
        grp.slot = std::move(pend.slot);
        grp.runSpan = DPU_TRACE_NEXT_ID();
        DPU_TRACE_SPAN_BEGIN(sim::TraceCat::Soc, groupTid + g,
                             "job.run", grp.runSpan, now, "job",
                             pend.id, "group", g);
        for (unsigned lane = 0; lane < grp.size; ++lane)
            host.sendToCore(grp.base + lane,
                            dispatchMsg(grp.dispatchId, g));
    }
}

void
OffloadScheduler::handleAck(soc::HostA9 &host, std::uint64_t msg)
{
    const unsigned lane = unsigned(msg & 0xff);
    const unsigned g = unsigned((msg >> 8) & 0xff);
    const std::uint64_t did = msg >> 16;
    if (g >= groups.size() || lane >= groups[g].size) {
        ++stats.counter("strayAcks");
        return;
    }
    Group &grp = groups[g];
    if (grp.acksOutstanding == 0 || grp.dispatchId != did) {
        ++stats.counter("strayAcks");
        return;
    }
    if (--grp.acksOutstanding > 0)
        return;

    // Last lane acked: the dispatch is over.
    host.busyUs(completeDriverUs);
    const sim::Tick now = host.now();
    JobRecord &rec = records[grp.jobId - 1];
    if (grp.state == GroupState::Quarantined) {
        // A reaped dispatch finished late: reclaim the group, keep
        // the job's verdict (timed out, or requeued and by now
        // resolved on another group — the requester has long been
        // answered either way).
        ++stats.counter("lateJobs");
        quarantineDownTicks += now - grp.quarantinedAt;
        grp.state = GroupState::Free;
        grp.job = {};
        grp.req = {};
        grp.slot = {};
        DPU_TRACE_INSTANT(sim::TraceCat::Soc, groupTid + g,
                          "job.lateAck", now, "job", grp.jobId);
        return;
    }

    rec.state = JobState::Completed;
    rec.finishedAt = now;
    rec.valid = !grp.job.validate || grp.job.validate();
    ++stats.counter("completed");
    if (!rec.valid)
        ++stats.counter("validationFailed");
    DPU_TRACE_SPAN_END(sim::TraceCat::Soc, groupTid + g, "job.run",
                       grp.runSpan, now);
    grp.state = GroupState::Free;
    grp.job = {};
    grp.req = {};
    grp.slot = {};
    resolveJob(rec);
}

sim::Tick
OffloadScheduler::nextWake() const
{
    sim::Tick wake = noTick;
    if (nextArrival < arrivals.size())
        wake = std::min(wake, arrivals[nextArrival].when);
    for (const Pending &pend : queue)
        wake = std::min(wake, pend.deadline);
    for (const Group &grp : groups)
        if (grp.state == GroupState::Busy)
            wake = std::min(wake, grp.deadline);
    return wake;
}

void
OffloadScheduler::hostMain(soc::HostA9 &host)
{
    for (;;) {
        admitArrivals(host);
        reapTimeouts(host);
        dispatchReady(host);

        bool busy = false;
        for (const Group &grp : groups)
            busy = busy || grp.state == GroupState::Busy;
        if (!busy && queue.empty() &&
            nextArrival == arrivals.size() && !open)
            break;

        std::uint64_t msg;
        sim::Tick wake = nextWake();
        if (open) {
            // Held open: never block unboundedly, and always be
            // awake by the idle-wake bound (the next window
            // boundary) to observe freshly appended arrivals. The
            // now+1 floor keeps recvUntil strictly in the future.
            wake = std::min(
                wake, std::max(idleWake, host.now() + 1));
        }
        if (wake == noTick) {
            msg = host.recv();
            handleAck(host, msg);
        } else if (host.recvUntil(wake, msg)) {
            handleAck(host, msg);
        }
        // recvUntil timing out is not idle spin: the next loop
        // iteration admits the due arrival or reaps the overdue
        // job that defined the wake tick.
    }

    // Retire the workers. Wedged lanes never read their sentinel;
    // their fibers stay parked without keeping the queue alive.
    for (unsigned id = 0; id < p.nCores; ++id)
        host.sendToCore(id, shutdownMsg);
    finalize();
}

void
OffloadScheduler::finalize()
{
    ServingSummary s;
    s.submitted = stats.counter("submitted");
    s.accepted = stats.counter("accepted");
    s.rejected = stats.counter("rejected");
    s.dispatched = stats.counter("dispatched");
    s.completed = stats.counter("completed");
    s.timedOut = stats.counter("timedOut");
    s.validationFailed = stats.counter("validationFailed");
    s.lateJobs = stats.counter("lateJobs");
    s.requeued = stats.counter("requeued");
    s.quarantines = stats.counter("quarantines");
    s.wedgeTimeouts = stats.counter("wedgeTimeouts");
    for (const Group &grp : groups)
        s.wedgedGroups += grp.state == GroupState::Quarantined;
    stats.counter("wedgedGroups") = s.wedgedGroups;

    // Availability: fraction of group-ticks not spent quarantined.
    // Closed quarantines accumulated downtime at reclaim; groups
    // still quarantined now have been down since their reap.
    const sim::Tick now = a9.now();
    sim::Tick down = quarantineDownTicks;
    for (const Group &grp : groups)
        if (grp.state == GroupState::Quarantined)
            down += now - grp.quarantinedAt;
    if (now > 0 && !groups.empty())
        s.availability =
            1.0 - double(down) / (double(now) * double(groups.size()));
    stats.scalar("availability") = s.availability;

    // Latency and throughput: a one-part fold over this chip's
    // records, the same code that folds boards and racks. The
    // availability above stays this chip's own (a one-part fold
    // would recompute it as a*s/s).
    SummaryFold fold;
    fold.add(s, records);
    const ServingSummary f = fold.finish();
    s.p50Us = f.p50Us;
    s.p95Us = f.p95Us;
    s.p99Us = f.p99Us;
    s.meanUs = f.meanUs;
    s.maxUs = f.maxUs;
    s.throughputJobsPerSec = f.throughputJobsPerSec;

    stats.scalar("p50LatencyUs") = s.p50Us;
    stats.scalar("p95LatencyUs") = s.p95Us;
    stats.scalar("p99LatencyUs") = s.p99Us;
    stats.scalar("meanLatencyUs") = s.meanUs;
    stats.scalar("maxLatencyUs") = s.maxUs;
    stats.scalar("throughputJobsPerSec") = s.throughputJobsPerSec;
    finalSummary = s;
}

} // namespace dpu::host
