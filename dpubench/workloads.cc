#include "workloads.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <memory>

#include "apps/registry.hh"
#include "board/balance.hh"
#include "board/board.hh"
#include "board/board_apps.hh"
#include "host/board_offload.hh"
#include "host/offload.hh"
#include "host/router.hh"
#include "host/summary.hh"
#include "rack/rack.hh"
#include "rack/scheduler.hh"
#include "rack/trace.hh"
#include "rack/workload.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"
#include "sim/stats_registry.hh"
#include "soc/host_a9.hh"
#include "soc/soc.hh"
#include "topo/topology.hh"

namespace dpubench {

using namespace dpu;

// ----------------------------------------------------------------
// Spans
// ----------------------------------------------------------------

int
SpanLog::begin(const char *name, int run)
{
    Span s;
    s.name = name;
    s.startMs = wallMs();
    s.parent = open.empty() ? -1 : open.back();
    s.run = run;
    spans.push_back(std::move(s));
    open.push_back(int(spans.size()) - 1);
    return open.back();
}

void
SpanLog::end(int id)
{
    spans[std::size_t(id)].endMs = wallMs();
    if (!open.empty() && open.back() == id)
        open.pop_back();
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const double origin = spans.empty() ? 0 : spans.front().startMs;
    std::fputs("{\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,\"run\":%d}}",
                     i ? "," : "", s.name.c_str(), s.run,
                     (s.startMs - origin) * 1e3,
                     (s.endMs - s.startMs) * 1e3, i, s.parent, s.run);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

// ----------------------------------------------------------------
// Tail percentile
// ----------------------------------------------------------------

double
tailOf(const std::vector<double> &sorted, double &pct)
{
    const std::size_t n = sorted.size();
    for (const double q : {0.999, 0.99, 0.90, 0.50}) {
        // host::percentileOf's rank, counted from 1.
        const std::size_t rank = std::size_t(q * double(n) + 0.5);
        if (n >= rank + 10) {
            pct = q * 100;
            return host::percentileOf(sorted, q);
        }
    }
    pct = 100;
    return sorted.empty() ? 0 : sorted.back();
}

namespace {

// ----------------------------------------------------------------
// Counters read from outside the layers
// ----------------------------------------------------------------

/** Raw sums over every simulation a repetition runs; publish()
 *  turns them into the per-layer metrics. */
struct Tally
{
    // sim: event queues and the epoch runner.
    std::vector<double> executed = std::vector<double>(sim::nEvTags);
    std::vector<double> wallNs = std::vector<double>(sim::nEvTags);
    double schedules = 0, heapInserts = 0, cascades = 0;
    double poolSlabs = 0, maxPending = 0;
    double epochs = 0, idleSkips = 0, emptyEpochs = 0;
    // Simulated time: per independent simulation, and per chip.
    double simTicks = 0, chipTicks = 0, coreCycles = 0;
    // StatsRegistry.
    double coreOps = 0, coreBlocks = 0;
    double ddrBytes = 0, rowHits = 0, rowMisses = 0, ddrBusy = 0;
    double dmsDesc = 0, dmsBytes = 0, rowsPart = 0, keysHashed = 0;
    double ateRpcs = 0, mbcSent = 0, mbcDelivered = 0;
    // Host schedulers.
    std::vector<double> queueWaitUs, serviceUs;
    double dispatched = 0, requeued = 0, rejected = 0, timedOut = 0;
    // LinkFabric.
    double linkBytes = 0, linkMsgs = 0, linkBusy = 0, linkMig = 0;
    double linkDropped = 0;
    std::uint64_t digest = 0xcbf29ce484222325ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            digest ^= (v >> (8 * i)) & 0xff;
            digest *= 0x100000001b3ull;
        }
    }

    void
    mix(const std::string &s)
    {
        for (const char c : s) {
            digest ^= std::uint8_t(c);
            digest *= 0x100000001b3ull;
        }
        mix(std::uint64_t(s.size()));
    }
};

void
addQueue(Tally &t, const sim::EventQueue &q)
{
    const sim::EventQueue::Profile &p = q.profile();
    for (unsigned i = 0; i < sim::nEvTags; ++i) {
        t.executed[i] += double(p.executed[i]);
        t.wallNs[i] += p.wallNs[i];
    }
    t.schedules += double(p.schedules);
    t.heapInserts += double(p.heapInserts);
    t.cascades += double(p.cascades);
    t.poolSlabs += double(p.poolSlabs);
    t.maxPending += double(p.maxPending);
}

/** Every partition of @p b, its runner, its fabric, and simulated
 *  time: call after the board has run. */
void
addBoard(Tally &t, board::Board &b, Rep &r)
{
    for (unsigned d = 0; d < b.nDpus(); ++d)
        addQueue(t, b.eventQueue(d));
    const sim::EpochRunner::Stats &rs = b.runnerStats();
    t.epochs += double(rs.epochs);
    t.idleSkips += double(rs.idleSkips);
    t.emptyEpochs += double(rs.emptyEpochs);
    const board::LinkFabric &f = b.fabric();
    t.linkBytes += double(f.bytesCarried());
    t.linkMsgs += double(f.messages());
    t.linkBusy = std::max(t.linkBusy, f.peakUtilization());
    t.linkMig += double(f.migrationBytes());
    t.linkDropped += double(f.droppedBytes());
    if (f.offeredBytes() !=
        f.bytesCarried() + f.droppedBytes() + f.migrationBytes())
        r.fail("LinkFabric conservation: offered != carried + "
               "dropped + migration");
    const double ticks = double(b.now());
    t.chipTicks += ticks * b.nDpus();
    for (unsigned d = 0; d < b.nDpus(); ++d)
        t.coreCycles += double(b.dpu(d).nCores()) * ticks /
                        double(sim::dpCoreClock.periodTicks());
}

/** Group name without the registry's "#N" duplicate suffix. */
std::string
baseGroup(const std::string &key, std::string &leaf)
{
    const std::size_t dot = key.find('.');
    leaf = dot == std::string::npos ? "" : key.substr(dot + 1);
    std::string g = key.substr(0, dot);
    const std::size_t hash = g.find('#');
    if (hash != std::string::npos)
        g.resize(hash);
    if (g.size() > 4 && g.compare(0, 4, "core") == 0 &&
        std::all_of(g.begin() + 4, g.end(),
                    [](char c) { return c >= '0' && c <= '9'; }))
        g = "core";
    return g;
}

/**
 * Fold the live StatsRegistry into @p t and its digest. The link
 * group's byte cells are summed for the cross-check against the
 * fabric's own getters.
 */
void
addSnapshot(Tally &t, Rep &r, std::uint64_t link_offered)
{
    const sim::StatsSnapshot s =
        sim::StatsRegistry::instance().snapshot();
    double link_cells = 0;
    std::string leaf;
    for (const auto &[key, v] : s.counters) {
        t.mix(key);
        t.mix(v);
        const std::string g = baseGroup(key, leaf);
        const double x = double(v);
        if (g == "core") {
            if (leaf == "aluOps" || leaf == "lsuOps" ||
                leaf == "muls" || leaf == "crcOps" ||
                leaf == "filtOps" || leaf == "ntzOps")
                t.coreOps += x;
            else if (leaf == "blocks")
                t.coreBlocks += x;
        } else if (g == "ddr") {
            if (leaf == "bytesRead" || leaf == "bytesWritten")
                t.ddrBytes += x;
            else if (leaf == "rowHits")
                t.rowHits += x;
            else if (leaf == "rowMisses")
                t.rowMisses += x;
            else if (leaf == "busyTicks")
                t.ddrBusy += x;
        } else if (g == "dmac") {
            if (leaf == "descriptors")
                t.dmsDesc += x;
            else if (leaf == "bytesToDmem" || leaf == "bytesFromDmem" ||
                     leaf == "bytesToCmem" || leaf == "bytesDmsToDdr")
                t.dmsBytes += x;
            else if (leaf == "rowsPartitioned")
                t.rowsPart += x;
            else if (leaf == "keysHashed")
                t.keysHashed += x;
        } else if (g == "ate") {
            if (leaf == "loads" || leaf == "stores" ||
                leaf == "fetchAdds" || leaf == "compareSwaps" ||
                leaf == "swRpcs")
                t.ateRpcs += x;
        } else if (g == "mbc") {
            if (leaf == "sent")
                t.mbcSent += x;
            else if (leaf == "delivered")
                t.mbcDelivered += x;
        } else if (g == "link") {
            if (leaf == "bytes" || leaf == "dropBytes" ||
                leaf == "migBytes")
                link_cells += x;
        }
    }
    for (const auto &[key, v] : s.scalars) {
        t.mix(key);
        t.mix(std::bit_cast<std::uint64_t>(v));
    }
    if (link_offered != std::uint64_t(link_cells))
        r.fail("LinkFabric stat cells disagree with its byte getters");
}

/** Queue wait and service time of every completed job. */
void
addJobs(Tally &t, const std::vector<host::JobRecord> &jobs)
{
    for (const host::JobRecord &j : jobs) {
        if (j.state != host::JobState::Completed)
            continue;
        t.queueWaitUs.push_back(double(j.dispatchedAt - j.enqueuedAt) *
                                1e-6);
        t.serviceUs.push_back(double(j.finishedAt - j.dispatchedAt) *
                              1e-6);
    }
}

void
addSummary(Tally &t, const host::ServingSummary &s)
{
    t.dispatched += double(s.dispatched);
    t.requeued += double(s.requeued);
    t.rejected += double(s.rejected);
    t.timedOut += double(s.timedOut);
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0;
}

void
publish(Rep &r, Tally &t)
{
    auto &m = r.layer;
    double events = 0, self_ms = 0;
    for (unsigned i = 0; i < sim::nEvTags; ++i) {
        const std::string tag = sim::evTagName(sim::EvTag(i));
        m["sim.events." + tag] = t.executed[i];
        m["sim.self_ms." + tag] = t.wallNs[i] * 1e-6;
        events += t.executed[i];
        self_ms += t.wallNs[i] * 1e-6;
    }
    m["sim.events"] = events;
    m["sim.run_ms"] = r.runMs;
    m["sim.events_per_s"] = ratio(events, r.runMs * 1e-3);
    m["sim.untagged_ms"] = r.runMs - self_ms;
    m["sim.schedules"] = t.schedules;
    m["sim.heap_inserts"] = t.heapInserts;
    m["sim.cascades"] = t.cascades;
    m["sim.pool_slabs"] = t.poolSlabs;
    m["sim.max_pending"] = t.maxPending;

    m["sim.runner.epochs"] = t.epochs;
    m["sim.runner.idle_skips"] = t.idleSkips;
    m["sim.runner.empty_epochs"] = t.emptyEpochs;
    m["sim.runner.events_per_epoch"] = ratio(events, t.epochs);
    m["sim.runner.us_per_epoch"] = ratio(r.runMs * 1e3, t.epochs);

    m["core.ops"] = t.coreOps;
    m["core.blocks"] = t.coreBlocks;
    m["core.ipc"] = ratio(t.coreOps, t.coreCycles);
    m["ddr.bytes"] = t.ddrBytes;
    m["ddr.row_hit_frac"] = ratio(t.rowHits, t.rowHits + t.rowMisses);
    m["ddr.busy_frac"] = ratio(t.ddrBusy, t.chipTicks);
    m["dms.descriptors"] = t.dmsDesc;
    m["dms.bytes"] = t.dmsBytes;
    m["dms.gbps"] = ratio(t.dmsBytes, t.simTicks * 1e-12) * 1e-9;
    m["dms.rows_partitioned"] = t.rowsPart;
    m["dms.keys_hashed"] = t.keysHashed;
    m["ate.rpcs"] = t.ateRpcs;
    m["mbc.sent"] = t.mbcSent;
    m["mbc.delivered"] = t.mbcDelivered;

    double pct = 0;
    std::sort(t.queueWaitUs.begin(), t.queueWaitUs.end());
    std::sort(t.serviceUs.begin(), t.serviceUs.end());
    m["host.queue_wait_p50_us"] = host::percentileOf(t.queueWaitUs, 0.5);
    m["host.queue_wait_tail_us"] = tailOf(t.queueWaitUs, pct);
    m["host.service_p50_us"] = host::percentileOf(t.serviceUs, 0.5);
    m["host.service_tail_us"] = tailOf(t.serviceUs, pct);
    m["host.dispatched"] = t.dispatched;
    m["host.requeued"] = t.requeued;
    m["host.rejected"] = t.rejected;
    m["host.timed_out"] = t.timedOut;

    m["link.bytes"] = t.linkBytes;
    m["link.msgs"] = t.linkMsgs;
    m["link.busy_frac"] = t.linkBusy;
    m["link.migration_bytes"] = t.linkMig;
    m["link.dropped_bytes"] = t.linkDropped;

    m["topo.build_ms"] = r.topoMs;
    m["setup.inputs_ms"] = r.inputsMs;
    r.digest = t.digest;
}

// ----------------------------------------------------------------
// Per-op outcome tracking
// ----------------------------------------------------------------

/** Scheduled arrival, completion tick and verdict of every op. */
struct OpLog
{
    std::vector<sim::Tick> due;
    std::vector<sim::Tick> done; ///< 0 = never completed
    std::vector<std::uint8_t> valid;

    std::size_t
    add(sim::Tick at)
    {
        due.push_back(at);
        done.push_back(0);
        valid.push_back(0);
        return due.size() - 1;
    }
};

/**
 * Route @p req's job through a wrapper whose validator also stamps
 * op @p i's completion tick and verdict. The wrapped job is the
 * registry's (or the request's own) job, unchanged; validation runs
 * host-side at the completion tick, so simulated timing is the same
 * as without the wrapper. The log outlives the run.
 */
void
track(host::JobRequest &req, OpLog &log, std::size_t i)
{
    std::function<apps::ServingJob(const apps::ServingContext &)> make =
        req.makeJob;
    if (!make) {
        const apps::AppSpec *spec = apps::findApp(req.app);
        sim_assert(spec, "unknown app \"%s\"", req.app.c_str());
        apps::ConfigHandle cfg = req.cfg ? req.cfg : spec->makeConfig();
        make = [spec, cfg](const apps::ServingContext &ctx) {
            return spec->serve(cfg, ctx);
        };
    }
    req.makeJob = [make, &log, i](const apps::ServingContext &ctx) {
        apps::ServingJob job = make(ctx);
        soc::Soc *chip = ctx.soc;
        job.validate = [inner = std::move(job.validate), chip, &log, i] {
            const bool ok = !inner || inner();
            log.done[i] = chip->now();
            log.valid[i] = ok;
            return ok;
        };
        return job;
    };
}

/** Add @p log's ops to @p r: the latency of every valid completion,
 *  the rest as failed, and the simulated window they span. */
void
settle(Rep &r, const OpLog &log, double slo_us)
{
    r.offered += log.due.size();
    sim::Tick first = ~sim::Tick(0), last = 0;
    for (std::size_t i = 0; i < log.due.size(); ++i) {
        first = std::min(first, log.due[i]);
        if (!log.done[i] || !log.valid[i]) {
            ++r.failed;
            continue;
        }
        const double us = double(log.done[i] - log.due[i]) * 1e-6;
        r.latUs.push_back(us);
        r.work += 1;
        if (us <= slo_us)
            ++r.withinSlo;
        last = std::max(last, log.done[i]);
    }
    r.simSeconds += last > first ? double(last - first) * 1e-12 : 0;
}

std::uint64_t
derive(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** A chip whose DDR holds the workload and little more: building a
 *  chip zero-fills its whole DDR backing store. */
soc::SocParams
smallChip(std::size_t ddr_mb)
{
    soc::SocParams sp = soc::dpu40nm();
    sp.ddrBytes = ddr_mb << 20;
    return sp;
}

/** @p n open-loop arrival ticks over [0, span): a Poisson process
 *  conditioned on its count, so offered load is exact per seed. */
std::vector<sim::Tick>
arrivals(sim::Rng &rng, std::size_t n, sim::Tick span)
{
    std::vector<sim::Tick> at(n);
    for (sim::Tick &t : at)
        t = sim::Tick(rng.uniform() * double(span));
    std::sort(at.begin(), at.end());
    return at;
}

// ----------------------------------------------------------------
// chip-serve
// ----------------------------------------------------------------

/** One slot of the chip-serve request mix. */
struct MixEntry
{
    const char *app;
    double weight;
    std::vector<std::pair<const char *, const char *>> opts;
};

/**
 * The registry mix at per-request (one 4-core group) sizes: the
 * serving bench's mix with a tenth of the traffic moved from json to
 * groupby-high. The weights put the median inside the groupby-low
 * class rather than on a class boundary, where it would jump with
 * the mix proportions a seed realizes.
 */
const std::vector<MixEntry> &
chipMix()
{
    static const std::vector<MixEntry> mix = {
        {"filter", 0.30, {{"rowsPerCore", "16384"}}},
        {"groupby-low", 0.20, {{"nRows", "65536"}, {"ndv", "512"}}},
        // The serving group-by kernel keeps its table in DMEM, so
        // 1024 groups is the largest NDV a core group can serve.
        {"groupby-high", 0.10, {{"nRows", "65536"}, {"ndv", "1024"}}},
        {"hll-crc",
         0.15,
         {{"nElements", "32768"}, {"cardinality", "8192"},
          {"pBits", "12"}}},
        {"json", 0.05, {{"nRecords", "2048"}}},
        {"svm", 0.10, {{"nTest", "8192"}, {"dims", "64"}}},
        {"simsearch",
         0.05,
         {{"nDocs", "1024"}, {"vocab", "2048"}, {"nQueries", "1"}}},
        {"disparity",
         0.05,
         {{"width", "64"}, {"height", "32"}, {"maxShift", "8"}}},
    };
    return mix;
}

constexpr std::size_t chipJobs = 1200;
constexpr double chipRate = 4000; // jobs per simulated second
constexpr double chipSloUs = 1200;

Rep
chipServe(const RepOptions &o)
{
    Rep r;
    Tally t;
    OpLog log;
    sim::faultPlane().reset();
    Scope rep(o.spans, "rep", o.runId);

    double t0 = wallMs();
    sim::EventQueue q;
    std::unique_ptr<soc::Soc> chip;
    std::unique_ptr<soc::HostA9> a9;
    std::unique_ptr<host::OffloadScheduler> sched;
    {
        Scope s(o.spans, "topo.build", o.runId);
        chip = topo::ClusterTopology::soc().buildSoc(q);
        a9 = std::make_unique<soc::HostA9>(q, chip->mbc());
        sched = std::make_unique<host::OffloadScheduler>(
            *chip, *a9, host::OffloadParams{});
    }
    r.topoMs = wallMs() - t0;

    t0 = wallMs();
    {
        Scope s(o.spans, "setup.inputs", o.runId);
        sim::Rng rng(derive(o.seed, 1));
        const auto at = arrivals(
            rng, chipJobs,
            sim::Tick(double(chipJobs) / chipRate * 1e12));
        double total = 0;
        for (const MixEntry &m : chipMix())
            total += m.weight;
        std::vector<host::JobRequest> reqs;
        for (std::size_t i = 0; i < at.size(); ++i) {
            double u = rng.uniform() * total;
            const MixEntry *pick = &chipMix().back();
            for (const MixEntry &m : chipMix()) {
                if (u < m.weight) {
                    pick = &m;
                    break;
                }
                u -= m.weight;
            }
            const apps::AppSpec *spec = apps::findApp(pick->app);
            sim_assert(spec, "mix names unknown app %s", pick->app);
            host::JobRequest req;
            req.app = pick->app;
            req.cfg = spec->makeConfig();
            for (const auto &[k, v] : pick->opts)
                sim_assert(spec->set(req.cfg, k, v),
                           "bad option %s for %s", k, pick->app);
            req.seed = rng.next();
            track(req, log, log.add(at[i]));
            reqs.push_back(std::move(req));
        }
        Scope offer(o.spans, "host.offer", o.runId);
        for (std::size_t i = 0; i < reqs.size(); ++i)
            sched->enqueueAt(log.due[i], std::move(reqs[i]));
    }
    r.inputsMs = wallMs() - t0;

    q.enableWallProfiling(o.traced);
    t0 = wallMs();
    {
        Scope s(o.spans, "sim.run", o.runId);
        sched->start();
        chip->run();
    }
    r.runMs = wallMs() - t0;

    Scope check(o.spans, "check", o.runId);
    const host::ServingSummary sum = sched->summary();
    if (sum.validationFailed)
        r.fail("chip-serve: a completed job failed validation");
    if (sum.completed + sum.timedOut + sum.rejected != sum.submitted ||
        sum.submitted != chipJobs)
        r.fail("chip-serve: job accounting does not add up");
    settle(r, log, chipSloUs);
    addQueue(t, q);
    t.simTicks += double(q.now());
    t.chipTicks += double(q.now());
    t.coreCycles += double(chip->nCores()) * double(q.now()) /
                    double(sim::dpCoreClock.periodTicks());
    addJobs(t, sched->jobs());
    addSummary(t, sum);
    addSnapshot(t, r, 0);
    t.mix(q.now());
    publish(r, t);
    return r;
}

// ----------------------------------------------------------------
// board-sql
// ----------------------------------------------------------------

constexpr unsigned sqlQueries = 110;
constexpr std::uint32_t sqlRowsPerDpu = 1u << 14;
constexpr double sqlSloUs = 80; // per query

Rep
boardSql(const RepOptions &o)
{
    Rep r;
    Tally t;
    Scope rep(o.spans, "rep", o.runId);
    sim::Tick due = 0; // closed loop: each query is due when the
                       // previous one completes
    OpLog log;
    double rows = 0;
    for (unsigned qi = 0; qi < sqlQueries; ++qi) {
        sim::faultPlane().reset();
        Scope query(o.spans, "query", o.runId);
        double t0 = wallMs();
        std::unique_ptr<board::Board> b;
        {
            Scope s(o.spans, "topo.build", o.runId);
            b = topo::ClusterTopology::board(4)
                    .chip(smallChip(16))
                    .threads(o.threads)
                    .buildBoard();
        }
        r.topoMs += wallMs() - t0;
        for (unsigned d = 0; d < b->nDpus(); ++d)
            b->eventQueue(d).enableWallProfiling(o.traced);

        board::ShardedSqlConfig cfg;
        cfg.rowsPerDpu = sqlRowsPerDpu;
        cfg.seed = derive(o.seed, qi);
        board::ShardedSqlResult res;
        t0 = wallMs();
        {
            Scope s(o.spans, "sim.run", o.runId);
            res = board::runShardedSql(*b, cfg);
        }
        r.runMs += wallMs() - t0;

        Scope check(o.spans, "check", o.runId);
        const std::size_t i = log.add(due);
        const sim::Tick ticks = sim::Tick(std::llround(res.seconds * 1e12));
        due += ticks;
        log.done[i] = due;
        log.valid[i] = res.valid;
        if (!res.valid)
            r.fail("board-sql: query " + std::to_string(qi) +
                   " failed validation");
        rows += double(res.rows);
        t.simTicks += double(b->now());
        addBoard(t, *b, r);
        addSnapshot(t, r, b->fabric().offeredBytes());
        t.mix(b->now());
    }
    settle(r, log, sqlSloUs);
    // An op here is a table row, over the queries' simulated time.
    r.work = rows;
    publish(r, t);
    return r;
}

// ----------------------------------------------------------------
// board-skew
// ----------------------------------------------------------------

constexpr unsigned skewKeyParts = 16;
constexpr unsigned skewEpisodes = 4;
constexpr std::size_t skewJobs = 1500;
constexpr sim::Tick skewSpan = sim::Tick(7'500'000'000); // 7.5 ms
constexpr double skewSloUs = 500;

/** A job whose lanes only sleep for @p cycles, as in the board
 *  skew-step bench: no data, so the board's capacity is set by the
 *  schedulers and the sleep alone. */
host::JobRequest
sleepJob(sim::Cycles cycles)
{
    host::JobRequest req;
    req.makeJob = [cycles](const apps::ServingContext &) {
        apps::ServingJob job;
        job.stage = [] {};
        job.lane = [cycles](core::DpCore &c, unsigned) {
            c.sleepCycles(cycles);
        };
        return job;
    };
    return req;
}

/** One skew-step episode on a fresh board, added to @p r. */
void
skewEpisode(const RepOptions &o, unsigned ep, Rep &r, Tally &t)
{
    OpLog log;
    sim::faultPlane().reset();
    Scope episode(o.spans, "episode", o.runId);

    double t0 = wallMs();
    board::BalanceParams bal;
    bal.keyPartitions = skewKeyParts;
    bal.window = sim::Tick(250'000'000); // 0.25 ms
    bal.ewmaAlpha = 0.7;
    bal.hotFactor = 1.1;
    bal.maxMigrationsPerWindow = 2;
    bal.minPartitionLoad = 2.0;
    bal.stateBase = mem::Addr(32) << 20;
    std::unique_ptr<board::Board> b;
    std::unique_ptr<host::BoardScheduler> sched;
    {
        Scope s(o.spans, "topo.build", o.runId);
        b = topo::ClusterTopology::board(4)
                .chip(smallChip(48))
                .threads(o.threads)
                .boardBalance(bal)
                .buildBoard();
        host::OffloadParams op;
        op.nCores = 8; // the balancer's engine core stays unmanaged
        op.groupSize = 4;
        op.queueDepth = 1024; // the hot shard queues, never rejects
        sched = std::make_unique<host::BoardScheduler>(
            *b, op, host::makeHashRouter());
    }
    r.topoMs += wallMs() - t0;

    t0 = wallMs();
    {
        Scope s(o.spans, "setup.inputs", o.runId);
        // Hot keys: the partitions co-homed on one DPU (key k below
        // keyPartitions is partition k).
        const unsigned hot_dpu = sched->partitions().homeOf(0, 4);
        std::vector<std::uint64_t> hot;
        for (unsigned p = 0; p < skewKeyParts; ++p)
            if (sched->partitions().homeOf(p, 4) == hot_dpu)
                hot.push_back(p);
        // Paced arrivals and keys, as in the board skew-step bench:
        // the step's transient then has the same shape on every
        // seed, which varies only the job costs.
        sim::Rng rng(derive(o.seed, 100 + ep));
        const sim::Tick gap = skewSpan / skewJobs;
        Scope offer(o.spans, "host.offer", o.runId);
        for (std::size_t i = 0; i < skewJobs; ++i) {
            const sim::Tick when = sim::Tick(i) * gap;
            const bool hot_key = when >= skewSpan / 4 && i % 10 < 9;
            const std::uint64_t key =
                hot_key ? hot[i % hot.size()] : i % skewKeyParts;
            // 15-25 us at 800 MHz, drawn per job.
            host::JobRequest req = sleepJob(12000 + rng.below(8001));
            track(req, log, log.add(when));
            sched->offer(when, key, std::move(req));
        }
    }
    r.inputsMs += wallMs() - t0;

    for (unsigned d = 0; d < b->nDpus(); ++d)
        b->eventQueue(d).enableWallProfiling(o.traced);
    t0 = wallMs();
    {
        Scope s(o.spans, "sim.run", o.runId);
        sched->run();
    }
    r.runMs += wallMs() - t0;

    Scope check(o.spans, "check", o.runId);
    const host::ServingSummary sum = sched->summary();
    if (sum.completed != skewJobs || sum.validationFailed)
        r.fail("board-skew: not every job completed valid");
    const board::BoardBalancer &balancer = *sched->balancer();
    for (unsigned p = 0; p < skewKeyParts; ++p) {
        const auto img = balancer.stateImage(p);
        for (std::uint64_t i = 0; i < img.size(); ++i)
            if (img[i] != board::BoardBalancer::statePattern(p, i)) {
                r.fail("board-skew: partition " + std::to_string(p) +
                       " image diverged from its seed pattern");
                break;
            }
    }
    settle(r, log, skewSloUs);
    t.simTicks += double(b->now());
    addBoard(t, *b, r);
    for (unsigned d = 0; d < sched->nShards(); ++d)
        addJobs(t, sched->shard(d).jobs());
    addSummary(t, sum);
    addSnapshot(t, r, b->fabric().offeredBytes());
    t.mix(b->now());

    const board::BoardBalancer::Report &bal_rep = balancer.report();
    auto &m = r.layer;
    m["board.bal.planned"] += double(bal_rep.planned);
    m["board.bal.committed"] += double(bal_rep.committed);
    m["board.bal.aborted"] += double(bal_rep.aborted);
    m["board.bal.forwarded"] += double(bal_rep.forwarded);
    m["board.bal.state_bytes"] += double(bal_rep.stateBytes);
    m["board.bal.chunk_retries"] += double(bal_rep.chunkRetries);
}

/** Several episodes, each a fresh board with its own derived
 *  seed, so one repetition measures enough wall time. */
Rep
boardSkew(const RepOptions &o)
{
    Rep r;
    Tally t;
    Scope rep(o.spans, "rep", o.runId);
    for (unsigned ep = 0; ep < skewEpisodes; ++ep)
        skewEpisode(o, ep, r, t);
    publish(r, t);
    auto &m = r.layer;
    m["board.bal.commit_frac"] =
        ratio(m["board.bal.committed"], m["board.bal.planned"]);
    return r;
}

// ----------------------------------------------------------------
// rack-skew
// ----------------------------------------------------------------

constexpr unsigned rackBoards = 4;
constexpr double rackRate = 31'250.0 * rackBoards; // req per sim s
constexpr double rackSpanSec = 0.02;
constexpr double rackSloUs = 250;

/**
 * Scale every size option of a serving-mix request by one factor
 * drawn uniformly from [0.5, 1.5] in steps of 1/16, so service
 * times spread around the mix's nominal sizes instead of repeating
 * one value per app. Scaling all of an app's sizes together keeps
 * their ratios (hll-crc's elements per distinct value) intact.
 */
void
jitterSize(host::JobRequest &job, sim::Rng &rng)
{
    const std::uint64_t sixteenths = 8 + rng.below(17);
    const apps::AppSpec *spec = apps::findApp(job.app);
    for (const rack::MixApp &m : rack::servingMix()) {
        if (m.name != job.app)
            continue;
        for (const auto &[k, v] : m.opts) {
            const std::string n =
                std::to_string(std::stoull(v) * sixteenths / 16);
            sim_assert(spec->set(job.cfg, k, n), "bad size %s=%s for %s",
                       k.c_str(), n.c_str(), m.name.c_str());
        }
    }
}

Rep
rackSkew(const RepOptions &o)
{
    Rep r;
    Tally t;
    OpLog log;
    sim::faultPlane().reset();
    Scope rep(o.spans, "rep", o.runId);

    rack::PlacementParams pl;
    pl.replication = 2;
    pl.balance.window = sim::Tick(500'000'000); // 0.5 ms
    pl.balance.ewmaAlpha = 0.7;
    pl.balance.hotFactor = 1.1;
    pl.balance.maxMigrationsPerWindow = 3;
    pl.balance.minPartitionLoad = 2.0;
    pl.health.heartbeatPeriod = sim::Tick(200'000'000); // 200 us

    double t0 = wallMs();
    std::unique_ptr<rack::Rack> rk;
    std::unique_ptr<rack::RackScheduler> sched;
    {
        Scope s(o.spans, "topo.build", o.runId);
        // 64 MB of DDR per chip fits every per-group job arena.
        rk = topo::ClusterTopology::rack(rackBoards, 2)
                 .chip(smallChip(64))
                 .placement(pl)
                 .threads(1)
                 .buildRack();
        host::OffloadParams op;
        op.queueDepth = 1024; // the hot board queues, never rejects
        sched = std::make_unique<rack::RackScheduler>(*rk, op, pl);
    }
    r.topoMs = wallMs() - t0;

    std::uint64_t verdicts[5] = {};
    t0 = wallMs();
    {
        Scope s(o.spans, "setup.inputs", o.runId);
        // Hot keys: distinct partitions all hash-homed on one board.
        const unsigned hot_board = rack::partitionHome(0, rackBoards);
        std::vector<std::uint64_t> hot;
        std::vector<char> seen(pl.keyPartitions, 0);
        for (std::uint64_t k = 0; hot.size() < 8 && k < 1 << 16; ++k) {
            const unsigned part = rack::keyPartition(k, pl.keyPartitions);
            if (seen[part] ||
                rack::partitionHome(part, rackBoards) != hot_board)
                continue;
            seen[part] = 1;
            hot.push_back(k);
        }
        rack::TraceConfig tc;
        tc.ratePerSec = rackRate;
        tc.durationSec = rackSpanSec;
        tc.diurnalPeriodSec = rackSpanSec;
        tc.burstsPerSec = 1000;
        tc.burstLenSec = 0.0001;
        tc.burstMultiplier = 2.0;
        tc.zipf = 0.6;
        tc.seed = derive(o.seed, 3);
        tc.nApps = unsigned(rack::servingMix().size());
        tc.hotStepAtSec = rackSpanSec / 5;
        tc.hotStepFraction = 0.9;
        tc.hotStepKeys = hot;
        const std::vector<rack::TraceEvent> trace = rack::generateTrace(tc);
        const std::vector<rack::MixApp> mix = rack::servingMix();
        sim::Rng rng(derive(o.seed, 4));
        Scope offer(o.spans, "host.offer", o.runId);
        for (const rack::TraceEvent &ev : trace) {
            rack::RackRequest req = rack::makeRequest(ev, mix);
            jitterSize(req.job, rng);
            track(req.job, log, log.add(ev.at));
            ++verdicts[unsigned(sched->enqueueAt(ev.at, std::move(req)))];
        }
    }
    r.inputsMs = wallMs() - t0;

    for (unsigned b = 0; b < rk->nBoards(); ++b)
        for (unsigned d = 0; d < rk->board(b).nDpus(); ++d)
            rk->board(b).eventQueue(d).enableWallProfiling(o.traced);
    t0 = wallMs();
    {
        Scope s(o.spans, "sim.run", o.runId);
        sched->start();
        rk->run();
    }
    r.runMs = wallMs() - t0;

    Scope check(o.spans, "check", o.runId);
    const rack::RackSummary sum = sched->summary();
    using AR = rack::AdmitResult;
    if (sum.offered != sum.admitted + sum.rejected + sum.boardsDown +
                           sum.netLost + sum.shed)
        r.fail("rack-skew: offered != admitted + rejected + boardsDown "
               "+ netLost + shed");
    if (sum.offered != log.due.size() ||
        sum.admitted != verdicts[unsigned(AR::Admitted)] ||
        sum.rejected != verdicts[unsigned(AR::Rejected)] ||
        sum.boardsDown != verdicts[unsigned(AR::BoardsDown)] ||
        sum.netLost != verdicts[unsigned(AR::NetLost)] ||
        sum.shed != verdicts[unsigned(AR::Shed)])
        r.fail("rack-skew: summary disagrees with the admission "
               "verdicts");
    if (sum.serving.validationFailed || !rk->allFinished())
        r.fail("rack-skew: a job failed validation or never finished");
    settle(r, log, rackSloUs);

    std::uint64_t link_offered = 0;
    for (unsigned b = 0; b < rk->nBoards(); ++b) {
        board::Board &brd = rk->board(b);
        t.simTicks = std::max(t.simTicks, double(brd.now()));
        addBoard(t, brd, r);
        link_offered += brd.fabric().offeredBytes();
        for (unsigned d = 0; d < sched->boardScheduler(b).nShards(); ++d)
            addJobs(t, sched->boardScheduler(b).shard(d).jobs());
    }
    addSummary(t, sum.serving);
    addSnapshot(t, r, link_offered);
    t.mix(rk->now());
    publish(r, t);

    auto &m = r.layer;
    m["rack.offered"] = double(sum.offered);
    m["rack.admitted"] = double(sum.admitted);
    m["rack.rejected"] = double(sum.rejected);
    m["rack.shed"] = double(sum.shed);
    m["rack.admit_reroutes"] = double(sum.admitReroutes);
    m["rack.failovers"] = double(sum.failovers);
    m["racknet.bytes"] = double(rk->net().bytesCarried());
    m["racknet.busy_frac"] = rk->net().peakUtilization(rk->now());
    m["rack.mig.started"] = double(sum.migStarted);
    m["rack.mig.committed"] = double(sum.migCommitted);
    m["rack.mig.commit_frac"] =
        ratio(double(sum.migCommitted), double(sum.migStarted));
    m["rack.mig.forwarded"] = double(sum.forwarded);
    m["rack.mig.bytes"] = double(sum.migrationBytes);
    m["rack.health.probes"] = double(sum.probes);
    return r;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> w = {
        {"chip-serve", false, chipServe},
        {"board-sql", true, boardSql},
        {"board-skew", true, boardSkew},
        {"rack-skew", false, rackSkew},
    };
    return w;
}

} // namespace dpubench
