/**
 * @file
 * Offload-scheduler tests: admission control under a bounded queue,
 * deadline reaping of wedged and slow kernels (the simulator must
 * never hang on a fault), late-ack group reclamation, and the
 * closed-loop resubmission path, and inputs prepared ahead of
 * dispatch on helper threads. Fault injection uses the
 * JobRequest::makeJob hook to plant kernels the registry would
 * never produce.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "host/offload.hh"
#include "host/prepare.hh"
#include "rt/dms_ctl.hh"
#include "sim/fault.hh"
#include "soc/soc.hh"

using namespace dpu;
using namespace dpu::host;

namespace {

/** A trivial job: every lane charges a few ALU ops and acks. */
JobRequest
quickJob()
{
    JobRequest req;
    req.makeJob = [](const apps::ServingContext &) {
        apps::ServingJob job;
        job.stage = [] {};
        job.lane = [](core::DpCore &c, unsigned) { c.alu(16); };
        return job;
    };
    return req;
}

/** A job whose lanes burn @p cycles before acking. */
JobRequest
slowJob(std::uint64_t cycles)
{
    JobRequest req;
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

/** A job whose lane 0 wedges forever; other lanes ack normally. */
JobRequest
wedgedJob()
{
    JobRequest req;
    req.makeJob = [](const apps::ServingContext &) {
        apps::ServingJob job;
        job.stage = [] {};
        job.lane = [](core::DpCore &c, unsigned lane) {
            if (lane == 0)
                c.blockUntil([] { return false; });
            c.alu(16);
        };
        return job;
    };
    return req;
}

using Opts = std::vector<std::pair<std::string, std::string>>;

/** Every registry entry at the chip-serve benchmark mix's sizes. */
const std::map<std::string, Opts> &
servingSizes()
{
    static const Opts hll = {{"nElements", "32768"},
                             {"cardinality", "8192"},
                             {"pBits", "12"}};
    static const std::map<std::string, Opts> sizes = {
        {"filter", {{"rowsPerCore", "16384"}}},
        {"groupby-low", {{"nRows", "65536"}, {"ndv", "512"}}},
        {"groupby-high", {{"nRows", "65536"}, {"ndv", "1024"}}},
        {"hll-crc", hll},
        {"hll-murmur", hll},
        {"json", {{"nRecords", "2048"}}},
        {"svm", {{"nTest", "8192"}, {"dims", "64"}}},
        {"simsearch",
         {{"nDocs", "1024"}, {"vocab", "2048"}, {"nQueries", "1"}}},
        {"disparity",
         {{"width", "64"}, {"height", "32"}, {"maxShift", "8"}}},
    };
    return sizes;
}

/** One-group chip (4 managed cores) for serialization tests. */
OffloadParams
oneGroup()
{
    OffloadParams p;
    p.nCores = 4;
    p.groupSize = 4;
    return p;
}

} // namespace

TEST(OffloadScheduler, MixedRegistryLoadCompletesAndValidates)
{
    soc::SocParams sp = soc::dpu40nm();
    sp.ddrBytes = 64 << 20;
    soc::Soc s(sp);
    soc::HostA9 a9(s.eventQueue(), s.mbc());
    OffloadScheduler sched(s, a9, {});

    sim::Tick t = 0;
    unsigned i = 0;
    auto enqueue = [&](const std::string &app, const Opts &opts) {
        JobRequest req;
        req.app = app;
        const apps::AppSpec *spec = apps::findApp(app);
        ASSERT_NE(spec, nullptr) << app;
        apps::ConfigHandle cfg = spec->makeConfig();
        ASSERT_TRUE(spec->set(cfg, "seed", "11"));
        for (const auto &[k, v] : opts)
            ASSERT_TRUE(spec->set(cfg, k, v)) << app << " " << k;
        req.cfg = std::move(cfg);
        req.seed = 100 + i++;
        sched.enqueueAt(t += sim::Tick(50e6), std::move(req));
    };

    // A small mixed load, shrunk to serving size.
    const Opts filter = {{"rowsPerCore", "4096"}};
    const Opts groupBy = {{"nRows", "16384"}, {"ndv", "128"}};
    enqueue("filter", filter);
    enqueue("groupby-low", groupBy);
    enqueue("hll-crc", {{"nElements", "8192"},
                        {"cardinality", "2048"},
                        {"pBits", "10"}});
    enqueue("json", {{"nRecords", "512"}});
    enqueue("filter", filter);
    enqueue("groupby-low", groupBy);

    // Then every registry entry once, at the sizes the chip-serve
    // benchmark mix uses, plus the NLZ variant of the HLL kernel.
    const std::map<std::string, Opts> &serving = servingSizes();
    for (const apps::AppSpec &spec : apps::registry()) {
        ASSERT_EQ(serving.count(spec.name), 1u)
            << spec.name << " has no serving size";
        enqueue(spec.name, serving.at(spec.name));
    }
    Opts nlz = serving.at("hll-crc");
    nlz.push_back({"useNtz", "false"});
    enqueue("hll-crc", nlz);
    const unsigned n_jobs = i;
    ASSERT_EQ(n_jobs, 6 + apps::registry().size() + 1);

    sched.start();
    s.run();

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.submitted, n_jobs);
    EXPECT_EQ(sum.completed, n_jobs);
    EXPECT_EQ(sum.timedOut, 0u);
    EXPECT_EQ(sum.rejected, 0u);
    EXPECT_EQ(sum.validationFailed, 0u);
    for (const JobRecord &rec : sched.jobs()) {
        EXPECT_EQ(rec.state, JobState::Completed) << rec.app;
        EXPECT_TRUE(rec.valid) << rec.app;
        EXPECT_GT(rec.latencyUs(), 0.0);
    }
    EXPECT_LE(sum.p50Us, sum.p95Us);
    EXPECT_LE(sum.p95Us, sum.p99Us);
    EXPECT_LE(sum.p99Us, sum.maxUs);
    EXPECT_GT(sum.throughputJobsPerSec, 0.0);
    EXPECT_TRUE(s.allFinished());
    EXPECT_TRUE(a9.finished());
}

TEST(OffloadScheduler, RegistryValidationIsNotVacuous)
{
    // prepare() computes each job's expected result from the inputs
    // stage() writes. Right after staging, before any lane has run, the
    // job's validator must reject the untouched output region; after
    // a normal dispatch it must accept the lanes' output.
    for (const apps::AppSpec &spec : apps::registry()) {
        SCOPED_TRACE(spec.name);
        soc::SocParams sp = soc::dpu40nm();
        sp.ddrBytes = 64 << 20;
        soc::Soc s(sp);
        soc::HostA9 a9(s.eventQueue(), s.mbc());
        OffloadScheduler sched(s, a9, oneGroup());

        apps::ConfigHandle cfg = spec.makeConfig();
        ASSERT_EQ(servingSizes().count(spec.name), 1u);
        for (const auto &[k, v] : servingSizes().at(spec.name))
            ASSERT_TRUE(spec.set(cfg, k, v)) << k;

        std::vector<bool> staged_valid;
        JobRequest req;
        req.makeJob = [&](const apps::ServingContext &ctx) {
            apps::ServingJob job = spec.serve(cfg, ctx);
            job.stage = [stage = job.stage, validate = job.validate,
                         &staged_valid] {
                stage();
                staged_valid.push_back(validate());
            };
            return job;
        };
        req.seed = 4242;
        sched.enqueueAt(0, std::move(req));
        sched.start();
        s.run();

        ASSERT_EQ(staged_valid.size(), 1u);
        EXPECT_FALSE(staged_valid[0]) << "validates with no lane run";
        const ServingSummary sum = sched.summary();
        EXPECT_EQ(sum.completed, 1u);
        EXPECT_EQ(sum.validationFailed, 0u);
        ASSERT_EQ(sched.jobs().size(), 1u);
        EXPECT_TRUE(sched.jobs()[0].valid);
    }
}

TEST(OffloadScheduler, WedgedKernelIsReapedAndQueueKeepsDraining)
{
    soc::Soc s;
    soc::HostA9 a9(s.eventQueue(), s.mbc());
    OffloadParams p;
    p.nCores = 8; // two groups: the wedge costs one, not the chip
    p.groupSize = 4;
    OffloadScheduler sched(s, a9, p);

    // The wedge arrives first and grabs a group; everything behind
    // it must still drain through the surviving group.
    JobRequest wedge = wedgedJob();
    wedge.timeout = sim::Tick(1e9); // 1 ms
    sched.enqueueAt(0, std::move(wedge));
    for (unsigned i = 0; i < 4; ++i)
        sched.enqueueAt(1000 + i, quickJob());

    sched.start();
    s.run(); // must return: a wedged kernel never hangs the sim

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.submitted, 5u);
    EXPECT_EQ(sum.timedOut, 1u);
    EXPECT_EQ(sum.completed, 4u);
    EXPECT_EQ(sum.wedgedGroups, 1u);
    EXPECT_EQ(sched.jobs()[0].state, JobState::TimedOut);
    // The wedged lane is the one fiber left parked.
    EXPECT_EQ(s.unfinishedCores().size(), 1u);
    EXPECT_TRUE(a9.finished());
}

TEST(OffloadScheduler, QueuedJobPastDeadlineIsReapedUndispatched)
{
    soc::Soc s;
    soc::HostA9 a9(s.eventQueue(), s.mbc());
    OffloadScheduler sched(s, a9, oneGroup());

    // ~2.5 ms of kernel on the only group.
    sched.enqueueAt(0, slowJob(2'000'000));
    JobRequest doomed = quickJob();
    doomed.timeout = sim::Tick(1e9); // 1 ms — expires while queued
    sched.enqueueAt(1, std::move(doomed));
    sched.enqueueAt(2, quickJob()); // default deadline: survives

    sched.start();
    s.run();

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.completed, 2u);
    EXPECT_EQ(sum.timedOut, 1u);
    const JobRecord &doomed_rec = sched.jobs()[1];
    EXPECT_EQ(doomed_rec.state, JobState::TimedOut);
    EXPECT_EQ(doomed_rec.dispatchedAt, 0u)
        << "the doomed job must never have reached a group";
    EXPECT_EQ(sched.jobs()[2].state, JobState::Completed);
    EXPECT_TRUE(s.allFinished());
}

TEST(OffloadScheduler, BoundedQueueRejectsOverflow)
{
    soc::Soc s;
    soc::HostA9 a9(s.eventQueue(), s.mbc());
    OffloadParams p = oneGroup();
    p.queueDepth = 2;
    OffloadScheduler sched(s, a9, p);

    for (unsigned i = 0; i < 10; ++i)
        sched.enqueueAt(0, quickJob());

    sched.start();
    s.run();

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.submitted, 10u);
    EXPECT_EQ(sum.accepted, 2u);
    EXPECT_EQ(sum.rejected, 8u);
    EXPECT_EQ(sum.completed, 2u);
    unsigned rejected = 0;
    for (const JobRecord &rec : sched.jobs())
        rejected += rec.state == JobState::Rejected;
    EXPECT_EQ(rejected, 8u);
    EXPECT_TRUE(s.allFinished());
}

TEST(OffloadScheduler, LateAckReclaimsQuarantinedGroup)
{
    soc::Soc s;
    soc::HostA9 a9(s.eventQueue(), s.mbc());
    OffloadScheduler sched(s, a9, oneGroup());

    // Finite but slower than its deadline: reaped at 1 ms, acks at
    // ~2.5 ms, and the group must then serve the follow-up job.
    JobRequest slow = slowJob(2'000'000);
    slow.timeout = sim::Tick(1e9);
    sched.enqueueAt(0, std::move(slow));
    sched.enqueueAt(1, quickJob());

    sched.start();
    s.run();

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.timedOut, 1u);
    EXPECT_EQ(sum.lateJobs, 1u);
    EXPECT_EQ(sum.completed, 1u);
    EXPECT_EQ(sum.wedgedGroups, 0u)
        << "a late ack must reclaim the quarantined group";
    EXPECT_EQ(sched.jobs()[0].state, JobState::TimedOut);
    EXPECT_EQ(sched.jobs()[1].state, JobState::Completed);
    EXPECT_GT(sched.jobs()[1].dispatchedAt,
              sched.jobs()[0].finishedAt)
        << "the follow-up can only dispatch after the reclamation";
    EXPECT_TRUE(s.allFinished());
}

TEST(OffloadScheduler, ClosedLoopResubmitsFromCompletionHook)
{
    soc::Soc s;
    soc::HostA9 a9(s.eventQueue(), s.mbc());
    OffloadScheduler sched(s, a9, oneGroup());

    const unsigned target = 12;
    unsigned issued = 2;
    sched.enqueueAt(0, quickJob());
    sched.enqueueAt(0, quickJob());
    sched.onComplete([&](const JobRecord &) {
        if (issued < target) {
            ++issued;
            EXPECT_TRUE(sched.submitNow(quickJob()));
        }
    });

    sched.start();
    s.run();

    EXPECT_EQ(sched.summary().completed, target);
    EXPECT_EQ(sched.summary().rejected, 0u);
    EXPECT_TRUE(s.allFinished());
    EXPECT_TRUE(a9.finished());
}

// ----------------------------------------------------------------
// Recovery paths: requeue, attempt budgets, failure attribution,
// and dispatch-id-keyed late-ack reclamation.
// ----------------------------------------------------------------

namespace {

/** Two-group chip: a fault costs one group, not the test. */
OffloadParams
twoGroups()
{
    OffloadParams p;
    p.nCores = 8;
    p.groupSize = 4;
    return p;
}

} // namespace

TEST(OffloadScheduler, ReapedJobRequeuesAndCompletesElsewhere)
{
    soc::Soc s;
    soc::HostA9 a9(s.eventQueue(), s.mbc());
    OffloadScheduler sched(s, a9, twoGroups());

    // First dispatch wedges lane 0 forever; the retry is clean.
    auto dispatches = std::make_shared<unsigned>(0);
    JobRequest req;
    req.timeout = sim::Tick(1e9); // 1 ms
    req.maxAttempts = 2;          // per-request override
    req.makeJob = [dispatches](const apps::ServingContext &) {
        const unsigned n = (*dispatches)++;
        apps::ServingJob job;
        job.stage = [] {};
        job.lane = [n](core::DpCore &c, unsigned lane) {
            if (n == 0 && lane == 0)
                c.blockUntil([] { return false; });
            c.alu(16);
        };
        return job;
    };
    sched.enqueueAt(0, std::move(req));

    sched.start();
    s.run();

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.completed, 1u);
    EXPECT_EQ(sum.timedOut, 0u);
    EXPECT_EQ(sum.requeued, 1u);
    EXPECT_EQ(sum.quarantines, 1u);
    EXPECT_EQ(sum.wedgedGroups, 1u)
        << "the wedged group stays quarantined";
    const JobRecord &rec = sched.jobs()[0];
    EXPECT_EQ(rec.state, JobState::Completed);
    EXPECT_EQ(rec.attempts, 2u);
    EXPECT_EQ(s.unfinishedCores().size(), 1u);
    EXPECT_TRUE(a9.finished());
}

TEST(OffloadScheduler, ExhaustedAttemptsReportDeadlineCause)
{
    soc::Soc s;
    soc::HostA9 a9(s.eventQueue(), s.mbc());
    OffloadParams p = twoGroups();
    p.maxAttempts = 2;
    OffloadScheduler sched(s, a9, p);

    JobRequest wedge = wedgedJob(); // wedges on every attempt
    wedge.timeout = sim::Tick(1e9);
    sched.enqueueAt(0, std::move(wedge));

    sched.start();
    s.run();

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.completed, 0u);
    EXPECT_EQ(sum.timedOut, 1u);
    EXPECT_EQ(sum.requeued, 1u);
    EXPECT_EQ(sum.quarantines, 2u);
    EXPECT_EQ(sum.wedgedGroups, 2u);
    EXPECT_EQ(sum.wedgeTimeouts, 0u)
        << "a parked fiber is not a DMAC wedge";
    const JobRecord &rec = sched.jobs()[0];
    EXPECT_EQ(rec.state, JobState::TimedOut);
    EXPECT_EQ(rec.attempts, 2u);
    EXPECT_STREQ(rec.cause, "deadline");
    EXPECT_LT(sum.availability, 1.0);
    EXPECT_TRUE(a9.finished());
}

TEST(OffloadScheduler, HungDmacTimeoutIsAttributedToTheWedge)
{
    sim::faultPlane().reset();
    sim::faultPlane().configure("dms.wedge@nth=1,max=1", 3);

    soc::Soc s;
    soc::HostA9 a9(s.eventQueue(), s.mbc());
    OffloadScheduler sched(s, a9, twoGroups());

    // Lane 0 pushes one DMS descriptor and waits unbounded; the
    // injected DMAC wedge drops its completion, so the job is
    // reaped and the reaper must blame the hung DMAC.
    JobRequest req;
    req.timeout = sim::Tick(1e9);
    req.makeJob = [](const apps::ServingContext &ctx) {
        apps::ServingJob job;
        job.stage = [] {};
        job.lane = [ctx](core::DpCore &c, unsigned lane) {
            if (lane != 0) {
                c.alu(16);
                return;
            }
            rt::DmsCtl ctl(c, ctx.soc->dmsFor(c.id()));
            ctl.ddrToDmem()
                .rows(64)
                .width(4)
                .from(ctx.arena)
                .to(0)
                .event(0)
                .push(0);
            ctl.wfe(0); // hangs: the wedge never completes it
        };
        return job;
    };
    sched.enqueueAt(0, std::move(req));
    sched.enqueueAt(1, quickJob()); // the other group still serves

    sched.start();
    s.run();
    sim::faultPlane().reset();

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.completed, 1u);
    EXPECT_EQ(sum.timedOut, 1u);
    EXPECT_EQ(sum.wedgeTimeouts, 1u);
    const JobRecord &rec = sched.jobs()[0];
    EXPECT_EQ(rec.state, JobState::TimedOut);
    EXPECT_STREQ(rec.cause, "dmsWedge");
    EXPECT_TRUE(a9.finished());
}

TEST(OffloadScheduler, LateAckFromOldDispatchReclaimsDuringRetry)
{
    soc::Soc s;
    soc::HostA9 a9(s.eventQueue(), s.mbc());
    OffloadParams p = twoGroups();
    p.maxAttempts = 2;
    OffloadScheduler sched(s, a9, p);

    // Attempt 1 is slow-but-finite (reaped, acks late); attempt 2
    // is quick. The late acks carry the first dispatch id and must
    // reclaim the quarantined group — not be miscredited to the
    // job, which by then is completing on the other group.
    auto dispatches = std::make_shared<unsigned>(0);
    JobRequest req;
    req.timeout = sim::Tick(1e9); // 1 ms
    req.makeJob = [dispatches](const apps::ServingContext &) {
        const unsigned n = (*dispatches)++;
        apps::ServingJob job;
        job.stage = [] {};
        job.lane = [n](core::DpCore &c, unsigned) {
            c.sleepCycles(n == 0 ? 2'000'000 : 1'000);
        };
        return job;
    };
    sched.enqueueAt(0, std::move(req));
    // A late arrival keeps the host listening past the late acks.
    sched.enqueueAt(sim::Tick(4e9), quickJob());

    sched.start();
    s.run();

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.completed, 2u);
    EXPECT_EQ(sum.timedOut, 0u);
    EXPECT_EQ(sum.requeued, 1u);
    EXPECT_EQ(sum.quarantines, 1u);
    EXPECT_EQ(sum.lateJobs, 1u);
    EXPECT_EQ(sum.wedgedGroups, 0u)
        << "the late acks must reclaim the quarantined group";
    const JobRecord &rec = sched.jobs()[0];
    EXPECT_EQ(rec.state, JobState::Completed);
    EXPECT_EQ(rec.attempts, 2u);
    EXPECT_LT(sum.availability, 1.0);
    EXPECT_TRUE(s.allFinished());
    EXPECT_TRUE(a9.finished());
}

// ----------------------------------------------------------------
// Inputs prepared ahead of dispatch
// ----------------------------------------------------------------

namespace {

/** @p spec's config at its chip-serve serving size. */
apps::ConfigHandle
servingConfig(const apps::AppSpec &spec)
{
    apps::ConfigHandle cfg = spec.makeConfig();
    for (const auto &[k, v] : servingSizes().at(spec.name))
        EXPECT_TRUE(spec.set(cfg, k, v)) << spec.name << " " << k;
    return cfg;
}

/** Every registry app once, 200 us apart, each request built by
 *  @p make from its app and config. */
template <typename Make>
unsigned
enqueueRegistryMix(OffloadScheduler &sched, Make make)
{
    unsigned n = 0;
    for (const apps::AppSpec &spec : apps::registry()) {
        JobRequest req = make(spec, servingConfig(spec));
        req.seed = 300 + n;
        sched.enqueueAt(sim::Tick(200e6) * ++n, std::move(req));
    }
    return n;
}

/** A plain registry request. */
JobRequest
registryRequest(const apps::AppSpec &spec, apps::ConfigHandle cfg)
{
    JobRequest req;
    req.app = spec.name;
    req.cfg = std::move(cfg);
    return req;
}

/** A registry request behind a dpubench-style wrapper: its makeJob
 *  forwards the context it is handed to the app's serve(). */
JobRequest
forwardingRequest(const apps::AppSpec &spec, apps::ConfigHandle cfg)
{
    JobRequest req = registryRequest(spec, cfg);
    req.makeJob = [&spec, cfg](const apps::ServingContext &ctx) {
        return spec.serve(cfg, ctx);
    };
    return req;
}

soc::SocParams
servingChip()
{
    soc::SocParams sp = soc::dpu40nm();
    sp.ddrBytes = 64 << 20;
    return sp;
}

} // namespace

TEST(PreparedInputs, HelperThreadAndInlinePathsStageTheSameJob)
{
    for (const apps::AppSpec &spec : apps::registry()) {
        SCOPED_TRACE(spec.name);
        const apps::ConfigHandle cfg = servingConfig(spec);
        soc::Soc s(servingChip());
        apps::ServingContext ctx;
        ctx.soc = &s;
        ctx.nLanes = 4;
        ctx.arena = 1 << 20;
        ctx.arenaBytes = 6 << 20;
        ctx.seed = 4242;

        apps::ServingContext ahead = ctx;
        std::thread helper([&] {
            ahead.prepared = spec.prepare(cfg, ctx.seed, ctx.nLanes);
        });
        helper.join();
        EXPECT_GT(ahead.prepared.bytes, 0u);

        const std::uint64_t inline_before = apps::inlinePrepares();
        apps::ServingJob prepared = spec.serve(cfg, ahead);
        EXPECT_EQ(apps::inlinePrepares(), inline_before)
            << "serve() ignored inputs made for its request";
        apps::ServingJob inlined = spec.serve(cfg, ctx);
        EXPECT_EQ(apps::inlinePrepares(), inline_before + 1);

        // Both jobs stage into the same arena: the bytes must match.
        std::vector<std::uint8_t> a(ctx.arenaBytes), b(ctx.arenaBytes);
        const std::vector<std::uint8_t> zero(ctx.arenaBytes, 0);
        prepared.stage();
        s.memory().store().read(ctx.arena, a.data(), a.size());
        s.memory().store().write(ctx.arena, zero.data(), zero.size());
        inlined.stage();
        s.memory().store().read(ctx.arena, b.data(), b.size());
        EXPECT_TRUE(a == b) << "staged DDR images differ";

        // One real dispatch of the lanes; both validators must agree
        // with its output, and neither with the untouched output.
        EXPECT_FALSE(prepared.validate());
        EXPECT_FALSE(inlined.validate());
        for (unsigned lane = 0; lane < ctx.nLanes; ++lane)
            s.start(lane, [&inlined, lane](core::DpCore &c) {
                inlined.lane(c, lane);
            });
        s.run();
        ASSERT_TRUE(s.allFinished());
        EXPECT_TRUE(inlined.validate());
        EXPECT_TRUE(prepared.validate());
    }
}

TEST(PreparedInputs, ForwardingWrapperConsumesPreparedInputs)
{
    PreparePool pool(2);
    // dpubench's track() wraps every request in a makeJob that hands
    // its context on to the app's serve(); the inputs prepared ahead
    // must ride through it. A wrapper that drops them is the control.
    for (const bool forward : {true, false}) {
        SCOPED_TRACE(forward ? "forwarding" : "dropping");
        soc::Soc s(servingChip());
        soc::HostA9 a9(s.eventQueue(), s.mbc());
        OffloadScheduler sched(s, a9, {});
        sched.usePreparePool(&pool);
        const unsigned n = enqueueRegistryMix(
            sched, [forward](const apps::AppSpec &spec,
                             apps::ConfigHandle cfg) {
                JobRequest req = forwardingRequest(spec, cfg);
                if (!forward)
                    req.makeJob = [&spec,
                                   cfg](const apps::ServingContext &c) {
                        apps::ServingContext bare = c;
                        bare.prepared = {};
                        return spec.serve(cfg, bare);
                    };
                return req;
            });

        const std::uint64_t inline_before = apps::inlinePrepares();
        sched.start();
        s.run();

        EXPECT_EQ(sched.preparedAhead(), n);
        EXPECT_EQ(apps::inlinePrepares() - inline_before,
                  forward ? 0u : n);
        const ServingSummary sum = sched.summary();
        EXPECT_EQ(sum.completed, n);
        EXPECT_EQ(sum.validationFailed, 0u);
    }
}

TEST(PreparedInputs, RequeuedJobReusesItsSlot)
{
    // The first dispatch's core stalls forever, so the job is reaped
    // at its deadline and requeued onto the other group. Its second
    // dispatch takes its inputs from the same slot, not from a fresh
    // submission or serve()'s inline fallback.
    sim::faultPlane().reset();
    sim::faultPlane().configure("core.stall@nth=1,max=1,mag=0", 5);
    PreparePool pool(2);
    soc::Soc s(servingChip());
    soc::HostA9 a9(s.eventQueue(), s.mbc());
    OffloadParams p = twoGroups();
    p.maxAttempts = 2;
    OffloadScheduler sched(s, a9, p);
    sched.usePreparePool(&pool);

    const apps::AppSpec *spec = apps::findApp("filter");
    ASSERT_NE(spec, nullptr);
    JobRequest req = registryRequest(*spec, servingConfig(*spec));
    req.timeout = sim::Tick(2e9); // 2 ms
    req.seed = 77;
    sched.enqueueAt(sim::Tick(10e6), std::move(req));

    const std::uint64_t inline_before = apps::inlinePrepares();
    sched.start();
    s.run();
    sim::faultPlane().reset();

    const ServingSummary sum = sched.summary();
    EXPECT_EQ(sum.requeued, 1u);
    EXPECT_EQ(sum.completed, 1u);
    EXPECT_EQ(sum.validationFailed, 0u);
    ASSERT_EQ(sched.jobs().size(), 1u);
    EXPECT_EQ(sched.jobs()[0].attempts, 2u);
    EXPECT_TRUE(sched.jobs()[0].valid);
    EXPECT_EQ(sched.preparedAhead(), 1u);
    EXPECT_EQ(apps::inlinePrepares(), inline_before);
}

TEST(PreparedInputs, MakeJobOnlyRequestsArePreparedNever)
{
    soc::Soc s;
    soc::HostA9 a9(s.eventQueue(), s.mbc());
    OffloadScheduler sched(s, a9, twoGroups());
    for (unsigned i = 0; i < 6; ++i)
        sched.enqueueAt(sim::Tick(1e6) * i, quickJob());
    sched.start();
    s.run();
    EXPECT_EQ(sched.summary().completed, 6u);
    EXPECT_EQ(sched.preparedAhead(), 0u);
}

TEST(PreparedInputs, ZeroHelpersRunIsIdenticalToHelperRun)
{
    // Preparation is invisible to the simulation: the same request
    // stream gives the same records and the same chip stats whether
    // helpers prepared ahead or every dispatch prepared inline.
    auto run = [](PreparePool *pool, std::uint64_t &ahead) {
        soc::Soc s(servingChip());
        soc::HostA9 a9(s.eventQueue(), s.mbc());
        OffloadScheduler sched(s, a9, {});
        sched.usePreparePool(pool);
        enqueueRegistryMix(sched, registryRequest);
        sched.start();
        s.run();
        std::ostringstream os;
        for (const JobRecord &rec : sched.jobs())
            os << rec.id << ' ' << rec.app << ' ' << rec.dispatchedAt
               << ' ' << rec.finishedAt << ' ' << rec.valid << '\n';
        s.dumpStats(os);
        ahead = sched.preparedAhead();
        return os.str();
    };
    PreparePool helpers(3), none(0);
    std::uint64_t with_helpers = 0, with_none = 0, with_null = 0;
    const std::string a = run(&helpers, with_helpers);
    const std::string b = run(&none, with_none);
    const std::string c = run(nullptr, with_null);
    EXPECT_EQ(with_helpers, apps::registry().size());
    EXPECT_EQ(with_none, 0u);
    EXPECT_EQ(with_null, 0u);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, c);
}
