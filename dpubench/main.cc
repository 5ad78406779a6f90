/**
 * @file
 * dpubench: one benchmark process per run.
 *
 *   dpubench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--spans <path>]
 *
 * Repeats the workload, built afresh from the seed each time, until
 * --seconds of wall time have passed, and reports medians over the
 * repetitions. Simulated results must repeat exactly: every
 * repetition (and, for the board workloads, the traced re-run at
 * four epoch-runner threads) is checked against the first.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 alternates
 * untraced and traced repetitions (wall profiling on every event
 * queue, spans around each layer call) and prints the per-layer
 * metrics; --spans names the file the spans go to, written once at
 * exit. The last stdout line is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * The exit code is non-zero when any correctness or determinism
 * check failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "host/summary.hh"
#include "sim/logging.hh"
#include "workloads.hh"

using namespace dpubench;
namespace host = dpu::host;

namespace {

struct Metric
{
    const char *name;
    const char *unit;
    const char *clock; ///< "host", "sim" or "-"
};

const Metric endToEnd[] = {
    {"setup_s", "s", "host"},
    {"host_wall_s", "s", "host"},
    {"peak_rss_mb", "MB", "host"},
    {"sim_ops_per_s", "ops/s", "sim"},
    {"sim_lat_p50_us", "us", "sim"},
    {"sim_lat_tail_us", "us", "sim"},
    {"sim_slo_frac", "fraction", "sim"},
};

const Metric perLayer[] = {
    {"sim.events", "count", "sim"},
    {"sim.events.generic", "count", "sim"},
    {"sim.events.core", "count", "sim"},
    {"sim.events.dms", "count", "sim"},
    {"sim.events.ate", "count", "sim"},
    {"sim.events.mbc", "count", "sim"},
    {"sim.events.mem", "count", "sim"},
    {"sim.events.soc", "count", "sim"},
    {"sim.events.host", "count", "sim"},
    {"sim.events.link", "count", "sim"},
    {"sim.events_per_s", "1/s", "host"},
    {"sim.schedules", "count", "sim"},
    {"sim.heap_inserts", "count", "sim"},
    {"sim.cascades", "count", "sim"},
    {"sim.pool_slabs", "count", "sim"},
    {"sim.max_pending", "count", "sim"},
    {"sim.run_ms", "ms", "host"},
    {"sim.self_ms.generic", "ms", "host"},
    {"sim.self_ms.core", "ms", "host"},
    {"sim.self_ms.dms", "ms", "host"},
    {"sim.self_ms.ate", "ms", "host"},
    {"sim.self_ms.mbc", "ms", "host"},
    {"sim.self_ms.mem", "ms", "host"},
    {"sim.self_ms.soc", "ms", "host"},
    {"sim.self_ms.host", "ms", "host"},
    {"sim.self_ms.link", "ms", "host"},
    {"sim.untagged_ms", "ms", "host"},
    {"sim.runner.epochs", "count", "sim"},
    {"sim.runner.idle_skips", "count", "sim"},
    {"sim.runner.empty_epochs", "count", "sim"},
    {"sim.runner.events_per_epoch", "count", "sim"},
    {"sim.runner.us_per_epoch", "us", "host"},
    {"sim.runner.serial_ratio", "ratio", "host"},
    {"core.ops", "count", "sim"},
    {"core.blocks", "count", "sim"},
    {"core.ipc", "ratio", "sim"},
    {"ddr.bytes", "bytes", "sim"},
    {"ddr.row_hit_frac", "fraction", "sim"},
    {"ddr.busy_frac", "fraction", "sim"},
    {"dms.descriptors", "count", "sim"},
    {"dms.bytes", "bytes", "sim"},
    {"dms.gbps", "GB/s", "sim"},
    {"dms.rows_partitioned", "count", "sim"},
    {"dms.keys_hashed", "count", "sim"},
    {"ate.rpcs", "count", "sim"},
    {"mbc.sent", "count", "sim"},
    {"mbc.delivered", "count", "sim"},
    {"host.queue_wait_p50_us", "us", "sim"},
    {"host.queue_wait_tail_us", "us", "sim"},
    {"host.service_p50_us", "us", "sim"},
    {"host.service_tail_us", "us", "sim"},
    {"host.dispatched", "count", "sim"},
    {"host.requeued", "count", "sim"},
    {"host.rejected", "count", "sim"},
    {"host.timed_out", "count", "sim"},
    {"link.bytes", "bytes", "sim"},
    {"link.msgs", "count", "sim"},
    {"link.busy_frac", "fraction", "sim"},
    {"link.migration_bytes", "bytes", "sim"},
    {"link.dropped_bytes", "bytes", "sim"},
    {"board.bal.planned", "count", "sim"},
    {"board.bal.committed", "count", "sim"},
    {"board.bal.aborted", "count", "sim"},
    {"board.bal.commit_frac", "fraction", "sim"},
    {"board.bal.forwarded", "count", "sim"},
    {"board.bal.state_bytes", "bytes", "sim"},
    {"board.bal.chunk_retries", "count", "sim"},
    {"rack.offered", "count", "sim"},
    {"rack.admitted", "count", "sim"},
    {"rack.rejected", "count", "sim"},
    {"rack.shed", "count", "sim"},
    {"rack.admit_reroutes", "count", "sim"},
    {"rack.failovers", "count", "sim"},
    {"racknet.bytes", "bytes", "sim"},
    {"racknet.busy_frac", "fraction", "sim"},
    {"rack.mig.started", "count", "sim"},
    {"rack.mig.committed", "count", "sim"},
    {"rack.mig.commit_frac", "fraction", "sim"},
    {"rack.mig.forwarded", "count", "sim"},
    {"rack.mig.bytes", "bytes", "sim"},
    {"rack.health.probes", "count", "sim"},
    {"topo.build_ms", "ms", "host"},
    {"setup.inputs_ms", "ms", "host"},
    {"trace.overhead_frac", "fraction", "host"},
    {"lat.tail_pct", "%", "sim"},
    {"lat.samples", "count", "sim"},
    {"fail_frac", "fraction", "-"},
};

/** The table entry named @p name (every printed name has one). */
const Metric &
metric(const char *name)
{
    for (const Metric &m : endToEnd)
        if (std::strcmp(m.name, name) == 0)
            return m;
    for (const Metric &m : perLayer)
        if (std::strcmp(m.name, name) == 0)
            return m;
    panic("no metric named %s", name);
}

/** Per-layer metrics measured on the host clock: taken as medians
 *  over the traced repetitions, not from the first one. */
bool
hostLayer(const Metric &m)
{
    return std::strcmp(m.clock, "host") == 0;
}

const char *
argValue(int argc, char **argv, const char *flag, const char *fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return fallback;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Everything simulated about a repetition, hashed: must match
 *  exactly across repetitions and thread counts. */
std::uint64_t
simKey(const Rep &r)
{
    std::uint64_t h = r.digest;
    auto mix = [&h](std::uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    mix(r.offered);
    mix(r.failed);
    mix(r.withinSlo);
    mix(std::bit_cast<std::uint64_t>(r.work));
    mix(std::bit_cast<std::uint64_t>(r.simSeconds));
    for (const double us : r.latUs)
        mix(std::bit_cast<std::uint64_t>(us));
    return h;
}

/** Simulated end-to-end metrics of one repetition. */
void
simMetrics(const Rep &r, std::vector<std::pair<const char *, double>> &out,
           double &tail_pct)
{
    std::vector<double> lat = r.latUs;
    std::sort(lat.begin(), lat.end());
    out.push_back({"sim_ops_per_s",
                   r.simSeconds > 0 ? r.work / r.simSeconds : 0});
    out.push_back({"sim_lat_p50_us", host::percentileOf(lat, 0.5)});
    out.push_back({"sim_lat_tail_us", tailOf(lat, tail_pct)});
    out.push_back(
        {"sim_slo_frac",
         r.offered ? double(r.withinSlo) / double(r.offered) : 0});
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

} // namespace

int
main(int argc, char **argv)
{
    dpu::sim::setVerbose(false);
    const std::string name = argValue(argc, argv, "--workload", "");
    const char *seed_arg = argValue(argc, argv, "--seed", nullptr);
    const double seconds =
        std::atof(argValue(argc, argv, "--seconds", "10"));
    const int trace = std::atoi(argValue(argc, argv, "--trace", "0"));
    const std::string span_path = argValue(argc, argv, "--spans", "");

    const Workload *w = nullptr;
    for (const Workload &cand : workloads())
        if (name == cand.name)
            w = &cand;
    if (!w || !seed_arg || seconds <= 0 || (trace != 0 && trace != 1)) {
        std::fprintf(stderr,
                     "usage: dpubench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--spans <path>]\n"
                     "workloads:");
        for (const Workload &cand : workloads())
            std::fprintf(stderr, " %s", cand.name);
        std::fprintf(stderr, "\n");
        return 2;
    }
    const std::uint64_t seed = std::strtoull(seed_arg, nullptr, 10);

    SpanLog spans;
    std::vector<Rep> plain, traced, rerun;
    const double start = wallMs();
    int run_id = 0;
    do {
        RepOptions o;
        o.seed = seed;
        o.runId = run_id++;
        plain.push_back(w->run(o));
        if (trace) {
            o.traced = true;
            o.spans = &spans;
            o.runId = run_id++;
            traced.push_back(w->run(o));
            if (w->parallel) {
                o.threads = parallelThreads;
                o.runId = run_id++;
                rerun.push_back(w->run(o));
            }
        }
    } while (wallMs() - start < seconds * 1e3);

    // Correctness: every repetition's own checks, then determinism
    // against the first repetition.
    std::vector<std::string> errors;
    std::uint64_t attempted = 0, failed = 0;
    const std::uint64_t key = simKey(plain.front());
    for (const std::vector<Rep> *set : {&plain, &traced, &rerun})
        for (const Rep &r : *set) {
            errors.insert(errors.end(), r.errors.begin(), r.errors.end());
            attempted += r.offered;
            failed += r.failed;
            if (simKey(r) != key)
                errors.push_back(
                    set == &rerun
                        ? "determinism: the parallel re-run differs "
                          "from the serial run"
                        : "determinism: a repetition of the same seed "
                          "differs from the first");
        }
    std::sort(errors.begin(), errors.end());
    errors.erase(std::unique(errors.begin(), errors.end()), errors.end());

    const Rep &first = plain.front();
    std::printf("workload %s seed %llu: %zu repetitions\n", w->name,
                (unsigned long long)seed, plain.size());
    std::printf("stats digest %016llx\n",
                (unsigned long long)first.digest);

    std::vector<std::pair<const char *, double>> values;
    double tail_pct = 0;
    if (!trace) {
        std::vector<double> setup, wall;
        for (const Rep &r : plain) {
            setup.push_back((r.topoMs + r.inputsMs) * 1e-3);
            wall.push_back(r.runMs * 1e-3);
        }
        std::printf("host wall s per repetition:");
        for (const double x : wall)
            std::printf(" %.3f", x);
        std::printf("\n");
        values.push_back({"setup_s", median(setup)});
        values.push_back({"host_wall_s", median(wall)});
        values.push_back({"peak_rss_mb", peakRssMb()});
        simMetrics(first, values, tail_pct);
    } else {
        for (const Metric &m : perLayer) {
            double v = 0;
            if (hostLayer(m)) {
                std::vector<double> xs;
                for (const Rep &r : traced) {
                    const auto it = r.layer.find(m.name);
                    xs.push_back(it == r.layer.end() ? 0 : it->second);
                }
                v = median(xs);
            } else {
                const auto it = first.layer.find(m.name);
                v = it == first.layer.end() ? 0 : it->second;
            }
            values.push_back({m.name, v});
        }
        auto set = [&values](const char *n, double v) {
            for (auto &[k, x] : values)
                if (std::strcmp(k, n) == 0)
                    x = v;
        };
        std::vector<double> plain_ms, traced_ms, rerun_ms;
        for (const Rep &r : plain)
            plain_ms.push_back(r.runMs);
        for (const Rep &r : traced)
            traced_ms.push_back(r.runMs);
        for (const Rep &r : rerun)
            rerun_ms.push_back(r.runMs);
        set("trace.overhead_frac",
            median(traced_ms) / median(plain_ms) - 1);
        // Serial over parallel wall time, both traced, for the board
        // workloads; the serial-only workloads are their own baseline.
        set("sim.runner.serial_ratio",
            rerun.empty() ? 1.0 : median(traced_ms) / median(rerun_ms));
        std::vector<double> lat = first.latUs;
        std::sort(lat.begin(), lat.end());
        tailOf(lat, tail_pct);
        set("lat.tail_pct", tail_pct);
        set("lat.samples", double(first.latUs.size()));
        set("fail_frac", first.offered ? double(first.failed) /
                                             double(first.offered)
                                       : 0);
        if (!span_path.empty() && !spans.write(span_path))
            errors.push_back("could not write the span file " +
                             span_path);
    }

    // Human-readable report, then the JSON line.
    for (const auto &[n, v] : values) {
        const Metric &m = metric(n);
        std::printf("  %-30s %16.6g %-9s [%s]\n", n, v, m.unit, m.clock);
    }
    if (!trace) {
        std::vector<double> lat = first.latUs;
        std::sort(lat.begin(), lat.end());
        std::printf("  tail percentile p%g over %zu samples; latency us: "
                    "p90 %.1f p95 %.1f p98 %.1f p99 %.1f max %.1f\n",
                    tail_pct, lat.size(), host::percentileOf(lat, 0.9),
                    host::percentileOf(lat, 0.95),
                    host::percentileOf(lat, 0.98),
                    host::percentileOf(lat, 0.99),
                    lat.empty() ? 0 : lat.back());
    }
    for (const std::string &e : errors)
        std::printf("FAIL: %s\n", e.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {",
                errors.empty() ? "true" : "false",
                (unsigned long long)attempted,
                (unsigned long long)failed);
    for (std::size_t i = 0; i < values.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", values[i].first, values[i].second,
                    metric(values[i].first).unit);
    std::printf("}}\n");
    return errors.empty() ? 0 : 1;
}
