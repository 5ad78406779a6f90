/**
 * @file
 * Figure 14: performance/watt gain of the 40 nm DPU over the Xeon
 * server for every co-design application (Section 5), at the
 * paper's 6 W vs 145 W provisioned powers. The rows come straight
 * out of the app registry (apps/registry.hh) — every registered
 * spec carries its paper anchor and its Figure-14 default config —
 * and the functional outputs are cross-checked (column "ok") before
 * the ratio is reported.
 */

#include "apps/registry.hh"
#include "bench/report.hh"
#include "sim/logging.hh"

using namespace dpu;
using namespace dpu::apps;

namespace {

/** Per-app overrides that shrink the run for --smoke. */
struct Shrink
{
    const char *app;
    std::initializer_list<
        std::pair<std::string_view, std::string_view>>
        opts;
};

const std::initializer_list<Shrink> smokeShrinks = {
    {"svm", {{"nTrain", "1024"}, {"nTest", "256"}, {"maxIters", "60"}}},
    {"simsearch", {{"nDocs", "2048"}, {"nQueries", "4"}}},
    {"filter", {{"rowsPerCore", "8192"}}},
    {"groupby-low", {{"nRows", "65536"}}},
    {"groupby-high", {{"nRows", "65536"}, {"ndv", "8192"}}},
    {"hll-crc", {{"nElements", "262144"}, {"cardinality", "32768"}}},
    {"hll-murmur", {{"nElements", "65536"}, {"cardinality", "8192"}}},
    {"json", {{"nRecords", "2048"}}},
    {"disparity", {{"width", "128"}, {"height", "64"}}},
};

} // namespace

int
main(int argc, char **argv)
{
    sim::setVerbose(false);
    const bool smoke = bench::hasFlag(argc, argv, "--smoke");
    bench::header("Figure 14",
                  "DPU perf/watt gains vs Xeon (per application)");

    bench::row("  %-22s %6s %9s %9s %8s %8s", "application", "ok",
               "dpu (ms)", "xeon (ms)", "paper x", "ours x");
    for (const AppSpec &spec : registry()) {
        ConfigHandle cfg = spec.makeConfig();
        if (smoke)
            for (const Shrink &s : smokeShrinks)
                if (spec.name == s.app)
                    for (const auto &[k, v] : s.opts)
                        spec.set(cfg, k, v);
        const AppResult r = spec.run(cfg);
        bench::row("  %-22s %6s %9.3f %9.3f %8.1f %8.1f",
                   r.name.c_str(), r.matched ? "yes" : "NO",
                   r.dpuSeconds * 1e3, r.xeonSeconds * 1e3,
                   spec.paperGain, r.gain());
    }
    bench::row("\n  paper shape: 3x-15x across the suite; SVM tops,"
               " similarity search bottoms, Murmur HLL does poorly.");
    return 0;
}
