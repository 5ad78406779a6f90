/**
 * @file
 * The four benchmark workloads and the per-repetition record they
 * fill. Each workload builds its own topology from the seed, runs
 * it once, and measures every layer from outside: wall-clock spans
 * around the calls it makes into the simulator, plus the counters
 * the layers already expose (event-queue profiles, runner stats,
 * the StatsRegistry snapshot, fabric byte getters, balancer and
 * rack summaries, JobRecord timestamps).
 */

#ifndef DPUBENCH_WORKLOADS_HH
#define DPUBENCH_WORKLOADS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dpubench {

/** Host wall clock (steady), in milliseconds since an arbitrary
 *  origin. */
inline double
wallMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Spans the benchmark records around its own calls into each
 * layer. Kept in memory; written once, at exit.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double startMs = 0;
        double endMs = 0;
        int parent = -1; ///< index of the enclosing span, -1 = root
        int run = 0;     ///< repetition the span belongs to
    };

    /** Open a span under the innermost open one; @return its id. */
    int begin(const char *name, int run);
    void end(int id);

    /** Write every span as a Chrome trace-event JSON file. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans;
    std::vector<int> open;
};

/** Opens a span for its scope; a no-op without a log. */
class Scope
{
  public:
    Scope(SpanLog *log, const char *name, int run)
        : log(log), id(log ? log->begin(name, run) : -1)
    {
    }
    ~Scope()
    {
        if (log)
            log->end(id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog *log;
    int id;
};

/** How one repetition runs. */
struct RepOptions
{
    std::uint64_t seed = 1;
    /** Epoch-runner threads (board workloads only). */
    unsigned threads = 1;
    /** Wall profiling on every event queue, and spans recorded. */
    bool traced = false;
    SpanLog *spans = nullptr; ///< non-null when traced
    int runId = 0;
};

/** Everything one repetition measured. */
struct Rep
{
    // Host clock, milliseconds.
    double topoMs = 0;   ///< topology build
    double inputsMs = 0; ///< input / trace generation
    double runMs = 0;    ///< the simulate calls

    // Simulated outcome.
    std::uint64_t offered = 0; ///< ops attempted
    std::uint64_t failed = 0;  ///< rejected/shed/lost/timed out/invalid
    std::vector<double> latUs; ///< completed valid ops, sim us
    std::uint64_t withinSlo = 0;
    double work = 0;       ///< units counted by sim_ops_per_s
    double simSeconds = 0; ///< simulated window of that work

    /** Per-layer metrics by name (see main.cc for units). */
    std::map<std::string, double> layer;
    /** Digest of the StatsRegistry snapshot(s) of the run. */
    std::uint64_t digest = 0;
    /** Failed correctness checks, one sentence each. */
    std::vector<std::string> errors;

    void
    fail(const std::string &what)
    {
        errors.push_back(what);
    }
};

/** A workload: name and runner. Each workload's simulated latency
 *  limit (behind sim_slo_frac) is a constant beside its runner. */
struct Workload
{
    const char *name;
    /** Board workloads: timed at one epoch-runner thread, re-run at
     *  four when traced (serial ratio and the determinism check
     *  across thread counts). */
    bool parallel;
    Rep (*run)(const RepOptions &);
};

/** Threads of the board workloads' traced re-run. */
constexpr unsigned parallelThreads = 4;

/** The fixed workload table. */
const std::vector<Workload> &workloads();

/**
 * The highest of p99.9 / p99 / p90 / p50 (host::percentileOf ranks)
 * that leaves at least ten samples beyond it (the largest sample
 * when none does).
 * @return the percentile's value; @p pct receives its rank in %.
 */
double tailOf(const std::vector<double> &sorted, double &pct);

} // namespace dpubench

#endif // DPUBENCH_WORKLOADS_HH
