/**
 * @file
 * Figure 15: the SQL filter primitive on one dpCore — tuples/second
 * against the DMEM tile size — plus the 32-core aggregate. Paper
 * anchors: 482 Mtuples/s at the best tile (1.65 cycles/tuple) and
 * 9.6 GB/s across 32 dpCores.
 */

#include <vector>

#include "apps/sql/filter.hh"
#include "bench/report.hh"

using namespace dpu;
using namespace dpu::apps::sql;

int
main(int argc, char **argv)
{
    sim::setVerbose(false);
    const bool smoke = bench::hasFlag(argc, argv, "--smoke");
    bench::header("Figure 15", "filter primitive vs DMEM tile size");

    bench::row("  %-12s %14s %14s", "tile size", "Mtuples/s",
               "cycles/tuple");
    const std::vector<std::uint32_t> tiles =
        smoke ? std::vector<std::uint32_t>{512, 8192}
              : std::vector<std::uint32_t>{512, 1024, 2048, 4096,
                                           8192};
    double best = 0, best_cpt = 0;
    for (std::uint32_t tb : tiles) {
        FilterConfig cfg;
        cfg.nCores = 1;
        cfg.rowsPerCore = smoke ? 1 << 18 : 1 << 20;
        cfg.tileBytes = tb;
        FilterResult r = dpuFilter(soc::dpu40nm(), cfg);
        bench::row("  %9u B %14.1f %14.2f", tb, r.mtuplesPerSec(),
                   r.cyclesPerTuple(1));
        if (r.mtuplesPerSec() > best) {
            best = r.mtuplesPerSec();
            best_cpt = r.cyclesPerTuple(1);
        }
    }
    bench::compare("single-core peak", 482.0, best, "Mtuples/s");
    bench::compare("cycles per tuple", 1.65, best_cpt, "cycles");

    FilterConfig cfg32;
    cfg32.nCores = 32;
    cfg32.rowsPerCore = smoke ? 64 << 10 : 256 << 10;
    cfg32.tileBytes = 8192;
    FilterResult r32 = dpuFilter(soc::dpu40nm(), cfg32);
    bench::compare("32-core aggregate", 9.6, r32.gbPerSec(), "GB/s");
    return 0;
}
