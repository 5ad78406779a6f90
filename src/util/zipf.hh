/**
 * @file
 * Zipf-distributed sampling for workload generators (term frequencies
 * in the similarity-search index, hot keys in the rack's arrival
 * trace). Uses the classic inverse-CDF-over-partial-harmonic table:
 * built once, binary-searched per draw.
 */

#ifndef DPU_UTIL_ZIPF_HH
#define DPU_UTIL_ZIPF_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace dpu::util {

/** Samples ranks in [0, n) with P(k) proportional to 1/(k+1)^s. */
class Zipf
{
  public:
    Zipf(std::uint64_t n, double s) : cdf(n)
    {
        sim_assert(n >= 1, "zipf sampler needs a non-empty key space");
        sim_assert(s >= 0, "zipf exponent must be non-negative");
        double sum = 0.0;
        for (std::uint64_t k = 0; k < n; ++k) {
            sum += 1.0 / std::pow(double(k + 1), s);
            cdf[k] = sum;
        }
        for (double &c : cdf)
            c /= sum;
    }

    /** The rank drawn by @p u01 in [0, 1); rank 0 is the hottest. */
    std::uint64_t
    sample(double u01) const
    {
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u01);
        return std::uint64_t(it == cdf.end() ? cdf.size() - 1
                                             : it - cdf.begin());
    }

    /** Probability mass of the @p k hottest ranks. */
    double
    headMass(std::uint64_t k) const
    {
        if (k == 0)
            return 0;
        return cdf[std::min<std::uint64_t>(k, cdf.size()) - 1];
    }

  private:
    std::vector<double> cdf;
};

} // namespace dpu::util

#endif // DPU_UTIL_ZIPF_HH
