#include "schedule.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace perfbench {

std::vector<Arrival> FixedRateArrivals(uint64_t seed, double rate_per_s,
                                       double seconds) {
  kucnet::Rng rng(seed ^ 0xf1bed0ULL);
  std::vector<Arrival> out;
  const double horizon_us = seconds * 1e6;
  const double gap_us = 1e6 / rate_per_s;
  const double phase_us = rng.Uniform() * gap_us;
  for (int64_t k = 0;; ++k) {
    const double t = phase_us + static_cast<double>(k) * gap_us;
    if (t >= horizon_us) break;
    out.push_back({static_cast<int64_t>(t), k});
  }
  return out;
}

void AssignZipfKeys(uint64_t seed, const std::vector<int64_t>& ids,
                    double exponent, std::vector<Arrival>* arrivals) {
  std::vector<int64_t> by_rank = ids;
  kucnet::Rng(0x21bfULL).Shuffle(by_rank);
  kucnet::Rng rng(seed ^ 0x21bfULL);
  std::vector<double> cdf(by_rank.size());
  double total = 0.0;
  for (size_t r = 0; r < cdf.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf[r] = total;
  }
  for (Arrival& a : *arrivals) {
    const double u = rng.Uniform() * total;
    const size_t rank = std::min<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        cdf.size() - 1);
    a.key = by_rank[rank];
  }
}

}  // namespace perfbench
