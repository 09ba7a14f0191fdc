#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

#include <cstdint>
#include <vector>

/// \file
/// Schedules, generated from the workload seed before any timing
/// starts. The program under test only ever sees the generated requests.

namespace perfbench {

/// One scheduled operation: when it is due (microseconds after the window
/// opens) and what it targets (a user id, or an index into an update list).
struct Arrival {
  int64_t at_us = 0;
  int64_t key = 0;

  bool operator==(const Arrival&) const = default;
};

/// Evenly spaced arrivals at `rate_per_s` over [0, seconds): one every
/// 1 / rate, the first at a phase drawn from `seed` within one gap. Keys are
/// the arrival's ordinal, so every seed yields the same number of arrivals
/// (to within one) with the same keys.
std::vector<Arrival> FixedRateArrivals(uint64_t seed, double rate_per_s,
                                       double seconds);

/// Replaces each arrival's key with a Zipf(`exponent`)-distributed draw from
/// `ids`, using `seed`. Which id holds which popularity rank is one fixed
/// shuffle for every seed: a seed changes the request sequence, not who is
/// popular, so the cost mix of a run does not depend on it. (No real request
/// trace exists for this system; the skew is an assumption, not a
/// measurement.)
void AssignZipfKeys(uint64_t seed, const std::vector<int64_t>& ids,
                    double exponent, std::vector<Arrival>* arrivals);

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_
