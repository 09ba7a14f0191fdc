#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "testing/fuzz.h"

/// \file
/// Differential fuzz driver.
///
///   diff_fuzz [--subsystem=tensor|ppr|ranking|serve|fleet|stream|store|
///              kucnet|kucnet_grad|all]
///             [--seed=N] [--cases=N]
///
/// Runs `cases` seeded random cases per subsystem, comparing the optimized
/// implementations against the naive oracles of testing/oracle.h. On any
/// mismatch the failing case's seed and a one-line repro command are printed
/// and the exit code is 1. Case k of a run uses seed `--seed + k`, so a
/// reported failure replays exactly with `--seed=<failing_seed> --cases=1`.

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

int64_t ParseInt(const std::string& value, const char* flag) {
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value.empty()) {
    std::fprintf(stderr, "diff_fuzz: bad integer '%s' for %s\n", value.c_str(),
                 flag);
    std::exit(2);
  }
  return static_cast<int64_t>(parsed);
}

}  // namespace

int main(int argc, char** argv) {
  std::string subsystem = "all";
  kucnet::testing::FuzzOptions options;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--subsystem", &value)) {
      subsystem = value;
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      options.seed = static_cast<uint64_t>(ParseInt(value, "--seed"));
    } else if (ParseFlag(argv[i], "--cases", &value)) {
      options.cases = ParseInt(value, "--cases");
    } else {
      std::fprintf(stderr,
                   "usage: diff_fuzz [--subsystem=tensor|ppr|ranking|serve|"
                   "fleet|stream|store|kucnet|kucnet_grad|all] [--seed=N] "
                   "[--cases=N]\n");
      return 2;
    }
  }

  std::vector<std::string> subsystems;
  if (subsystem == "all") {
    subsystems = {"tensor", "ppr",    "ranking",    "serve",
                  "stream", "kucnet", "kucnet_grad"};
  } else {
    subsystems = {subsystem};
  }

  bool ok = true;
  for (const std::string& name : subsystems) {
    const kucnet::testing::FuzzReport report =
        kucnet::testing::FuzzSubsystem(name, options);
    std::printf("[%s] %lld cases, %lld mismatches (base seed %llu)\n",
                name.c_str(), static_cast<long long>(report.cases_run),
                static_cast<long long>(report.mismatches),
                static_cast<unsigned long long>(options.seed));
    if (!report.ok()) {
      ok = false;
      std::printf("FAIL %s\n", report.first_failure.c_str());
    }
  }
  return ok ? 0 : 1;
}
