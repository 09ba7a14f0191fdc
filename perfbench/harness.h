#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <malloc.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/kucnet.h"
#include "data/dataset.h"
#include "graph/ckg.h"
#include "ppr/ppr.h"
#include "report.h"
#include "schedule.h"
#include "stats.h"
#include "serve/rec_server.h"
#include "stream/streaming_ckg.h"
#include "trace.h"
#include "util/fs.h"

/// \file
/// Pieces shared by the workloads: the benchmark's constants, deployment of
/// a model, the closed-loop client, output checks and the per-layer replay.

namespace perfbench {

using kucnet::Ckg;
using kucnet::Dataset;
using kucnet::GraphRef;
using kucnet::Kucnet;
using kucnet::KucnetOptions;
using kucnet::PprTable;
using kucnet::RecResponse;
using kucnet::RecServer;
using kucnet::RecServerOptions;
using kucnet::ResponseStatus;
using kucnet::ServerStats;
using kucnet::SplitKind;

// ---- Constants of the benchmark ---------------------------------------------
// Every rate, budget and model size is fixed here or in a workload file;
// none is derived from a service time measured at run time.

/// Each request carries this latency budget: the client's limit.
inline constexpr int64_t kDeadlineMicros = 50'000;
inline constexpr double kDeadlineMs = 50.0;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;
/// Zipf exponent of user popularity in every read schedule.
inline constexpr double kUserZipf = 0.9;
/// Untimed requests sent before the window opens.
inline constexpr int64_t kWarmupRequests = 32;
/// How latency percentiles and epoch_s are taken (see QuietQuantile). A
/// window holds thousands of reads: the lower decile over 40 chunks. It
/// holds hundreds of updates and tens of epochs: the lower quartile over 12,
/// so that each chunk still holds enough samples for its p90.
inline constexpr Chunking kReadChunking{40, 25, 0.1};
inline constexpr Chunking kUpdateChunking{12, 20, 0.25};
inline constexpr Chunking kEpochChunking{12, 1, 0.25};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// What every workload function receives.
struct Run {
  RunConfig config;
  Report* report = nullptr;
  Tracer* tracer = nullptr;
};

/// A deployed model: its data, graph, PPR table and KUCNet.
struct Deployment {
  Dataset dataset;
  std::optional<Ckg> ckg;
  PprTable ppr;
  std::unique_ptr<Kucnet> model;
  std::vector<std::vector<int64_t>> train_items;  ///< sorted, per user
  double data_build_s = 0.0;  ///< generation + split + graph build
  double ppr_table_s = 0.0;   ///< PPR preprocessing

  GraphRef graph() const { return GraphRef(&*ckg); }
};

/// synth-lastfm split under `kind`, with fixed generator and split seeds, so
/// that the data does not vary with the workload seed.
Dataset SynthLastFmData(SplitKind kind);

/// SynthLastFmData(kind), its PPR table, and a KUCNet.
std::unique_ptr<Deployment> DeploySynthLastFm(SplitKind kind,
                                              const KucnetOptions& options);

/// The KUCNet every synth-lastfm serving workload runs: depth 3, K = 30.
KucnetOptions ServingModelOptions();

/// RecServerOptions defaults, except that the score cache holds and is
/// warmed with every one of `servable_users` users, so the cached tier is live.
RecServerOptions ServerOptions(int64_t servable_users);

/// Runs `setup` `repeats` times, destroying each result (and returning its
/// freed memory to the OS, so peak_rss_mb reflects one set-up) before the
/// next, records setup_s as the median duration and returns the last result.
template <typename T, typename F>
std::unique_ptr<T> RepeatedSetup(const Run& run, int repeats, F&& setup);

// ---- Closed-loop client -----------------------------------------------------

struct ReadSample {
  int64_t user = 0;
  int64_t sent_ns = 0;    ///< when Submit was called
  int64_t submit_ns = 0;  ///< how long the Submit call took
  int64_t done_ns = 0;    ///< when the client held the answer
  bool resolved = false;
  RecResponse response;

  bool answered() const {
    return resolved && response.status == ResponseStatus::kOk &&
           !response.items.empty();
  }
  /// Submit called → answer in the client's hands.
  double LatencyMs() const {
    return static_cast<double>(done_ns - sent_ns) * 1e-6;
  }
};

/// Sends one request after another from the calling thread, each when the
/// previous one has been answered, for the users of `keys` in order, until
/// they run out or `until_ns` passes. Each request carries kDeadlineMicros.
/// A request still unanswered after ten seconds was lost: it is returned
/// unresolved, and no further request is sent.
std::vector<ReadSample> RunClosedLoop(RecServer* server,
                                      const std::vector<Arrival>& keys,
                                      int64_t until_ns, Tracer* tracer);

/// Serves kWarmupRequests requests for `users` before the window, untimed.
void WarmUp(RecServer* server, const std::vector<int64_t>& users);

struct ReadTotals {
  int64_t sent = 0;
  int64_t answered = 0;
  int64_t full_in_budget = 0;
};

/// Checks every response (never resolved, empty, out of range, unsorted, or
/// listing an excluded training item fails the run), prints latency
/// diagnostics, and records latency_p50_ms and latency_p90_ms (see
/// PutQuietPercentiles) and full_share.
ReadTotals ReportReads(const Run& run, const std::vector<ReadSample>& samples,
                       const Deployment& d);

/// Records `<prefix>_p50_ms` and `<prefix>_p90_ms` from `ms`, latencies in
/// the order their operations were sent, as QuietQuantile under
/// `chunking`, and prints each chunk's p50 and p90.
void PutQuietPercentiles(const Run& run, const std::string& prefix,
                         const std::vector<double>& ms,
                         const Chunking& chunking);

/// Fails the run if any full-tier answer differs from a sequential
/// TryForward of the same user ranked the way the server ranks. Returns how
/// many answers it compared.
int64_t CheckFullTierAnswers(const Run& run,
                             const std::vector<ReadSample>& samples,
                             const Deployment& d);

// ---- Per-layer replay (traced runs) -----------------------------------------

struct UserTiming {
  double extract_ms = 0.0;
  double forward_ms = 0.0;
};

/// Replays up to `max_users` of `users`, after the window, through the
/// public entry points of the core, graph, ppr and tensor layers and a
/// zero-worker ServeSync; records their per-layer metrics and returns each
/// replayed user's extract and forward times. Ends with an Adam step on the
/// model's parameters, so call it only once the model is no longer served.
std::map<int64_t, UserTiming> ReplayLayers(const Run& run, Deployment* d,
                                           const std::vector<int64_t>& users,
                                           int64_t max_users);

/// Per-layer serve metrics from the window's responses, the server's
/// counters and the replayed per-user extract/forward times.
void ReportServeLayer(const Run& run, const std::vector<ReadSample>& samples,
                      const ServerStats& stats,
                      const std::map<int64_t, UserTiming>& replay);

/// Distinct users of `samples`, ascending.
std::vector<int64_t> DistinctUsers(const std::vector<ReadSample>& samples);

/// Prints `label` p50/p90/p99/p99.9 with sample counts, marking tail
/// percentiles with fewer than ten samples beyond them.
void PrintDistribution(const std::string& label, const std::string& unit,
                       const std::vector<double>& samples);

/// Peak resident set (VmHWM) in MiB; 0 when /proc is unavailable.
double PeakRssMb();

/// Cumulative CPU ticks of the host (/proc/stat): all of them, and those the
/// hypervisor stole from this VM. Zeros when /proc is unavailable.
struct HostTicks {
  int64_t steal = 0;
  int64_t total = 0;
};
HostTicks ReadHostTicks();

/// Prints the share of CPU time stolen since `since`: on a shared VM the
/// main source of run-to-run noise, reported so that readers can tell.
void PrintSteal(const std::string& what, const HostTicks& since);

// ---- Workloads ----------------------------------------------------------------
// A `side` run is a run of that workload with a single set-up (train's
// also with fewer epochs), made after another workload's window to measure
// the metrics that the other workload's own scenario does not produce; see
// main.cc.

void RunStreamMixed(const Run& run, bool side);
/// Opens a StreamingCkg over `data` on the global pool, its WAL on `fs`;
/// exits the run if that fails.
std::unique_ptr<kucnet::StreamingCkg> OpenStream(const Dataset& data,
                                                 kucnet::FileSystem* fs);
void RunTrain(const Run& run, bool side);
/// Side measurement of the store layer: the reduced web-scale generator.
void RunStoreSide(const Run& run);

// ---- Template definitions ----------------------------------------------------

template <typename T, typename F>
std::unique_ptr<T> RepeatedSetup(const Run& run, int repeats, F&& setup) {
  std::vector<double> seconds;
  std::unique_ptr<T> last;
  for (int k = 0; k < repeats; ++k) {
    last.reset();
    malloc_trim(0);
    const int64_t t0 = NowNs();
    last = setup();
    seconds.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  std::printf("setup_s per repeat:");
  for (const double s : seconds) std::printf(" %.3f", s);
  std::printf("\n");
  run.report->Put("setup_s", Median(seconds), repeats);
  return last;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
