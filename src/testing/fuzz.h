#ifndef KUCNET_TESTING_FUZZ_H_
#define KUCNET_TESTING_FUZZ_H_

#include <cstdint>
#include <string>

/// \file
/// Seeded differential fuzzing: random adversarial inputs (NaN/Inf/denormal
/// scores, empty users, isolated and dangling KG nodes, degenerate shapes,
/// all-masked candidate pools) are fed to the optimized implementations and
/// the naive oracles of testing/oracle.h, and any disagreement beyond the
/// tolerance policy is a failure.
///
/// Every case is generated from its own seed, `options.seed + case_index`,
/// so a reported failure reproduces with
/// `diff_fuzz --subsystem=<s> --seed=<failing_seed> --cases=1`.

namespace kucnet {
namespace testing {

struct FuzzOptions {
  /// Base seed: case k runs from seed + k.
  uint64_t seed = 20260807;
  /// Cases per invocation.
  int64_t cases = 1000;
};

struct FuzzReport {
  int64_t cases_run = 0;
  int64_t mismatches = 0;
  /// Human-readable description of the first mismatch: the failing seed, a
  /// copy-pastable repro command, and the generated parameters.
  std::string first_failure;

  bool ok() const { return mismatches == 0; }
};

/// Dense kernels: matmul family, elementwise Add/Axpy/Scale, Sum /
/// SquaredNorm reductions, and the tape's Gather / SegmentSum primitives
/// and their fused GatherSegmentSum (forward and backward),
/// across degenerate (0/1-dim) and parallel-threshold-crossing shapes, with
/// mixed-magnitude / sparse / denormal value profiles. Runs with finite
/// checks enabled, so the KUC_CHECK_FINITE boundaries are exercised too.
FuzzReport FuzzTensor(const FuzzOptions& options);

/// Forward push vs the naive push transcript (bitwise) and the dense
/// absorbing-walk reference (undershoot + residual bounds), plus mass
/// conservation, on random CKGs with isolated users and dangling nodes.
FuzzReport FuzzPpr(const FuzzOptions& options);

/// TopNIndices vs brute-force full sort, and RecallAtN / NdcgAtN vs the
/// definitional oracles, on score vectors laced with NaN/Inf/denormals and
/// masks that shrink the candidate pool below N (or to zero).
FuzzReport FuzzRanking(const FuzzOptions& options);

/// Serving-tier replay: randomized requests (cache warm/cold/expired,
/// injected faults on any stage of any tier) against a sequential replay of
/// the degradation chain that predicts the tier and the exact ranked items.
FuzzReport FuzzServe(const FuzzOptions& options);

/// Sharded-fleet replay: randomized shard faults (kill one / kill all /
/// stall / flap), stage faults, retry/hedge knobs, and request batches
/// against a three-shard router of identically-seeded models; checks the
/// fleet always answers, exact-replays the full tier and the popularity
/// fallback, and reconciles router counters with the injectors.
FuzzReport FuzzFleet(const FuzzOptions& options);

/// Streaming-CKG replay: random tiny datasets, random update scripts
/// (duplicates, dangling users, out-of-range rejections), a random mid-script
/// crash (clean or torn) with recovery; checks incremental PPR repair against
/// the full-recompute oracle within the residual-mass bound, per-user mass
/// conservation, and byte-identical WAL recovery digests.
FuzzReport FuzzStream(const FuzzOptions& options);

/// Web-scale store: a streamed CompactCkg roundtripped through the KUCSTOR1
/// container (randomized mmap / checksum load paths) against the int64 Ckg
/// oracle built from the identical materialized inputs — full topology
/// equality, bitwise PPR agreement, and identical end-to-end serve responses
/// from identically-seeded model stacks over each representation.
FuzzReport FuzzStore(const FuzzOptions& options);

/// KUCNet inference: random model options (pruning mode, K including 0,
/// depth 1-4, attention on/off, attention on the source on/off, the three
/// activations) and users; TryForward, TryForwardMany (on graphs in the
/// builder's edge order and shuffled) and ScorePairOnUiGraph must equal the
/// per-edge OracleKucnetScores bitwise, in deterministic kernel mode.
FuzzReport FuzzKucnet(const FuzzOptions& options);

/// KUCNet training loss and gradients: the `kucnet` subsystem's random
/// options and users, plus (positive, negative) pairs from the final layer
/// of the graph BuildLoss builds. BuildLoss's loss must equal the per-edge
/// OracleKucnetLoss bitwise, that tape's scores must equal
/// OracleKucnetScores bitwise, and every parameter gradient must lie within
/// 1e-12 of the oracle's, relative to the larger of max|g_oracle| and the
/// same pairs' gradient with pos and neg added instead of subtracted, in
/// deterministic kernel mode.
FuzzReport FuzzKucnetGrad(const FuzzOptions& options);

/// Runs one subsystem by name ("tensor", "ppr", "ranking", "topn", "serve",
/// "fleet", "stream", "store", "kucnet", "kucnet_grad"). Aborts on an
/// unknown name.
FuzzReport FuzzSubsystem(const std::string& name, const FuzzOptions& options);

}  // namespace testing
}  // namespace kucnet

#endif  // KUCNET_TESTING_FUZZ_H_
