// Crash safety of the checkpoint formats: v2 integrity footer, atomic
// saves under a fault-injection sweep (kill the save at every Nth IO op and
// the previous checkpoint must survive), rejection of the retired v1 format,
// and exact round-trips of optimizer (Adam) and RNG state.

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/adam.h"
#include "tensor/matrix.h"
#include "tensor/parameter.h"
#include "tensor/serialize.h"
#include "train/checkpoint.h"
#include "util/fs.h"
#include "util/rng.h"

namespace kucnet {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Two small named parameters with reproducible values.
std::vector<Parameter> MakeParams(uint64_t seed) {
  Rng rng(seed);
  std::vector<Parameter> params;
  params.reserve(2);
  params.emplace_back("emb", Matrix::RandomNormal(8, 4, 1.0, rng));
  params.emplace_back("readout", Matrix::RandomNormal(4, 1, 1.0, rng));
  return params;
}

std::vector<Parameter*> Ptrs(std::vector<Parameter>& params) {
  std::vector<Parameter*> out;
  for (Parameter& p : params) out.push_back(&p);
  return out;
}

TEST(CheckpointV2Test, TryRoundTrip) {
  auto params = MakeParams(1);
  const Matrix emb_saved = params[0].value();
  const std::string path = TempPath("v2_roundtrip.kuc");
  ASSERT_TRUE(TrySaveParameters(Ptrs(params), path).ok());
  EXPECT_TRUE(IsCheckpoint(path));
  params[0].value().SetZero();
  ASSERT_TRUE(TryLoadParameters(Ptrs(params), path).ok());
  EXPECT_TRUE(params[0].value().Equals(emb_saved));
}

TEST(CheckpointV2Test, IsCheckpointRejectsTornFile) {
  auto params = MakeParams(2);
  const std::string path = TempPath("v2_torn.kuc");
  ASSERT_TRUE(TrySaveParameters(Ptrs(params), path).ok());

  std::string bytes;
  ASSERT_TRUE(DefaultFileSystem().ReadFile(path, &bytes).ok());
  // Truncate: the footer (or part of the payload) is gone.
  const std::string torn_path = TempPath("v2_torn_cut.kuc");
  ASSERT_TRUE(
      DefaultFileSystem().WriteFile(torn_path, bytes.substr(0, bytes.size() / 2))
          .ok());
  EXPECT_FALSE(IsCheckpoint(torn_path));
  EXPECT_FALSE(TryLoadParameters(Ptrs(params), torn_path).ok());

  // Flip one payload byte: the magic survives but the checksum must not.
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x01;
  const std::string flip_path = TempPath("v2_flipped.kuc");
  ASSERT_TRUE(DefaultFileSystem().WriteFile(flip_path, flipped).ok());
  EXPECT_FALSE(IsCheckpoint(flip_path));
  const Status st = TryLoadParameters(Ptrs(params), flip_path);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("checksum"), std::string::npos) << st.message();
}

TEST(CheckpointV2Test, TornReadDetectedByChecksumNotAbort) {
  auto params = MakeParams(3);
  const std::string path = TempPath("v2_torn_read.kuc");
  ASSERT_TRUE(TrySaveParameters(Ptrs(params), path).ok());
  FaultInjectingFileSystem faulty(&DefaultFileSystem());
  faulty.FailFrom(1, FaultMode::kTear);  // reader silently sees half the file
  const Status st = TryLoadParameters(Ptrs(params), path, &faulty);
  EXPECT_FALSE(st.ok());
}

// No writer produces the retired v1 format ("KUCNET_CKPT_V1" text header,
// raw doubles, no footer). A well-formed v1 file is rejected by name at load
// and fails discovery, so RollingSwap never takes a shard out for it.
TEST(CheckpointV2Test, RetiredV1FormatIsRejected) {
  auto params = MakeParams(4);
  const Matrix emb_before = params[0].value();
  const std::string path = TempPath("v1_retired.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "KUCNET_CKPT_V1\n" << 2 << '\n';
    for (const Parameter* p : Ptrs(params)) {
      out << p->name() << ' ' << p->rows() << ' ' << p->cols() << '\n';
    }
    for (const Parameter* p : Ptrs(params)) {
      out.write(reinterpret_cast<const char*>(p->value().data()),
                static_cast<std::streamsize>(p->value().size() *
                                             sizeof(real_t)));
    }
  }
  EXPECT_FALSE(IsCheckpoint(path));
  const Status st = TryLoadParameters(Ptrs(params), path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find(path), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("unsupported checkpoint magic \"KUCNET_CKPT_V1\""),
            std::string::npos)
      << st.message();
  EXPECT_TRUE(params[0].value().Equals(emb_before));  // nothing applied
}

/// The crash-safety sweep of the issue: learn how many IO ops a save takes,
/// then kill it at op 1, 2, ..., N (clean and torn) and require that the
/// previously saved checkpoint is never destroyed and never unreadable.
TEST(CheckpointV2Test, FaultSweepNeverCorruptsExistingCheckpoint) {
  auto old_params = MakeParams(10);
  const Matrix old_emb = old_params[0].value();
  auto new_params = MakeParams(11);

  FaultInjectingFileSystem faulty(&DefaultFileSystem());
  const std::string path = TempPath("sweep.kuc");
  ASSERT_TRUE(TrySaveParameters(Ptrs(old_params), path, &faulty).ok());
  // Learn the op count of one full save.
  faulty.ResetOpCount();
  ASSERT_TRUE(TrySaveParameters(Ptrs(new_params), path, &faulty).ok());
  const int64_t total_ops = faulty.op_count();
  ASSERT_GE(total_ops, 2);  // at least write + rename

  for (const FaultMode mode : {FaultMode::kFailCleanly, FaultMode::kTear}) {
    for (int64_t n = 1; n <= total_ops; ++n) {
      // Restore the "previous good checkpoint" state, then crash a save.
      ASSERT_TRUE(TrySaveParameters(Ptrs(old_params), path, nullptr).ok());
      faulty.FailFrom(n, mode);
      EXPECT_FALSE(TrySaveParameters(Ptrs(new_params), path, &faulty).ok());
      faulty.Disarm();

      // The directory must hold a complete, loadable checkpoint — the old
      // one, untouched by the killed save.
      ASSERT_TRUE(IsCheckpoint(path)) << "mode=" << static_cast<int>(mode)
                                      << " n=" << n;
      auto probe = MakeParams(12);
      ASSERT_TRUE(TryLoadParameters(Ptrs(probe), path).ok());
      EXPECT_TRUE(probe[0].value().Equals(old_emb)) << "n=" << n;
    }
  }
}

TEST(AdamStateTest, RoundTripContinuesBitwiseIdentically) {
  AdamOptions opts;
  opts.learning_rate = 1e-2;
  opts.weight_decay = 1e-4;

  // Train a few steps, snapshot, train more; the restored copy must follow
  // the original bit for bit.
  auto params_a = MakeParams(20);
  auto params_b = MakeParams(20);
  Adam adam_a(opts), adam_b(opts);
  Rng grad_rng(7);
  auto step_both = [&](int steps, bool both) {
    for (int s = 0; s < steps; ++s) {
      const Matrix g0 = Matrix::RandomNormal(8, 4, 1.0, grad_rng);
      const Matrix g1 = Matrix::RandomNormal(4, 1, 1.0, grad_rng);
      params_a[0].AccumulateDense(g0);
      params_a[1].AccumulateDense(g1);
      adam_a.Step(Ptrs(params_a));
      if (both) {
        params_b[0].AccumulateDense(g0);
        params_b[1].AccumulateDense(g1);
        adam_b.Step(Ptrs(params_b));
      }
    }
  };
  step_both(3, /*both=*/true);

  ByteWriter out;
  adam_a.AppendState(Ptrs(params_a), &out);
  const std::string blob = out.buffer();

  // Restore the snapshot into a brand-new optimizer instance.
  Adam adam_c(opts);
  ByteReader in(blob);
  ASSERT_TRUE(adam_c.RestoreState(Ptrs(params_b), &in).ok());
  EXPECT_EQ(adam_c.step_count(), 3);

  // Continue both optimizers on identical gradients.
  Rng follow(99);
  for (int s = 0; s < 4; ++s) {
    const Matrix g0 = Matrix::RandomNormal(8, 4, 1.0, follow);
    params_a[0].AccumulateDense(g0);
    adam_a.Step(Ptrs(params_a));
    params_b[0].AccumulateDense(g0);
    adam_c.Step(Ptrs(params_b));
  }
  EXPECT_TRUE(params_a[0].value().Equals(params_b[0].value()));
  EXPECT_TRUE(params_a[1].value().Equals(params_b[1].value()));
}

TEST(AdamStateTest, RestoreRejectsUnknownOrMismatched) {
  AdamOptions opts;
  auto params = MakeParams(21);
  Adam adam(opts);
  params[0].AccumulateDense(Matrix::Filled(8, 4, 0.5));
  adam.Step(Ptrs(params));

  ByteWriter out;
  adam.AppendState(Ptrs(params), &out);

  // Unknown parameter name.
  std::vector<Parameter> renamed;
  renamed.emplace_back("other", Matrix::Zeros(8, 4));
  renamed.emplace_back("readout", Matrix::Zeros(4, 1));
  Adam fresh(opts);
  ByteReader in1(out.buffer());
  EXPECT_FALSE(fresh.RestoreState(Ptrs(renamed), &in1).ok());

  // Truncated blob.
  const std::string truncated = out.buffer().substr(0, out.buffer().size() / 2);
  ByteReader in2(truncated);
  EXPECT_FALSE(fresh.RestoreState(Ptrs(params), &in2).ok());
}

TEST(RngStateTest, ExportRestoreResumesStreamExactly) {
  Rng a(1234);
  for (int i = 0; i < 17; ++i) a.Next64();
  a.Normal();  // leaves a cached Box-Muller spare
  const RngState snap = a.ExportState();

  Rng b(1);  // arbitrary different state
  b.RestoreState(snap);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(a.Next64(), b.Next64()) << "stream diverged at draw " << i;
  }
  // The cached normal must survive too.
  Rng c(1234);
  for (int i = 0; i < 17; ++i) c.Next64();
  c.Normal();
  Rng d(1);
  d.RestoreState(c.ExportState());
  EXPECT_EQ(c.Normal(), d.Normal());
  EXPECT_EQ(c.Normal(), d.Normal());
}

TEST(TrainSnapshotTest, EncodeDecodeRoundTrip) {
  auto params = MakeParams(30);
  AdamOptions aopts;
  Adam adam(aopts);
  params[0].AccumulateDense(Matrix::Filled(8, 4, 1.0));
  adam.Step(Ptrs(params));

  TrainSnapshotMeta meta;
  meta.epoch = 5;
  meta.train_seconds = 12.5;
  meta.learning_rate = 3e-4;
  meta.rollbacks = 1;
  Rng rng(77);
  rng.Next64();
  meta.rng = rng.ExportState();
  meta.curve.push_back({1, 0.9, 1.0, -1.0, -1.0});
  meta.curve.push_back({2, 0.7, 2.0, 0.31, 0.22});

  const std::string blob = EncodeTrainSnapshot(meta, Ptrs(params), &adam);

  auto params2 = MakeParams(31);
  Adam adam2(aopts);
  TrainSnapshotMeta back;
  ASSERT_TRUE(DecodeTrainSnapshot(blob, &back, Ptrs(params2), &adam2).ok());
  EXPECT_EQ(back.epoch, 5);
  EXPECT_DOUBLE_EQ(back.train_seconds, 12.5);
  EXPECT_DOUBLE_EQ(back.learning_rate, 3e-4);
  EXPECT_EQ(back.rollbacks, 1);
  EXPECT_EQ(back.rng.state, meta.rng.state);
  ASSERT_EQ(back.curve.size(), 2u);
  EXPECT_DOUBLE_EQ(back.curve[1].recall, 0.31);
  EXPECT_TRUE(params2[0].value().Equals(params[0].value()));
  EXPECT_EQ(adam2.step_count(), 1);

  // Corruption is caught by the footer.
  std::string bad = blob;
  bad[blob.size() / 3] ^= 0x40;
  EXPECT_FALSE(DecodeTrainSnapshot(bad, &back, Ptrs(params2), &adam2).ok());
}

TEST(TrainSnapshotTest, DiscoverySkipsTornNewestAndFindsOlderValid) {
  FileSystem& fs = DefaultFileSystem();
  const std::string dir = TempPath("snap_discovery");
  ASSERT_TRUE(fs.MakeDirs(dir).ok());

  auto params = MakeParams(40);
  TrainSnapshotMeta meta;
  meta.rng = Rng(1).ExportState();
  meta.epoch = 2;
  ASSERT_TRUE(WriteTrainSnapshot(TrainSnapshotPath(dir, 2), meta,
                                 Ptrs(params), nullptr)
                  .ok());
  meta.epoch = 4;
  ASSERT_TRUE(WriteTrainSnapshot(TrainSnapshotPath(dir, 4), meta,
                                 Ptrs(params), nullptr)
                  .ok());

  std::string path;
  EXPECT_EQ(FindLatestTrainSnapshot(dir, &path), 4);
  EXPECT_EQ(path, TrainSnapshotPath(dir, 4));

  // Tear the newest snapshot: discovery must fall back to epoch 2.
  std::string bytes;
  ASSERT_TRUE(fs.ReadFile(TrainSnapshotPath(dir, 4), &bytes).ok());
  ASSERT_TRUE(fs.WriteFile(TrainSnapshotPath(dir, 4),
                           bytes.substr(0, bytes.size() / 3))
                  .ok());
  EXPECT_FALSE(IsTrainSnapshot(TrainSnapshotPath(dir, 4)));
  EXPECT_TRUE(IsTrainSnapshot(TrainSnapshotPath(dir, 2)));
  EXPECT_EQ(FindLatestTrainSnapshot(dir, &path), 2);
  EXPECT_EQ(path, TrainSnapshotPath(dir, 2));

  // An empty or missing directory finds nothing.
  EXPECT_EQ(FindLatestTrainSnapshot(dir + "/missing", &path), -1);
}

TEST(TrainSnapshotTest, PruneKeepsNewest) {
  FileSystem& fs = DefaultFileSystem();
  const std::string dir = TempPath("snap_prune");
  ASSERT_TRUE(fs.MakeDirs(dir).ok());
  auto params = MakeParams(41);
  TrainSnapshotMeta meta;
  for (int e = 1; e <= 5; ++e) {
    meta.epoch = e;
    ASSERT_TRUE(WriteTrainSnapshot(TrainSnapshotPath(dir, e), meta,
                                   Ptrs(params), nullptr)
                    .ok());
  }
  PruneTrainSnapshots(dir, 2);
  std::vector<std::string> names;
  ASSERT_TRUE(fs.ListDir(dir, &names).ok());
  EXPECT_EQ(names, (std::vector<std::string>{"snapshot_epoch_000004.kuc",
                                             "snapshot_epoch_000005.kuc"}));
}

}  // namespace
}  // namespace kucnet
