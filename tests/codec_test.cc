// CollectiveCompression codec layer: frame round-trips (lossless modes are
// bit-exact across the full density range, quantized stays within its
// documented per-block bound), corrupt/truncated-frame rejection, the
// dense/sparse density switch, wire-byte accounting under the codec
// collectives, FaultPlan replay identity across modes (op-id lockstep), and
// end-to-end model identity: compression=off is bit-identical to seed and
// the lossless modes train bit-identical models with fewer bytes on the
// wire. See docs/wire_formats.md for the frame layout.

#include "cluster/codec.h"

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <string>
#include <vector>

#include "cluster/communicator.h"
#include "common/random.h"
#include "core/model_io.h"
#include "data/synthetic.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "quadrants/train_distributed.h"

namespace vero {
namespace {

// Seeded histogram-like payload: `density` fraction of nonzeros, clustered
// in runs (like real per-feature histograms, where populated bins neighbor
// each other).
std::vector<double> MakeHistogram(size_t n, double density, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values(n, 0.0);
  size_t i = 0;
  while (i < n) {
    if (rng.NextDouble() < density) {
      const size_t run = 1 + static_cast<size_t>(rng.Uniform(4));
      for (size_t k = 0; k < run && i < n; ++k, ++i) {
        values[i] = rng.UniformDouble(-100.0, 100.0);
      }
    } else {
      ++i;
    }
  }
  return values;
}

CodecSpec Spec(CollectiveCompression mode, uint64_t block = 0,
               double threshold = 0.5) {
  CodecSpec spec;
  spec.mode = mode;
  spec.block_values = block;
  spec.density_threshold = threshold;
  return spec;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ---------------------------------------------------------------------------
// Frame round-trips.
// ---------------------------------------------------------------------------

TEST(CodecFrameTest, LosslessModesAreBitExactAcrossDensities) {
  const double densities[] = {0.0, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0};
  const size_t sizes[] = {1, 7, 64, 640, 1000};  // incl. non-multiples of block
  for (const CollectiveCompression mode :
       {CollectiveCompression::kSparse, CollectiveCompression::kSparseDelta}) {
    for (double density : densities) {
      for (size_t n : sizes) {
        const std::vector<double> values =
            MakeHistogram(n, density, 1000 + n + static_cast<uint64_t>(density * 100));
        std::vector<uint8_t> frame;
        CodecStats stats;
        CodecEncode(values, Spec(mode, 64), &frame, &stats);
        std::vector<double> decoded;
        ASSERT_TRUE(CodecDecode(frame, &decoded).ok());
        EXPECT_TRUE(BitIdentical(values, decoded))
            << CollectiveCompressionToString(mode) << " density=" << density
            << " n=" << n;
        EXPECT_EQ(stats.raw_bytes, n * sizeof(double));
        EXPECT_EQ(stats.encoded_bytes, frame.size());
      }
    }
  }
}

TEST(CodecFrameTest, SpecialValuesSurviveLossless) {
  std::vector<double> values(64, 0.0);
  values[0] = -0.0;
  values[3] = std::numeric_limits<double>::denorm_min();
  values[7] = std::numeric_limits<double>::quiet_NaN();
  values[11] = std::numeric_limits<double>::infinity();
  values[13] = -std::numeric_limits<double>::infinity();
  values[63] = 1e-300;
  for (const CollectiveCompression mode :
       {CollectiveCompression::kSparse, CollectiveCompression::kSparseDelta}) {
    std::vector<uint8_t> frame;
    CodecEncode(values, Spec(mode, 32), &frame);
    std::vector<double> decoded;
    ASSERT_TRUE(CodecDecode(frame, &decoded).ok());
    EXPECT_TRUE(BitIdentical(values, decoded))
        << CollectiveCompressionToString(mode);
  }
}

TEST(CodecFrameTest, QuantizedStaysWithinDocumentedBound) {
  for (double density : {0.05, 0.5, 1.0}) {
    const size_t block = 80;
    const std::vector<double> values = MakeHistogram(800, density, 99);
    std::vector<uint8_t> frame;
    CodecStats stats;
    CodecEncode(values, Spec(CollectiveCompression::kQuantized, block), &frame,
                &stats);
    std::vector<double> decoded;
    ASSERT_TRUE(CodecDecode(frame, &decoded).ok());
    ASSERT_EQ(decoded.size(), values.size());
    for (size_t start = 0; start < values.size(); start += block) {
      double lo = 0.0, hi = 0.0;
      for (size_t i = start; i < start + block; ++i) {
        lo = std::min(lo, values[i]);
        hi = std::max(hi, values[i]);
      }
      // Documented bound: half a quantization step per block, with a hair of
      // slack for the scale's own rounding.
      const double bound = (hi - lo) / 65535.0 * 0.5000001 + 1e-12;
      for (size_t i = start; i < start + block; ++i) {
        EXPECT_LE(std::abs(decoded[i] - values[i]), bound)
            << "density=" << density << " i=" << i;
      }
    }
    EXPECT_GT(stats.quantized_blocks, 0u);
    // Encoding is deterministic: same input, same frame.
    std::vector<uint8_t> again;
    CodecEncode(values, Spec(CollectiveCompression::kQuantized, block), &again);
    EXPECT_EQ(frame, again);
  }
}

TEST(CodecFrameTest, QuantizedNonFiniteBlocksFallBackLossless) {
  std::vector<double> values = MakeHistogram(128, 1.0, 5);
  values[17] = std::numeric_limits<double>::quiet_NaN();
  std::vector<uint8_t> frame;
  CodecStats stats;
  CodecEncode(values, Spec(CollectiveCompression::kQuantized, 64), &frame,
              &stats);
  std::vector<double> decoded;
  ASSERT_TRUE(CodecDecode(frame, &decoded).ok());
  ASSERT_EQ(decoded.size(), values.size());
  // Block 0 (holding the NaN) is bit-exact; block 1 is quantized.
  EXPECT_EQ(std::memcmp(values.data(), decoded.data(), 64 * sizeof(double)),
            0);
  EXPECT_EQ(stats.dense_blocks, 1u);
  EXPECT_EQ(stats.quantized_blocks, 1u);
}

TEST(CodecFrameTest, DensitySwitchPicksSparseAndDensePerBlock) {
  // Block 0: 2/64 nonzero (sparse). Block 1: all nonzero (dense).
  std::vector<double> values(128, 0.0);
  values[3] = 1.5;
  values[40] = -2.5;
  for (size_t i = 64; i < 128; ++i) values[i] = 1.0 + i;
  std::vector<uint8_t> frame;
  CodecStats stats;
  CodecEncode(values, Spec(CollectiveCompression::kSparse, 64), &frame,
              &stats);
  EXPECT_EQ(stats.sparse_blocks, 1u);
  EXPECT_EQ(stats.dense_blocks, 1u);
  std::vector<double> decoded;
  ASSERT_TRUE(CodecDecode(frame, &decoded).ok());
  EXPECT_TRUE(BitIdentical(values, decoded));

  // threshold=1.0 forces everything sparse; threshold tiny forces dense.
  CodecStats all_sparse, all_dense;
  std::vector<uint8_t> f2;
  CodecEncode(values, Spec(CollectiveCompression::kSparse, 64, 1.0), &f2,
              &all_sparse);
  EXPECT_EQ(all_sparse.sparse_blocks, 2u);
  CodecEncode(values, Spec(CollectiveCompression::kSparse, 64, 1e-9), &f2,
              &all_dense);
  EXPECT_EQ(all_dense.dense_blocks, 2u);
}

TEST(CodecFrameTest, SparseBeatsRawAndDeltaBeatsSparseAtLowDensity) {
  const std::vector<double> values = MakeHistogram(4096, 0.05, 7);
  std::vector<uint8_t> sparse, delta;
  CodecEncode(values, Spec(CollectiveCompression::kSparse, 128), &sparse);
  CodecEncode(values, Spec(CollectiveCompression::kSparseDelta, 128), &delta);
  const size_t raw = values.size() * sizeof(double);
  EXPECT_LE(sparse.size() * 2, raw) << "expected >=2x reduction at 5% density";
  EXPECT_LE(delta.size(), sparse.size());
}

TEST(CodecFrameTest, EmptyAndWholePayloadBlocks) {
  const std::vector<double> empty;
  std::vector<uint8_t> frame;
  CodecEncode(empty, Spec(CollectiveCompression::kSparse), &frame);
  std::vector<double> decoded{1.0};
  ASSERT_TRUE(CodecDecode(frame, &decoded).ok());
  EXPECT_TRUE(decoded.empty());

  // block_values=0 = one block over the whole payload.
  const std::vector<double> values = MakeHistogram(100, 0.2, 3);
  CodecStats stats;
  CodecEncode(values, Spec(CollectiveCompression::kSparseDelta, 0), &frame,
              &stats);
  EXPECT_EQ(stats.sparse_blocks + stats.dense_blocks, 1u);
  ASSERT_TRUE(CodecDecode(frame, &decoded).ok());
  EXPECT_TRUE(BitIdentical(values, decoded));
}

TEST(CodecFrameTest, FrameRawSizeHeaderPeek) {
  const std::vector<double> values = MakeHistogram(640, 0.1, 11);
  std::vector<uint8_t> frame;
  CodecEncode(values, Spec(CollectiveCompression::kSparseDelta, 64), &frame);
  uint64_t raw = 0;
  ASSERT_TRUE(CodecFrameRawSize(frame, &raw).ok());
  EXPECT_EQ(raw, values.size() * sizeof(double));
}

// ---------------------------------------------------------------------------
// Corrupt / truncated frame rejection.
// ---------------------------------------------------------------------------

TEST(CodecFrameTest, EveryTruncationIsRejected) {
  const std::vector<double> values = MakeHistogram(96, 0.3, 21);
  std::vector<uint8_t> frame;
  CodecEncode(values, Spec(CollectiveCompression::kSparseDelta, 32), &frame);
  std::vector<double> decoded;
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(
        CodecDecode(std::span<const uint8_t>(frame.data(), len), &decoded)
            .ok())
        << "prefix of length " << len << " decoded";
  }
  // Trailing garbage is rejected too (the CRC no longer trails the body).
  std::vector<uint8_t> longer = frame;
  longer.push_back(0);
  EXPECT_FALSE(CodecDecode(longer, &decoded).ok());
}

TEST(CodecFrameTest, EveryByteFlipIsRejected) {
  const std::vector<double> values = MakeHistogram(64, 0.2, 22);
  std::vector<uint8_t> frame;
  CodecEncode(values, Spec(CollectiveCompression::kQuantized, 32), &frame);
  std::vector<double> decoded;
  for (size_t i = 0; i < frame.size(); ++i) {
    std::vector<uint8_t> corrupt = frame;
    corrupt[i] ^= 0x80;  // the kCorrupt injector's high-bit flip
    EXPECT_FALSE(CodecDecode(corrupt, &decoded).ok()) << "byte " << i;
  }
}

// ---------------------------------------------------------------------------
// Codec collectives: results, accounting, and replay identity.
// ---------------------------------------------------------------------------

TEST(CodecCollectiveTest, LosslessAllReduceMatchesStrictBitwise) {
  const int w = 4;
  const std::vector<double> base = MakeHistogram(1280, 0.08, 31);
  std::vector<std::vector<double>> strict(w), coded(w);
  for (int r = 0; r < w; ++r) {
    strict[r] = MakeHistogram(1280, 0.08, 31 + r);
    coded[r] = strict[r];
  }

  Cluster strict_cluster(w);
  strict_cluster.Run(
      [&](WorkerContext& ctx) { VERO_COMM_OK(ctx.AllReduceSum(strict[ctx.rank()])); });
  const uint64_t strict_bytes = strict_cluster.TotalStats().bytes_sent;

  for (const CollectiveCompression mode :
       {CollectiveCompression::kSparse, CollectiveCompression::kSparseDelta}) {
    std::vector<std::vector<double>> data = coded;
    Cluster cluster(w);
    cluster.Run([&](WorkerContext& ctx) {
      VERO_COMM_OK(
          ctx.AllReduceSum(data[ctx.rank()], {.codec = Spec(mode, 64)}));
    });
    for (int r = 0; r < w; ++r) {
      EXPECT_TRUE(BitIdentical(strict[r], data[r]))
          << CollectiveCompressionToString(mode) << " rank " << r;
    }
    const CommStats total = cluster.TotalStats();
    EXPECT_LE(total.bytes_sent * 2, strict_bytes)
        << CollectiveCompressionToString(mode)
        << ": expected >=2x fewer bytes at 8% density";
    EXPECT_GT(total.codec_raw_bytes, total.codec_wire_bytes);
  }
}

TEST(CodecCollectiveTest, OffModeDelegatesBitIdentically) {
  const int w = 3;
  std::vector<std::vector<double>> a(w), b(w);
  for (int r = 0; r < w; ++r) {
    a[r] = MakeHistogram(600, 0.5, 41 + r);
    b[r] = a[r];
  }
  Cluster ca(w), cb(w);
  ca.Run([&](WorkerContext& ctx) { VERO_COMM_OK(ctx.AllReduceSum(a[ctx.rank()])); });
  cb.Run([&](WorkerContext& ctx) {
    VERO_COMM_OK(ctx.AllReduceSum(
        b[ctx.rank()], {.codec = Spec(CollectiveCompression::kOff)}));
  });
  for (int r = 0; r < w; ++r) EXPECT_TRUE(BitIdentical(a[r], b[r]));
  EXPECT_EQ(ca.TotalStats().bytes_sent, cb.TotalStats().bytes_sent);
  EXPECT_EQ(cb.TotalStats().codec_raw_bytes, 0u);
  EXPECT_EQ(cb.TotalStats().codec_wire_bytes, 0u);
}

TEST(CodecCollectiveTest, QuantizedAllReduceIsReplicatedDeterministic) {
  const int w = 4;
  std::vector<std::vector<double>> data(w);
  for (int r = 0; r < w; ++r) data[r] = MakeHistogram(512, 0.6, 51 + r);
  Cluster cluster(w);
  cluster.Run([&](WorkerContext& ctx) {
    VERO_COMM_OK(ctx.AllReduceSum(
        data[ctx.rank()],
        {.codec = Spec(CollectiveCompression::kQuantized, 64)}));
  });
  for (int r = 1; r < w; ++r) {
    EXPECT_TRUE(BitIdentical(data[0], data[r])) << "rank " << r;
  }
}

TEST(CodecCollectiveTest, AllGatherAndAllToAllLosslessMatchStrict) {
  const int w = 3;
  // Packed-double byte payloads, one per (sender, dest) pair.
  auto payload = [](int s, int d) {
    const std::vector<double> values = MakeHistogram(320, 0.1, 61 + 7 * s + d);
    std::vector<uint8_t> bytes(values.size() * sizeof(double));
    std::memcpy(bytes.data(), values.data(), bytes.size());
    return bytes;
  };

  std::vector<std::vector<std::vector<uint8_t>>> strict_gather(w),
      coded_gather(w), strict_a2a(w), coded_a2a(w);
  Cluster sc(w);
  sc.Run([&](WorkerContext& ctx) {
    const int r = ctx.rank();
    VERO_COMM_OK(ctx.AllGather(payload(r, r), &strict_gather[r]));
    std::vector<std::vector<uint8_t>> to_each(w);
    for (int d = 0; d < w; ++d) to_each[d] = payload(r, d);
    VERO_COMM_OK(ctx.AllToAll(std::move(to_each), &strict_a2a[r]));
  });
  Cluster cc(w);
  const CodecSpec spec = Spec(CollectiveCompression::kSparseDelta, 64);
  cc.Run([&](WorkerContext& ctx) {
    const int r = ctx.rank();
    VERO_COMM_OK(
        ctx.AllGather(payload(r, r), &coded_gather[r], {.codec = spec}));
    std::vector<std::vector<uint8_t>> to_each(w);
    for (int d = 0; d < w; ++d) to_each[d] = payload(r, d);
    VERO_COMM_OK(
        ctx.AllToAll(std::move(to_each), &coded_a2a[r], {.codec = spec}));
  });
  for (int r = 0; r < w; ++r) {
    EXPECT_EQ(strict_gather[r], coded_gather[r]) << "gather rank " << r;
    EXPECT_EQ(strict_a2a[r], coded_a2a[r]) << "a2a rank " << r;
  }
  EXPECT_LT(cc.TotalStats().bytes_sent, sc.TotalStats().bytes_sent);
}

// One FaultPlan must replay identically across modes: a collective reports
// the same CollectiveOp stream whatever its codec, so occurrence matching is
// unchanged — a kCorrupt retry recharges the (smaller) encoded volume, a
// kDelay lands on the same op, and a kSilentCorrupt lands in the decoded
// payload.
TEST(CodecCollectiveTest, FaultPlanReplaysIdenticallyAcrossModes) {
  const int w = 3;
  const auto plan = [] {
    return FaultPlan()
        .Delay(1, CollectiveOp::kAllReduceSum, /*occurrence=*/1, 0.25)
        .Corrupt(2, CollectiveOp::kAllReduceSum, /*occurrence=*/2,
                 /*attempts=*/1);
  };

  struct Outcome {
    double delay = 0.0;
    uint64_t retransmitted = 0;
    uint64_t retries = 0;
  };
  auto run = [&](CollectiveCompression mode) {
    Cluster cluster(w);
    cluster.InstallFaultPlan(plan());
    std::vector<std::vector<double>> data(w);
    for (int r = 0; r < w; ++r) data[r] = MakeHistogram(640, 0.05, 71 + r);
    cluster.Run([&](WorkerContext& ctx) {
      for (int round = 0; round < 3; ++round) {
        CodecSpec spec = Spec(mode, 64);
        VERO_COMM_OK(ctx.AllReduceSum(data[ctx.rank()], {.codec = spec}));
      }
    });
    Outcome out;
    const CommStats total = cluster.TotalStats();
    out.delay = total.fault_delay_seconds;
    out.retransmitted = total.retransmitted_bytes;
    out.retries = total.num_retries;
    return out;
  };

  const Outcome off = run(CollectiveCompression::kOff);
  const Outcome sparse = run(CollectiveCompression::kSparse);
  // Same events fire in both modes (same op stream)...
  EXPECT_EQ(off.delay, sparse.delay);
  EXPECT_EQ(off.retries, sparse.retries);
  EXPECT_GT(sparse.retries, 0u);
  // ...but the retransmission re-ships the encoded frames, which are
  // smaller at 5% density.
  EXPECT_LT(sparse.retransmitted, off.retransmitted);
  EXPECT_GT(sparse.retransmitted, 0u);
}

TEST(CodecCollectiveTest, ComposesWithBoundedStaleness) {
  const int w = 3;
  Cluster cluster(w);
  cluster.InstallFaultPlan(
      FaultPlan().Delay(2, CollectiveOp::kAllReduceSum, 0, /*seconds=*/5.0));
  MitigationOptions opts;
  opts.mode = MitigationMode::kBoundedStaleness;
  opts.deadline_seconds = 0.01;
  std::vector<std::vector<double>> data(w);
  for (int r = 0; r < w; ++r) data[r] = MakeHistogram(640, 0.05, 81 + r);
  std::vector<MitigationOutcome> outcomes(w);
  cluster.Run([&](WorkerContext& ctx) {
    VERO_COMM_OK(ctx.AllReduceSum(
        data[ctx.rank()],
        {.mitigation = opts,
         .codec = Spec(CollectiveCompression::kSparseDelta, 64)},
        &outcomes[ctx.rank()]));
  });
  // Rank 2's contribution was deferred — identically on every rank — and
  // its delay was absorbed off the critical path.
  for (int r = 0; r < w; ++r) {
    ASSERT_EQ(outcomes[r].contributed.size(), static_cast<size_t>(w));
    EXPECT_EQ(outcomes[r].contributed[2], 0) << "rank " << r;
  }
  EXPECT_TRUE(BitIdentical(data[0], data[1]));
  EXPECT_TRUE(BitIdentical(data[0], data[2]));
  EXPECT_GT(cluster.TotalStats().absorbed_delay_seconds, 4.9);
  EXPECT_GT(cluster.TotalStats().codec_wire_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Policy grid: each collective under every mitigation x codec policy, with
// one rank delayed. Every cell must report the same collective stream, the
// lossless codec must not change what the mitigation delivers, and the
// CommStats accounting of every cell is pinned to exact recorded values.
// ---------------------------------------------------------------------------

enum class GridOp { kAllReduceSum, kAllGather, kAllToAll };

std::vector<uint8_t> PackedHistogram(size_t n, double density, uint64_t seed) {
  const std::vector<double> values = MakeHistogram(n, density, seed);
  std::vector<uint8_t> bytes(values.size() * sizeof(double));
  std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

MitigationOptions GridMitigation(MitigationMode mode) {
  MitigationOptions opts;
  opts.mode = mode;
  opts.deadline_seconds = 0.01;
  opts.speculation_threshold_seconds = 0.01;
  return opts;
}

// One policy cell: per (round, rank) results and contributed vectors, each
// rank's collective (name, op_id) stream, and the cluster-wide CommStats.
struct GridCell {
  std::vector<std::vector<std::vector<uint8_t>>> results;
  std::vector<std::vector<uint8_t>> contributed;
  std::vector<std::vector<std::pair<std::string, int64_t>>> ops;
  CommStats total;
};

Status RunGridOp(WorkerContext& ctx, GridOp op, const CollectivePolicy& policy,
                 int round, MitigationOutcome* outcome,
                 std::vector<std::vector<uint8_t>>* result) {
  const int w = ctx.world_size();
  const int r = ctx.rank();
  const uint64_t seed = 900 + 100 * static_cast<uint64_t>(round) + 10 * r;
  switch (op) {
    case GridOp::kAllReduceSum: {
      std::vector<double> data = MakeHistogram(640, 0.05, seed);
      const Status status = ctx.AllReduceSum(data, policy, outcome);
      result->assign(1, std::vector<uint8_t>(data.size() * sizeof(double)));
      std::memcpy((*result)[0].data(), data.data(), (*result)[0].size());
      return status;
    }
    case GridOp::kAllGather:
      return ctx.AllGather(PackedHistogram(320, 0.1, seed), result, policy,
                           outcome);
    case GridOp::kAllToAll: {
      std::vector<std::vector<uint8_t>> to_each(w);
      for (int d = 0; d < w; ++d) {
        to_each[d] = PackedHistogram(96 + 32 * d, 0.1, seed + d);
      }
      return ctx.AllToAll(std::move(to_each), result, policy, outcome);
    }
  }
  return Status::Internal("unknown grid op");
}

GridCell RunGridCell(GridOp op, CollectiveOp fault_op, MitigationMode mode,
                     CollectiveCompression compression) {
  const int w = 3, rounds = 2;
  obs::ObsOptions obs_options;
  obs_options.trace = true;
  obs::RunObserver observer(obs_options);
  Cluster cluster(w);
  // Rank 2 straggles on the op's first occurrence only.
  cluster.InstallFaultPlan(FaultPlan().Delay(2, fault_op, 0, /*seconds=*/5.0));
  cluster.AttachObserver(&observer);
  GridCell cell;
  cell.results.assign(rounds * w, {});
  cell.contributed.assign(rounds * w, {});
  const CollectivePolicy policy{GridMitigation(mode), Spec(compression, 64)};
  cluster.Run([&](WorkerContext& ctx) {
    for (int round = 0; round < rounds; ++round) {
      const size_t slot = static_cast<size_t>(round * w + ctx.rank());
      MitigationOutcome outcome;
      VERO_COMM_OK(
          RunGridOp(ctx, op, policy, round, &outcome, &cell.results[slot]));
      cell.contributed[slot] = outcome.contributed;
    }
  });
  cell.ops.assign(w, {});
  for (const obs::TraceEvent& ev : observer.trace().MergedEvents()) {
    if (std::string(ev.category) != "collective") continue;
    cell.ops[ev.rank].emplace_back(ev.name, ev.op_id);
  }
  cell.total = cluster.TotalStats();
  return cell;
}

// Cluster-wide CommStats of one grid cell.
struct GridStats {
  uint64_t bytes_sent;
  uint64_t bytes_received;
  double sim_seconds;
  double absorbed_delay_seconds;
  double deadline_wait_seconds;
  uint64_t speculative_bytes;
  uint64_t codec_wire_bytes;
  uint64_t codec_raw_bytes;
};

TEST(CodecCollectiveTest, PolicyGridKeepsStreamResultsAndAccounting) {
  struct OpCase {
    GridOp op;
    CollectiveOp fault_op;
    // [mitigation: strict, bounded, speculative][codec: off, sparse_delta]
    GridStats expected[3][2];
  };
  // expected[m][k]: m = strict, bounded, speculative; k = codec off,
  // sparse_delta.
  const OpCase cases[] = {
      {GridOp::kAllReduceSum, CollectiveOp::kAllReduceSum,
       {{{40956u, 40956u, 5.0015276479999997, 0, 0, 0u, 0u, 0u},
         {5940u, 5940u, 5.0012475199999997, 0, 0, 0u, 11880u, 81912u}},
        {{40956u, 40956u, 0.021527648, 5, 0.02, 0u, 0u, 0u},
         {5940u, 5940u, 0.021247519999999999, 5, 0.02, 0u, 11880u, 81912u}},
        {{47782u, 47782u, 0.0017822560000000001, 5, 0, 6826u, 0u, 0u},
         {6882u, 6882u, 0.0014550559999999999, 5, 0, 942u, 11880u, 81912u}}}},
      {GridOp::kAllGather, CollectiveOp::kAllGather,
       {{{30720u, 30720u, 5.0014457600000002, 0, 0, 0u, 0u, 0u},
         {8238u, 8238u, 5.0012695760000003, 0, 0, 0u, 16476u, 61440u}},
        {{30720u, 30720u, 0.021445760000000001, 5, 0.02, 0u, 0u, 0u},
         {8238u, 8238u, 0.021269576000000002, 5, 0.02, 0u, 16476u, 61440u}},
        {{35840u, 30720u, 0.0016867200000000003, 5, 0, 5120u, 0u, 0u},
         {9392u, 8238u, 0.0014788080000000001, 5, 0, 1154u, 16476u, 61440u}}}},
      {GridOp::kAllToAll, CollectiveOp::kAllToAll,
       {{{12288u, 12288u, 5.0013105920000003, 0, 0, 0u, 0u, 0u},
         {3130u, 3130u, 5.0012304399999996, 0, 0, 0u, 6260u, 24576u}},
        {{12288u, 12288u, 0.021310592, 5, 0.02, 0u, 0u, 0u},
         {3130u, 3130u, 0.021230439999999996, 5, 0.02, 0u, 6260u, 24576u}},
        {{14080u, 12288u, 0.001524928, 5, 0, 1792u, 0u, 0u},
         {3605u, 3130u, 0.00143424, 5, 0, 475u, 6260u, 24576u}}}},
  };
  const MitigationMode modes[] = {MitigationMode::kStrict,
                                  MitigationMode::kBoundedStaleness,
                                  MitigationMode::kSpeculative};
  const CollectiveCompression codecs[] = {CollectiveCompression::kOff,
                                          CollectiveCompression::kSparseDelta};
  for (const OpCase& c : cases) {
    GridCell cells[3][2];
    for (int m = 0; m < 3; ++m) {
      for (int k = 0; k < 2; ++k) {
        cells[m][k] = RunGridCell(c.op, c.fault_op, modes[m], codecs[k]);
      }
    }
    for (int m = 0; m < 3; ++m) {
      const GridCell& off = cells[m][0];
      for (int k = 0; k < 2; ++k) {
        const std::string where =
            std::string(CollectiveOpToString(c.fault_op)) +
            " mitigation=" + MitigationModeToString(modes[m]) +
            " codec=" + CollectiveCompressionToString(codecs[k]);
        const GridCell& cell = cells[m][k];
        // Same collective stream under every policy: one FaultPlan replays
        // identically across them.
        EXPECT_EQ(cell.total.num_ops, cells[0][0].total.num_ops) << where;
        if (obs::kObsEnabled) {
          EXPECT_EQ(cell.ops, cells[0][0].ops) << where;
        }
        // Only bounded mitigation drops the straggler (rank 2, round 0).
        ASSERT_EQ(cell.contributed[0].size(), 3u) << where;
        EXPECT_EQ(cell.contributed[0][2],
                  modes[m] == MitigationMode::kBoundedStaleness ? 0 : 1)
            << where;
        // The lossless codec delivers exactly what the codec-off cell with
        // the same mitigation delivers.
        EXPECT_EQ(cell.results, off.results) << where;
        EXPECT_EQ(cell.contributed, off.contributed) << where;

        const GridStats& want = c.expected[m][k];
        const CommStats& got = cell.total;
        EXPECT_EQ(got.bytes_sent, want.bytes_sent) << where;
        EXPECT_EQ(got.bytes_received, want.bytes_received) << where;
        EXPECT_EQ(got.sim_seconds, want.sim_seconds) << where;
        EXPECT_EQ(got.absorbed_delay_seconds, want.absorbed_delay_seconds)
            << where;
        EXPECT_EQ(got.deadline_wait_seconds, want.deadline_wait_seconds)
            << where;
        EXPECT_EQ(got.speculative_bytes, want.speculative_bytes) << where;
        EXPECT_EQ(got.codec_wire_bytes, want.codec_wire_bytes) << where;
        EXPECT_EQ(got.codec_raw_bytes, want.codec_raw_bytes) << where;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: distributed training under compression.
// ---------------------------------------------------------------------------

Dataset MakeData(uint32_t n, uint32_t d, double density, uint64_t seed) {
  SyntheticConfig config;
  config.num_instances = n;
  config.num_features = d;
  config.num_classes = 2;
  config.density = density;
  config.seed = seed;
  return GenerateSynthetic(config);
}

DistTrainOptions SmallOptions(CollectiveCompression compression,
                              uint32_t trees = 5, uint32_t layers = 4) {
  DistTrainOptions options;
  options.params.num_trees = trees;
  options.params.num_layers = layers;
  options.params.num_candidate_splits = 16;
  options.params.compression = compression;
  return options;
}

class QuadrantCodecTest : public ::testing::TestWithParam<Quadrant> {};

// compression=off must be bit-identical to seed (same code path), and the
// lossless modes must train the exact same model while moving fewer bytes.
TEST_P(QuadrantCodecTest, LosslessModesTrainBitIdenticalModels) {
  const Quadrant quadrant = GetParam();
  const Dataset data = MakeData(800, 24, 0.1, 411);

  Cluster off_cluster(3);
  const DistResult off = TrainDistributed(
      off_cluster, data, quadrant, SmallOptions(CollectiveCompression::kOff));
  ASSERT_TRUE(off.status.ok()) << off.status.ToString();
  const std::string off_text = ModelToText(off.model);
  EXPECT_EQ(off_cluster.TotalStats().codec_wire_bytes, 0u);

  for (const CollectiveCompression mode :
       {CollectiveCompression::kSparse, CollectiveCompression::kSparseDelta}) {
    Cluster cluster(3);
    const DistResult result =
        TrainDistributed(cluster, data, quadrant, SmallOptions(mode));
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(ModelToText(result.model), off_text);
    EXPECT_LT(result.train_bytes_sent, off.train_bytes_sent);
    const CommStats total = cluster.TotalStats();
    EXPECT_GT(total.codec_raw_bytes, total.codec_wire_bytes);
  }
}

// Quantized training must complete and produce a valid (finite-leaf) model;
// it is allowed to differ from the lossless model.
TEST_P(QuadrantCodecTest, QuantizedTrainsAValidModel) {
  const Quadrant quadrant = GetParam();
  const Dataset data = MakeData(800, 24, 0.1, 413);
  Cluster cluster(3);
  const DistResult result = TrainDistributed(
      cluster, data, quadrant, SmallOptions(CollectiveCompression::kQuantized));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.model.num_trees(), 5u);
  EXPECT_GT(cluster.TotalStats().codec_wire_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Quadrants, QuadrantCodecTest,
                         ::testing::Values(Quadrant::kQD1, Quadrant::kQD2));

// Integrity digests operate on *decoded* payloads, so compression must not
// break blame attribution: a clean quantized run reports zero violations
// (sender digests the round-tripped bytes), and an injected silent
// corruption of the decoded QD2 exchange still convicts the receiver.
TEST(CodecIntegrityTest, QuantizedCleanRunHasNoViolations) {
  const Dataset data = MakeData(800, 24, 0.1, 421);
  for (const CollectiveCompression mode :
       {CollectiveCompression::kSparse, CollectiveCompression::kQuantized}) {
    DistTrainOptions options = SmallOptions(mode);
    options.params.integrity = IntegrityLevel::kFull;
    Cluster cluster(3);
    const DistResult result =
        TrainDistributed(cluster, data, Quadrant::kQD2, options);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_GT(result.integrity.checks, 0u);
    EXPECT_EQ(result.integrity.violations, 0u);
    EXPECT_EQ(result.integrity.last_blamed_rank, -1);
  }
}

TEST(CodecIntegrityTest, SilentCorruptionStillBlamedUnderCompression) {
  const Dataset data = MakeData(800, 24, 0.1, 423);
  DistTrainOptions options = SmallOptions(CollectiveCompression::kSparseDelta);
  options.params.integrity = IntegrityLevel::kChecksum;
  Cluster cluster(3);
  cluster.InstallFaultPlan(FaultPlan().SilentCorrupt(
      2, CollectiveOp::kAllToAll, /*occurrence=*/0, /*seed=*/77,
      FaultPhase::kTrain));
  const DistResult result =
      TrainDistributed(cluster, data, Quadrant::kQD2, options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GE(result.integrity.violations, 1u);
  EXPECT_EQ(result.integrity.last_blamed_rank, 2);
}

}  // namespace
}  // namespace vero
