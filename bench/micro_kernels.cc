// Micro-benchmarks (google-benchmark) for the kernels the paper's analysis
// is built on: histogram construction under each store/index combination,
// histogram subtraction, bitmap encoding vs 4-byte ids, quantile sketch
// throughput, two-phase index lookups, split evaluation, and the
// collectives.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench/bench_common.h"
#include "cluster/communicator.h"
#include "common/bitmap.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/binned.h"
#include "core/hist_builder.h"
#include "core/histogram.h"
#include "core/node_indexer.h"
#include "core/split.h"
#include "data/synthetic.h"
#include "partition/column_group.h"
#include "sketch/quantile_summary.h"

namespace vero {
namespace {

Dataset BenchData(uint32_t n, uint32_t d, double density) {
  SyntheticConfig config;
  config.num_instances = n;
  config.num_features = d;
  config.num_classes = 2;
  config.density = density;
  config.seed = 7001;
  return GenerateSynthetic(config);
}

const Dataset& SharedData() {
  static const Dataset* data = new Dataset(BenchData(20000, 500, 0.1));
  return *data;
}

const CandidateSplits& SharedSplits() {
  static const CandidateSplits* splits =
      new CandidateSplits(ProposeCandidateSplits(SharedData(), 20));
  return *splits;
}

GradientBuffer MakeGrads(uint32_t n, uint32_t dims = 1) {
  GradientBuffer grads(n, dims);
  Rng rng(11);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t k = 0; k < dims; ++k) {
      grads.at(i, k) = GradPair{rng.NextGaussian(), rng.NextDouble()};
    }
  }
  return grads;
}

std::vector<InstanceId> AllRows(uint32_t n) {
  std::vector<InstanceId> rows(n);
  for (InstanceId i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

// Shared-builder row-layer kernel across the dims x threads grid: the code
// path every row-store trainer (QD2/QD4/feature-parallel) bottoms out in.
void BM_HistBuilderRowLayer(benchmark::State& state) {
  const uint32_t dims = static_cast<uint32_t>(state.range(0));
  const uint32_t threads = static_cast<uint32_t>(state.range(1));
  const Dataset& data = SharedData();
  const BinnedRowStore store =
      BinnedRowStore::FromCsr(data.matrix(), SharedSplits());
  const GradientBuffer grads = MakeGrads(data.num_instances(), dims);
  const std::vector<InstanceId> rows = AllRows(data.num_instances());
  Histogram hist(data.num_features(), 20, dims);
  std::vector<HistogramBuilder::NodeRows> tasks = {
      {&hist, std::span<const InstanceId>(rows)}};
  HistogramBuilder builder(threads);
  for (auto _ : state) {
    hist.Clear();
    builder.BuildRowStoreLayer(
        store, grads, std::span<const HistogramBuilder::NodeRows>(tasks), 0,
        data.num_features(), data.num_features());
    benchmark::DoNotOptimize(hist.raw_data());
  }
  state.SetItemsProcessed(state.iterations() * data.num_nonzeros());
}
BENCHMARK(BM_HistBuilderRowLayer)->ArgsProduct({{1, 3}, {1, 4}});

// Shared-builder one-sweep column kernel (QD1) across the same grid.
void BM_HistBuilderColumnSweep(benchmark::State& state) {
  const uint32_t dims = static_cast<uint32_t>(state.range(0));
  const uint32_t threads = static_cast<uint32_t>(state.range(1));
  const Dataset& data = SharedData();
  const BinnedColumnStore store =
      BinnedColumnStore::FromCsr(data.matrix(), SharedSplits());
  const GradientBuffer grads = MakeGrads(data.num_instances(), dims);
  InstanceToNode node_of;
  node_of.Init(data.num_instances());
  Histogram hist(data.num_features(), 20, dims);
  std::vector<Histogram*> hist_of_node = {&hist};
  HistogramBuilder builder(threads);
  for (auto _ : state) {
    hist.Clear();
    builder.BuildColumnStoreSweep(store, grads, node_of, hist_of_node);
    benchmark::DoNotOptimize(hist.raw_data());
  }
  state.SetItemsProcessed(state.iterations() * data.num_nonzeros());
}
BENCHMARK(BM_HistBuilderColumnSweep)->ArgsProduct({{1, 3}, {1, 4}});

// Row-store histogram build with the node-to-instance index (QD2/QD4 hot
// loop).
void BM_HistogramBuildRowStore(benchmark::State& state) {
  const Dataset& data = SharedData();
  const BinnedRowStore store =
      BinnedRowStore::FromCsr(data.matrix(), SharedSplits());
  const GradientBuffer grads = MakeGrads(data.num_instances());
  Histogram hist(data.num_features(), 20, 1);
  for (auto _ : state) {
    hist.Clear();
    for (InstanceId i = 0; i < data.num_instances(); ++i) {
      auto features = store.RowFeatures(i);
      auto bins = store.RowBins(i);
      const GradPair* g = grads.row(i);
      for (size_t k = 0; k < features.size(); ++k) {
        hist.Add(features[k], bins[k], g);
      }
    }
    benchmark::DoNotOptimize(hist.raw_data());
  }
  state.SetItemsProcessed(state.iterations() * data.num_nonzeros());
}
BENCHMARK(BM_HistogramBuildRowStore);

// Column-store histogram build with the instance-to-node index (QD1 loop).
void BM_HistogramBuildColumnStore(benchmark::State& state) {
  const Dataset& data = SharedData();
  const BinnedColumnStore store =
      BinnedColumnStore::FromCsr(data.matrix(), SharedSplits());
  const GradientBuffer grads = MakeGrads(data.num_instances());
  InstanceToNode node_of;
  node_of.Init(data.num_instances());
  Histogram hist(data.num_features(), 20, 1);
  for (auto _ : state) {
    hist.Clear();
    for (FeatureId f = 0; f < data.num_features(); ++f) {
      auto rows = store.ColumnRows(f);
      auto bins = store.ColumnBins(f);
      for (size_t k = 0; k < rows.size(); ++k) {
        benchmark::DoNotOptimize(node_of.Get(rows[k]));
        hist.Add(f, bins[k], grads.row(rows[k]));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * data.num_nonzeros());
}
BENCHMARK(BM_HistogramBuildColumnStore);

// Column-store histogram build with per-instance binary search (the
// node-to-instance-on-columns combination §3.2.3 warns about).
void BM_HistogramBuildColumnBinarySearch(benchmark::State& state) {
  const Dataset& data = SharedData();
  const BinnedColumnStore store =
      BinnedColumnStore::FromCsr(data.matrix(), SharedSplits());
  const GradientBuffer grads = MakeGrads(data.num_instances());
  Histogram hist(data.num_features(), 20, 1);
  for (auto _ : state) {
    hist.Clear();
    for (FeatureId f = 0; f < data.num_features(); ++f) {
      for (InstanceId i = 0; i < data.num_instances(); ++i) {
        const auto bin = store.FindBin(f, i);
        if (bin.has_value()) hist.Add(f, *bin, grads.row(i));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * data.num_instances() *
                          data.num_features());
}
BENCHMARK(BM_HistogramBuildColumnBinarySearch);

void BM_HistogramSubtraction(benchmark::State& state) {
  const uint32_t d = static_cast<uint32_t>(state.range(0));
  Histogram parent(d, 20, 1), child(d, 20, 1), sibling(d, 20, 1);
  for (auto _ : state) {
    sibling.SetToDifference(parent, child);
    benchmark::DoNotOptimize(sibling.raw_data());
  }
  state.SetBytesProcessed(state.iterations() * parent.MemoryBytes());
}
BENCHMARK(BM_HistogramSubtraction)->Arg(100)->Arg(1000)->Arg(10000);

void BM_BitmapEncodePlacement(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  Bitmap bitmap(n);
  for (size_t i = 0; i < n; ++i) bitmap.Assign(i, rng.Bernoulli(0.5));
  for (auto _ : state) {
    std::vector<uint8_t> bytes;
    bitmap.SerializeTo(&bytes);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(state.iterations() * bitmap.SerializedBytes());
}
BENCHMARK(BM_BitmapEncodePlacement)->Arg(100000)->Arg(1000000);

// The 4-byte-per-instance alternative the bitmap replaces (32x larger).
void BM_Int32EncodePlacement(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  std::vector<uint32_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<uint32_t>(rng.Next());
  for (auto _ : state) {
    std::vector<uint8_t> bytes(ids.size() * sizeof(uint32_t));
    std::memcpy(bytes.data(), ids.data(), bytes.size());
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(state.iterations() * n * sizeof(uint32_t));
}
BENCHMARK(BM_Int32EncodePlacement)->Arg(100000)->Arg(1000000);

void BM_QuantileSketchAdd(benchmark::State& state) {
  Rng rng(5);
  std::vector<float> values(100000);
  for (auto& v : values) v = static_cast<float>(rng.NextGaussian());
  for (auto _ : state) {
    QuantileSketch sketch(256);
    for (float v : values) sketch.Add(v);
    benchmark::DoNotOptimize(sketch.Finalize().num_entries());
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_QuantileSketchAdd);

void BM_QuantileSummaryMerge(benchmark::State& state) {
  Rng rng(7);
  std::vector<float> a(10000), b(10000);
  for (auto& v : a) v = static_cast<float>(rng.NextGaussian());
  for (auto& v : b) v = static_cast<float>(rng.NextGaussian());
  const QuantileSummary sa = QuantileSummary::FromValues(a).Prune(256);
  const QuantileSummary sb = QuantileSummary::FromValues(b).Prune(256);
  for (auto _ : state) {
    QuantileSummary merged = sa.Merge(sb).Prune(256);
    benchmark::DoNotOptimize(merged.num_entries());
  }
}
BENCHMARK(BM_QuantileSummaryMerge);

void BM_TwoPhaseIndexLookup(benchmark::State& state) {
  // Build a 5-block column group and measure random row lookups.
  const Dataset& data = SharedData();
  const BinnedRowStore store =
      BinnedRowStore::FromCsr(data.matrix(), SharedSplits());
  ColumnGroup group;
  const uint32_t n = data.num_instances();
  InstanceId offset = 0;
  for (int b = 0; b < 5; ++b) {
    const InstanceId end = n * (b + 1) / 5;
    ColumnGroupBlock block;
    block.row_offset = offset;
    for (InstanceId i = offset; i < end; ++i) {
      auto features = store.RowFeatures(i);
      auto bins = store.RowBins(i);
      for (size_t k = 0; k < features.size(); ++k) {
        block.features.push_back(features[k]);
        block.bins.push_back(bins[k]);
      }
      block.row_ptr.push_back(static_cast<uint32_t>(block.features.size()));
    }
    group.AppendBlock(std::move(block));
    offset = end;
  }
  Rng rng(13);
  for (auto _ : state) {
    const InstanceId i = static_cast<InstanceId>(rng.Uniform(n));
    benchmark::DoNotOptimize(group.RowFeatures(i).size());
  }
}
BENCHMARK(BM_TwoPhaseIndexLookup);

void BM_RowPartitionSplit(benchmark::State& state) {
  const uint32_t n = 100000;
  Rng rng(17);
  Bitmap go_left(n);
  for (uint32_t i = 0; i < n; ++i) go_left.Assign(i, rng.Bernoulli(0.5));
  for (auto _ : state) {
    RowPartition partition;
    partition.Init(n, 3);
    partition.Split(0, go_left);
    benchmark::DoNotOptimize(partition.Count(1));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RowPartitionSplit);

// SplitFinder::FindBest over a 20-bin histogram: dims (1 = binary,
// 53 = the multi-class mc-qd4 shape) x the share of all-zero features,
// which a sparse dataset's per-node histograms are full of. The counter is
// wall time per enumerated candidate, 2 x (nbins - 1) per feature.
void BM_SplitFindBest(benchmark::State& state) {
  const uint32_t dims = static_cast<uint32_t>(state.range(0));
  const double zero_share = state.range(1) / 100.0;
  const uint32_t q = 20;
  const uint32_t features = dims == 1 ? 12000 : 400;
  Rng rng(23);
  Histogram hist(features, q, dims);
  std::vector<FeatureId> ids(features);
  for (uint32_t f = 0; f < features; ++f) {
    ids[f] = f;
    if (rng.Bernoulli(zero_share)) continue;
    for (uint32_t b = 0; b < q; ++b) {
      for (uint32_t k = 0; k < dims; ++k) {
        hist.at(f, b, k) = GradPair{rng.NextGaussian(), rng.NextDouble()};
      }
    }
  }
  // Every feature's present mass is below the node's: ~25 rows per bin.
  GradStats node(dims);
  for (GradPair& s : node) s = GradPair{rng.NextGaussian(), 30.0 * q};
  const CandidateSplits splits(
      q, std::vector<std::vector<float>>(features, std::vector<float>(q)));
  const SplitFinder finder(1.0, 0.0, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(finder.FindBest(hist, node, ids, splits));
  }
  const double candidates = 2.0 * features * (q - 1);
  state.counters["per_candidate"] = benchmark::Counter(
      candidates, benchmark::Counter::kIsIterationInvariantRate |
                      benchmark::Counter::kInvert);
}
BENCHMARK(BM_SplitFindBest)->ArgsProduct({{1, 53}, {0, 60}});

void BM_AllReduce(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Cluster cluster(4);
  for (auto _ : state) {
    cluster.Run([&](WorkerContext& ctx) {
      std::vector<double> data(n, 1.0);
      ctx.AllReduceSum(data);
      benchmark::DoNotOptimize(data[0]);
    });
  }
  state.SetBytesProcessed(state.iterations() * n * sizeof(double) * 4);
}
BENCHMARK(BM_AllReduce)->Arg(1000)->Arg(100000);

// ---- --hist-json: machine-readable histogram-kernel snapshot -------------
//
// Runs the shared-builder row-layer kernel across dims x threads plus the
// seed-style scalar loop (per-row Histogram::Add) and writes one JSON file
// for the perf-regression harness (scripts/bench_smoke.sh, check ctest
// entry). See docs/performance.md for how to read it.

struct HistMeasurement {
  const char* name;
  uint32_t dims;
  uint32_t threads;
  double seconds;
  double rows_per_sec;
  double entries_per_sec;
  double bytes_per_sec;
  double speedup_vs_scalar;
};

template <typename Fn>
double BestSeconds(const Fn& fn) {
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    WallTimer timer;
    fn();
    timer.Stop();
    best = std::min(best, timer.Seconds());
  }
  return std::max(best, 1e-9);
}

void AppendJsonNumber(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

int RunHistJson(const std::string& path) {
  const uint32_t n = bench::ScaledN(20000);
  const uint32_t d = 500;
  const uint32_t kNodes = 4;  // A depth-2 level-wise frontier.
  const double density = 0.1;
  const Dataset data = BenchData(n, d, density);
  const CandidateSplits splits = ProposeCandidateSplits(data, 20);
  const BinnedRowStore store = BinnedRowStore::FromCsr(data.matrix(), splits);
  const uint64_t entries = data.num_nonzeros();

  // One layer's worth of work: the frontier nodes partition the rows, so a
  // layer build touches every row exactly once whichever way it is built.
  std::vector<std::vector<InstanceId>> node_rows(kNodes);
  {
    Rng rng(29);
    for (InstanceId i = 0; i < data.num_instances(); ++i) {
      node_rows[rng.Uniform(kNodes)].push_back(i);
    }
  }

  std::vector<HistMeasurement> results;
  for (const uint32_t dims : {1u, 3u}) {
    const GradientBuffer grads = MakeGrads(data.num_instances(), dims);
    // Per entry: 6 bytes of store input plus a read-modify-write of the
    // dims gradient pairs in the target cell.
    const double bytes_per_entry = 6.0 + 32.0 * dims;

    std::vector<Histogram> hists;
    for (uint32_t k = 0; k < kNodes; ++k) hists.emplace_back(d, 20, dims);

    // Seed kernel: one scalar re-scan per frontier node through
    // Histogram::Add (the pre-builder trainer loop).
    const double scalar_seconds = BestSeconds([&] {
      for (uint32_t node = 0; node < kNodes; ++node) {
        hists[node].Clear();
        for (const InstanceId i : node_rows[node]) {
          const auto features = store.RowFeatures(i);
          const auto bins = store.RowBins(i);
          const GradPair* g = grads.row(i);
          for (size_t k = 0; k < features.size(); ++k) {
            hists[node].Add(features[k], bins[k], g);
          }
        }
      }
    });
    results.push_back({"scalar_row_add", dims, 1, scalar_seconds,
                       n / scalar_seconds, entries / scalar_seconds,
                       entries * bytes_per_entry / scalar_seconds, 1.0});

    for (const uint32_t threads : {1u, 4u}) {
      HistogramBuilder builder(threads);
      std::vector<HistogramBuilder::NodeRows> tasks;
      for (uint32_t k = 0; k < kNodes; ++k) {
        tasks.push_back(
            {&hists[k], std::span<const InstanceId>(node_rows[k])});
      }
      const double seconds = BestSeconds([&] {
        for (Histogram& h : hists) h.Clear();
        builder.BuildRowStoreLayer(
            store, grads, std::span<const HistogramBuilder::NodeRows>(tasks),
            0, d, d);
      });
      results.push_back({"builder_row_layer", dims, threads, seconds,
                         n / seconds, entries / seconds,
                         entries * bytes_per_entry / seconds,
                         scalar_seconds / seconds});
    }
  }

  // Column-store layer build: the seed QD3 binary-search kernel (one FindBin
  // probe per node x feature x instance) against the builder's one-sweep
  // pass over each column — the headline one-sweep win, independent of the
  // host's core count.
  {
    const BinnedColumnStore col_store =
        BinnedColumnStore::FromCsr(data.matrix(), splits);
    const GradientBuffer grads = MakeGrads(data.num_instances(), 1);
    const double bytes_per_entry = 6.0 + 32.0;
    InstanceToNode node_of;
    node_of.Init(data.num_instances());
    for (uint32_t node = 0; node < kNodes; ++node) {
      for (const InstanceId i : node_rows[node]) {
        node_of.Set(i, static_cast<NodeId>(node));
      }
    }
    std::vector<Histogram> hists;
    for (uint32_t k = 0; k < kNodes; ++k) hists.emplace_back(d, 20, 1);

    const double scalar_seconds = BestSeconds([&] {
      for (uint32_t node = 0; node < kNodes; ++node) {
        hists[node].Clear();
        for (FeatureId f = 0; f < d; ++f) {
          for (const InstanceId i : node_rows[node]) {
            const auto bin = col_store.FindBin(f, i);
            if (bin.has_value()) hists[node].Add(f, *bin, grads.row(i));
          }
        }
      }
    });
    results.push_back({"scalar_column_binary_search", 1, 1, scalar_seconds,
                       n / scalar_seconds, entries / scalar_seconds,
                       entries * bytes_per_entry / scalar_seconds, 1.0});

    std::vector<Histogram*> hist_of_node;
    for (uint32_t k = 0; k < kNodes; ++k) hist_of_node.push_back(&hists[k]);
    for (const uint32_t threads : {1u, 4u}) {
      HistogramBuilder builder(threads);
      const double seconds = BestSeconds([&] {
        for (Histogram& h : hists) h.Clear();
        builder.BuildColumnStoreSweep(col_store, grads, node_of,
                                      hist_of_node);
      });
      results.push_back({"builder_column_sweep", 1, threads, seconds,
                         n / seconds, entries / seconds,
                         entries * bytes_per_entry / seconds,
                         scalar_seconds / seconds});
    }
  }

  std::string json = "{\"schema\":\"vero.hist_bench.v1\",\"workload\":{";
  json += "\"instances\":" + std::to_string(n);
  json += ",\"features\":" + std::to_string(d);
  json += ",\"bins\":20,\"density\":";
  AppendJsonNumber(&json, density);
  json += ",\"entries\":" + std::to_string(entries);
  json += ",\"layer_nodes\":" + std::to_string(kNodes);
  // Wall-clock parallel speedup needs this many cores; threads beyond it
  // timeslice (see docs/performance.md).
  json += ",\"cpus\":" +
          std::to_string(std::max(1u, std::thread::hardware_concurrency()));
  json += "},\"kernels\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    const HistMeasurement& m = results[i];
    if (i > 0) json += ",";
    json += "{\"name\":\"" + std::string(m.name) + "\"";
    json += ",\"dims\":" + std::to_string(m.dims);
    json += ",\"threads\":" + std::to_string(m.threads);
    json += ",\"seconds\":";
    AppendJsonNumber(&json, m.seconds);
    json += ",\"rows_per_sec\":";
    AppendJsonNumber(&json, m.rows_per_sec);
    json += ",\"entries_per_sec\":";
    AppendJsonNumber(&json, m.entries_per_sec);
    json += ",\"bytes_per_sec\":";
    AppendJsonNumber(&json, m.bytes_per_sec);
    json += ",\"speedup_vs_scalar\":";
    AppendJsonNumber(&json, m.speedup_vs_scalar);
    json += "}";
  }
  json += "]}\n";

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << json;

  std::printf("histogram kernels (N=%u D=%u nnz=%llu):\n", n, d,
              static_cast<unsigned long long>(entries));
  for (const HistMeasurement& m : results) {
    std::printf("  %-18s dims=%u threads=%u  %8.3f Mrows/s  %s/s  %5.2fx\n",
                m.name, m.dims, m.threads, m.rows_per_sec / 1e6,
                bench::FormatBytes(m.bytes_per_sec).c_str(),
                m.speedup_vs_scalar);
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace vero

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--hist-json" && i + 1 < argc) {
      return vero::RunHistJson(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
