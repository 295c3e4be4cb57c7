// Serving-throughput sweep: flat-forest batched scoring vs the per-row
// compact walk (GbdtModel::PredictMargins, one row through every tree),
// over batch size x threads x forest size x C.
//
// Emits a "vero.serve_bench.v1" JSON snapshot (--json <path>) for the perf
// harness (scripts/check_bench_serve.py, bench_smoke.sh). Every cell carries
// an FNV-1a digest of the full margin matrix; the checker asserts all cells
// of one forest — including the per-row baseline — share it, which proves
// thread- and batch-invariance on real measured runs, not just unit inputs.
// See docs/serving.md for how to read the numbers.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "integrity/auditor.h"
#include "obs/json_writer.h"
#include "serve/batch_predictor.h"
#include "serve/flat_forest.h"

namespace vero {
namespace {

using serve::BatchPredictor;
using serve::FlatForest;
using serve::ServeOptions;

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

std::string HexDigest(uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

// A full depth-L tree (every slot used) so each routed row costs exactly
// L - 1 node probes: throughput differences between cells then measure the
// memory layout and tiling, not forest-shape luck.
Tree MakeFullTree(Rng& rng, uint32_t max_layers, uint32_t dims,
                  uint32_t num_features) {
  Tree tree(max_layers, dims);
  for (NodeId id = 0; static_cast<uint32_t>(id) < tree.max_nodes(); ++id) {
    if (static_cast<uint32_t>(RightChild(id)) >= tree.max_nodes()) break;
    tree.SetSplit(id, static_cast<FeatureId>(rng.Uniform(num_features)),
                  static_cast<float>(rng.UniformDouble(-1.5, 1.5)),
                  static_cast<BinId>(rng.Uniform(16)), rng.Bernoulli(0.5),
                  1.0);
  }
  for (NodeId id = 0; static_cast<uint32_t>(id) < tree.max_nodes(); ++id) {
    if (tree.node(id).state != TreeNode::State::kLeaf) continue;
    std::vector<float> weights(dims);
    for (float& w : weights) {
      w = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
    }
    tree.SetLeaf(id, weights);
  }
  return tree;
}

GbdtModel MakeForest(uint32_t trees, uint32_t depth, uint32_t dims,
                     uint32_t num_features, uint64_t seed) {
  Rng rng(seed);
  GbdtModel model(dims == 1 ? Task::kBinary : Task::kMultiClass,
                  dims == 1 ? 2 : dims, 0.1);
  for (uint32_t t = 0; t < trees; ++t) {
    model.AddTree(MakeFullTree(rng, depth, dims, num_features));
  }
  return model;
}

struct Cell {
  uint32_t batch;
  uint32_t threads;
  double seconds;
  double rows_per_sec;
  double speedup_vs_per_row;
  uint64_t digest;
};

int Run(const std::string& json_path) {
  const uint32_t n = bench::ScaledN(20000);
  const uint32_t d = 50;
  const uint32_t depth = 8;
  const double density = 0.3;

  bench::PrintHeader(
      "serve_sweep: flat-forest batched scoring vs per-row traversal",
      "paper §3.1 (prediction cost anatomy)",
      "batched flat scoring >= 5x the per-row compact walk at batch >= 1024 "
      "on the 8-tree forest; identical digests across every cell of a "
      "forest");

  const Dataset data = bench::MakeWorkload(n, d, 2, density, /*seed=*/42);
  const CsrMatrix& rows = data.matrix();

  std::ostringstream json;
  obs::JsonWriter w(json);
  w.BeginObject();
  w.Key("schema");
  w.String("vero.serve_bench.v1");
  w.Key("workload");
  w.BeginObject();
  w.Key("rows");
  w.UInt(n);
  w.Key("features");
  w.UInt(d);
  w.Key("depth");
  w.UInt(depth);
  w.Key("density");
  w.Double(density);
  w.Key("scale");
  w.Double(bench::Scale());
  w.Key("cpus");
  w.UInt(std::max(1u, std::thread::hardware_concurrency()));
  w.EndObject();
  w.Key("forests");
  w.BeginArray();

  for (const uint32_t trees : {8u, 64u}) {
    for (const uint32_t dims : {1u, 3u}) {
      const GbdtModel model =
          MakeForest(trees, depth, dims, d, /*seed=*/1000 + trees + dims);
      auto forest_or = FlatForest::FromModel(model);
      VERO_CHECK(forest_or.ok()) << forest_or.status().ToString();
      const FlatForest& forest = forest_or.value();

      std::vector<double> margins(static_cast<size_t>(n) * dims);

      // Baseline: the per-row compact walk — route every row through every
      // tree of the model, binary-searching the row per node.
      const double per_row_seconds = BestSeconds([&] {
        for (InstanceId i = 0; i < n; ++i) {
          model.PredictMargins(rows.RowFeatures(i), rows.RowValues(i),
                               margins.data() + static_cast<size_t>(i) * dims);
        }
      });
      const uint64_t per_row_digest = AuditDigestDoubles(margins);

      std::printf("forest T=%u C=%u (%u internal, %u leaves):\n", trees, dims,
                  forest.num_internal_nodes(), forest.num_leaves());
      std::printf("  %-22s %10.0f rows/s\n", "per-row compact walk",
                  n / per_row_seconds);

      std::vector<Cell> cells;
      for (const uint32_t batch : {64u, 1024u, 8192u}) {
        for (const uint32_t threads : {1u, 4u}) {
          ServeOptions options;
          options.num_threads = threads;
          const BatchPredictor predictor(&forest, options);
          const double seconds = BestSeconds([&] {
            for (InstanceId b = 0; b < n; b += batch) {
              const InstanceId e = std::min<InstanceId>(b + batch, n);
              predictor.PredictCsrMargins(
                  rows, b, e, margins.data() + static_cast<size_t>(b) * dims);
            }
          });
          const uint64_t digest = AuditDigestDoubles(margins);
          VERO_CHECK_EQ(digest, per_row_digest)
              << "batched margins diverge from per-row at batch=" << batch
              << " threads=" << threads;
          cells.push_back({batch, threads, seconds, n / seconds,
                           per_row_seconds / seconds, digest});
          std::printf("  batch=%-5u threads=%u %12.0f rows/s  %5.2fx\n",
                      batch, threads, n / seconds, per_row_seconds / seconds);
        }
      }

      w.BeginObject();
      w.Key("trees");
      w.UInt(trees);
      w.Key("dims");
      w.UInt(dims);
      w.Key("internal_nodes");
      w.UInt(forest.num_internal_nodes());
      w.Key("leaves");
      w.UInt(forest.num_leaves());
      w.Key("per_row");
      w.BeginObject();
      w.Key("seconds");
      w.Double(per_row_seconds);
      w.Key("rows_per_sec");
      w.Double(n / per_row_seconds);
      w.Key("digest");
      w.String(HexDigest(per_row_digest));
      w.EndObject();
      w.Key("cells");
      w.BeginArray();
      for (const Cell& c : cells) {
        w.BeginObject();
        w.Key("batch");
        w.UInt(c.batch);
        w.Key("threads");
        w.UInt(c.threads);
        w.Key("seconds");
        w.Double(c.seconds);
        w.Key("rows_per_sec");
        w.Double(c.rows_per_sec);
        w.Key("speedup_vs_per_row");
        w.Double(c.speedup_vs_per_row);
        w.Key("digest");
        w.String(HexDigest(c.digest));
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  json << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << json.str();
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace vero

int main(int argc, char** argv) {
  vero::bench::InitBench(argc, argv);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[i + 1];
    }
  }
  return vero::Run(json_path);
}
