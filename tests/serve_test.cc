#include "serve/batch_predictor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "quadrants/train_distributed.h"
#include "serve/flat_forest.h"

namespace vero {
namespace {

using serve::BatchPredictor;
using serve::FlatForest;
using serve::ServeOptions;

// ---- Fixtures -------------------------------------------------------------

// Random forest with trees of random shape: nodes split with probability
// 0.7 while depth allows, so the grid covers full trees, stumps, lopsided
// trees, and (at max_layers == 1) single-leaf trees.
Tree MakeRandomTree(Rng& rng, uint32_t max_layers, uint32_t dims,
                    uint32_t num_features) {
  Tree tree(max_layers, dims);
  for (NodeId id = 0; static_cast<uint32_t>(id) < tree.max_nodes(); ++id) {
    if (!tree.Exists(id) ||
        tree.node(id).state != TreeNode::State::kLeaf) {
      continue;
    }
    if (static_cast<uint32_t>(RightChild(id)) < tree.max_nodes() &&
        rng.Bernoulli(0.7)) {
      tree.SetSplit(id, static_cast<FeatureId>(rng.Uniform(num_features)),
                    static_cast<float>(rng.UniformDouble(-1.0, 1.0)),
                    static_cast<BinId>(rng.Uniform(16)), rng.Bernoulli(0.5),
                    rng.NextDouble());
    }
  }
  for (NodeId id = 0; static_cast<uint32_t>(id) < tree.max_nodes(); ++id) {
    if (tree.Exists(id) && tree.node(id).state == TreeNode::State::kLeaf) {
      std::vector<float> weights(dims);
      for (float& w : weights) {
        w = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
      }
      tree.SetLeaf(id, weights);
    }
  }
  return tree;
}

// A random model plus the growth trees it was compacted from: the heap
// trees are the independent oracle every serving path is checked against.
struct RandomModel {
  GbdtModel model;
  std::vector<Tree> heap;
};

RandomModel MakeRandomModel(Rng& rng, uint32_t trees, uint32_t max_layers,
                            uint32_t dims, uint32_t num_features) {
  RandomModel out{GbdtModel(dims == 1 ? Task::kBinary : Task::kMultiClass,
                            dims == 1 ? 2 : dims, 0.1),
                  {}};
  for (uint32_t t = 0; t < trees; ++t) {
    out.heap.push_back(MakeRandomTree(rng, max_layers, dims, num_features));
    out.model.AddTree(out.heap.back());
  }
  return out;
}

// Sorted sparse rows with random density; roughly one row in ten is empty
// (all features missing), exercising the default_left chains.
CsrMatrix MakeRandomRows(Rng& rng, uint32_t n, uint32_t num_features,
                         double density) {
  CsrMatrix m;
  m.set_num_cols(num_features);
  for (uint32_t i = 0; i < n; ++i) {
    m.StartRow();
    if (rng.Bernoulli(0.1)) continue;  // Empty row.
    const uint32_t nnz = 1 + static_cast<uint32_t>(rng.Uniform(
                                 std::max(1u, static_cast<uint32_t>(
                                                  num_features * density))));
    for (const uint32_t f : rng.SampleWithoutReplacement(
             num_features, std::min(nnz, num_features))) {
      m.PushEntry(f, static_cast<float>(rng.UniformDouble(-2.0, 2.0)));
    }
  }
  return m;
}

// The oracle: a test-local walk over growth trees in heap layout (root 0,
// children 2i+1 / 2i+2), sharing no code with the compact layout.
void HeapWalkInto(const Tree& tree, std::span<const FeatureId> features,
                  std::span<const float> values, double scale,
                  double* margins) {
  NodeId id = 0;
  while (tree.node(id).state == TreeNode::State::kInternal) {
    const TreeNode& n = tree.node(id);
    const auto it = std::lower_bound(features.begin(), features.end(),
                                     n.feature);
    const bool go_left = (it == features.end() || *it != n.feature)
                             ? n.default_left
                             : values[it - features.begin()] <= n.split_value;
    id = go_left ? LeftChild(id) : RightChild(id);
  }
  const std::vector<float>& w = tree.node(id).leaf_values;
  for (size_t k = 0; k < w.size(); ++k) margins[k] += scale * w[k];
}

std::vector<double> ReferenceMargins(const std::vector<Tree>& heap,
                                     const GbdtModel& model,
                                     const CsrMatrix& m) {
  const uint32_t dims = model.margin_dims();
  std::vector<double> out(static_cast<size_t>(m.num_rows()) * dims, 0.0);
  for (InstanceId i = 0; i < m.num_rows(); ++i) {
    for (const Tree& tree : heap) {
      HeapWalkInto(tree, m.RowFeatures(i), m.RowValues(i),
                   model.learning_rate(),
                   out.data() + static_cast<size_t>(i) * dims);
    }
  }
  return out;
}

std::vector<double> ReferenceMargins(const RandomModel& r,
                                     const CsrMatrix& m) {
  return ReferenceMargins(r.heap, r.model, m);
}

// Rebuilds growth trees from a trained model's compact trees (heap ids
// come from the BFS order), so trained models get the heap-walk oracle too.
std::vector<Tree> HeapTrees(const GbdtModel& model) {
  std::vector<Tree> heap;
  for (size_t t = 0; t < model.num_trees(); ++t) {
    const FlatTree& flat = model.tree(t);
    Tree tree(flat.max_layers(), flat.num_dims());
    flat.ForEachNode([&](uint32_t id, int32_t link) {
      const NodeId node = static_cast<NodeId>(id);
      if (link >= 0) {
        tree.SetSplit(node, flat.feature()[link], flat.threshold()[link],
                      flat.split_bin()[link], flat.default_left()[link] != 0,
                      flat.gain()[link]);
      } else {
        const float* w = flat.leaf(static_cast<uint32_t>(~link));
        tree.SetLeaf(node, std::vector<float>(w, w + flat.num_dims()));
      }
    });
    heap.push_back(std::move(tree));
  }
  return heap;
}

// Dense copy with NaN in every absent slot (the dense missing marker).
std::vector<float> DenseFromCsr(const CsrMatrix& m, uint32_t num_cols) {
  std::vector<float> dense(static_cast<size_t>(m.num_rows()) * num_cols,
                           NAN);
  for (InstanceId i = 0; i < m.num_rows(); ++i) {
    const auto features = m.RowFeatures(i);
    const auto values = m.RowValues(i);
    for (size_t k = 0; k < features.size(); ++k) {
      dense[static_cast<size_t>(i) * num_cols + features[k]] = values[k];
    }
  }
  return dense;
}

void ExpectBitIdentical(const std::vector<double>& want,
                        const std::vector<double>& got,
                        const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  if (want.empty()) return;  // memcmp on a null data() is UB.
  ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                           want.size() * sizeof(double)))
      << label;
}

// The two serial compact paths — GbdtModel::PredictMargins and
// FlatForest::PredictRowMargins — row by row against `want`.
void ExpectSerialPathsMatch(const GbdtModel& model, const FlatForest& forest,
                            const CsrMatrix& rows,
                            const std::vector<double>& want,
                            const std::string& label) {
  const uint32_t dims = model.margin_dims();
  std::vector<double> by_model(want.size(), -1.0);
  std::vector<double> by_forest(want.size(), 0.0);
  for (InstanceId i = 0; i < rows.num_rows(); ++i) {
    const size_t at = static_cast<size_t>(i) * dims;
    model.PredictMargins(rows.RowFeatures(i), rows.RowValues(i),
                         by_model.data() + at);
    forest.PredictRowMargins(rows.RowFeatures(i), rows.RowValues(i),
                             by_forest.data() + at);
  }
  ExpectBitIdentical(want, by_model, label + " PredictMargins");
  ExpectBitIdentical(want, by_forest, label + " PredictRowMargins");
}

// ---- Differential property tests -----------------------------------------

TEST(FlatForestTest, FlattenSingleHandBuiltTree) {
  GbdtModel model(Task::kBinary, 2, 0.3);
  Tree t(3, 1);
  t.SetSplit(0, 4, 1.5f, 2, false, 3.0);
  t.SetSplit(1, 2, -0.5f, 1, true, 2.0);
  t.SetLeaf(3, {-0.5f});
  t.SetLeaf(4, {0.25f});
  t.SetLeaf(2, {0.5f});
  model.AddTree(t);

  auto forest_or = FlatForest::FromModel(model);
  ASSERT_TRUE(forest_or.ok()) << forest_or.status().ToString();
  const FlatForest& forest = forest_or.value();
  EXPECT_EQ(forest.num_trees(), 1u);
  EXPECT_EQ(forest.num_internal_nodes(), 2u);
  EXPECT_EQ(forest.num_leaves(), 3u);
  EXPECT_EQ(forest.max_feature(), 4u);

  CsrMatrix rows;
  rows.set_num_cols(5);
  rows.StartRow();
  rows.PushEntry(2, -1.0f);
  rows.PushEntry(4, 1.0f);
  ExpectSerialPathsMatch(model, forest, rows,
                         ReferenceMargins({t}, model, rows), "hand-built");
}

// The core contract: for random forests (depths 1..L, C in {1, 3}, missing
// values exercising default_left, sparse rows), BatchPredictor margins are
// bit-identical to the heap-walk oracle at every thread count x batch size
// x tile shape in the grid, and so are both serial compact paths.
TEST(BatchPredictorDifferentialTest, SparseGridBitIdentical) {
  Rng rng(1234);
  const uint32_t d = 40;
  for (const uint32_t dims : {1u, 3u}) {
    for (uint32_t max_layers = 1; max_layers <= 6; ++max_layers) {
      const RandomModel r = MakeRandomModel(rng, 5, max_layers, dims, d);
      const GbdtModel& model = r.model;
      const CsrMatrix rows = MakeRandomRows(rng, 97, d, 0.3);
      const std::vector<double> want = ReferenceMargins(r, rows);

      auto forest_or = FlatForest::FromModel(model);
      ASSERT_TRUE(forest_or.ok()) << forest_or.status().ToString();
      const FlatForest& forest = forest_or.value();
      ExpectSerialPathsMatch(model, forest, rows, want,
                             "dims=" + std::to_string(dims) + " L=" +
                                 std::to_string(max_layers));

      for (const uint32_t threads : {1u, 2u, 4u}) {
        for (const uint32_t batch : {1u, 3u, 17u, 64u}) {
          ServeOptions options;
          options.num_threads = threads;
          options.row_block = 7;
          options.tree_block = 2;
          const BatchPredictor predictor(&forest, options);
          std::vector<double> got(want.size(), -1.0);
          for (InstanceId b = 0; b < rows.num_rows(); b += batch) {
            const InstanceId e =
                std::min<InstanceId>(b + batch, rows.num_rows());
            predictor.PredictCsrMargins(
                rows, b, e, got.data() + static_cast<size_t>(b) * dims);
          }
          ExpectBitIdentical(
              want, got,
              "dims=" + std::to_string(dims) + " L=" +
                  std::to_string(max_layers) + " threads=" +
                  std::to_string(threads) + " batch=" +
                  std::to_string(batch));
        }
      }
    }
  }
}

// Dense input (NaN-marked missing) routes identically to the sparse rows it
// was densified from.
TEST(BatchPredictorDifferentialTest, DenseGridBitIdentical) {
  Rng rng(99);
  const uint32_t d = 25;
  for (const uint32_t dims : {1u, 3u}) {
    const RandomModel r = MakeRandomModel(rng, 4, 5, dims, d);
    const GbdtModel& model = r.model;
    const CsrMatrix rows = MakeRandomRows(rng, 61, d, 0.4);
    const std::vector<double> want = ReferenceMargins(r, rows);
    const std::vector<float> dense = DenseFromCsr(rows, d);

    auto forest_or = FlatForest::FromModel(model);
    ASSERT_TRUE(forest_or.ok()) << forest_or.status().ToString();
    ExpectSerialPathsMatch(model, forest_or.value(), rows, want,
                           "dense dims=" + std::to_string(dims));
    for (const uint32_t threads : {1u, 3u}) {
      ServeOptions options;
      options.num_threads = threads;
      options.row_block = 16;
      options.tree_block = 3;
      const BatchPredictor predictor(&forest_or.value(), options);
      std::vector<double> got(want.size(), -1.0);
      predictor.PredictDenseMargins(dense.data(), rows.num_rows(), d,
                                    got.data());
      ExpectBitIdentical(want, got,
                         "dense dims=" + std::to_string(dims) + " threads=" +
                             std::to_string(threads));
    }
  }
}

TEST(BatchPredictorTest, AllMissingRowsFollowDefaultDirections) {
  Rng rng(7);
  const RandomModel r = MakeRandomModel(rng, 6, 5, 3, 20);
  const GbdtModel& model = r.model;
  CsrMatrix rows;
  rows.set_num_cols(20);
  for (int i = 0; i < 9; ++i) rows.StartRow();  // All rows fully missing.
  const std::vector<double> want = ReferenceMargins(r, rows);

  auto forest_or = FlatForest::FromModel(model);
  ASSERT_TRUE(forest_or.ok());
  const BatchPredictor predictor(&forest_or.value());
  std::vector<double> got(want.size(), -1.0);
  predictor.PredictCsrMargins(rows, got.data());
  ExpectBitIdentical(want, got, "all-missing");
  // The margins are non-trivial: some default chain reaches a nonzero leaf.
  bool any_nonzero = false;
  for (const double v : got) any_nonzero |= (v != 0.0);
  EXPECT_TRUE(any_nonzero);
}

TEST(BatchPredictorTest, EmptyForestScoresZero) {
  const GbdtModel model(Task::kBinary, 2, 0.1);
  auto forest_or = FlatForest::FromModel(model);
  ASSERT_TRUE(forest_or.ok());
  EXPECT_EQ(forest_or->num_trees(), 0u);
  Rng rng(3);
  const CsrMatrix rows = MakeRandomRows(rng, 10, 8, 0.5);
  const BatchPredictor predictor(&forest_or.value());
  std::vector<double> got(10, -1.0);
  predictor.PredictCsrMargins(rows, got.data());
  for (const double v : got) EXPECT_EQ(v, 0.0);
}

TEST(BatchPredictorTest, SingleLeafTreesAccumulateLeafWeights) {
  Rng rng(11);
  // max_layers == 1 forces every tree to a single leaf.
  const RandomModel r = MakeRandomModel(rng, 5, 1, 1, 4);
  const GbdtModel& model = r.model;
  const CsrMatrix rows = MakeRandomRows(rng, 7, 4, 0.5);
  const std::vector<double> want = ReferenceMargins(r, rows);
  auto forest_or = FlatForest::FromModel(model);
  ASSERT_TRUE(forest_or.ok());
  EXPECT_EQ(forest_or->num_internal_nodes(), 0u);
  EXPECT_EQ(forest_or->num_leaves(), 5u);
  const BatchPredictor predictor(&forest_or.value());
  std::vector<double> got(want.size(), -1.0);
  predictor.PredictCsrMargins(rows, got.data());
  ExpectBitIdentical(want, got, "single-leaf");
}

TEST(BatchPredictorTest, ThreadPartitionEdgeCases) {
  Rng rng(21);
  const RandomModel r = MakeRandomModel(rng, 3, 4, 1, 10);
  const GbdtModel& model = r.model;
  auto forest_or = FlatForest::FromModel(model);
  ASSERT_TRUE(forest_or.ok());
  for (const uint32_t n : {0u, 1u, 3u}) {
    const CsrMatrix rows = MakeRandomRows(rng, n, 10, 0.5);
    const std::vector<double> want = ReferenceMargins(r, rows);
    ServeOptions options;
    options.num_threads = 8;  // More threads than rows.
    const BatchPredictor predictor(&forest_or.value(), options);
    std::vector<double> got(want.size(), -1.0);
    predictor.PredictCsrMargins(rows, got.data());
    ExpectBitIdentical(want, got, "n=" + std::to_string(n));
    // begin == end is a no-op.
    predictor.PredictCsrMargins(rows, 0, 0, got.data());
  }
}

// Forests whose feature space exceeds the scatter-scratch cap fall back to
// per-node binary search — same results, no giant allocation.
TEST(BatchPredictorTest, HugeFeatureSpaceFallsBackToBinarySearch) {
  const FeatureId huge = (1u << 22) + 12345;
  GbdtModel model(Task::kBinary, 2, 0.1);
  Tree t(2, 1);
  t.SetSplit(0, huge, 0.0f, 0, false, 1.0);
  t.SetLeaf(1, {-1.0f});
  t.SetLeaf(2, {1.0f});
  model.AddTree(t);
  auto forest_or = FlatForest::FromModel(model);
  ASSERT_TRUE(forest_or.ok());

  CsrMatrix rows;
  rows.set_num_cols(huge + 1);
  rows.StartRow();
  rows.PushEntry(3, 0.5f);
  rows.PushEntry(huge, -0.5f);  // Goes left.
  rows.StartRow();
  rows.PushEntry(huge, 0.5f);  // Goes right.
  rows.StartRow();             // Missing -> default right.

  const std::vector<double> want = ReferenceMargins({t}, model, rows);
  const BatchPredictor predictor(&forest_or.value());
  std::vector<double> got(want.size(), -1.0);
  predictor.PredictCsrMargins(rows, got.data());
  ExpectBitIdentical(want, got, "huge-feature");
}

TEST(BatchPredictorTest, ProbaMatchesModelLink) {
  Rng rng(31);
  for (const uint32_t dims : {1u, 3u}) {
    const RandomModel r = MakeRandomModel(rng, 4, 4, dims, 12);
    const GbdtModel& model = r.model;
    const CsrMatrix rows = MakeRandomRows(rng, 23, 12, 0.4);
    auto forest_or = FlatForest::FromModel(model);
    ASSERT_TRUE(forest_or.ok());
    const BatchPredictor predictor(&forest_or.value());
    std::vector<double> got(static_cast<size_t>(rows.num_rows()) * dims);
    predictor.PredictCsrProba(rows, 0, rows.num_rows(), got.data());
    std::vector<double> want(dims);
    for (InstanceId i = 0; i < rows.num_rows(); ++i) {
      model.PredictProba(rows.RowFeatures(i), rows.RowValues(i),
                         want.data());
      EXPECT_EQ(0, std::memcmp(want.data(),
                               got.data() + static_cast<size_t>(i) * dims,
                               dims * sizeof(double)))
          << "dims=" << dims << " row=" << i;
    }
  }
}

TEST(ServeOptionsTest, ValidateRejectsBadKnobs) {
  ServeOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.num_threads = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.num_threads = 1;
  options.row_block = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.row_block = 1;
  options.tree_block = 0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

// ---- Trained-model end-to-end --------------------------------------------

// Train a small model per quadrant, flatten it, and serve held-out rows:
// the batched path, both serial compact paths and PredictDatasetMargins
// must match the heap-walk oracle byte for byte.
TEST(ServeEndToEndTest, TrainedQuadrantModelsServeBitIdentical) {
  SyntheticConfig config;
  config.num_instances = 600;
  config.num_features = 25;
  config.num_classes = 2;
  config.density = 0.3;
  config.seed = 5;
  const Dataset data = GenerateSynthetic(config);
  const auto [train, held_out] = data.SplitTail(0.25);

  DistTrainOptions options;
  options.params.num_trees = 4;
  options.params.num_layers = 4;
  options.params.num_candidate_splits = 16;
  for (const Quadrant q : {Quadrant::kQD1, Quadrant::kQD2, Quadrant::kQD3,
                           Quadrant::kQD4}) {
    Cluster cluster(2);
    const GbdtModel model =
        TrainDistributed(cluster, train, q, options).model;
    ASSERT_GT(model.num_trees(), 0u);
    const std::string label = std::string("quadrant ") + QuadrantToString(q);
    const std::vector<double> want =
        ReferenceMargins(HeapTrees(model), model, held_out.matrix());
    ExpectBitIdentical(want, model.PredictDatasetMargins(held_out),
                       label + " PredictDatasetMargins");

    auto forest_or = FlatForest::FromModel(model);
    ASSERT_TRUE(forest_or.ok()) << forest_or.status().ToString();
    ExpectSerialPathsMatch(model, forest_or.value(), held_out.matrix(), want,
                           label);
    ServeOptions serve_options;
    serve_options.num_threads = 3;
    serve_options.row_block = 32;
    const BatchPredictor predictor(&forest_or.value(), serve_options);
    std::vector<double> got(want.size(), -1.0);
    predictor.PredictCsrMargins(held_out.matrix(), got.data());
    ExpectBitIdentical(want, got, label);
  }
}

TEST(ServeEndToEndTest, TrainedMultiClassModelServesBitIdentical) {
  SyntheticConfig config;
  config.num_instances = 500;
  config.num_features = 20;
  config.num_classes = 3;
  config.density = 0.4;
  config.seed = 13;
  const Dataset data = GenerateSynthetic(config);
  const auto [train, held_out] = data.SplitTail(0.2);

  GbdtParams params;
  params.num_trees = 5;
  params.num_layers = 4;
  params.num_candidate_splits = 16;
  Trainer trainer(params);
  auto model_or = trainer.Train(train);
  ASSERT_TRUE(model_or.ok()) << model_or.status().ToString();
  const GbdtModel& model = model_or.value();

  const std::vector<double> want =
      ReferenceMargins(HeapTrees(model), model, held_out.matrix());
  ExpectBitIdentical(want, model.PredictDatasetMargins(held_out),
                     "multiclass PredictDatasetMargins");
  auto forest_or = FlatForest::FromModel(model);
  ASSERT_TRUE(forest_or.ok());
  ExpectSerialPathsMatch(model, forest_or.value(), held_out.matrix(), want,
                         "multiclass trainer");
  ServeOptions serve_options;
  serve_options.num_threads = 2;
  const BatchPredictor predictor(&forest_or.value(), serve_options);
  std::vector<double> got(want.size(), -1.0);
  predictor.PredictCsrMargins(held_out.matrix(), got.data());
  ExpectBitIdentical(want, got, "multiclass trainer");
}

// ---- Exhaustive decoder fuzz ---------------------------------------------

// Decodes `bytes` as a model payload (no file framing, no CRC, so damage
// reaches the tree decoder). Whatever decodes must be a model every path
// serves identically: PredictMargins, FlatForest::PredictRowMargins and the
// batched predictor agree bit for bit without faulting, and the model
// re-encodes to a stream that decodes and re-encodes to the same bytes.
void DecodeAndServe(const std::vector<uint8_t>& bytes, size_t len,
                    const CsrMatrix& rows, const std::string& label,
                    int* decoded) {
  ByteReader reader(bytes.data(), len);
  GbdtModel model;
  if (!GbdtModel::Deserialize(&reader, &model).ok()) return;
  ++*decoded;
  auto forest_or = FlatForest::FromModel(model);
  ASSERT_TRUE(forest_or.ok()) << label << ": " << forest_or.status().ToString();
  const uint32_t dims = model.margin_dims();
  std::vector<double> want(static_cast<size_t>(rows.num_rows()) * dims);
  for (InstanceId i = 0; i < rows.num_rows(); ++i) {
    model.PredictMargins(rows.RowFeatures(i), rows.RowValues(i),
                         want.data() + static_cast<size_t>(i) * dims);
  }
  ExpectSerialPathsMatch(model, forest_or.value(), rows, want, label);
  const BatchPredictor predictor(&forest_or.value());
  std::vector<double> got(want.size(), -1.0);
  predictor.PredictCsrMargins(rows, got.data());
  ExpectBitIdentical(want, got, label + " BatchPredictor");

  // Compared as bytes: a flipped float can be NaN, which no == matches.
  ByteWriter again;
  model.SerializeTo(&again);
  ByteReader reread(again.data());
  GbdtModel round_trip;
  ASSERT_TRUE(GbdtModel::Deserialize(&reread, &round_trip).ok()) << label;
  ByteWriter twice;
  round_trip.SerializeTo(&twice);
  EXPECT_EQ(again.data(), twice.data()) << label;
}

struct FuzzInput {
  std::vector<uint8_t> bytes;
  CsrMatrix rows;
};

// A 3-class model of lopsided trees, and rows that touch its features,
// miss them, and carry feature ids far beyond them (flipped ids can be
// large).
FuzzInput MakeFuzzInput() {
  Rng rng(77);
  const RandomModel r = MakeRandomModel(rng, 3, 4, 3, 10);
  FuzzInput in;
  ByteWriter writer;
  r.model.SerializeTo(&writer);
  in.bytes = writer.TakeData();
  in.rows = MakeRandomRows(rng, 12, 10, 0.5);
  in.rows.set_num_cols(1u << 31);
  in.rows.StartRow();
  in.rows.PushEntry(3, 0.1f);
  in.rows.PushEntry(1u << 20, -0.3f);
  in.rows.PushEntry((1u << 31) - 1, 2.0f);
  return in;
}

TEST(ModelDecodeFuzzTest, EveryTruncationFailsOrServesConsistently) {
  const FuzzInput in = MakeFuzzInput();
  int decoded = 0;
  for (size_t len = 0; len <= in.bytes.size(); ++len) {
    DecodeAndServe(in.bytes, len, in.rows, "len " + std::to_string(len),
                   &decoded);
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(decoded, 1);  // At least the whole stream.
}

TEST(ModelDecodeFuzzTest, EveryBitFlipFailsOrServesConsistently) {
  const FuzzInput in = MakeFuzzInput();
  int decoded = 0;
  for (size_t offset = 0; offset < in.bytes.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> damaged = in.bytes;
      damaged[offset] ^= static_cast<uint8_t>(1u << bit);
      DecodeAndServe(damaged, damaged.size(), in.rows,
                     "offset " + std::to_string(offset) + " bit " +
                         std::to_string(bit),
                     &decoded);
      if (HasFatalFailure()) return;
    }
  }
  // Flips inside thresholds, gains and leaf weights leave a valid model.
  EXPECT_GT(decoded, 0);
}

}  // namespace
}  // namespace vero
