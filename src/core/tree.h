#ifndef VERO_CORE_TREE_H_
#define VERO_CORE_TREE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/types.h"

namespace vero {

/// One node of a decision tree (heap layout: root 0, children 2i+1/2i+2).
struct TreeNode {
  enum class State : uint8_t { kUnused = 0, kInternal = 1, kLeaf = 2 };

  State state = State::kUnused;
  FeatureId feature = kInvalidFeature;  ///< Split feature (internal only).
  float split_value = 0.0f;             ///< Go left iff value <= split_value.
  BinId split_bin = 0;                  ///< Same test in bin space.
  bool default_left = false;            ///< Direction for missing values.
  double gain = 0.0;                    ///< Split gain (internal only).
  std::vector<float> leaf_values;       ///< C leaf weights (leaf only).
};

/// The trainers' growth-time tree with vector-valued leaves (dimension C;
/// C == 1 for regression and binary tasks), addressed by heap NodeId so a
/// frontier node's children are known before they exist. A finished tree is
/// handed to GbdtModel::AddTree, which stores it as a FlatTree.
class Tree {
 public:
  /// `max_layers` is L: depth capacity including the root layer.
  Tree(uint32_t max_layers, uint32_t num_dims);

  uint32_t max_layers() const { return max_layers_; }
  uint32_t num_dims() const { return num_dims_; }
  uint32_t max_nodes() const { return (1u << max_layers_) - 1; }

  TreeNode& node(NodeId id) { return nodes_[id]; }
  const TreeNode& node(NodeId id) const { return nodes_[id]; }
  bool Exists(NodeId id) const {
    return id >= 0 && static_cast<uint32_t>(id) < nodes_.size() &&
           nodes_[id].state != TreeNode::State::kUnused;
  }

  /// Converts `id` into an internal node splitting on (feature, bin).
  void SetSplit(NodeId id, FeatureId feature, float split_value, BinId bin,
                bool default_left, double gain);

  /// Converts `id` into a leaf with the given C-dim weights.
  void SetLeaf(NodeId id, std::vector<float> weights);

  /// Number of leaves currently in the tree.
  uint32_t NumLeaves() const;

 private:
  uint32_t max_layers_ = 0;
  uint32_t num_dims_ = 1;
  std::vector<TreeNode> nodes_;
};

/// A finished tree in the one compact layout every GbdtModel stores,
/// persists, predicts with and serves from (paper §3.1: prediction is bound
/// by memory layout, not FLOPs).
///
/// Internal nodes sit in breadth-first order — which is ascending heap id —
/// in parallel arrays. Child links are signed: a non-negative link is the
/// index of an internal node; a negative link `~i` is leaf i, whose C weights
/// are leaf_values()[i*C, (i+1)*C). root() uses the same encoding, so a
/// single-leaf tree is a negative root. Every FlatTree is well-formed: built
/// from a trainer's Tree (aborting on a malformed one) or decoded by
/// Deserialize, which rejects malformed streams with Corruption.
class FlatTree {
 public:
  /// A single zero-weight leaf (what a fresh Tree holds).
  FlatTree() = default;
  /// Compacts a finished growth tree (all of its reachable nodes).
  explicit FlatTree(const Tree& tree);

  uint32_t max_layers() const { return max_layers_; }
  uint32_t num_dims() const { return num_dims_; }
  uint32_t num_internal() const {
    return static_cast<uint32_t>(feature_.size());
  }
  uint32_t NumLeaves() const {
    return static_cast<uint32_t>(leaf_values_.size() / num_dims_);
  }
  uint32_t NumNodes() const { return num_internal() + NumLeaves(); }

  int32_t root() const { return root_; }
  std::span<const FeatureId> feature() const { return feature_; }
  std::span<const float> threshold() const { return threshold_; }
  std::span<const BinId> split_bin() const { return split_bin_; }
  std::span<const uint8_t> default_left() const { return default_left_; }
  std::span<const double> gain() const { return gain_; }
  std::span<const int32_t> left() const { return left_; }
  std::span<const int32_t> right() const { return right_; }
  std::span<const float> leaf_values() const { return leaf_values_; }
  /// The C weights of leaf `leaf`.
  const float* leaf(uint32_t leaf) const {
    return leaf_values_.data() + static_cast<size_t>(leaf) * num_dims_;
  }

  /// The leaf one sorted sparse row reaches. `features` must be sorted
  /// ascending; an absent feature takes its node's default direction.
  uint32_t LeafOf(std::span<const FeatureId> features,
                  std::span<const float> values) const {
    return WalkToLeaf(feature_.data(), threshold_.data(), default_left_.data(),
                      left_.data(), right_.data(), root_, features, values);
  }

  /// Calls fn(heap_id, link) for every node in ascending heap id, which is
  /// breadth-first order; heap ids are recomputed (root 0, children
  /// 2i+1/2i+2), not stored.
  template <typename Fn>
  void ForEachNode(Fn&& fn) const {
    std::vector<std::pair<uint32_t, int32_t>> queue = {{0u, root_}};
    queue.reserve(NumNodes());
    for (size_t head = 0; head < queue.size(); ++head) {
      const auto [id, link] = queue[head];
      fn(id, link);
      if (link >= 0) {
        queue.emplace_back(2 * id + 1, left_[link]);
        queue.emplace_back(2 * id + 2, right_[link]);
      }
    }
  }

  void SerializeTo(ByteWriter* writer) const;
  /// Decodes one tree; rejects every structurally malformed stream with
  /// Corruption (see docs/wire_formats.md, "Each tree").
  static Status Deserialize(ByteReader* reader, FlatTree* out);

  /// Structural equality: shape, split feature / bin / threshold / default
  /// direction and leaf weights. Gains are not compared.
  bool operator==(const FlatTree& other) const;

  /// The serial walk shared with serve::FlatForest: follows links from
  /// `link` down to a leaf for one sorted sparse row and returns the leaf
  /// index.
  static uint32_t WalkToLeaf(const FeatureId* feature, const float* threshold,
                             const uint8_t* default_left, const int32_t* left,
                             const int32_t* right, int32_t link,
                             std::span<const FeatureId> features,
                             std::span<const float> values) {
    const FeatureId* fbegin = features.data();
    const FeatureId* fend = fbegin + features.size();
    while (link >= 0) {
      const FeatureId f = feature[link];
      const FeatureId* it = std::lower_bound(fbegin, fend, f);
      bool go_left;
      if (it == fend || *it != f) {
        go_left = default_left[link] != 0;  // Missing value.
      } else {
        go_left = values[it - fbegin] <= threshold[link];
      }
      link = go_left ? left[link] : right[link];
    }
    return static_cast<uint32_t>(~link);
  }

 private:
  uint32_t max_layers_ = 1;
  uint32_t num_dims_ = 1;
  int32_t root_ = ~0;
  // Internal nodes in BFS order.
  std::vector<FeatureId> feature_;
  std::vector<float> threshold_;
  std::vector<BinId> split_bin_;
  std::vector<uint8_t> default_left_;
  std::vector<double> gain_;
  std::vector<int32_t> left_;
  std::vector<int32_t> right_;
  // Leaf pool: NumLeaves() x num_dims weights.
  std::vector<float> leaf_values_ = {0.0f};
};

/// A trained GBDT model: an ordered forest plus the task metadata needed to
/// turn margins into predictions.
class GbdtModel {
 public:
  GbdtModel() = default;
  GbdtModel(Task task, uint32_t num_classes, double learning_rate)
      : task_(task), num_classes_(num_classes), learning_rate_(learning_rate) {}

  Task task() const { return task_; }
  uint32_t num_classes() const { return num_classes_; }
  uint32_t margin_dims() const {
    return task_ == Task::kMultiClass ? num_classes_ : 1;
  }
  double learning_rate() const { return learning_rate_; }

  /// Appends a finished growth tree, compacted into a FlatTree.
  void AddTree(const Tree& tree) { AddTree(FlatTree(tree)); }
  /// Appends a tree whose num_dims() must equal margin_dims().
  void AddTree(FlatTree tree);
  size_t num_trees() const { return trees_.size(); }
  const FlatTree& tree(size_t t) const { return trees_[t]; }

  /// Raw margins (sum of learning_rate x leaf values) for one instance.
  void PredictMargins(std::span<const FeatureId> features,
                      std::span<const float> values, double* margins) const;

  /// Adds learning_rate x tree t's leaf weights into every row of `rows`'
  /// row-major N x margin_dims `margins` (the trainers' margin updates for
  /// rows the tree was not grown on).
  void AddTreeMargins(size_t t, const CsrMatrix& rows, double* margins) const;

  /// Margins for every instance of a dataset, row-major N x margin_dims.
  std::vector<double> PredictDatasetMargins(const Dataset& dataset) const;

  /// Class probabilities (binary: P(y=1) single value; multi-class: C
  /// values) for one instance.
  void PredictProba(std::span<const FeatureId> features,
                    std::span<const float> values, double* proba) const;

  void SerializeTo(ByteWriter* writer) const;
  static Status Deserialize(ByteReader* reader, GbdtModel* out);

  /// How feature importance is scored.
  enum class ImportanceType {
    kGain,        ///< Sum of split gains where the feature is used.
    kSplitCount,  ///< Number of splits using the feature.
  };

  /// Per-feature importance over `num_features` features (features never
  /// used score 0).
  std::vector<double> FeatureImportance(uint32_t num_features,
                                        ImportanceType type) const;

 private:
  Task task_ = Task::kBinary;
  uint32_t num_classes_ = 2;
  double learning_rate_ = 0.1;
  std::vector<FlatTree> trees_;
};

}  // namespace vero

#endif  // VERO_CORE_TREE_H_
