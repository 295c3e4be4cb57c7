#include "core/tree.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "core/loss.h"

namespace vero {

Tree::Tree(uint32_t max_layers, uint32_t num_dims)
    : max_layers_(max_layers), num_dims_(num_dims) {
  VERO_CHECK_GE(max_layers, 1u);
  VERO_CHECK_LE(max_layers, 24u);
  nodes_.resize((size_t{1} << max_layers) - 1);
  // Root starts as a (zero-weight) leaf; training overwrites it.
  nodes_[0].state = TreeNode::State::kLeaf;
  nodes_[0].leaf_values.assign(num_dims_, 0.0f);
}

void Tree::SetSplit(NodeId id, FeatureId feature, float split_value, BinId bin,
                    bool default_left, double gain) {
  VERO_CHECK(Exists(id));
  VERO_CHECK_LT(static_cast<uint32_t>(RightChild(id)), max_nodes())
      << "split would exceed tree depth";
  TreeNode& n = nodes_[id];
  n.state = TreeNode::State::kInternal;
  n.feature = feature;
  n.split_value = split_value;
  n.split_bin = bin;
  n.default_left = default_left;
  n.gain = gain;
  n.leaf_values.clear();
  // Children materialize as placeholder leaves.
  for (NodeId child : {LeftChild(id), RightChild(id)}) {
    nodes_[child].state = TreeNode::State::kLeaf;
    nodes_[child].leaf_values.assign(num_dims_, 0.0f);
  }
}

void Tree::SetLeaf(NodeId id, std::vector<float> weights) {
  VERO_CHECK_GE(id, 0);
  VERO_CHECK_LT(static_cast<uint32_t>(id), max_nodes());
  VERO_CHECK_EQ(weights.size(), num_dims_);
  TreeNode& n = nodes_[id];
  n.state = TreeNode::State::kLeaf;
  n.feature = kInvalidFeature;
  n.leaf_values = std::move(weights);
}

uint32_t Tree::NumLeaves() const {
  uint32_t count = 0;
  for (const TreeNode& n : nodes_) {
    if (n.state == TreeNode::State::kLeaf) ++count;
  }
  return count;
}

FlatTree::FlatTree(const Tree& tree)
    : max_layers_(tree.max_layers()),
      num_dims_(tree.num_dims()),
      leaf_values_() {
  // Classifies heap node `id` on discovery: a leaf goes straight into the
  // pool; an internal node takes the next BFS slot and queues for its
  // children. Internal nodes are queued in slot order, so queue[k] is the
  // heap id of slot k.
  std::vector<NodeId> queue;
  auto add = [&](NodeId id) -> int32_t {
    VERO_CHECK(tree.Exists(id)) << "tree node " << id << " is missing";
    const TreeNode& n = tree.node(id);
    if (n.state == TreeNode::State::kLeaf) {
      VERO_CHECK_EQ(n.leaf_values.size(), num_dims_);
      const int32_t leaf = static_cast<int32_t>(NumLeaves());
      leaf_values_.insert(leaf_values_.end(), n.leaf_values.begin(),
                          n.leaf_values.end());
      return ~leaf;
    }
    feature_.push_back(n.feature);
    threshold_.push_back(n.split_value);
    split_bin_.push_back(n.split_bin);
    default_left_.push_back(n.default_left ? 1 : 0);
    gain_.push_back(n.gain);
    left_.push_back(0);
    right_.push_back(0);
    queue.push_back(id);
    return static_cast<int32_t>(queue.size() - 1);
  };
  root_ = add(0);
  for (size_t k = 0; k < queue.size(); ++k) {
    // SetSplit materialized both children inside the node array.
    const int32_t l = add(LeftChild(queue[k]));
    const int32_t r = add(RightChild(queue[k]));
    left_[k] = l;
    right_[k] = r;
  }
}

namespace {

// A node record's fixed-size part: id, state, feature, threshold, bin,
// default direction, gain and the weight vector's length. It is also the
// smallest record a stream can hold (an empty weight vector).
constexpr size_t kNodeHeaderBytes = 4 + 1 + 4 + 4 + 2 + 1 + 8 + 8;
constexpr uint8_t kInternalState = 1;
constexpr uint8_t kLeafState = 2;

template <typename T>
T Load(const uint8_t* p) {
  T v{};
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace

void FlatTree::SerializeTo(ByteWriter* writer) const {
  writer->WriteU32(max_layers_);
  writer->WriteU32(num_dims_);
  writer->WriteU32(NumNodes());
  ForEachNode([&](uint32_t id, int32_t link) {
    writer->WriteU32(id);
    if (link >= 0) {
      writer->WriteU8(kInternalState);
      writer->WriteU32(feature_[link]);
      writer->WriteF32(threshold_[link]);
      writer->WriteU16(split_bin_[link]);
      writer->WriteBool(default_left_[link] != 0);
      writer->WriteF64(gain_[link]);
      writer->WriteU64(0);  // Internal nodes carry no weights.
    } else {
      // Leaves persist the split fields a fresh TreeNode holds.
      writer->WriteU8(kLeafState);
      writer->WriteU32(kInvalidFeature);
      writer->WriteF32(0.0f);
      writer->WriteU16(0);
      writer->WriteBool(false);
      writer->WriteF64(0.0);
      writer->WriteU64(num_dims_);
      writer->WriteRaw(leaf(static_cast<uint32_t>(~link)),
                       num_dims_ * sizeof(float));
    }
  });
}

Status FlatTree::Deserialize(ByteReader* reader, FlatTree* out) {
  uint32_t max_layers = 0, num_dims = 0, used = 0;
  VERO_RETURN_IF_ERROR(reader->ReadU32(&max_layers));
  VERO_RETURN_IF_ERROR(reader->ReadU32(&num_dims));
  if (max_layers < 1 || max_layers > 24 || num_dims == 0) {
    return Status::Corruption("bad tree header");
  }
  VERO_RETURN_IF_ERROR(reader->ReadU32(&used));
  if (used > reader->remaining() / kNodeHeaderBytes) {
    return Status::Corruption("tree node count exceeds payload");
  }
  const uint32_t max_nodes = (1u << max_layers) - 1;
  FlatTree tree;
  tree.max_layers_ = max_layers;
  tree.num_dims_ = num_dims;
  // A well-formed tree of `used` nodes has (used - 1) / 2 internal nodes.
  // Every reservation is bounded by the bytes that remain.
  const size_t internal = used / 2;
  tree.feature_.reserve(internal);
  tree.threshold_.reserve(internal);
  tree.split_bin_.reserve(internal);
  tree.default_left_.reserve(internal);
  tree.gain_.reserve(internal);
  tree.left_.reserve(internal);
  tree.right_.reserve(internal);
  tree.leaf_values_.clear();
  tree.leaf_values_.reserve(
      std::min<size_t>((used - internal) * num_dims,
                       reader->remaining() / sizeof(float)));

  // Nodes arrive in ascending heap id, which is BFS order, so record k must
  // be BFS node k: the root, or child (k - 1) % 2 of internal node
  // (k - 1) / 2. heap_id holds each internal node's heap id.
  std::vector<uint32_t> heap_id;
  heap_id.reserve(internal);
  auto expected = [&heap_id](uint32_t k) -> uint32_t {
    return k == 0 ? 0 : 2 * heap_id[(k - 1) / 2] + 1 + (k - 1) % 2;
  };
  auto missing = [&expected](uint32_t k) {
    return Status::Corruption(k == 0 ? std::string("tree has no root")
                                     : "tree node " +
                                           std::to_string(expected(k)) +
                                           " is missing");
  };
  uint8_t rec[kNodeHeaderBytes];
  for (uint32_t k = 0; k < used; ++k) {
    VERO_RETURN_IF_ERROR(reader->ReadRaw(rec, sizeof(rec)));
    const uint32_t id = Load<uint32_t>(rec);
    const uint8_t state = rec[4];
    const FeatureId feature = Load<FeatureId>(rec + 5);
    const uint64_t num_weights = Load<uint64_t>(rec + 24);
    // Checked before anything is sized by it.
    if (num_weights > reader->remaining() / sizeof(float)) {
      return Status::OutOfRange("tree node weights truncated");
    }

    if (k > 0 && id <= expected(k - 1)) {
      return Status::Corruption("tree node ids not strictly ascending");
    }
    if (id >= max_nodes) return Status::Corruption("bad node id");
    if (k > 2 * heap_id.size() || id < expected(k)) {
      return Status::Corruption("tree node " + std::to_string(id) +
                                " has an absent or leaf parent");
    }
    if (id > expected(k)) return missing(k);
    int32_t link = 0;
    if (state == kInternalState) {
      if (2 * static_cast<uint64_t>(id) + 2 >= max_nodes) {
        return Status::Corruption("internal tree node " + std::to_string(id) +
                                  " on the last layer");
      }
      if (feature == kInvalidFeature) {
        return Status::Corruption("internal tree node " + std::to_string(id) +
                                  " has no split feature");
      }
      // Internal nodes carry no weights; any that are present are skipped.
      VERO_RETURN_IF_ERROR(reader->Skip(num_weights * sizeof(float)));
      link = static_cast<int32_t>(heap_id.size());
      heap_id.push_back(id);
      tree.feature_.push_back(feature);
      tree.threshold_.push_back(Load<float>(rec + 9));
      tree.split_bin_.push_back(Load<BinId>(rec + 13));
      tree.default_left_.push_back(rec[15] != 0 ? 1 : 0);
      tree.gain_.push_back(Load<double>(rec + 16));
      tree.left_.push_back(0);
      tree.right_.push_back(0);
    } else if (state == kLeafState) {
      if (num_weights != num_dims) {
        return Status::Corruption("tree leaf " + std::to_string(id) +
                                  " has " + std::to_string(num_weights) +
                                  " weights, want " + std::to_string(num_dims));
      }
      link = ~static_cast<int32_t>(tree.NumLeaves());
      const size_t at = tree.leaf_values_.size();
      tree.leaf_values_.resize(at + num_dims);
      VERO_RETURN_IF_ERROR(reader->ReadRaw(tree.leaf_values_.data() + at,
                                           num_dims * sizeof(float)));
    } else {
      return Status::Corruption("bad node state");
    }
    if (k == 0) {
      tree.root_ = link;
    } else if ((k - 1) % 2 == 0) {
      tree.left_[(k - 1) / 2] = link;
    } else {
      tree.right_[(k - 1) / 2] = link;
    }
  }
  if (used <= 2 * heap_id.size()) return missing(used);
  *out = std::move(tree);
  return Status::OK();
}

bool FlatTree::operator==(const FlatTree& other) const {
  return max_layers_ == other.max_layers_ && num_dims_ == other.num_dims_ &&
         root_ == other.root_ && feature_ == other.feature_ &&
         threshold_ == other.threshold_ && split_bin_ == other.split_bin_ &&
         default_left_ == other.default_left_ && left_ == other.left_ &&
         right_ == other.right_ && leaf_values_ == other.leaf_values_;
}

void GbdtModel::AddTree(FlatTree tree) {
  VERO_CHECK_EQ(tree.num_dims(), margin_dims());
  trees_.push_back(std::move(tree));
}

void GbdtModel::PredictMargins(std::span<const FeatureId> features,
                               std::span<const float> values,
                               double* margins) const {
  const uint32_t dims = margin_dims();
  std::fill(margins, margins + dims, 0.0);
  for (const FlatTree& tree : trees_) {
    const float* w = tree.leaf(tree.LeafOf(features, values));
    for (uint32_t k = 0; k < dims; ++k) margins[k] += learning_rate_ * w[k];
  }
}

void GbdtModel::AddTreeMargins(size_t t, const CsrMatrix& rows,
                               double* margins) const {
  const FlatTree& tree = trees_[t];
  const uint32_t dims = margin_dims();
  for (InstanceId i = 0; i < rows.num_rows(); ++i) {
    const float* w = tree.leaf(tree.LeafOf(rows.RowFeatures(i),
                                           rows.RowValues(i)));
    double* m = margins + static_cast<size_t>(i) * dims;
    for (uint32_t k = 0; k < dims; ++k) m[k] += learning_rate_ * w[k];
  }
}

std::vector<double> GbdtModel::PredictDatasetMargins(
    const Dataset& dataset) const {
  // Tree by tree: every margin still sums its trees in model order, so the
  // result is bit-identical to PredictMargins row by row.
  std::vector<double> margins(
      static_cast<size_t>(dataset.num_instances()) * margin_dims(), 0.0);
  for (size_t t = 0; t < trees_.size(); ++t) {
    AddTreeMargins(t, dataset.matrix(), margins.data());
  }
  return margins;
}

void GbdtModel::PredictProba(std::span<const FeatureId> features,
                             std::span<const float> values,
                             double* proba) const {
  const uint32_t dims = margin_dims();
  PredictMargins(features, values, proba);
  if (task_ == Task::kBinary) {
    proba[0] = Sigmoid(proba[0]);
  } else if (task_ == Task::kMultiClass) {
    SoftmaxInPlace(proba, dims);
  }
}

void GbdtModel::SerializeTo(ByteWriter* writer) const {
  writer->WriteU8(static_cast<uint8_t>(task_));
  writer->WriteU32(num_classes_);
  writer->WriteF64(learning_rate_);
  writer->WriteU32(static_cast<uint32_t>(trees_.size()));
  for (const FlatTree& tree : trees_) tree.SerializeTo(writer);
}

std::vector<double> GbdtModel::FeatureImportance(uint32_t num_features,
                                                 ImportanceType type) const {
  std::vector<double> importance(num_features, 0.0);
  for (const FlatTree& tree : trees_) {
    for (uint32_t i = 0; i < tree.num_internal(); ++i) {
      const FeatureId f = tree.feature()[i];
      VERO_DCHECK_LT(f, num_features);
      importance[f] += type == ImportanceType::kGain ? tree.gain()[i] : 1.0;
    }
  }
  return importance;
}

Status GbdtModel::Deserialize(ByteReader* reader, GbdtModel* out) {
  uint8_t task = 0;
  VERO_RETURN_IF_ERROR(reader->ReadU8(&task));
  if (task > 2) return Status::Corruption("bad task");
  out->task_ = static_cast<Task>(task);
  VERO_RETURN_IF_ERROR(reader->ReadU32(&out->num_classes_));
  VERO_RETURN_IF_ERROR(reader->ReadF64(&out->learning_rate_));
  if (out->margin_dims() == 0) {
    return Status::Corruption("model has zero margin dimensions");
  }
  uint32_t num_trees = 0;
  VERO_RETURN_IF_ERROR(reader->ReadU32(&num_trees));
  // Each serialized tree needs at least a header; an adversarial count
  // larger than that bound cannot be honest, so reject before allocating.
  if (num_trees > reader->remaining() / 12) {
    return Status::Corruption("tree count exceeds payload");
  }
  out->trees_.clear();
  out->trees_.reserve(num_trees);
  for (uint32_t t = 0; t < num_trees; ++t) {
    FlatTree tree;
    VERO_RETURN_IF_ERROR(FlatTree::Deserialize(reader, &tree));
    if (tree.num_dims() != out->margin_dims()) {
      return Status::Corruption("tree " + std::to_string(t) + " has " +
                                std::to_string(tree.num_dims()) +
                                "-dim leaves, model margins have " +
                                std::to_string(out->margin_dims()));
    }
    out->trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

}  // namespace vero
