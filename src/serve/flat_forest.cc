#include "serve/flat_forest.h"

#include <algorithm>

namespace vero {
namespace serve {
namespace {

// Forest-wide internal-node count must stay addressable by int32 links
// (negative values are leaf references, so only 31 bits carry node ids).
constexpr size_t kMaxInternalNodes = (size_t{1} << 30);

template <typename T>
void Append(std::vector<T>* out, std::span<const T> in) {
  out->insert(out->end(), in.begin(), in.end());
}

}  // namespace

StatusOr<FlatForest> FlatForest::FromModel(const GbdtModel& model) {
  FlatForest out;
  out.task_ = model.task();
  out.num_dims_ = model.margin_dims();
  out.learning_rate_ = model.learning_rate();

  for (size_t t = 0; t < model.num_trees(); ++t) {
    const FlatTree& tree = model.tree(t);
    if (out.feature_.size() + tree.num_internal() > kMaxInternalNodes) {
      return Status::Corruption("forest exceeds internal node capacity");
    }
    const int32_t node_base = static_cast<int32_t>(out.feature_.size());
    const int32_t leaf_base = static_cast<int32_t>(out.num_leaves());
    auto rebase = [&](int32_t link) {
      return link >= 0 ? link + node_base : ~(~link + leaf_base);
    };
    Append(&out.feature_, tree.feature());
    Append(&out.threshold_, tree.threshold());
    Append(&out.default_left_, tree.default_left());
    for (uint32_t i = 0; i < tree.num_internal(); ++i) {
      out.left_.push_back(rebase(tree.left()[i]));
      out.right_.push_back(rebase(tree.right()[i]));
      out.max_feature_ = std::max(out.max_feature_, tree.feature()[i]);
    }
    out.roots_.push_back(rebase(tree.root()));
    Append(&out.leaf_values_, tree.leaf_values());
  }
  return out;
}

void FlatForest::PredictRowMargins(std::span<const FeatureId> features,
                                   std::span<const float> values,
                                   double* margins) const {
  for (const int32_t root : roots_) {
    const uint32_t leaf = FlatTree::WalkToLeaf(
        feature_.data(), threshold_.data(), default_left_.data(),
        left_.data(), right_.data(), root, features, values);
    const float* w =
        leaf_values_.data() + static_cast<size_t>(leaf) * num_dims_;
    for (uint32_t k = 0; k < num_dims_; ++k) {
      margins[k] += learning_rate_ * w[k];
    }
  }
}

}  // namespace serve
}  // namespace vero
