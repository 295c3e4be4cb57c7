#ifndef VERO_CORE_SPLIT_H_
#define VERO_CORE_SPLIT_H_

#include <cstdint>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "core/gradients.h"
#include "core/histogram.h"
#include "data/types.h"
#include "sketch/candidate_splits.h"

namespace vero {

/// A candidate node split: test "value(feature) <= split_value" (equivalently
/// bin <= split_bin) sends an instance left; instances missing the feature
/// follow `default_left`.
struct SplitCandidate {
  bool valid = false;
  FeatureId feature = kInvalidFeature;  ///< Global feature id.
  BinId split_bin = 0;
  float split_value = 0.0f;
  bool default_left = false;
  double gain = 0.0;
  GradStats left_stats;
  GradStats right_stats;

  /// Gains within this distance of each other tie.
  static constexpr double kTieTol = 1e-10;

  /// Deterministic total order used to pick the global best split: higher
  /// gain wins; near-ties (within kTieTol) break toward the lower feature id,
  /// then the lower bin, then missing-right, so every quadrant and worker
  /// agrees on one winner.
  bool IsBetterThan(const SplitCandidate& other) const;

  void SerializeTo(ByteWriter* writer) const;
  static Status Deserialize(ByteReader* reader, SplitCandidate* out);
};

/// Finds the best split of one node from its gradient histogram
/// (Equation 2 with the missing-value bucket tried on both sides).
class SplitFinder {
 public:
  SplitFinder(double reg_lambda, double reg_gamma, double min_split_gain)
      : reg_lambda_(reg_lambda),
        reg_gamma_(reg_gamma),
        min_split_gain_(min_split_gain) {}

  /// Scans histogram features [0, hist.num_features()) where local feature f
  /// corresponds to global feature `global_ids[f]` with
  /// splits.NumBins(global_ids[f]) meaningful bins. `node_stats` is the
  /// node's per-class gradient total (so missing mass = node - present).
  /// `feature_mask` (optional, indexed by global id) restricts the search to
  /// masked-in features (column subsampling).
  SplitCandidate FindBest(const Histogram& hist, const GradStats& node_stats,
                          const std::vector<FeatureId>& global_ids,
                          const CandidateSplits& splits,
                          const std::vector<bool>* feature_mask = nullptr)
      const;

  /// Optimal leaf weight vector -G/(H + lambda) for a node (Equation 1).
  std::vector<float> LeafWeights(const GradStats& node_stats) const;

  double reg_lambda() const { return reg_lambda_; }
  double reg_gamma() const { return reg_gamma_; }

 private:
  double reg_lambda_;
  double reg_gamma_;
  double min_split_gain_;
};

}  // namespace vero

#endif  // VERO_CORE_SPLIT_H_
