#ifndef VERO_CORE_GBDT_PARAMS_H_
#define VERO_CORE_GBDT_PARAMS_H_

#include <cstdint>
#include <string>

#include "common/collective_modes.h"
#include "common/status.h"

namespace vero {

/// How trees grow.
enum class GrowthPolicy {
  /// Layer by layer to L layers (the paper's protocol; all quadrants).
  kLevelWise,
  /// Best-first: always split the leaf with the highest gain, up to
  /// max_leaves (LightGBM-style; reference trainer only).
  kLeafWise,
};

/// End-to-end integrity auditing of the distributed trainers. Mirrors the
/// cluster-level auditor modes without depending on src/integrity/ (core
/// stays collective-free); dist_common wires the auditor from it.
enum class IntegrityLevel {
  /// No auditing: zero extra collectives, metrics, or spans — bit-identical
  /// to builds that predate the auditor (the default).
  kOff,
  /// End-to-end content checks above the transport CRC: cross-rank digest
  /// agreement over replicated post-collective buffers and mass checksums
  /// over scattered aggregations, with majority-vote blame. Catches silent
  /// transport corruption (FaultKind::kSilentCorrupt).
  kChecksum,
  /// kChecksum plus algorithmic invariants: non-finite scans of gradients,
  /// histograms, split gains, and margins; hessian-mass identities against
  /// the all-reduced gradient sums; and the parent == left + right
  /// subtraction cross-check. Also catches compute-born poison
  /// (FaultKind::kPoison) and triggers targeted layer recompute before
  /// escalating to checkpoint rollback (docs/fault_tolerance.md).
  kFull,
};

/// Hyper-parameters for GBDT training, matching the paper's notation
/// (§3: T trees of L layers, q candidate splits; §2.1.1: eta, lambda, gamma).
struct GbdtParams {
  /// T: number of boosting rounds. Each round trains one tree (with C-dim
  /// leaf vectors in the multi-class case).
  uint32_t num_trees = 100;
  /// L: number of tree layers including the root (an L-layer tree has at
  /// most 2^(L-1) leaves). The paper's default is 8.
  uint32_t num_layers = 8;
  /// q: number of candidate splits (histogram bins) per feature.
  uint32_t num_candidate_splits = 20;
  /// eta: learning rate / shrinkage.
  double learning_rate = 0.1;
  /// lambda: L2 regularization on leaf weights.
  double reg_lambda = 1.0;
  /// gamma: complexity penalty per leaf.
  double reg_gamma = 0.0;
  /// Minimum gain required to split a node.
  double min_split_gain = 0.0;
  /// Minimum number of instances on each child of a split.
  uint32_t min_child_instances = 1;
  /// Retained entries per quantile sketch (split-proposal accuracy knob).
  uint32_t sketch_entries = 256;
  /// Enables the histogram subtraction technique (§2.1.2). Exposed so the
  /// ablation bench can quantify its effect.
  bool histogram_subtraction = true;
  /// Intra-worker threads for histogram builds and the gradient pass.
  /// 1 = fully serial (the default). Any value yields bit-identical models:
  /// HistogramBuilder partitions output cells, not input rows, so every
  /// accumulation order matches the serial build (docs/performance.md).
  uint32_t num_threads = 1;

  // ---- Extensions beyond the paper's protocol (reference trainer) -------

  /// Tree growth policy. Distributed quadrants always grow level-wise.
  GrowthPolicy growth = GrowthPolicy::kLevelWise;
  /// Leaf budget for leaf-wise growth; 0 means 2^(L-1) (the level-wise
  /// equivalent).
  uint32_t max_leaves = 0;
  /// Fraction of instances sampled (without replacement) per tree.
  double row_subsample = 1.0;
  /// Fraction of features eligible for splits per tree.
  double column_subsample = 1.0;
  /// Stop when the validation metric has not improved for this many rounds
  /// (0 disables; requires a validation set).
  uint32_t early_stopping_rounds = 0;
  /// Seed for subsampling.
  uint64_t seed = 42;

  // ---- Straggler mitigation (distributed trainers only) -----------------

  /// Aggregation-straggler policy; kStrict leaves training bit-identical to
  /// seed behavior.
  MitigationMode straggler_mitigation = MitigationMode::kStrict;
  /// kBoundedStaleness: how long on-time ranks wait before closing an
  /// aggregation without its stragglers (simulated seconds).
  double staleness_deadline_seconds = 0.05;
  /// kBoundedStaleness: max consecutive deferrals of one rank before a
  /// forced full sync.
  uint32_t staleness_bound = 2;
  /// Max ranks deferred/speculated per aggregation (the k in "return once
  /// W-k ranks contribute").
  uint32_t staleness_max_stale_ranks = 1;
  /// kSpeculative: delay above which a rank's block is re-executed
  /// (simulated seconds).
  double speculation_threshold_seconds = 0.05;

  // ---- Integrity auditing (distributed trainers only) -------------------

  /// Corruption-detection level; kOff leaves training bit-identical to seed
  /// behavior (no extra collectives, metric handles, or trace spans).
  IntegrityLevel integrity = IntegrityLevel::kOff;
  /// Relative tolerance for the auditor's floating-point mass identities
  /// (digest agreement is exact and does not use it).
  double integrity_tolerance = 1e-6;
  /// Targeted layer/gradient recomputes attempted per detected violation
  /// before escalating to the checkpoint-rollback state machine.
  uint32_t integrity_max_recomputes = 1;

  // ---- Histogram compression (distributed trainers only) ----------------

  /// Codec applied to histogram payloads of the aggregation collectives;
  /// kOff leaves training bit-identical to seed behavior (no extra metric
  /// handles, identical bytes on the wire).
  CollectiveCompression compression = CollectiveCompression::kOff;
  /// A per-feature histogram block is encoded sparse iff its nonzero
  /// density is at or below this threshold; above it the block ships dense.
  double compression_density_threshold = 0.5;

  // ---- Elasticity (distributed trainers only) ---------------------------

  /// Operator-requested resize: after this many completed trees the driver
  /// pauses training at a checkpoint boundary, resizes the cluster by
  /// `elastic_resize_delta` workers at a rendezvous (re-sharding the data
  /// onto the new width), and finishes the run there. 0 disables resizing.
  uint32_t elastic_resize_after_trees = 0;
  /// Worker-count change applied at the scheduled resize: positive admits
  /// that many new workers, negative retires surplus ones. Must be nonzero
  /// when a resize is scheduled (a "resize by zero" request is rejected);
  /// shrinking below one worker is rejected by TrainDistributed, which
  /// knows the cluster width.
  int32_t elastic_resize_delta = 0;

  /// Validates ranges; returns InvalidArgument with a reason on failure.
  Status Validate() const {
    if (num_trees == 0) return Status::InvalidArgument("num_trees == 0");
    if (num_layers < 2) return Status::InvalidArgument("num_layers < 2");
    if (num_layers > 24) return Status::InvalidArgument("num_layers > 24");
    if (num_candidate_splits == 0 || num_candidate_splits > 4096) {
      return Status::InvalidArgument("num_candidate_splits out of range");
    }
    if (learning_rate <= 0.0) {
      return Status::InvalidArgument("learning_rate <= 0");
    }
    if (reg_lambda < 0.0) return Status::InvalidArgument("reg_lambda < 0");
    if (reg_gamma < 0.0) return Status::InvalidArgument("reg_gamma < 0");
    if (row_subsample <= 0.0 || row_subsample > 1.0) {
      return Status::InvalidArgument("row_subsample not in (0, 1]");
    }
    if (column_subsample <= 0.0 || column_subsample > 1.0) {
      return Status::InvalidArgument("column_subsample not in (0, 1]");
    }
    if (max_leaves == 1) {
      return Status::InvalidArgument("max_leaves must be 0 or >= 2");
    }
    if (num_threads == 0 || num_threads > 256) {
      return Status::InvalidArgument("num_threads not in [1, 256]");
    }
    if (staleness_deadline_seconds <= 0.0) {
      return Status::InvalidArgument("staleness_deadline_seconds <= 0");
    }
    if (speculation_threshold_seconds <= 0.0) {
      return Status::InvalidArgument("speculation_threshold_seconds <= 0");
    }
    if (staleness_bound == 0) {
      return Status::InvalidArgument("staleness_bound == 0");
    }
    if (staleness_max_stale_ranks == 0) {
      return Status::InvalidArgument("staleness_max_stale_ranks == 0");
    }
    if (!(integrity_tolerance > 0.0) || integrity_tolerance > 1.0) {
      return Status::InvalidArgument("integrity_tolerance not in (0, 1]");
    }
    if (!(compression_density_threshold > 0.0) ||
        compression_density_threshold > 1.0) {
      return Status::InvalidArgument(
          "compression_density_threshold not in (0, 1]");
    }
    if (integrity != IntegrityLevel::kOff && integrity_max_recomputes > 16) {
      return Status::InvalidArgument("integrity_max_recomputes > 16");
    }
    if (elastic_resize_after_trees > 0) {
      if (elastic_resize_delta == 0) {
        return Status::InvalidArgument(
            "elastic_resize_delta == 0 with a scheduled resize");
      }
      if (elastic_resize_after_trees >= num_trees) {
        return Status::InvalidArgument(
            "elastic_resize_after_trees >= num_trees");
      }
    } else if (elastic_resize_delta != 0) {
      return Status::InvalidArgument(
          "elastic_resize_delta set without elastic_resize_after_trees");
    }
    return Status::OK();
  }

  /// Effective leaf budget for leaf-wise growth.
  uint32_t EffectiveMaxLeaves() const {
    return max_leaves != 0 ? max_leaves : (1u << (num_layers - 1));
  }
};

}  // namespace vero

#endif  // VERO_CORE_GBDT_PARAMS_H_
