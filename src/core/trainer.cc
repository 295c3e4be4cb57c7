#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <utility>

#include "common/bitmap.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/binned.h"
#include "core/hist_builder.h"
#include "core/histogram.h"
#include "core/loss.h"
#include "core/node_indexer.h"
#include "core/split.h"
#include "obs/trace.h"
#include "sketch/candidate_splits.h"

namespace vero {
namespace {

// Depth (root = 0) of a heap-numbered node.
uint32_t NodeDepth(NodeId id) {
  uint32_t depth = 0;
  while (id > 0) {
    id = Parent(id);
    ++depth;
  }
  return depth;
}

// Everything one boosting round needs; groups the per-tree growing logic so
// the level-wise and leaf-wise policies share the histogram / split / apply
// machinery.
class TreeGrower {
 public:
  TreeGrower(const GbdtParams& params, const BinnedRowStore& store,
             const CandidateSplits& splits,
             const std::vector<FeatureId>& all_features,
             const GradientBuffer& grads, const std::vector<bool>* mask,
             HistogramBuilder* builder, HistogramPool* pool,
             RowPartition* partition, TrainReport* report)
      : params_(params),
        store_(store),
        splits_(splits),
        all_features_(all_features),
        grads_(grads),
        mask_(mask),
        finder_(params.reg_lambda, params.reg_gamma, params.min_split_gain),
        builder_(builder),
        pool_(pool),
        partition_(partition),
        report_(report),
        dims_(grads.num_dims()) {}

  Tree Grow(const GradStats& root_stats) {
    Tree tree(params_.num_layers, dims_);
    node_stats_.assign(tree.max_nodes(), GradStats{});
    node_stats_[0] = root_stats;
    if (params_.growth == GrowthPolicy::kLevelWise) {
      GrowLevelWise(&tree);
    } else {
      GrowLeafWise(&tree);
    }
    // Every node still holding instances is a leaf; finalize its weights
    // and drop any leftover histograms.
    for (NodeId id = 0; id < static_cast<NodeId>(tree.max_nodes()); ++id) {
      if (partition_->Has(id)) {
        tree.SetLeaf(id, finder_.LeafWeights(node_stats_[id]));
      }
      pool_->Release(id);
    }
    return tree;
  }

 private:
  HistogramBuilder::NodeRows AcquireTask(NodeId node) {
    return {pool_->Acquire(node, store_.num_features(),
                           params_.num_candidate_splits, dims_),
            partition_->Instances(node)};
  }

  void BuildRootHistogram() {
    ThreadCpuTimer timer;
    const HistogramBuilder::NodeRows task = AcquireTask(0);
    builder_->BuildRowStoreLayer(store_, grads_,
                                 std::span<const HistogramBuilder::NodeRows>(
                                     &task, 1),
                                 0, store_.num_features(),
                                 store_.num_features());
    timer.Stop();
    report_->histogram_seconds += timer.Seconds();
  }

  // Builds every pair's histograms in one layer pass (only the smaller
  // sibling of each pair is scanned; the other comes from subtraction
  // against the parent), then releases the parents.
  void BuildLayerHistograms(const std::vector<std::pair<NodeId, NodeId>>& pairs) {
    ThreadCpuTimer timer;
    std::vector<HistogramBuilder::NodeRows> tasks;
    std::vector<NodeId> scanned;
    tasks.reserve(2 * pairs.size());
    for (const auto& [left, right] : pairs) {
      if (params_.histogram_subtraction) {
        const NodeId smaller =
            partition_->Count(left) <= partition_->Count(right) ? left
                                                                : right;
        tasks.push_back(AcquireTask(smaller));
        scanned.push_back(smaller);
      } else {
        tasks.push_back(AcquireTask(left));
        tasks.push_back(AcquireTask(right));
      }
    }
    builder_->BuildRowStoreLayer(
        store_, grads_, std::span<const HistogramBuilder::NodeRows>(tasks), 0,
        store_.num_features(), store_.num_features());
    for (const NodeId smaller : scanned) {
      Histogram* large_hist =
          pool_->Acquire(Sibling(smaller), store_.num_features(),
                         params_.num_candidate_splits, dims_);
      const Histogram* parent = pool_->Get(Parent(smaller));
      VERO_CHECK(parent != nullptr);
      large_hist->SetToDifference(*parent, *pool_->Get(smaller));
    }
    for (const auto& [left, right] : pairs) pool_->Release(Parent(left));
    timer.Stop();
    report_->histogram_seconds += timer.Seconds();
  }

  SplitCandidate FindSplit(NodeId node) {
    ThreadCpuTimer timer;
    const Histogram* hist = pool_->Get(node);
    VERO_CHECK(hist != nullptr);
    SplitCandidate best = finder_.FindBest(*hist, node_stats_[node],
                                           all_features_, splits_, mask_);
    if (best.valid &&
        partition_->Count(node) < 2 * params_.min_child_instances) {
      best.valid = false;
    }
    timer.Stop();
    report_->split_find_seconds += timer.Seconds();
    return best;
  }

  // Applies a decided split: tree structure, instance movement, child stats.
  void ApplySplit(Tree* tree, NodeId node, const SplitCandidate& s) {
    ThreadCpuTimer timer;
    tree->SetSplit(node, s.feature, s.split_value, s.split_bin,
                   s.default_left, s.gain);
    auto instances = partition_->Instances(node);
    Bitmap go_left(instances.size());
    store_.FillGoLeft(instances, s.feature, s.split_bin, s.default_left,
                      &go_left);
    partition_->Split(node, go_left);
    node_stats_[LeftChild(node)] = s.left_stats;
    node_stats_[RightChild(node)] = s.right_stats;
    timer.Stop();
    report_->node_split_seconds += timer.Seconds();
  }

  void GrowLevelWise(Tree* tree) {
    std::vector<NodeId> frontier = {0};
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (uint32_t depth = 0;
         depth < params_.num_layers && !frontier.empty(); ++depth) {
      const bool last_layer = (depth + 1 == params_.num_layers);
      // Histograms (skipped on the last layer, whose nodes must be leaves).
      if (!last_layer) {
        if (depth == 0) {
          BuildRootHistogram();
        } else {
          BuildLayerHistograms(pairs);
        }
      }
      // Split finding + node splitting.
      pairs.clear();
      std::vector<NodeId> next_frontier;
      for (NodeId node : frontier) {
        SplitCandidate best;
        if (!last_layer) best = FindSplit(node);
        if (!best.valid) continue;  // Finalized as a leaf by Grow().
        ApplySplit(tree, node, best);
        pairs.emplace_back(LeftChild(node), RightChild(node));
        next_frontier.push_back(LeftChild(node));
        next_frontier.push_back(RightChild(node));
      }
      frontier = std::move(next_frontier);
    }
  }

  void GrowLeafWise(Tree* tree) {
    struct Entry {
      NodeId node;
      SplitCandidate split;
    };
    // Ordered worst-first so top() is the best split (std::priority_queue
    // keeps the largest element on top under "less-than").
    auto worse = [](const Entry& a, const Entry& b) {
      return b.split.IsBetterThan(a.split);
    };
    std::priority_queue<Entry, std::vector<Entry>, decltype(worse)> heap(
        worse);

    BuildRootHistogram();
    if (params_.num_layers >= 2) {
      SplitCandidate best = FindSplit(0);
      if (best.valid) heap.push({0, std::move(best)});
    }

    uint32_t leaves = 1;
    const uint32_t max_leaves = params_.EffectiveMaxLeaves();
    while (leaves < max_leaves && !heap.empty()) {
      const Entry top = heap.top();
      heap.pop();
      ApplySplit(tree, top.node, top.split);
      ++leaves;

      const NodeId left = LeftChild(top.node);
      const NodeId right = RightChild(top.node);
      // Children at depth L-1 are at the depth cap and stay leaves.
      if (NodeDepth(left) + 1 < params_.num_layers) {
        BuildLayerHistograms({{left, right}});
        for (NodeId child : {left, right}) {
          SplitCandidate best = FindSplit(child);
          if (best.valid) {
            heap.push({child, std::move(best)});
          } else {
            pool_->Release(child);
          }
        }
      } else {
        pool_->Release(Parent(left));
      }
    }
  }

  const GbdtParams& params_;
  const BinnedRowStore& store_;
  const CandidateSplits& splits_;
  const std::vector<FeatureId>& all_features_;
  const GradientBuffer& grads_;
  const std::vector<bool>* mask_;
  SplitFinder finder_;
  HistogramBuilder* builder_;
  HistogramPool* pool_;
  RowPartition* partition_;
  TrainReport* report_;
  uint32_t dims_;
  std::vector<GradStats> node_stats_;
};

}  // namespace

StatusOr<GbdtModel> Trainer::Train(const Dataset& train, const Dataset* valid,
                                   IterationCallback callback) {
  VERO_RETURN_IF_ERROR(params_.Validate());
  if (train.num_instances() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  if (params_.early_stopping_rounds > 0 && valid == nullptr) {
    return Status::InvalidArgument(
        "early stopping requires a validation set");
  }
  report_ = TrainReport{};
  WallTimer total_timer;

  const uint32_t n = train.num_instances();
  const uint32_t dims = train.gradient_dim();
  const uint32_t d = train.num_features();
  const auto loss = MakeLossForTask(train.task(), train.num_classes());
  Rng rng(params_.seed);

  const CandidateSplits splits = ProposeCandidateSplits(
      train, params_.num_candidate_splits, params_.sketch_entries);
  const BinnedRowStore store = BinnedRowStore::FromCsr(train.matrix(), splits);
  report_.data_bytes = store.MemoryBytes();

  std::vector<FeatureId> all_features(d);
  std::iota(all_features.begin(), all_features.end(), FeatureId{0});

  GbdtModel model(train.task(), train.num_classes(), params_.learning_rate);
  std::vector<double> margins(static_cast<size_t>(n) * dims, 0.0);
  std::vector<double> valid_margins;
  if (valid != nullptr) {
    valid_margins.assign(
        static_cast<size_t>(valid->num_instances()) * dims, 0.0);
  }
  GradientBuffer grads(n, dims);
  HistogramBuilder builder(params_.num_threads);
  HistogramPool pool;
  RowPartition partition;
  const SplitFinder finder(params_.reg_lambda, params_.reg_gamma,
                           params_.min_split_gain);

  const bool row_sampling = params_.row_subsample < 1.0;
  const bool col_sampling = params_.column_subsample < 1.0;
  double best_metric = 0.0;
  bool best_metric_set = false;
  bool maximize_metric = true;
  uint32_t rounds_since_best = 0;

  for (uint32_t t = 0; t < params_.num_trees; ++t) {
    if (trace_ != nullptr) trace_->SetContext(static_cast<int32_t>(t), -1);
    {
      obs::PhaseSpan span(trace_, "gradient");
      ComputeGradientsParallel(*loss, train.labels(), margins, n,
                               params_.num_threads, &grads);
    }

    // ---- Sampling ------------------------------------------------------
    if (row_sampling) {
      const uint32_t k = std::max<uint32_t>(
          2, static_cast<uint32_t>(std::lround(n * params_.row_subsample)));
      partition.InitSubset(rng.SampleWithoutReplacement(n, std::min(k, n)),
                           params_.num_layers);
    } else {
      partition.Init(n, params_.num_layers);
    }
    std::vector<bool> mask;
    if (col_sampling) {
      const uint32_t k = std::max<uint32_t>(
          1,
          static_cast<uint32_t>(std::lround(d * params_.column_subsample)));
      mask.assign(d, false);
      for (uint32_t f : rng.SampleWithoutReplacement(d, std::min(k, d))) {
        mask[f] = true;
      }
    }

    GradStats root_stats(dims);
    for (InstanceId i : partition.Instances(0)) {
      const GradPair* g = grads.row(i);
      for (uint32_t k = 0; k < dims; ++k) root_stats[k] += g[k];
    }

    // ---- Grow one tree ---------------------------------------------------
    TreeGrower grower(params_, store, splits, all_features, grads,
                      col_sampling ? &mask : nullptr, &builder, &pool,
                      &partition, &report_);
    obs::PhaseSpan grow_span(trace_, "grow-tree");
    Tree tree = grower.Grow(root_stats);
    grow_span.Close();

    // ---- Update margins --------------------------------------------------
    // Added first: out-of-sample rows are routed through the compacted tree.
    model.AddTree(tree);
    obs::PhaseSpan margin_span(trace_, "margin-update");
    if (row_sampling) {
      model.AddTreeMargins(model.num_trees() - 1, train.matrix(),
                           margins.data());
    } else {
      for (NodeId node = 0; node < static_cast<NodeId>(tree.max_nodes());
           ++node) {
        if (!partition.Has(node)) continue;
        const std::vector<float>& w = tree.node(node).leaf_values;
        for (InstanceId i : partition.Instances(node)) {
          for (uint32_t k = 0; k < dims; ++k) {
            margins[static_cast<size_t>(i) * dims + k] +=
                params_.learning_rate * w[k];
          }
        }
      }
    }
    margin_span.Close();

    // ---- Reporting / early stopping --------------------------------------
    double valid_metric = 0.0;
    bool has_valid = false;
    if (valid != nullptr) {
      model.AddTreeMargins(model.num_trees() - 1, valid->matrix(),
                           valid_margins.data());
      const MetricValue metric =
          EvaluateMargins(valid->task(), valid->num_classes(),
                          valid->labels(), valid_margins);
      valid_metric = metric.value;
      maximize_metric = metric.higher_is_better;
      has_valid = true;
    }
    if (callback) {
      IterationStats stats;
      stats.tree_index = t;
      stats.train_loss = loss->ComputeLoss(train.labels(), margins, 0, n);
      stats.elapsed_seconds = total_timer.Seconds();
      stats.valid_metric = valid_metric;
      stats.has_valid_metric = has_valid;
      callback(stats);
    }
    if (has_valid) {
      const bool improved =
          !best_metric_set || (maximize_metric ? valid_metric > best_metric
                                               : valid_metric < best_metric);
      if (improved) {
        best_metric = valid_metric;
        best_metric_set = true;
        report_.best_iteration = t;
        rounds_since_best = 0;
      } else if (params_.early_stopping_rounds > 0 &&
                 ++rounds_since_best >= params_.early_stopping_rounds) {
        break;
      }
    }
  }

  if (trace_ != nullptr) trace_->SetContext(-1, -1);
  report_.total_seconds = total_timer.Seconds();
  report_.peak_histogram_bytes = pool.PeakBytes();
  return model;
}

}  // namespace vero
