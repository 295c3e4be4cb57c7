#include "workload.h"

#include <algorithm>

#include "core/model_io.h"
#include "core/trainer.h"
#include "data/synthetic.h"

namespace quadbench {
namespace {

using vero::Quadrant;

// Sizes follow the paper's Table 2 stand-ins (data/synthetic.cc); every
// workload uses §5.1's L = 8, q = 20 (Params below). W x hist_threads and serve_threads stay within a 4-core
// host; `quadbench measure` refuses a host with fewer cores than a
// workload needs.
constexpr Workload kWorkloads[] = {
    // Higgs stand-in: 300k x 28 dense, binary, split 80/20.
    {"ld-qd2", "Higgs", /*instance_scale=*/1.0, /*valid_fraction=*/0.2,
     Quadrant::kQD2, /*workers=*/2, /*hist_threads=*/2, /*trees=*/30,
     /*score_rows=*/32768, /*serve_batch=*/64, /*serve_threads=*/2,
     /*serve_dense=*/true},
    // RCV1 stand-in: 20k x 12000, ~75 nonzeros per row, binary, split 80/20.
    {"hs-qd1", "RCV1", 1.0, 0.2, Quadrant::kQD1, 4, 1, 4, 32768, 1024, 1,
     false},
    // RCV1-multi stand-in: all 5000 x 450 profile rows train, 53 classes.
    // The valid file is another 5000 rows of the same draw, which halves
    // the sampling noise of 53-class accuracy against a 20% split.
    {"mc-qd4", "RCV1-multi", 2.0, 0.5, Quadrant::kQD4, 4, 1, 10, 8192, 256, 1,
     false},
};

// Decorrelates the score file's generator stream from the training one.
constexpr uint64_t kScoreSeedSalt = 0x9e3779b97f4a7c15ULL;

vero::DatasetProfile SeededProfile(const Workload& w, uint64_t seed) {
  vero::DatasetProfile profile = vero::FindProfile(w.profile);
  profile.seed = seed;
  return profile;
}

vero::GbdtParams Params(const Workload& w) {
  vero::GbdtParams params;
  params.num_trees = w.trees;
  params.num_layers = 8;
  params.num_candidate_splits = 20;
  params.learning_rate = 0.1;
  params.num_threads = w.hist_threads;
  return params;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

InputFiles FilesIn(const std::string& dir) {
  return {dir + "/train.libsvm", dir + "/valid.libsvm", dir + "/score.libsvm"};
}

vero::Status GenerateInputs(const Workload& w, uint64_t seed,
                            const std::string& dir) {
  const InputFiles files = FilesIn(dir);
  const vero::DatasetProfile profile = SeededProfile(w, seed);
  {
    const vero::Dataset all =
        vero::GenerateFromProfile(profile, w.instance_scale);
    auto [train, valid] = all.SplitTail(w.valid_fraction);
    VERO_RETURN_IF_ERROR(vero::WriteLibsvmFile(train, files.train));
    VERO_RETURN_IF_ERROR(vero::WriteLibsvmFile(valid, files.valid));
  }
  vero::DatasetProfile score_profile = profile;
  score_profile.seed = seed ^ kScoreSeedSalt;
  const double scale =
      static_cast<double>(w.score_rows) / profile.scaled_instances;
  const vero::Dataset score = vero::GenerateFromProfile(score_profile, scale);
  return vero::WriteLibsvmFile(score, files.score);
}

vero::LibsvmReadOptions ReadOptions(const Workload& w) {
  const vero::DatasetProfile& profile = vero::FindProfile(w.profile);
  vero::LibsvmReadOptions options;
  options.task = profile.num_classes > 2 ? vero::Task::kMultiClass
                                         : vero::Task::kBinary;
  options.num_classes = profile.num_classes;
  options.num_features = profile.scaled_features;
  return options;
}

vero::DistTrainOptions TrainOptions(const Workload& w) {
  vero::DistTrainOptions options;
  options.params = Params(w);
  return options;
}

vero::Status CheckAgainstReference(const Workload& w, uint64_t seed,
                                   uint32_t rows, uint32_t trees) {
  const vero::DatasetProfile profile = SeededProfile(w, seed);
  const vero::Dataset data = vero::GenerateFromProfile(
      profile, static_cast<double>(rows) / profile.scaled_instances);
  vero::DistTrainOptions options = TrainOptions(w);
  options.params.num_trees = std::min(trees, w.trees);

  vero::Trainer reference(options.params);
  auto ref = reference.Train(data);
  VERO_RETURN_IF_ERROR(ref.status());
  vero::Cluster cluster(1);
  const vero::DistResult dist =
      vero::TrainDistributed(cluster, data, w.quadrant, options);
  VERO_RETURN_IF_ERROR(dist.status);
  const std::string want = vero::ModelToText(*ref);
  const std::string got = vero::ModelToText(dist.model);
  if (want != got) {
    return vero::Status::Internal(
        std::string("reference trainer and ") +
        vero::QuadrantToString(w.quadrant) + " disagree at " +
        std::to_string(rows) + " rows");
  }
  return vero::Status::OK();
}

}  // namespace quadbench
