#ifndef QUADBENCH_WORKLOAD_H_
#define QUADBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "data/dataset.h"
#include "data/libsvm_io.h"
#include "quadrants/quadrant.h"
#include "quadrants/train_distributed.h"

namespace quadbench {

/// One benchmark workload: a Table 2 stand-in profile, the quadrant that
/// trains on it, and the serving shape that scores with the result.
struct Workload {
  const char* name;
  /// vero::FindProfile name; the profile's seed is replaced by --seed.
  const char* profile;
  /// Rows drawn, as a multiple of the profile's scaled_instances; the last
  /// valid_fraction of them form the valid file.
  double instance_scale;
  double valid_fraction;
  vero::Quadrant quadrant;
  int workers;
  /// Histogram threads per worker (GbdtParams::num_threads).
  uint32_t hist_threads;
  uint32_t trees;
  /// Rows of the separate score file.
  uint32_t score_rows;
  uint32_t serve_batch;
  uint32_t serve_threads;
  /// Serve dense row-major blocks (NaN = missing) instead of CSR rows.
  bool serve_dense;
};

/// The workload table; returns null for an unknown name.
const Workload* FindWorkload(const std::string& name);

/// Input file paths of a workload under `dir`.
struct InputFiles {
  std::string train;
  std::string valid;
  std::string score;
};
InputFiles FilesIn(const std::string& dir);

/// Writes the train, valid and score LIBSVM files, generated from a copy of
/// the workload's profile whose seed is `seed`. Train and valid split one
/// draw; the score file is a second draw. The same seed writes the same
/// files.
vero::Status GenerateInputs(const Workload& w, uint64_t seed,
                            const std::string& dir);

/// How the generated files are read back (task, classes, dimension).
vero::LibsvmReadOptions ReadOptions(const Workload& w);

/// Training options of one job of the workload.
vero::DistTrainOptions TrainOptions(const Workload& w);

/// North-star check at reduced size: trains a `rows`-row copy of the
/// workload's profile for `trees` trees with the reference core Trainer and
/// with the workload's quadrant, and requires equal ModelToText. The
/// quadrant runs on one worker: with W > 1 the distributed quantile sketch
/// may propose other candidate splits than the single-process one.
vero::Status CheckAgainstReference(const Workload& w, uint64_t seed,
                                   uint32_t rows, uint32_t trees);

}  // namespace quadbench

#endif  // QUADBENCH_WORKLOAD_H_
