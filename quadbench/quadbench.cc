// Train+serve benchmark program. Subcommands:
//
//   quadbench gen     --workload W --seed S --dir D
//       writes D/{train,valid,score}.libsvm for workload W.
//   quadbench check   --workload W --seed S
//       the reference-trainer equivalence check at reduced size; exit 0 = ok.
//   quadbench measure --workload W --seed S --dir D --seconds N --trace 0|1
//       reads the files in D, trains with the workload's quadrant, round-trips
//       the model, serves the score file, and prints one JSON result line:
//       end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
//
// run.py builds this binary and runs gen, check and measure; see README.md.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/threading.h"
#include "core/metrics.h"
#include "core/model_io.h"
#include "integrity/auditor.h"
#include "obs/anatomy.h"
#include "obs/json_writer.h"
#include "obs/report.h"
#include "serve/batch_predictor.h"
#include "serve/flat_forest.h"
#include "workload.h"

namespace quadbench {
namespace {

using vero::Dataset;
using vero::DistResult;
using vero::Status;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux.
}

// Quantile with linear interpolation between order statistics.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * (v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - lo) * (v[hi] - v[lo]);
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

uint64_t TextDigest(const vero::GbdtModel& model) {
  const std::string text = vero::ModelToText(model);
  return vero::AuditDigestBytes(text.data(), text.size());
}

// ---------------------------------------------------------------------------
// Build and host stamp.

struct Stamp {
  std::string build_type = QUADBENCH_BUILD_TYPE;
  std::string compiler;
  std::string sanitizer;
  int nproc = 0;
  bool optimized = false;
  bool obs = vero::obs::kObsEnabled;
};

Stamp MakeStamp() {
  Stamp s;
#if defined(__clang__)
  s.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  s.compiler = std::string("gcc ") + __VERSION__;
#else
  s.compiler = "unknown";
#endif
#if defined(__OPTIMIZE__)
  s.optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__)
  s.sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  s.sanitizer = "thread";
#endif
  cpu_set_t set;
  CPU_ZERO(&set);
  s.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                ? CPU_COUNT(&set)
                : static_cast<int>(std::thread::hardware_concurrency());
  return s;
}

std::string StampLine(const Stamp& s) {
  std::ostringstream out;
  out << "# stamp build_type=" << s.build_type
      << " optimized=" << (s.optimized ? "yes" : "no") << " compiler=\""
      << s.compiler << "\" nproc=" << s.nproc
      << " obs=" << (s.obs ? "on" : "off")
      << " sanitizer=" << (s.sanitizer.empty() ? "none" : s.sanitizer);
  return out.str();
}

// Refuses builds and hosts whose timings would not mean what the metrics
// claim: unoptimized or sanitized code, or a workload needing more cores
// than the host gives this process.
Status CheckStamp(const Stamp& s, const Workload& w) {
  if (!s.optimized) return Status::InvalidArgument("unoptimized build");
  if (!s.sanitizer.empty()) {
    return Status::InvalidArgument("sanitized build: " + s.sanitizer);
  }
  const int train_threads = w.workers * static_cast<int>(w.hist_threads);
  if (train_threads > s.nproc ||
      static_cast<int>(w.serve_threads) > s.nproc) {
    return Status::InvalidArgument(
        std::string(w.name) + " needs " + std::to_string(train_threads) +
        " training and " + std::to_string(w.serve_threads) +
        " serving threads; nproc is " + std::to_string(s.nproc));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Result line.

class Result {
 public:
  void Add(std::string name, double value, const char* unit) {
    metrics_.push_back({std::move(name), value, unit});
  }
  // One operation attempted; `ok` false counts it as failed and fails the run.
  void Op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cout << "# FAILED: " << what << "\n";
    }
  }

  void Print() const {
    std::ostringstream out;
    vero::obs::JsonWriter json(out);
    json.BeginObject();
    json.Key("correct");
    json.Bool(failed_ == 0);
    json.Key("attempted");
    json.UInt(attempted_);
    json.Key("failed");
    json.UInt(failed_);
    json.Key("metrics");
    json.BeginObject();
    for (const Metric& m : metrics_) {
      json.Key(m.name);
      json.BeginObject();
      json.Key("value");
      json.Double(m.value);
      json.Key("unit");
      json.String(m.unit);
      json.EndObject();
    }
    json.EndObject();
    json.EndObject();
    std::cout << out.str() << std::endl;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Layers, timed from outside through their public calls.

struct Inputs {
  Dataset train;
  Dataset valid;
  Dataset score;
};

// data: parses every input file; returns the wall seconds it took.
vero::StatusOr<double> ReadInputs(const Workload& w, const InputFiles& files,
                                  Inputs* inputs) {
  const vero::LibsvmReadOptions options = ReadOptions(w);
  const double start = NowSeconds();
  auto train = vero::ReadLibsvmFile(files.train, options);
  VERO_RETURN_IF_ERROR(train.status());
  auto valid = vero::ReadLibsvmFile(files.valid, options);
  VERO_RETURN_IF_ERROR(valid.status());
  auto score = vero::ReadLibsvmFile(files.score, options);
  VERO_RETURN_IF_ERROR(score.status());
  const double seconds = NowSeconds() - start;
  inputs->train = std::move(*train);
  inputs->valid = std::move(*valid);
  inputs->score = std::move(*score);
  return seconds;
}

double FileMegabytes(const InputFiles& files) {
  uint64_t bytes = 0;
  for (const std::string* p : {&files.train, &files.valid, &files.score}) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(*p, ec);
    if (!ec) bytes += size;
  }
  return bytes / 1e6;
}

struct Job {
  DistResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  uint64_t digest = 0;
};

// quadrants: one TrainDistributed job on a fresh simulated cluster.
Job TrainJob(const Workload& w, const Dataset& train,
             vero::obs::RunObserver* observer) {
  vero::Cluster cluster(w.workers, vero::NetworkModel::Lab1Gbps());
  if (observer != nullptr) cluster.AttachObserver(observer);
  Job job;
  const double cpu0 = ProcessCpuSeconds();
  const double start = NowSeconds();
  job.result = vero::TrainDistributed(cluster, train, w.quadrant,
                                      TrainOptions(w));
  job.wall_s = NowSeconds() - start;
  job.cpu_s = ProcessCpuSeconds() - cpu0;
  if (job.result.status.ok()) job.digest = TextDigest(job.result.model);
  return job;
}

bool JobOk(const Job& job, uint64_t want_digest, const Workload& w,
           Result* result) {
  const bool ok = job.result.status.ok() &&
                  job.result.model.num_trees() == w.trees &&
                  job.digest == want_digest;
  result->Op(ok, "training job: " + job.result.status.ToString() +
                     " digest " + std::to_string(job.digest));
  return ok;
}

// The score file in the form the serving loop feeds it.
struct ScoreSet {
  const vero::CsrMatrix* csr = nullptr;
  std::vector<float> dense;  // Row-major, NaN = missing (dense workloads).
  uint32_t rows = 0;
  uint32_t cols = 0;
};

ScoreSet MakeScoreSet(const Workload& w, const Dataset& score) {
  ScoreSet set;
  set.csr = &score.matrix();
  set.rows = score.num_instances();
  set.cols = score.num_features();
  if (w.serve_dense) {
    set.dense.assign(static_cast<size_t>(set.rows) * set.cols,
                     std::numeric_limits<float>::quiet_NaN());
    for (uint32_t r = 0; r < set.rows; ++r) {
      const auto features = set.csr->RowFeatures(r);
      const auto values = set.csr->RowValues(r);
      for (size_t k = 0; k < features.size(); ++k) {
        set.dense[static_cast<size_t>(r) * set.cols + features[k]] = values[k];
      }
    }
  }
  return set;
}

// serve: the per-row reference digest, computed before any timed call.
uint64_t ReferenceMarginsDigest(const vero::serve::FlatForest& forest,
                                const ScoreSet& set) {
  const uint32_t dims = forest.num_dims();
  std::vector<double> margins(static_cast<size_t>(set.rows) * dims, 0.0);
  for (uint32_t r = 0; r < set.rows; ++r) {
    forest.PredictRowMargins(set.csr->RowFeatures(r), set.csr->RowValues(r),
                             margins.data() + static_cast<size_t>(r) * dims);
  }
  return vero::AuditDigestDoubles(margins);
}

struct ServeStats {
  std::vector<double> batch_ms;
  // Rows per second and batch-latency p50 and p90 of each Serve call
  // (slice).
  std::vector<double> slice_rows_per_s;
  std::vector<double> slice_p50_ms;
  std::vector<double> slice_p90_ms;
  uint64_t rows = 0;
  double seconds = 0.0;  // Wall of the passes, digest checks excluded.
  uint64_t passes = 0;
  uint64_t bad_passes = 0;

  double RowsPerSecond() const { return seconds > 0 ? rows / seconds : 0.0; }
};

// Pins the calling thread to rotating subsets of the CPUs it may use and
// restores its original affinity on destruction. Threads spawned meanwhile
// inherit the pinned set.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Pins to `width` consecutive allowed CPUs, starting `round` CPUs in.
  void Pin(uint64_t round, uint32_t width) {
    if (width >= cpus_.size()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (uint32_t k = 0; k < width; ++k) {
      CPU_SET(cpus_[(round + k) % cpus_.size()], &set);
    }
    sched_setaffinity(0, sizeof(set), &set);
  }

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
};

// serve: closed loop, one caller sending batches back to back over the
// score file, whole passes until `seconds` have elapsed. Each pass's margins
// are hashed after its timed calls and compared with `want_digest`.
//
// The vCPUs of a shared host can differ in speed by ~1.8x for seconds at a
// time, and a single serving thread stays on one of them. So each pass runs
// pinned to the next `num_threads` CPUs in turn, and every run samples all
// of them alike.
void Serve(const Workload& w, const vero::serve::BatchPredictor& predictor,
           const ScoreSet& set, uint32_t dims, double seconds,
           uint64_t want_digest, ServeStats* stats) {
  std::vector<double> out(static_cast<size_t>(set.rows) * dims);
  const size_t first_batch = stats->batch_ms.size();
  const uint64_t first_rows = stats->rows;
  const double first_seconds = stats->seconds;
  CpuRotation rotation;
  const double deadline = NowSeconds() + seconds;
  do {
    rotation.Pin(stats->passes, predictor.options().num_threads);
    std::fill(out.begin(), out.end(), -1.0);
    const double pass_start = NowSeconds();
    for (uint32_t begin = 0; begin < set.rows; begin += w.serve_batch) {
      const uint32_t end = std::min(set.rows, begin + w.serve_batch);
      double* dst = out.data() + static_cast<size_t>(begin) * dims;
      const double t0 = NowSeconds();
      if (w.serve_dense) {
        predictor.PredictDenseMargins(
            set.dense.data() + static_cast<size_t>(begin) * set.cols,
            end - begin, set.cols, dst);
      } else {
        predictor.PredictCsrMargins(*set.csr, begin, end, dst);
      }
      stats->batch_ms.push_back((NowSeconds() - t0) * 1e3);
    }
    stats->seconds += NowSeconds() - pass_start;
    stats->rows += set.rows;
    ++stats->passes;
    if (vero::AuditDigestDoubles(out) != want_digest) ++stats->bad_passes;
  } while (NowSeconds() < deadline);
  const std::vector<double> slice(stats->batch_ms.begin() + first_batch,
                                  stats->batch_ms.end());
  stats->slice_rows_per_s.push_back((stats->rows - first_rows) /
                                    (stats->seconds - first_seconds));
  stats->slice_p50_ms.push_back(Quantile(slice, 0.5));
  stats->slice_p90_ms.push_back(Quantile(slice, 0.9));
}

vero::serve::BatchPredictor Predictor(const vero::serve::FlatForest& forest,
                                      uint32_t threads) {
  vero::serve::ServeOptions options;
  options.num_threads = threads;
  return vero::serve::BatchPredictor(&forest, options);
}

void CountPasses(const ServeStats& stats, Result* result) {
  for (uint64_t p = 0; p < stats.passes; ++p) {
    result->Op(p >= stats.bad_passes, "serving pass digest");
  }
}

// ---------------------------------------------------------------------------
// Shared run skeleton.

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  std::string dir;
  double seconds = 10.0;
  int trace = 0;
};

// What one run learns before its timed phases: inputs, the warm-up job's
// model, its digest and its saved file.
struct RunState {
  const Workload* w = nullptr;
  InputFiles files;
  Inputs inputs;
  Job warmup;
  std::string model_path;
};

// Reads the inputs and runs the untimed warm-up job (the first job of a
// process runs cold, so it is never a sample).
Status StartRun(const Args& args, RunState* s, Result* result) {
  s->files = FilesIn(args.dir);
  s->model_path = args.dir + "/model.bin";
  auto parsed = ReadInputs(*s->w, s->files, &s->inputs);
  VERO_RETURN_IF_ERROR(parsed.status());
  s->warmup = TrainJob(*s->w, s->inputs.train, nullptr);
  VERO_RETURN_IF_ERROR(s->warmup.result.status);
  result->Op(s->warmup.result.model.num_trees() == s->w->trees,
             "warm-up job tree count");
  return vero::SaveModel(s->warmup.result.model, s->model_path);
}

// core: loads the saved model, adding the wall of LoadModel to *seconds.
// The SaveModel -> LoadModel round trip must give back the same model text.
vero::StatusOr<vero::GbdtModel> LoadChecked(const RunState& s, Result* result,
                                            double* seconds) {
  const double start = NowSeconds();
  auto loaded = vero::LoadModel(s.model_path);
  *seconds += NowSeconds() - start;
  result->Op(loaded.ok() && TextDigest(*loaded) == s.warmup.digest,
             "model round trip");
  return loaded;
}

// serve: compiles a model for serving, adding the wall of FromModel to
// *seconds.
vero::StatusOr<vero::serve::FlatForest> Compile(const vero::GbdtModel& model,
                                                Result* result,
                                                double* seconds) {
  const double start = NowSeconds();
  auto forest = vero::serve::FlatForest::FromModel(model);
  *seconds += NowSeconds() - start;
  result->Op(forest.ok(), "FromModel: " + forest.status().ToString());
  return forest;
}

// The saved model, loaded and compiled; *seconds gains the wall of both.
vero::StatusOr<vero::serve::FlatForest> LoadForest(const RunState& s,
                                                    Result* result,
                                                    double* seconds) {
  auto model = LoadChecked(s, result, seconds);
  VERO_RETURN_IF_ERROR(model.status());
  return Compile(*model, result, seconds);
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.

int MeasureEndToEnd(const Args& args, RunState& s) {
  const Workload& w = *s.w;
  Result result;
  const Status started = StartRun(args, &s, &result);
  if (!started.ok()) {
    std::cerr << "quadbench: " << started.ToString() << "\n";
    return 2;
  }

  // The forest served during the run, loaded back from the warm-up job.
  double untimed = 0.0;
  auto compiled = LoadForest(s, &result, &untimed);
  if (!compiled.ok()) {
    result.Print();
    return 0;
  }
  const vero::serve::FlatForest& forest = *compiled;
  const ScoreSet set = MakeScoreSet(w, s.inputs.score);
  const uint64_t want = ReferenceMarginsDigest(forest, set);
  const auto predictor = Predictor(forest, w.serve_threads);

  // Warm training jobs alternate with serving slices, so both sample the
  // host over the whole run. Serving gets kServeShare of the time. At least
  // kMinRounds rounds run, so every median below has that many samples;
  // further rounds start while their midpoint falls within --seconds.
  constexpr double kServeShare = 0.4;
  constexpr int kMinRounds = 5;
  std::vector<double> wall, model_per_tree;
  ServeStats serve;
  const double start = NowSeconds();
  double round_s = 0.0;
  for (int rounds = 0; rounds < kMinRounds ||
                       NowSeconds() - start + 0.5 * round_s <= args.seconds;
       ++rounds) {
    const double round_start = NowSeconds();
    const Job job = TrainJob(w, s.inputs.train, nullptr);
    if (JobOk(job, s.warmup.digest, w, &result)) {
      wall.push_back(job.wall_s);
      model_per_tree.push_back(job.result.TrainSeconds() / w.trees);
    }
    Serve(w, predictor, set, forest.num_dims(),
          job.wall_s * kServeShare / (1 - kServeShare), want, &serve);
    round_s = NowSeconds() - round_start;
  }
  CountPasses(serve, &result);
  const vero::MetricValue quality =
      vero::EvaluateModel(s.warmup.result.model, s.inputs.valid);

  // Set-up: parse every input, load the model, compile the forest. Repeated
  // after the training data is released, so peak RSS holds one copy.
  constexpr int kSetups = 5;
  s.inputs.train = Dataset();
  s.inputs.valid = Dataset();
  std::vector<double> setup;
  for (int rep = 0; rep < kSetups; ++rep) {
    Inputs inputs;
    auto parse_s = ReadInputs(w, s.files, &inputs);
    if (!parse_s.ok()) {
      std::cerr << "quadbench: " << parse_s.status().ToString() << "\n";
      return 2;
    }
    double seconds = *parse_s;
    if (LoadForest(s, &result, &seconds).ok()) setup.push_back(seconds);
  }

  std::cout << "# " << w.name << " trees=" << w.trees
            << " jobs=" << wall.size()
            << " serve_batches=" << serve.batch_ms.size()
            << " serve_slices=" << serve.slice_p50_ms.size()
            << " serve_passes=" << serve.passes
            << " model_digest=" << s.warmup.digest << " valid_"
            << quality.name << "=" << quality.value << "\n";
  result.Add("setup_s", Median(setup), "s");
  result.Add("train_wall_s", Median(wall), "s");
  result.Add("tree_model_s", Median(model_per_tree), "s/tree");
  result.Add("valid_quality", quality.value, "score");
  // Per-slice figures, median over slices: a burst of host contention
  // during one slice moves one sample, not the run's figure.
  result.Add("serve_rows_per_s", Median(serve.slice_rows_per_s), "rows/s");
  result.Add("serve_p50_ms", Median(serve.slice_p50_ms), "ms");
  result.Add("serve_p90_ms", Median(serve.slice_p90_ms), "ms");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Print();
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics from one traced job plus outside timings.

double Category(const vero::obs::AnatomyReport& anatomy,
                const std::string& name) {
  for (const auto& [key, seconds] : anatomy.categories) {
    if (key == name) return seconds;
  }
  return 0.0;
}

int MeasureLayers(const Args& args, RunState& s) {
  const Workload& w = *s.w;
  Result result;
  const Status started = StartRun(args, &s, &result);
  if (!started.ok()) {
    std::cerr << "quadbench: " << started.ToString() << "\n";
    return 2;
  }
  const double budget_start = NowSeconds();
  const double trees = w.trees;

  // data
  std::vector<double> parse;
  for (int rep = 0; rep < 2; ++rep) {
    Inputs inputs;
    auto parse_s = ReadInputs(w, s.files, &inputs);
    if (parse_s.ok()) parse.push_back(*parse_s);
  }
  const double parse_s = Median(parse);

  // quadrants / obs: untraced jobs, then one traced job.
  std::vector<double> plain_wall, cpu_util;
  for (int rep = 0; rep < 2; ++rep) {
    const Job job = TrainJob(w, s.inputs.train, nullptr);
    JobOk(job, s.warmup.digest, w, &result);
    plain_wall.push_back(job.wall_s);
    cpu_util.push_back(job.cpu_s /
                       (job.wall_s * w.workers * w.hist_threads));
  }
  vero::obs::ObsOptions obs_options;
  obs_options.trace = true;
  vero::obs::RunObserver observer(obs_options);
  const Job traced = TrainJob(w, s.inputs.train, &observer);
  JobOk(traced, s.warmup.digest, w, &result);
  const DistResult& r = traced.result;
  const vero::obs::AnatomyReport& anatomy = r.anatomy;
  const vero::obs::MetricsSnapshot& metrics = r.report.metrics;
  const bool exact = anatomy.enabled && anatomy.exact &&
                     anatomy.attributed_train_seconds == r.TrainSeconds();
  const double hist_threads =
      metrics.Find("hist.threads") ? metrics.Find("hist.threads")->gauge : 0;
  const double hist_wall = metrics.Find("hist.build_seconds")
                               ? metrics.Find("hist.build_seconds")->sum
                               : 0.0;
  const uint64_t retries = metrics.CounterValue("comm.retries");

  // core: model file round trip.
  const double start = NowSeconds();
  const Status saved = vero::SaveModel(r.model, s.model_path);
  const double save_s = NowSeconds() - start;
  result.Op(saved.ok(), "SaveModel: " + saved.ToString());
  std::error_code ec;
  const double model_bytes =
      static_cast<double>(std::filesystem::file_size(s.model_path, ec));
  double load_s = 0.0;
  auto loaded = LoadChecked(s, &result, &load_s);
  if (!loaded.ok()) {
    result.Print();
    return 0;
  }

  // serve
  double compile_s = 0.0;
  auto compiled = Compile(*loaded, &result, &compile_s);
  if (!compiled.ok()) {
    result.Print();
    return 0;
  }
  const vero::serve::FlatForest& forest = *compiled;
  const ScoreSet set = MakeScoreSet(w, s.inputs.score);
  const uint64_t want = ReferenceMarginsDigest(forest, set);
  const double left = args.seconds - (NowSeconds() - budget_start);
  const double serve_budget = std::max(0.5, 0.6 * left);
  ServeStats serve, serial;
  Serve(w, Predictor(forest, w.serve_threads), set, forest.num_dims(),
        serve_budget, want, &serve);
  Serve(w, Predictor(forest, 1), set, forest.num_dims(), 0.5 * serve_budget,
        want, &serial);
  CountPasses(serve, &result);
  CountPasses(serial, &result);
  const double p50_ms = Quantile(serve.batch_ms, 0.5);

  // common: cost of one spawn-and-join ParallelFor at the serving width.
  std::vector<double> pf_us;
  for (int i = 0; i < 2000; ++i) {
    const double t0 = NowSeconds();
    vero::ParallelFor(w.serve_threads, w.serve_threads, [](size_t) {});
    pf_us.push_back((NowSeconds() - t0) * 1e6);
  }

  // Layer expectations that hold for every seed of this workload.
  result.Op(exact, "anatomy exact-sum invariant");
  result.Op(retries == 0, "comm.retries == 0");
  result.Op(hist_threads == w.hist_threads, "hist.threads gauge");
  const double transform_s = Category(anatomy, "compute.transform");
  result.Op(vero::IsVertical(w.quadrant) == (transform_s > 0),
            "transform runs exactly on vertical quadrants");

  std::cout << "# " << w.name << " trees=" << w.trees
            << " serve_batches=" << serve.batch_ms.size()
            << " model_digest=" << s.warmup.digest << "\n";
  result.Add("data.parse_s", parse_s, "s");
  result.Add("data.parse_mb_per_s", FileMegabytes(s.files) / parse_s, "MB/s");
  result.Add("sketch.model_s", Category(anatomy, "compute.sketch"), "s");
  result.Add("partition.transform_model_s", transform_s, "s");
  result.Add("partition.transform_bytes",
             static_cast<double>(r.transform_stats.repartition_bytes_sent),
             "bytes");
  result.Add("core.gradient_s_per_tree",
             Category(anatomy, "compute.gradient") / trees, "s/tree");
  result.Add("core.hist_build_s_per_tree",
             Category(anatomy, "compute.hist_build") / trees, "s/tree");
  result.Add("core.hist_build_wall_s", hist_wall, "s");
  result.Add("core.hist_threads", hist_threads, "count");
  result.Add("core.split_eval_s_per_tree",
             Category(anatomy, "compute.split_eval") / trees, "s/tree");
  result.Add("core.partition_s_per_tree",
             Category(anatomy, "compute.partition") / trees, "s/tree");
  result.Add("core.model_save_s", save_s, "s");
  result.Add("core.model_load_s", load_s, "s");
  result.Add("core.model_bytes", model_bytes, "bytes");
  result.Add("cluster.bytes_per_tree", r.train_bytes_sent / trees,
             "bytes/tree");
  result.Add("cluster.comm_model_s_per_tree", r.TotalCommSeconds() / trees,
             "s/tree");
  for (const char* op :
       {"AllReduceSum", "AllToAll", "AllGather", "Broadcast", "Gather"}) {
    const std::string base = std::string("comm.") + op;
    const std::string name = std::string("cluster.") + op;
    result.Add(name + ".ops",
               static_cast<double>(metrics.CounterValue(base + ".ops")),
               "count");
    result.Add(name + ".bytes_sent",
               static_cast<double>(metrics.CounterValue(base + ".bytes_sent")),
               "bytes");
  }
  result.Add("cluster.barrier_skew_s", Category(anatomy, "wait.barrier_skew"),
             "s");
  result.Add("cluster.retries", static_cast<double>(retries), "count");
  result.Add("quadrants.comp_model_s_per_tree", r.TotalCompSeconds() / trees,
             "s/tree");
  result.Add("quadrants.setup_model_s", r.setup_seconds, "s");
  result.Add("quadrants.critical_path_s", anatomy.critical_path.length_seconds,
             "s");
  result.Add("quadrants.peak_hist_mb", r.peak_histogram_bytes / 1e6, "MB");
  result.Add("quadrants.data_mb", r.data_bytes / 1e6, "MB");
  result.Add("quadrants.cpu_util", Median(cpu_util), "ratio");
  result.Add("common.parallel_for_us", Median(pf_us), "us");
  result.Add("common.serve_thread_speedup",
             serve.RowsPerSecond() / serial.RowsPerSecond(),
             "x");
  result.Add("serve.compile_s", compile_s, "s");
  result.Add("serve.nodes", forest.num_internal_nodes(), "count");
  result.Add("serve.leaves", forest.num_leaves(), "count");
  result.Add("serve.ns_per_row_tree",
             p50_ms * 1e6 / (static_cast<double>(w.serve_batch) * trees),
             "ns");
  result.Add("serve.p99_ms", Quantile(serve.batch_ms, 0.99), "ms");
  result.Add("serve.batches", static_cast<double>(serve.batch_ms.size()),
             "count");
  result.Add("obs.trace_overhead_ratio", traced.wall_s / Median(plain_wall),
             "ratio");
  result.Add("obs.anatomy_exact", exact ? 1.0 : 0.0, "bool");
  result.Print();
  return 0;
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--dir") {
      args->dir = value;
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: quadbench gen|check|measure --workload W "
                 "--seed S [--dir D] [--seconds N] [--trace 0|1]\n";
    return 2;
  }
  RunState state;
  state.w = FindWorkload(args.workload);
  if (state.w == nullptr || (args.dir.empty() && args.mode != "check")) {
    std::cerr << "quadbench: unknown workload or missing --dir\n";
    return 2;
  }
  if (args.mode == "gen" || args.mode == "check") {
    const Status status =
        args.mode == "gen"
            ? GenerateInputs(*state.w, args.seed, args.dir)
            : CheckAgainstReference(*state.w, args.seed, /*rows=*/500,
                                    /*trees=*/2);
    if (!status.ok()) std::cerr << "quadbench: " << status.ToString() << "\n";
    return status.ok() ? 0 : 1;
  }
  if (args.mode != "measure") return 2;
  const Stamp stamp = MakeStamp();
  std::cout << StampLine(stamp) << "\n";
  const Status host = CheckStamp(stamp, *state.w);
  if (!host.ok()) {
    std::cerr << "quadbench: refusing to run: " << host.ToString() << "\n";
    return 3;
  }
  return args.trace != 0 ? MeasureLayers(args, state)
                         : MeasureEndToEnd(args, state);
}

}  // namespace
}  // namespace quadbench

int main(int argc, char** argv) { return quadbench::Main(argc, argv); }
