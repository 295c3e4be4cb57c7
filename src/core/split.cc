#include "core/split.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace vero {
namespace {

// A side must carry some hessian mass to be a meaningful child.
constexpr double kMinSideHessian = 1e-10;

bool IsZero(const GradPair& cell) { return cell.g == 0.0 && cell.h == 0.0; }

}  // namespace

bool SplitCandidate::IsBetterThan(const SplitCandidate& other) const {
  if (!valid) return false;
  if (!other.valid) return true;
  if (gain > other.gain + kTieTol) return true;
  if (other.gain > gain + kTieTol) return false;
  if (feature != other.feature) return feature < other.feature;
  if (split_bin != other.split_bin) return split_bin < other.split_bin;
  return !default_left && other.default_left;
}

void SplitCandidate::SerializeTo(ByteWriter* writer) const {
  writer->WriteBool(valid);
  writer->WriteU32(feature);
  writer->WriteU16(split_bin);
  writer->WriteF32(split_value);
  writer->WriteBool(default_left);
  writer->WriteF64(gain);
  auto write_stats = [writer](const GradStats& stats) {
    writer->WriteU32(static_cast<uint32_t>(stats.size()));
    for (const GradPair& s : stats) {
      writer->WriteF64(s.g);
      writer->WriteF64(s.h);
    }
  };
  write_stats(left_stats);
  write_stats(right_stats);
}

Status SplitCandidate::Deserialize(ByteReader* reader, SplitCandidate* out) {
  VERO_RETURN_IF_ERROR(reader->ReadBool(&out->valid));
  VERO_RETURN_IF_ERROR(reader->ReadU32(&out->feature));
  VERO_RETURN_IF_ERROR(reader->ReadU16(&out->split_bin));
  VERO_RETURN_IF_ERROR(reader->ReadF32(&out->split_value));
  VERO_RETURN_IF_ERROR(reader->ReadBool(&out->default_left));
  VERO_RETURN_IF_ERROR(reader->ReadF64(&out->gain));
  auto read_stats = [reader](GradStats* stats) -> Status {
    uint32_t n = 0;
    VERO_RETURN_IF_ERROR(reader->ReadU32(&n));
    stats->resize(n);
    for (GradPair& s : *stats) {
      VERO_RETURN_IF_ERROR(reader->ReadF64(&s.g));
      VERO_RETURN_IF_ERROR(reader->ReadF64(&s.h));
    }
    return Status::OK();
  };
  VERO_RETURN_IF_ERROR(read_stats(&out->left_stats));
  VERO_RETURN_IF_ERROR(read_stats(&out->right_stats));
  return Status::OK();
}

// One flat pass per feature (see docs/performance.md, "Split evaluation").
// Every sum keeps the order of the straightforward per-candidate
// formulation (left/right stats, then their hessian sums and GainTerms),
// so gains and stats are bit-identical to it; the skips below only drop
// candidates that provably cannot become the returned best.
SplitCandidate SplitFinder::FindBest(const Histogram& hist,
                                     const GradStats& node_stats,
                                     const std::vector<FeatureId>& global_ids,
                                     const CandidateSplits& splits,
                                     const std::vector<bool>* feature_mask)
    const {
  VERO_CHECK_EQ(global_ids.size(), hist.num_features());
  const uint32_t dims = hist.num_dims();
  VERO_CHECK_EQ(node_stats.size(), dims);

  SplitCandidate best;
  const double parent_term = GainTerm(node_stats, reg_lambda_);
  // With finite node totals, an all-zero feature has no valid candidate:
  // missing-right leaves the left side empty and missing-left leaves the
  // right side node - node = 0. NaN/inf totals turn that right side into
  // NaN, which passes the hessian test, so then nothing is skipped.
  bool finite_node = true;
  for (const GradPair& s : node_stats) {
    finite_node = finite_node && std::isfinite(s.g) && std::isfinite(s.h);
  }

  const GradPair* node = node_stats.data();
  GradStats present(dims), missing(dims), prefix(dims);
  for (uint32_t f = 0; f < hist.num_features(); ++f) {
    const FeatureId global_f = global_ids[f];
    if (feature_mask != nullptr && !(*feature_mask)[global_f]) continue;
    const uint32_t nbins = splits.NumBins(global_f);
    if (nbins < 2) continue;  // Constant or unseen feature: unsplittable.

    // Present mass over all q bins in bin order (Histogram::FeatureTotal's
    // order), noting whether every cell is zero.
    const GradPair* cells = &hist.at(f, 0, 0);
    std::fill(present.begin(), present.end(), GradPair{});
    bool all_zero = true;
    for (uint32_t b = 0; b < hist.num_bins(); ++b) {
      const GradPair* bin = cells + static_cast<size_t>(b) * dims;
      for (uint32_t k = 0; k < dims; ++k) {
        present[k] += bin[k];
        all_zero = all_zero && IsZero(bin[k]);
      }
    }
    if (all_zero && finite_node) continue;
    // Missing-value bucket: node total minus the mass present in this
    // feature's bins.
    for (uint32_t k = 0; k < dims; ++k) missing[k] = node[k] - present[k];

    std::fill(prefix.begin(), prefix.end(), GradPair{});
    // Splitting at the last bin sends everything (present) left, which is
    // only meaningful when missing mass exists; enumerate bins
    // [0, nbins - 2] like standard histogram algorithms.
    for (uint32_t b = 0; b + 1 < nbins; ++b) {
      const GradPair* bin = cells + static_cast<size_t>(b) * dims;
      bool zero_bin = true;
      for (uint32_t k = 0; k < dims; ++k) {
        prefix[k] += bin[k];
        zero_bin = zero_bin && IsZero(bin[k]);
      }
      // prefix starts at +0.0, so it is never -0.0 and adding a zero cell
      // leaves its bits unchanged: both candidates of an all-zero bin b >= 1
      // repeat bin b - 1's gains and lose the tie-break to the lower bin.
      if (zero_bin && b > 0) continue;

      for (int missing_left = 0; missing_left <= 1; ++missing_left) {
        double left_h = 0.0, right_h = 0.0, left_term = 0.0, right_term = 0.0;
        for (uint32_t k = 0; k < dims; ++k) {
          GradPair left = prefix[k];
          if (missing_left != 0) left += missing[k];
          const GradPair right = node[k] - left;
          left_h += left.h;
          right_h += right.h;
          left_term += (left.g * left.g) / (left.h + reg_lambda_);
          right_term += (right.g * right.g) / (right.h + reg_lambda_);
        }
        if (left_h < kMinSideHessian || right_h < kMinSideHessian) continue;
        const double gain =
            0.5 * (left_term + right_term - parent_term) - reg_gamma_;
        if (gain < min_split_gain_) continue;
        // IsBetterThan's first verdict, taken before building anything.
        if (best.valid && best.gain > gain + SplitCandidate::kTieTol) continue;
        SplitCandidate candidate;
        candidate.valid = true;
        candidate.feature = global_f;
        candidate.split_bin = static_cast<BinId>(b);
        candidate.default_left = (missing_left != 0);
        candidate.gain = gain;
        if (!candidate.IsBetterThan(best)) continue;
        candidate.split_value = splits.SplitValue(global_f, b);
        candidate.left_stats.resize(dims);
        candidate.right_stats.resize(dims);
        for (uint32_t k = 0; k < dims; ++k) {
          GradPair left = prefix[k];
          if (missing_left != 0) left += missing[k];
          candidate.left_stats[k] = left;
          candidate.right_stats[k] = node[k] - left;
        }
        best = std::move(candidate);
      }
    }
  }
  return best;
}

std::vector<float> SplitFinder::LeafWeights(const GradStats& node_stats) const {
  std::vector<float> weights(node_stats.size());
  for (size_t k = 0; k < node_stats.size(); ++k) {
    weights[k] = static_cast<float>(-node_stats[k].g /
                                    (node_stats[k].h + reg_lambda_));
  }
  return weights;
}

}  // namespace vero
