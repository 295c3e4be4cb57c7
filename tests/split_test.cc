#include "core/split.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/serialize.h"

namespace vero {
namespace {

// One feature, three bins, binary task. Gradients arranged so that
// splitting after bin 0 is clearly best.
CandidateSplits MakeSplits() {
  return CandidateSplits(3, {{1.0f, 2.0f, 3.0f}});
}

TEST(SplitFinderTest, FindsHandComputableSplit) {
  // Bin 0: g=-10,h=5; bin 1: g=+10,h=5; bin 2: g=0,h=0.
  Histogram hist(1, 3, 1);
  GradPair neg{-10.0, 5.0}, pos{10.0, 5.0};
  hist.Add(0, 0, &neg);
  hist.Add(0, 1, &pos);
  GradStats node = {{0.0, 10.0}};

  SplitFinder finder(/*lambda=*/1.0, /*gamma=*/0.0, /*min_gain=*/0.0);
  const SplitCandidate best =
      finder.FindBest(hist, node, {0}, MakeSplits());
  ASSERT_TRUE(best.valid);
  EXPECT_EQ(best.feature, 0u);
  EXPECT_EQ(best.split_bin, 0);
  EXPECT_EQ(best.split_value, 1.0f);
  // gain = 0.5 * (100/6 + 100/6 - 0/11).
  EXPECT_NEAR(best.gain, 0.5 * (100.0 / 6 + 100.0 / 6), 1e-9);
  EXPECT_DOUBLE_EQ(best.left_stats[0].g, -10.0);
  EXPECT_DOUBLE_EQ(best.right_stats[0].g, 10.0);
}

TEST(SplitFinderTest, GammaSubtractsFromGain) {
  Histogram hist(1, 3, 1);
  GradPair neg{-10.0, 5.0}, pos{10.0, 5.0};
  hist.Add(0, 0, &neg);
  hist.Add(0, 1, &pos);
  GradStats node = {{0.0, 10.0}};
  SplitFinder finder(1.0, /*gamma=*/2.0, 0.0);
  const SplitCandidate best =
      finder.FindBest(hist, node, {0}, MakeSplits());
  EXPECT_NEAR(best.gain, 0.5 * (100.0 / 6 + 100.0 / 6) - 2.0, 1e-9);
}

TEST(SplitFinderTest, MinGainFiltersWeakSplits) {
  Histogram hist(1, 3, 1);
  GradPair a{-0.1, 5.0}, b{0.1, 5.0};
  hist.Add(0, 0, &a);
  hist.Add(0, 1, &b);
  GradStats node = {{0.0, 10.0}};
  SplitFinder finder(1.0, 0.0, /*min_gain=*/1.0);
  EXPECT_FALSE(finder.FindBest(hist, node, {0}, MakeSplits()).valid);
}

TEST(SplitFinderTest, MissingValuesPickBetterDefaultSide) {
  // Present mass: bin 0 has g=-10 (wants to isolate); missing mass g=+8.
  Histogram hist(1, 3, 1);
  GradPair neg{-10.0, 5.0};
  hist.Add(0, 0, &neg);
  GradStats node = {{-2.0, 9.0}};  // Missing: g=8, h=4.
  SplitFinder finder(1.0, 0.0, 0.0);
  const SplitCandidate best =
      finder.FindBest(hist, node, {0}, MakeSplits());
  ASSERT_TRUE(best.valid);
  // Sending missing right separates -10 from +8 cleanly.
  EXPECT_FALSE(best.default_left);
  EXPECT_DOUBLE_EQ(best.left_stats[0].g, -10.0);
  EXPECT_DOUBLE_EQ(best.right_stats[0].g, 8.0);
}

TEST(SplitFinderTest, SkipsConstantFeatures) {
  Histogram hist(1, 3, 1);
  GradPair g{1.0, 1.0};
  hist.Add(0, 0, &g);
  GradStats node = {{1.0, 1.0}};
  CandidateSplits one_bin(3, {{5.0f}});
  SplitFinder finder(1.0, 0.0, 0.0);
  EXPECT_FALSE(finder.FindBest(hist, node, {0}, one_bin).valid);
}

TEST(SplitFinderTest, MultiClassGainSumsOverClasses) {
  Histogram hist(1, 2, 2);
  GradPair bin0[2] = {{-5.0, 2.0}, {5.0, 2.0}};
  GradPair bin1[2] = {{5.0, 2.0}, {-5.0, 2.0}};
  hist.Add(0, 0, bin0);
  hist.Add(0, 1, bin1);
  GradStats node = {{0.0, 4.0}, {0.0, 4.0}};
  CandidateSplits splits(2, {{1.0f, 2.0f}});
  SplitFinder finder(1.0, 0.0, 0.0);
  const SplitCandidate best = finder.FindBest(hist, node, {0}, splits);
  ASSERT_TRUE(best.valid);
  // Per class: 25/3 left + 25/3 right; parent 0. Two classes.
  EXPECT_NEAR(best.gain, 0.5 * 4 * (25.0 / 3), 1e-9);
}

TEST(SplitFinderTest, LeafWeightsFormula) {
  SplitFinder finder(1.0, 0.0, 0.0);
  const std::vector<float> w = finder.LeafWeights({{4.0, 3.0}, {-2.0, 1.0}});
  ASSERT_EQ(w.size(), 2u);
  EXPECT_FLOAT_EQ(w[0], -1.0f);  // -4 / (3+1)
  EXPECT_FLOAT_EQ(w[1], 1.0f);   // 2 / (1+1)
}

TEST(SplitCandidateTest, OrderingPrefersHigherGain) {
  SplitCandidate a, b;
  a.valid = b.valid = true;
  a.gain = 2.0;
  b.gain = 1.0;
  EXPECT_TRUE(a.IsBetterThan(b));
  EXPECT_FALSE(b.IsBetterThan(a));
}

TEST(SplitCandidateTest, TieBreaksByFeatureThenBin) {
  SplitCandidate a, b;
  a.valid = b.valid = true;
  a.gain = b.gain = 1.0;
  a.feature = 2;
  b.feature = 5;
  EXPECT_TRUE(a.IsBetterThan(b));
  b.feature = 2;
  a.split_bin = 1;
  b.split_bin = 3;
  EXPECT_TRUE(a.IsBetterThan(b));
}

TEST(SplitCandidateTest, InvalidNeverWins) {
  SplitCandidate invalid, valid;
  valid.valid = true;
  valid.gain = -5.0;
  EXPECT_FALSE(invalid.IsBetterThan(valid));
  EXPECT_TRUE(valid.IsBetterThan(invalid));
  EXPECT_FALSE(invalid.IsBetterThan(invalid));
}

TEST(SplitCandidateTest, SerializeRoundTrip) {
  SplitCandidate s;
  s.valid = true;
  s.feature = 17;
  s.split_bin = 3;
  s.split_value = 2.5f;
  s.default_left = true;
  s.gain = 4.75;
  s.left_stats = {{1.0, 2.0}, {3.0, 4.0}};
  s.right_stats = {{-1.0, 0.5}, {0.0, 0.25}};
  ByteWriter w;
  s.SerializeTo(&w);
  ByteReader r(w.data());
  SplitCandidate t;
  ASSERT_TRUE(SplitCandidate::Deserialize(&r, &t).ok());
  EXPECT_EQ(t.feature, 17u);
  EXPECT_EQ(t.split_bin, 3);
  EXPECT_EQ(t.split_value, 2.5f);
  EXPECT_TRUE(t.default_left);
  EXPECT_DOUBLE_EQ(t.gain, 4.75);
  EXPECT_EQ(t.left_stats.size(), 2u);
  EXPECT_DOUBLE_EQ(t.right_stats[0].h, 0.5);
}

TEST(SplitFinderTest, LeftRightStatsSumToNodeStats) {
  // Property: whatever split wins, left + right must equal the node totals.
  Histogram hist(2, 3, 1);
  GradPair g1{-3.0, 1.0}, g2{2.0, 1.5}, g3{4.0, 2.0};
  hist.Add(0, 0, &g1);
  hist.Add(0, 1, &g2);
  hist.Add(1, 2, &g3);
  GradStats node = {{3.5, 5.0}};  // Includes some missing mass.
  CandidateSplits splits(3, {{1.0f, 2.0f, 3.0f}, {1.0f, 2.0f, 3.0f}});
  SplitFinder finder(1.0, 0.0, 0.0);
  const SplitCandidate best = finder.FindBest(hist, node, {0, 1}, splits);
  ASSERT_TRUE(best.valid);
  EXPECT_NEAR(best.left_stats[0].g + best.right_stats[0].g, node[0].g, 1e-12);
  EXPECT_NEAR(best.left_stats[0].h + best.right_stats[0].h, node[0].h, 1e-12);
}

// The straightforward per-candidate kernel SplitFinder::FindBest replaced,
// kept verbatim as the oracle of the differential test below: it builds
// left/right stats for every candidate, allocates FeatureTotal per feature
// and skips nothing.
class ReferenceSplitFinder {
 public:
  ReferenceSplitFinder(double reg_lambda, double reg_gamma,
                       double min_split_gain)
      : reg_lambda_(reg_lambda),
        reg_gamma_(reg_gamma),
        min_split_gain_(min_split_gain) {}

  SplitCandidate FindBest(const Histogram& hist, const GradStats& node_stats,
                          const std::vector<FeatureId>& global_ids,
                          const CandidateSplits& splits,
                          const std::vector<bool>* feature_mask) const {
    VERO_CHECK_EQ(global_ids.size(), hist.num_features());
    const uint32_t dims = hist.num_dims();
    VERO_CHECK_EQ(node_stats.size(), dims);

    SplitCandidate best;
    const double parent_term = GainTerm(node_stats, reg_lambda_);

    GradStats left(dims), right(dims), prefix(dims), missing(dims);
    for (uint32_t f = 0; f < hist.num_features(); ++f) {
      const FeatureId global_f = global_ids[f];
      if (feature_mask != nullptr && !(*feature_mask)[global_f]) continue;
      const uint32_t nbins = splits.NumBins(global_f);
      if (nbins < 2) continue;  // Constant or unseen feature: unsplittable.

      // Missing-value bucket: node total minus the mass present in this
      // feature's bins.
      GradStats present = hist.FeatureTotal(f);
      for (uint32_t k = 0; k < dims; ++k) {
        missing[k] = node_stats[k] - present[k];
      }

      std::fill(prefix.begin(), prefix.end(), GradPair{});
      // Splitting at the last bin sends everything (present) left, which is
      // only meaningful when missing mass exists; enumerate bins
      // [0, nbins - 2] like standard histogram algorithms.
      for (uint32_t b = 0; b + 1 < nbins; ++b) {
        for (uint32_t k = 0; k < dims; ++k) prefix[k] += hist.at(f, b, k);

        for (int missing_left = 0; missing_left <= 1; ++missing_left) {
          for (uint32_t k = 0; k < dims; ++k) {
            left[k] = prefix[k];
            if (missing_left != 0) left[k] += missing[k];
            right[k] = node_stats[k] - left[k];
          }
          if (SideHessian(left) < kMinSideHessian ||
              SideHessian(right) < kMinSideHessian) {
            continue;
          }
          const double gain =
              0.5 * (GainTerm(left, reg_lambda_) +
                     GainTerm(right, reg_lambda_) - parent_term) -
              reg_gamma_;
          if (gain < min_split_gain_) continue;
          SplitCandidate candidate;
          candidate.valid = true;
          candidate.feature = global_f;
          candidate.split_bin = static_cast<BinId>(b);
          candidate.split_value = splits.SplitValue(global_f, b);
          candidate.default_left = (missing_left != 0);
          candidate.gain = gain;
          if (candidate.IsBetterThan(best)) {
            candidate.left_stats = left;
            candidate.right_stats = right;
            best = candidate;
          }
        }
      }
    }
    return best;
  }

 private:
  static constexpr double kMinSideHessian = 1e-10;

  static double SideHessian(const GradStats& stats) {
    double h = 0.0;
    for (const GradPair& s : stats) h += s.h;
    return h;
  }

  double reg_lambda_;
  double reg_gamma_;
  double min_split_gain_;
};

// Bit equality, except that any two NaNs match: when both operands of a
// sum or product are NaN, IEEE 754 leaves open which one the result
// carries, and the compiler may commute the operands, so a NaN's sign and
// payload are not fixed by the source.
bool SameBits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameStatsBits(const GradStats& a, const GradStats& b) {
  if (a.size() != b.size()) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (!SameBits(a[k].g, b[k].g) || !SameBits(a[k].h, b[k].h)) return false;
  }
  return true;
}

bool IsZeroBin(const Histogram& hist, uint32_t f, uint32_t b) {
  for (uint32_t k = 0; k < hist.num_dims(); ++k) {
    if (hist.at(f, b, k).g != 0.0 || hist.at(f, b, k).h != 0.0) return false;
  }
  return true;
}

// One random FindBest input. Features are zero, sparse (zero bins, -0.0
// cells) or dense; some are near-copies of another feature so gains tie
// exactly or within the tie tolerance across features; node totals, cells
// and the regularisers occasionally go non-finite or non-zero.
struct SplitCase {
  Histogram hist;
  GradStats node;
  std::vector<FeatureId> global_ids;
  CandidateSplits splits;
  std::vector<bool> mask;
  bool use_mask = false;
  double lambda = 1.0;
  double gamma = 0.0;
  double min_gain = 0.0;
  bool non_finite = false;
};

SplitCase MakeRandomCase(Rng& rng, uint32_t dims) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  SplitCase c;
  const uint32_t num_local = 1 + static_cast<uint32_t>(rng.Uniform(6));
  const uint32_t q = 2 + static_cast<uint32_t>(rng.Uniform(9));
  const uint32_t num_global = num_local + static_cast<uint32_t>(rng.Uniform(4));
  c.global_ids = rng.SampleWithoutReplacement(num_global, num_local);
  if (rng.Bernoulli(0.5)) rng.Shuffle(&c.global_ids);

  std::vector<std::vector<float>> split_values(num_global);
  for (auto& values : split_values) {
    const uint32_t nbins = rng.Bernoulli(0.1)
                               ? static_cast<uint32_t>(rng.Uniform(2))
                               : 2 + static_cast<uint32_t>(rng.Uniform(q - 1));
    float v = static_cast<float>(rng.UniformDouble(-5.0, 5.0));
    for (uint32_t b = 0; b < nbins; ++b) {
      values.push_back(v);
      v += static_cast<float>(rng.UniformDouble(0.1, 2.0));
    }
  }
  c.splits = CandidateSplits(q, std::move(split_values));

  c.hist = Histogram(num_local, q, dims);
  auto zero = [&rng]() { return rng.Bernoulli(0.5) ? -0.0 : 0.0; };
  for (uint32_t f = 0; f < num_local; ++f) {
    const bool zero_feature = rng.Bernoulli(0.3);
    const double zero_bin_share = rng.Bernoulli(0.5) ? 0.6 : 0.15;
    for (uint32_t b = 0; b < q; ++b) {
      const bool zero_bin = zero_feature || rng.Bernoulli(zero_bin_share);
      for (uint32_t k = 0; k < dims; ++k) {
        GradPair& cell = c.hist.at(f, b, k);
        if (zero_bin || rng.Bernoulli(0.1)) {
          cell = GradPair{zero(), zero()};
        } else {
          cell = GradPair{3.0 * rng.NextGaussian(), 2.0 * rng.NextDouble()};
        }
      }
    }
  }
  // Near-copies: feature `to` repeats feature `from`, exactly or with its
  // gradients scaled by 1 +- 5e-12, so candidate gains tie exactly or
  // within kTieTol.
  if (num_local >= 2 && rng.Bernoulli(0.5)) {
    const uint32_t from = static_cast<uint32_t>(rng.Uniform(num_local));
    const uint32_t to = (from + 1 + static_cast<uint32_t>(
                                        rng.Uniform(num_local - 1))) %
                        num_local;
    for (uint32_t b = 0; b < q; ++b) {
      for (uint32_t k = 0; k < dims; ++k) {
        c.hist.at(to, b, k) = c.hist.at(from, b, k);
      }
    }
    if (rng.Bernoulli(0.6)) {
      const double scale = 1.0 + rng.UniformDouble(-5e-12, 5e-12);
      for (uint32_t b = 0; b < q; ++b) {
        for (uint32_t k = 0; k < dims; ++k) c.hist.at(to, b, k).g *= scale;
      }
    }
  }

  // Node totals: the largest present mass plus some missing mass, or exactly
  // one feature's present mass (an empty missing bucket).
  c.node.assign(dims, GradPair{});
  const uint32_t exact_from = static_cast<uint32_t>(rng.Uniform(num_local));
  const bool exact = rng.Bernoulli(0.2);
  for (uint32_t k = 0; k < dims; ++k) {
    double max_h = 0.0;
    for (uint32_t f = 0; f < num_local; ++f) {
      double h = 0.0;
      for (uint32_t b = 0; b < q; ++b) h += c.hist.at(f, b, k).h;
      max_h = std::max(max_h, h);
    }
    c.node[k] = GradPair{3.0 * rng.NextGaussian(),
                         max_h + 3.0 * rng.NextDouble()};
  }
  if (exact) c.node = c.hist.FeatureTotal(exact_from);

  if (rng.Bernoulli(0.06)) {
    const double specials[] = {kNaN, kInf, -kInf};
    GradPair& s = c.node[rng.Uniform(dims)];
    (rng.Bernoulli(0.5) ? s.g : s.h) = specials[rng.Uniform(3)];
    c.non_finite = true;
  }
  if (rng.Bernoulli(0.04)) {
    const double specials[] = {kNaN, kInf, -kInf};
    GradPair& cell = c.hist.at(static_cast<uint32_t>(rng.Uniform(num_local)),
                               static_cast<uint32_t>(rng.Uniform(q)),
                               static_cast<uint32_t>(rng.Uniform(dims)));
    (rng.Bernoulli(0.5) ? cell.g : cell.h) = specials[rng.Uniform(3)];
    c.non_finite = true;
  }

  const double lambdas[] = {0.0, 1.0, rng.UniformDouble(0.01, 2.0)};
  c.lambda = lambdas[rng.Uniform(3)];
  c.gamma = rng.Bernoulli(0.3) ? rng.UniformDouble(0.0, 1.0) : 0.0;
  c.min_gain = rng.Bernoulli(0.3) ? rng.UniformDouble(0.0, 2.0) : 0.0;
  c.use_mask = rng.Bernoulli(0.3);
  c.mask.resize(num_global);
  for (size_t g = 0; g < num_global; ++g) c.mask[g] = rng.Bernoulli(0.7);
  return c;
}

TEST(SplitFinderTest, FlatKernelMatchesReferenceBitForBit) {
  Rng rng(20241016);
  const uint32_t kDims[] = {1, 3, 53};
  int valid = 0, exact_ties = 0, near_ties = 0, non_finite = 0,
      zero_feature_finite = 0, zero_bin_after_winner = 0, zero_bin0 = 0,
      masked = 0, regularized = 0;
  for (int i = 0; i < 3000; ++i) {
    SCOPED_TRACE(::testing::Message() << "case " << i);
    const SplitCase c = MakeRandomCase(rng, kDims[i % 3]);
    const std::vector<bool>* mask = c.use_mask ? &c.mask : nullptr;
    const SplitCandidate want =
        ReferenceSplitFinder(c.lambda, c.gamma, c.min_gain)
            .FindBest(c.hist, c.node, c.global_ids, c.splits, mask);
    const SplitCandidate got =
        SplitFinder(c.lambda, c.gamma, c.min_gain)
            .FindBest(c.hist, c.node, c.global_ids, c.splits, mask);
    ASSERT_EQ(got.valid, want.valid);
    ASSERT_EQ(got.feature, want.feature);
    ASSERT_EQ(got.split_bin, want.split_bin);
    ASSERT_EQ(got.default_left, want.default_left);
    ASSERT_EQ(std::bit_cast<uint32_t>(got.split_value),
              std::bit_cast<uint32_t>(want.split_value));
    ASSERT_TRUE(SameBits(got.gain, want.gain))
        << got.gain << " vs " << want.gain;
    ASSERT_TRUE(SameStatsBits(got.left_stats, want.left_stats));
    ASSERT_TRUE(SameStatsBits(got.right_stats, want.right_stats));

    // Coverage of the inputs the skip rules act on.
    non_finite += c.non_finite;
    masked += c.use_mask;
    regularized += (c.gamma > 0.0 || c.min_gain > 0.0);
    for (uint32_t f = 0; f < c.hist.num_features(); ++f) {
      bool all_zero = true;
      for (uint32_t b = 0; b < c.hist.num_bins(); ++b) {
        all_zero = all_zero && IsZeroBin(c.hist, f, b);
      }
      zero_feature_finite += (all_zero && !c.non_finite);
      zero_bin0 += (!all_zero && IsZeroBin(c.hist, f, 0));
    }
    if (!want.valid) continue;
    ++valid;
    // Ties across features: the per-feature best gains (each feature
    // masked in alone) of two features lie within kTieTol.
    std::vector<double> feature_gains;
    for (FeatureId g : c.global_ids) {
      std::vector<bool> only(c.mask.size(), false);
      only[g] = !c.use_mask || c.mask[g];
      const SplitCandidate alone =
          ReferenceSplitFinder(c.lambda, c.gamma, c.min_gain)
              .FindBest(c.hist, c.node, c.global_ids, c.splits, &only);
      if (alone.valid && std::isfinite(alone.gain)) {
        feature_gains.push_back(alone.gain);
      }
    }
    std::sort(feature_gains.begin(), feature_gains.end());
    for (size_t j = 1; j < feature_gains.size(); ++j) {
      const double gap = feature_gains[j] - feature_gains[j - 1];
      exact_ties += (gap == 0.0);
      near_ties += (gap > 0.0 && gap <= SplitCandidate::kTieTol);
    }
    const auto local = std::find(c.global_ids.begin(), c.global_ids.end(),
                                 want.feature) -
                       c.global_ids.begin();
    const uint32_t next = want.split_bin + 1u;
    zero_bin_after_winner +=
        (next + 1 < c.splits.NumBins(want.feature) &&
         IsZeroBin(c.hist, static_cast<uint32_t>(local), next));
  }
  EXPECT_GT(valid, 1000);
  EXPECT_GT(exact_ties, 50);
  EXPECT_GT(near_ties, 50);
  EXPECT_GT(non_finite, 100);
  EXPECT_GT(zero_feature_finite, 500);
  EXPECT_GT(zero_bin_after_winner, 100);
  EXPECT_GT(zero_bin0, 500);
  EXPECT_GT(masked, 300);
  EXPECT_GT(regularized, 300);
}

}  // namespace
}  // namespace vero
