#include "sketch/candidate_splits.h"

#include <algorithm>
#include <gtest/gtest.h>

#include "common/random.h"
#include "common/serialize.h"
#include "data/synthetic.h"

namespace vero {
namespace {

Dataset MakeSimple() {
  // Feature 0: values 1..10 across rows; feature 1: constant 5; feature 2:
  // present only on even rows.
  CsrMatrix m;
  m.set_num_cols(3);
  std::vector<float> labels;
  for (int i = 0; i < 10; ++i) {
    m.StartRow();
    m.PushEntry(0, static_cast<float>(i + 1));
    m.PushEntry(1, 5.0f);
    if (i % 2 == 0) m.PushEntry(2, static_cast<float>(i));
    labels.push_back(static_cast<float>(i % 2));
  }
  return Dataset(std::move(m), std::move(labels), Task::kBinary, 2);
}

TEST(CandidateSplitsTest, ProposesPerFeature) {
  const Dataset d = MakeSimple();
  const CandidateSplits splits = ProposeCandidateSplits(d, 5);
  EXPECT_EQ(splits.num_features(), 3u);
  EXPECT_EQ(splits.max_bins(), 5u);
  EXPECT_GE(splits.NumBins(0), 2u);
  EXPECT_LE(splits.NumBins(0), 5u);
  EXPECT_EQ(splits.NumBins(1), 1u);  // Constant feature: single split.
  EXPECT_GE(splits.NumBins(2), 2u);
}

TEST(CandidateSplitsTest, SplitsAreSortedAndCoverMax) {
  const Dataset d = MakeSimple();
  const CandidateSplits splits = ProposeCandidateSplits(d, 4);
  for (FeatureId f = 0; f < 3; ++f) {
    const auto& s = splits.FeatureSplits(f);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  }
  EXPECT_EQ(splits.FeatureSplits(0).back(), 10.0f);
  EXPECT_EQ(splits.FeatureSplits(1).back(), 5.0f);
}

TEST(CandidateSplitsTest, BinForValueIsLowerBound) {
  CandidateSplits splits(4, {{1.0f, 2.0f, 4.0f, 8.0f}});
  EXPECT_EQ(splits.BinForValue(0, 0.5f), 0);
  EXPECT_EQ(splits.BinForValue(0, 1.0f), 0);
  EXPECT_EQ(splits.BinForValue(0, 1.5f), 1);
  EXPECT_EQ(splits.BinForValue(0, 4.0f), 2);
  EXPECT_EQ(splits.BinForValue(0, 8.0f), 3);
  // Values above the max clamp to the top bin.
  EXPECT_EQ(splits.BinForValue(0, 100.0f), 3);
}

TEST(CandidateSplitsTest, BinningPropertyHolds) {
  // Property: value <= splits[bin], and bin is the smallest such index.
  SyntheticConfig config;
  config.num_instances = 2000;
  config.num_features = 20;
  config.density = 0.5;
  const Dataset d = GenerateSynthetic(config);
  const CandidateSplits splits = ProposeCandidateSplits(d, 16);
  const std::vector<BinId> bins = BinValues(d.matrix(), splits);
  const auto& features = d.matrix().features();
  const auto& values = d.matrix().values();
  for (size_t k = 0; k < features.size(); ++k) {
    const auto& s = splits.FeatureSplits(features[k]);
    ASSERT_LT(bins[k], s.size());
    EXPECT_LE(values[k], s[bins[k]]);
    if (bins[k] > 0) {
      EXPECT_GT(values[k], s[bins[k] - 1]);
    }
  }
}

TEST(CandidateSplitsTest, TotalBins) {
  CandidateSplits splits(4, {{1.0f, 2.0f}, {}, {3.0f}});
  EXPECT_EQ(splits.TotalBins(), 3u);
}

TEST(CandidateSplitsTest, SerializeRoundTrip) {
  const Dataset d = MakeSimple();
  const CandidateSplits splits = ProposeCandidateSplits(d, 8);
  ByteWriter w;
  splits.SerializeTo(&w);
  ByteReader r(w.data());
  CandidateSplits loaded;
  ASSERT_TRUE(CandidateSplits::Deserialize(&r, &loaded).ok());
  EXPECT_TRUE(loaded == splits);
}

TEST(CandidateSplitsTest, UnseenFeatureHasNoBins) {
  CsrMatrix m;
  m.set_num_cols(5);
  m.StartRow();
  m.PushEntry(1, 1.0f);
  Dataset d(std::move(m), {0.0f}, Task::kBinary, 2);
  const CandidateSplits splits = ProposeCandidateSplits(d, 8);
  EXPECT_EQ(splits.NumBins(0), 0u);
  EXPECT_EQ(splits.NumBins(4), 0u);
  EXPECT_GE(splits.NumBins(1), 1u);
}

TEST(CandidateSplitsTest, QuantileSplitsRoughlyBalanceMass) {
  // With uniform data and q bins, each bin should hold ~N/q values.
  Rng rng(3);
  CsrMatrix m;
  m.set_num_cols(1);
  const int n = 10000;
  std::vector<float> labels(n, 0.0f);
  for (int i = 0; i < n; ++i) {
    m.StartRow();
    m.PushEntry(0, static_cast<float>(rng.NextDouble()));
  }
  Dataset d(std::move(m), std::move(labels), Task::kBinary, 2);
  const uint32_t q = 10;
  const CandidateSplits splits = ProposeCandidateSplits(d, q);
  const std::vector<BinId> bins = BinValues(d.matrix(), splits);
  std::vector<int> counts(splits.NumBins(0), 0);
  for (BinId b : bins) ++counts[b];
  for (int c : counts) {
    EXPECT_NEAR(c, n / static_cast<int>(q), n / q * 0.5);
  }
}

}  // namespace
}  // namespace vero
