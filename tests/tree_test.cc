#include "core/tree.h"

#include <gtest/gtest.h>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.h"

namespace vero {
namespace {

TEST(NodeIdTest, HeapNavigation) {
  EXPECT_EQ(LeftChild(0), 1);
  EXPECT_EQ(RightChild(0), 2);
  EXPECT_EQ(Parent(1), 0);
  EXPECT_EQ(Parent(2), 0);
  EXPECT_EQ(Sibling(1), 2);
  EXPECT_EQ(Sibling(2), 1);
  EXPECT_TRUE(IsLeftChild(1));
  EXPECT_FALSE(IsLeftChild(2));
  EXPECT_EQ(Parent(LeftChild(5)), 5);
}

Tree MakeStump() {
  // Root splits on feature 3 at value 1.5 (bin 2); missing goes right.
  Tree tree(3, 1);
  tree.SetSplit(0, 3, 1.5f, 2, /*default_left=*/false, 1.0);
  tree.SetLeaf(1, {-1.0f});
  tree.SetLeaf(2, {2.0f});
  return tree;
}

// The weight of the leaf one row reaches in a 1-dim tree.
float LeafWeight(const FlatTree& tree, const std::vector<FeatureId>& f,
                 const std::vector<float>& v) {
  return *tree.leaf(tree.LeafOf(f, v));
}

TEST(TreeTest, FreshTreeIsRootLeaf) {
  Tree tree(4, 2);
  EXPECT_TRUE(tree.Exists(0));
  EXPECT_FALSE(tree.Exists(1));
  EXPECT_EQ(tree.NumLeaves(), 1u);
  EXPECT_EQ(tree.max_nodes(), 15u);
}

TEST(TreeTest, SetSplitCreatesChildren) {
  Tree tree = MakeStump();
  EXPECT_TRUE(tree.Exists(1));
  EXPECT_TRUE(tree.Exists(2));
  EXPECT_EQ(tree.NumLeaves(), 2u);
  EXPECT_EQ(tree.node(0).feature, 3u);
  EXPECT_EQ(FlatTree(tree).NumNodes(), 3u);
}

TEST(TreeDeathTest, SplitBeyondCapacityDies) {
  Tree tree(2, 1);  // Only root + 2 children fit.
  tree.SetSplit(0, 0, 1.0f, 0, false, 0.0);
  EXPECT_DEATH(tree.SetSplit(1, 0, 1.0f, 0, false, 0.0), "depth");
}

// ---- Compaction ------------------------------------------------------------

TEST(FlatTreeTest, CompactsInBreadthFirstOrder) {
  // Lopsided: the root's right child splits again, its left child is a
  // leaf. BFS order is ascending heap id: internal [0, 2], leaves [1, 5, 6].
  Tree tree(3, 1);
  tree.SetSplit(0, 7, 0.5f, 1, true, 4.0);
  tree.SetSplit(2, 9, -1.0f, 3, false, 2.0);
  tree.SetLeaf(1, {1.0f});
  tree.SetLeaf(5, {5.0f});
  tree.SetLeaf(6, {6.0f});
  const FlatTree flat(tree);
  EXPECT_EQ(flat.num_internal(), 2u);
  EXPECT_EQ(flat.NumLeaves(), 3u);
  EXPECT_EQ(flat.root(), 0);
  EXPECT_EQ(flat.feature()[0], 7u);
  EXPECT_EQ(flat.feature()[1], 9u);
  EXPECT_EQ(flat.left()[0], ~0);
  EXPECT_EQ(flat.right()[0], 1);
  EXPECT_EQ(flat.left()[1], ~1);
  EXPECT_EQ(flat.right()[1], ~2);
  EXPECT_EQ(std::vector<float>(flat.leaf_values().begin(),
                               flat.leaf_values().end()),
            (std::vector<float>{1.0f, 5.0f, 6.0f}));
  std::vector<uint32_t> ids;
  flat.ForEachNode([&](uint32_t id, int32_t) { ids.push_back(id); });
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1, 2, 5, 6}));
}

TEST(FlatTreeTest, SingleLeafTreeHasNegativeRoot) {
  Tree tree(2, 3);
  tree.SetLeaf(0, {1.0f, 2.0f, 3.0f});
  const FlatTree flat(tree);
  EXPECT_EQ(flat.root(), ~0);
  EXPECT_EQ(flat.num_internal(), 0u);
  EXPECT_EQ(flat.leaf(flat.LeafOf({}, {}))[2], 3.0f);
}

TEST(FlatTreeTest, DefaultIsOneZeroLeaf) {
  const FlatTree flat;
  EXPECT_EQ(flat.NumNodes(), 1u);
  EXPECT_EQ(*flat.leaf(flat.LeafOf({}, {})), 0.0f);
}

// ---- The compact walk -----------------------------------------------------

TEST(FlatTreeTest, WalkByValue) {
  const FlatTree tree(MakeStump());
  EXPECT_EQ(LeafWeight(tree, {1, 3}, {9.0f, 1.0f}), -1.0f);
  EXPECT_EQ(LeafWeight(tree, {1, 3}, {9.0f, 3.0f}), 2.0f);
}

TEST(FlatTreeTest, WalkBoundaryGoesLeft) {
  const FlatTree tree(MakeStump());
  EXPECT_EQ(LeafWeight(tree, {3}, {1.5f}), -1.0f);  // v <= split goes left.
}

TEST(FlatTreeTest, WalkMissingUsesDefault) {
  const FlatTree tree(MakeStump());
  EXPECT_EQ(LeafWeight(tree, {1}, {0.5f}), 2.0f);  // Default right.
}

// ---- Bytes -----------------------------------------------------------------

// One serialized node record, in the field order of docs/wire_formats.md.
struct NodeRecord {
  uint32_t id;
  uint8_t state;  // 1 internal, 2 leaf.
  FeatureId feature = kInvalidFeature;
  float threshold = 0.0f;
  BinId bin = 0;
  bool default_left = false;
  double gain = 0.0;
  std::vector<float> weights = {};
};

NodeRecord Internal(uint32_t id, FeatureId feature = 0) {
  return {id, 1, feature, 0.5f, 1, true, 1.0, {}};
}

NodeRecord Leaf(uint32_t id, std::vector<float> weights = {0.25f}) {
  return {id, 2, kInvalidFeature, 0.0f, 0, false, 0.0, std::move(weights)};
}

std::vector<uint8_t> TreeBytes(uint32_t max_layers, uint32_t dims,
                               const std::vector<NodeRecord>& nodes) {
  ByteWriter w;
  w.WriteU32(max_layers);
  w.WriteU32(dims);
  w.WriteU32(static_cast<uint32_t>(nodes.size()));
  for (const NodeRecord& n : nodes) {
    w.WriteU32(n.id);
    w.WriteU8(n.state);
    w.WriteU32(n.feature);
    w.WriteF32(n.threshold);
    w.WriteU16(n.bin);
    w.WriteBool(n.default_left);
    w.WriteF64(n.gain);
    w.WriteVector(n.weights);
  }
  return w.TakeData();
}

Status Decode(const std::vector<uint8_t>& bytes, FlatTree* out) {
  ByteReader reader(bytes);
  return FlatTree::Deserialize(&reader, out);
}

TEST(FlatTreeTest, BytesAreTheHeapRecordsInAscendingId) {
  // The persisted format predates the compact layout: one record per node
  // in ascending heap id, leaves carrying a fresh node's split fields.
  const std::vector<uint8_t> want = TreeBytes(
      3, 1,
      {{0, 1, 3, 1.5f, 2, false, 1.0, {}}, Leaf(1, {-1.0f}), Leaf(2, {2.0f})});
  ByteWriter w;
  FlatTree(MakeStump()).SerializeTo(&w);
  EXPECT_EQ(w.data(), want);
}

TEST(FlatTreeTest, SerializeRoundTrip) {
  const FlatTree tree(MakeStump());
  ByteWriter w;
  tree.SerializeTo(&w);
  FlatTree loaded;
  ASSERT_TRUE(Decode(w.data(), &loaded).ok());
  EXPECT_TRUE(tree == loaded);
  EXPECT_EQ(loaded.gain()[0], 1.0);
  EXPECT_EQ(LeafWeight(loaded, {3}, {3.0f}), 2.0f);
}

TEST(FlatTreeTest, EqualityIgnoresGainOnly) {
  Tree a = MakeStump();
  Tree b = MakeStump();
  b.node(0).gain = 9.0;
  EXPECT_TRUE(FlatTree(a) == FlatTree(b));
  b.node(0).split_bin = 3;
  EXPECT_FALSE(FlatTree(a) == FlatTree(b));
}

// ---- Bounded decode: every malformed stream is Corruption ------------------

void ExpectCorruption(const std::vector<uint8_t>& bytes,
                      const std::string& label) {
  FlatTree out;
  const Status s = Decode(bytes, &out);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << label << ": "
                                               << s.ToString();
}

TEST(FlatTreeDecodeTest, RejectsBadHeader) {
  ExpectCorruption(TreeBytes(99, 1, {Leaf(0)}), "max_layers 99");
  ExpectCorruption(TreeBytes(0, 1, {Leaf(0)}), "max_layers 0");
  ExpectCorruption(TreeBytes(3, 0, {Leaf(0, {})}), "zero dims");
}

// A 12-byte stream claiming 24 layers used to size a 2^24-node heap before
// reading any node; the count is now checked against the bytes that remain.
TEST(FlatTreeDecodeTest, TwelveByteDeepHeaderIsRejected) {
  for (const uint32_t used : {0u, 1u, 0xFFFFFFFFu}) {
    ByteWriter w;
    w.WriteU32(24);
    w.WriteU32(1);
    w.WriteU32(used);
    ASSERT_EQ(w.size(), 12u);
    ExpectCorruption(w.data(), "used " + std::to_string(used));
  }
  // The same header with an honest root leaf decodes to one node.
  FlatTree out;
  ASSERT_TRUE(Decode(TreeBytes(24, 1, {Leaf(0)}), &out).ok());
  EXPECT_EQ(out.NumNodes(), 1u);
}

TEST(FlatTreeDecodeTest, RejectsCountBeyondPayload) {
  std::vector<uint8_t> bytes = TreeBytes(3, 1, {Leaf(0)});
  bytes[8] = 2;  // used = 2, but only one record follows.
  ExpectCorruption(bytes, "used 2 of 1");
}

TEST(FlatTreeDecodeTest, RejectsIdsNotStrictlyAscending) {
  ExpectCorruption(TreeBytes(3, 1, {Internal(0), Leaf(2), Leaf(1)}),
                   "descending");
  ExpectCorruption(TreeBytes(3, 1, {Internal(0), Leaf(1), Leaf(1), Leaf(2)}),
                   "duplicate");
}

TEST(FlatTreeDecodeTest, RejectsNodeWithAbsentOrLeafParent) {
  ExpectCorruption(TreeBytes(3, 1, {Leaf(0), Leaf(1)}), "leaf parent");
  ExpectCorruption(
      TreeBytes(3, 1, {Internal(0), Leaf(1), Leaf(2), Leaf(5)}),
      "leaf parent, deeper");
  ExpectCorruption(TreeBytes(3, 1, {Leaf(0), Leaf(3)}), "absent parent");
  ExpectCorruption(TreeBytes(2, 1, {Leaf(0), Leaf(7)}), "id beyond layers");
}

TEST(FlatTreeDecodeTest, RejectsInternalNodeOnLastLayer) {
  // The only slot of a 1-layer tree marked internal.
  ExpectCorruption(TreeBytes(1, 1, {Internal(0)}), "1-layer root");
  ExpectCorruption(
      TreeBytes(2, 1, {Internal(0), Internal(1), Leaf(2)}), "layer 2 of 2");
}

TEST(FlatTreeDecodeTest, RejectsInternalNodeWithMissingChild) {
  ExpectCorruption(TreeBytes(2, 1, {Internal(0)}), "no children");
  ExpectCorruption(TreeBytes(2, 1, {Internal(0), Leaf(1)}), "no right");
  ExpectCorruption(TreeBytes(2, 1, {Internal(0), Leaf(2)}), "no left");
}

TEST(FlatTreeDecodeTest, RejectsMissingRoot) {
  ExpectCorruption(TreeBytes(3, 1, {}), "no nodes");
  ExpectCorruption(TreeBytes(3, 1, {Leaf(1)}), "starts at node 1");
}

TEST(FlatTreeDecodeTest, RejectsInvalidSplitFeature) {
  ExpectCorruption(
      TreeBytes(2, 1, {Internal(0, kInvalidFeature), Leaf(1), Leaf(2)}),
      "invalid feature");
}

TEST(FlatTreeDecodeTest, RejectsLeafOfWrongWidth) {
  ExpectCorruption(TreeBytes(2, 1, {Leaf(0, {1.0f, 2.0f})}), "2 of 1");
  ExpectCorruption(TreeBytes(2, 2, {Leaf(0, {1.0f})}), "1 of 2");
}

TEST(FlatTreeDecodeTest, RejectsBadNodeState) {
  NodeRecord bad = Leaf(0);
  bad.state = 3;
  ExpectCorruption(TreeBytes(2, 1, {bad}), "state 3");
}

TEST(FlatTreeDecodeTest, EveryTruncationIsAnError) {
  const std::vector<uint8_t> bytes =
      TreeBytes(3, 2, {Internal(0, 4), Internal(1, 5), Leaf(2, {1, 2}),
                       Leaf(3, {3, 4}), Leaf(4, {5, 6})});
  for (size_t len = 0; len < bytes.size(); ++len) {
    ByteReader reader(bytes.data(), len);
    FlatTree out;
    EXPECT_FALSE(FlatTree::Deserialize(&reader, &out).ok()) << "len " << len;
  }
}

// ---- GbdtModel -------------------------------------------------------------

TEST(GbdtModelTest, PredictSumsTrees) {
  GbdtModel model(Task::kRegression, 1, 0.5);
  {
    Tree t(2, 1);
    t.SetLeaf(0, {2.0f});
    model.AddTree(t);
  }
  {
    Tree t(2, 1);
    t.SetLeaf(0, {3.0f});
    model.AddTree(t);
  }
  double margin = 0.0;
  model.PredictMargins({}, {}, &margin);
  EXPECT_DOUBLE_EQ(margin, 0.5 * (2.0 + 3.0));
}

TEST(GbdtModelTest, PredictProbaBinary) {
  GbdtModel model(Task::kBinary, 2, 1.0);
  Tree t(2, 1);
  t.SetLeaf(0, {0.0f});
  model.AddTree(t);
  double proba = 0.0;
  model.PredictProba({}, {}, &proba);
  EXPECT_DOUBLE_EQ(proba, 0.5);
}

TEST(GbdtModelTest, PredictProbaMultiClassNormalizes) {
  GbdtModel model(Task::kMultiClass, 3, 1.0);
  Tree t(2, 3);
  t.SetLeaf(0, {1.0f, 2.0f, 0.5f});
  model.AddTree(t);
  double proba[3];
  model.PredictProba({}, {}, proba);
  EXPECT_NEAR(proba[0] + proba[1] + proba[2], 1.0, 1e-12);
  EXPECT_GT(proba[1], proba[0]);
}

TEST(GbdtModelTest, SerializeRoundTrip) {
  GbdtModel model(Task::kMultiClass, 3, 0.1);
  Tree t(3, 3);
  t.SetSplit(0, 1, 0.5f, 1, true, 2.0);
  t.SetLeaf(1, {1.0f, 0.0f, -1.0f});
  t.SetLeaf(2, {0.0f, 1.0f, 0.0f});
  model.AddTree(t);
  ByteWriter w;
  model.SerializeTo(&w);
  ByteReader r(w.data());
  GbdtModel loaded;
  ASSERT_TRUE(GbdtModel::Deserialize(&r, &loaded).ok());
  EXPECT_EQ(loaded.num_trees(), 1u);
  EXPECT_EQ(loaded.task(), Task::kMultiClass);
  EXPECT_EQ(loaded.num_classes(), 3u);
  EXPECT_DOUBLE_EQ(loaded.learning_rate(), 0.1);
  EXPECT_TRUE(loaded.tree(0) == model.tree(0));
}

// A well-formed tree whose leaf width disagrees with the model's margins
// (a 2-dim tree in a binary model) is rejected when the model is decoded.
TEST(GbdtModelTest, DeserializeRejectsTreeOfWrongWidth) {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(Task::kBinary));
  w.WriteU32(2);
  w.WriteF64(0.1);
  w.WriteU32(1);
  const std::vector<uint8_t> tree = TreeBytes(2, 2, {Leaf(0, {1.0f, 2.0f})});
  w.WriteRaw(tree.data(), tree.size());
  ByteReader r(w.data());
  GbdtModel loaded;
  EXPECT_EQ(GbdtModel::Deserialize(&r, &loaded).code(),
            StatusCode::kCorruption);
}

TEST(GbdtModelTest, DeserializeRejectsZeroMarginDims) {
  ByteWriter w;
  w.WriteU8(static_cast<uint8_t>(Task::kMultiClass));
  w.WriteU32(0);  // Zero classes.
  w.WriteF64(0.1);
  w.WriteU32(0);
  ByteReader r(w.data());
  GbdtModel loaded;
  EXPECT_EQ(GbdtModel::Deserialize(&r, &loaded).code(),
            StatusCode::kCorruption);
}

TEST(GbdtModelDeathTest, AddTreeOfWrongWidthDies) {
  GbdtModel model(Task::kBinary, 2, 0.1);
  EXPECT_DEATH(model.AddTree(Tree(2, 2)), "");
}

}  // namespace
}  // namespace vero
