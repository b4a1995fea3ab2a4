#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "graph/collab_graph.h"
#include "graph/components.h"
#include "graph/triangles.h"
#include "graph/union_find.h"
#include "graph/wl_kernel.h"

namespace iuad::graph {
namespace {

// --------------------------- UnionFind --------------------------------------

TEST(UnionFindTest, SingletonsInitially) {
  UnionFind uf(4);
  EXPECT_EQ(uf.num_sets(), 4);
  EXPECT_FALSE(uf.Connected(0, 1));
  EXPECT_EQ(uf.SetSize(2), 1);
}

TEST(UnionFindTest, UnionConnects) {
  UnionFind uf(5);
  uf.Union(0, 1);
  uf.Union(1, 2);
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_FALSE(uf.Connected(0, 3));
  EXPECT_EQ(uf.num_sets(), 3);
  EXPECT_EQ(uf.SetSize(0), 3);
}

TEST(UnionFindTest, UnionIsIdempotent) {
  UnionFind uf(3);
  const int r1 = uf.Union(0, 1);
  const int r2 = uf.Union(0, 1);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(uf.num_sets(), 2);
}

TEST(UnionFindTest, ResetRestoresSingletons) {
  UnionFind uf(3);
  uf.Union(0, 2);
  uf.Reset(3);
  EXPECT_EQ(uf.num_sets(), 3);
  EXPECT_FALSE(uf.Connected(0, 2));
}

// --------------------------- CollabGraph ------------------------------------

CollabGraph TriangleGraph() {
  // a - b - c triangle plus pendant d.
  CollabGraph g;
  const VertexId a = g.AddVertex("a", {0, 1});
  const VertexId b = g.AddVertex("b", {0, 2});
  const VertexId c = g.AddVertex("c", {1, 2});
  const VertexId d = g.AddVertex("d", {3});
  EXPECT_TRUE(g.AddEdgePapers(a, b, {0}).ok());
  EXPECT_TRUE(g.AddEdgePapers(a, c, {1}).ok());
  EXPECT_TRUE(g.AddEdgePapers(b, c, {2}).ok());
  EXPECT_TRUE(g.AddEdgePapers(c, d, {3}).ok());
  return g;
}

TEST(CollabGraphTest, AddVertexDeduplicatesPapers) {
  CollabGraph g;
  const VertexId v = g.AddVertex("x", {3, 1, 3, 2, 1});
  EXPECT_EQ(g.vertex(v).papers, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(g.num_alive(), 1);
}

TEST(CollabGraphTest, EdgesAreSymmetricWithSharedPapers) {
  CollabGraph g = TriangleGraph();
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.NeighborsOf(0).at(1), (std::vector<int>{0}));
  EXPECT_EQ(g.NeighborsOf(1).at(0), (std::vector<int>{0}));
  EXPECT_EQ(g.DegreeOf(2), 3);
}

TEST(CollabGraphTest, SelfLoopRejected) {
  CollabGraph g;
  const VertexId v = g.AddVertex("x", {});
  EXPECT_FALSE(g.AddEdgePapers(v, v, {1}).ok());
}

TEST(CollabGraphTest, EdgePapersAccumulate) {
  CollabGraph g;
  const VertexId a = g.AddVertex("a", {});
  const VertexId b = g.AddVertex("b", {});
  ASSERT_TRUE(g.AddEdgePapers(a, b, {2, 1}).ok());
  ASSERT_TRUE(g.AddEdgePapers(a, b, {2, 3}).ok());
  EXPECT_EQ(g.NeighborsOf(a).at(b), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(CollabGraphTest, NameIndexTracksVertices) {
  CollabGraph g;
  g.AddVertex("Wei Wang", {1});
  g.AddVertex("Wei Wang", {2});
  g.AddVertex("Lei Zou", {3});
  EXPECT_EQ(g.VerticesWithName("Wei Wang").size(), 2u);
  EXPECT_EQ(g.VerticesWithName("Lei Zou").size(), 1u);
  EXPECT_TRUE(g.VerticesWithName("Nobody").empty());
  EXPECT_EQ(g.Names(), (std::vector<std::string>{"Lei Zou", "Wei Wang"}));
}

TEST(CollabGraphTest, MergeUnionsPapersAndRewires) {
  CollabGraph g = TriangleGraph();
  // Merge c (2) into a (0): a should inherit edge to d and union papers.
  ASSERT_TRUE(g.MergeVertices(0, 2).ok());
  EXPECT_FALSE(g.alive(2));
  EXPECT_EQ(g.num_alive(), 3);
  EXPECT_EQ(g.vertex(0).papers, (std::vector<int>{0, 1, 2}));
  // Edge a-b must now carry both {0} (a-b) and {2} (c-b).
  EXPECT_EQ(g.NeighborsOf(0).at(1), (std::vector<int>{0, 2}));
  // a inherits c's edge to d.
  EXPECT_EQ(g.NeighborsOf(0).at(3), (std::vector<int>{3}));
  // The a-c edge disappeared (would be a self-loop).
  EXPECT_EQ(g.DegreeOf(0), 2);
  // Edge count: a-b, a-d.
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(CollabGraphTest, MergeUpdatesNameIndex) {
  CollabGraph g;
  const VertexId v1 = g.AddVertex("x", {1});
  const VertexId v2 = g.AddVertex("x", {2});
  ASSERT_TRUE(g.MergeVertices(v1, v2).ok());
  EXPECT_EQ(g.VerticesWithName("x"), (std::vector<VertexId>{v1}));
}

TEST(CollabGraphTest, MergeRejectsDegenerateCases) {
  CollabGraph g;
  const VertexId v1 = g.AddVertex("x", {});
  const VertexId v2 = g.AddVertex("y", {});
  EXPECT_FALSE(g.MergeVertices(v1, v1).ok());
  ASSERT_TRUE(g.MergeVertices(v1, v2).ok());
  EXPECT_FALSE(g.MergeVertices(v1, v2).ok());  // v2 already dead
}

TEST(CollabGraphTest, SetEdgePapersReplacesOrRemoves) {
  CollabGraph g;
  const VertexId a = g.AddVertex("a", {});
  const VertexId b = g.AddVertex("b", {});
  ASSERT_TRUE(g.AddEdgePapers(a, b, {1, 2}).ok());
  ASSERT_TRUE(g.SetEdgePapers(a, b, {5}).ok());
  EXPECT_EQ(g.NeighborsOf(b).at(a), (std::vector<int>{5}));
  ASSERT_TRUE(g.SetEdgePapers(a, b, {}).ok());
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.DegreeOf(a), 0);
}

TEST(CollabGraphTest, AliveVerticesSkipsDead) {
  CollabGraph g;
  g.AddVertex("a", {});
  g.AddVertex("b", {});
  g.AddVertex("c", {});
  ASSERT_TRUE(g.MergeVertices(0, 1).ok());
  EXPECT_EQ(g.AliveVertices(), (std::vector<VertexId>{0, 2}));
}

// --------------------------- Triangles --------------------------------------

TEST(TrianglesTest, FindsTheOneTriangle) {
  CollabGraph g = TriangleGraph();
  auto tris = EnumerateTriangles(g);
  ASSERT_EQ(tris.size(), 1u);
  EXPECT_EQ(tris[0], (Triangle{0, 1, 2}));
}

TEST(TrianglesTest, TrianglesOfVertex) {
  CollabGraph g = TriangleGraph();
  auto t0 = TrianglesOf(g, 0);
  ASSERT_EQ(t0.size(), 1u);
  EXPECT_EQ(t0[0], (std::array<VertexId, 2>{1, 2}));
  EXPECT_TRUE(TrianglesOf(g, 3).empty());
}

TEST(TrianglesTest, CountsPerVertex) {
  CollabGraph g = TriangleGraph();
  auto counts = TriangleCounts(g);
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 0);
}

TEST(TrianglesTest, K4HasFourTriangles) {
  CollabGraph g;
  for (int i = 0; i < 4; ++i) g.AddVertex("v" + std::to_string(i), {});
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      ASSERT_TRUE(g.AddEdgePapers(i, j, {i * 4 + j}).ok());
    }
  }
  EXPECT_EQ(EnumerateTriangles(g).size(), 4u);
  EXPECT_EQ(TrianglesOf(g, 0).size(), 3u);
}

TEST(TrianglesTest, EmptyAndEdgeOnlyGraphs) {
  CollabGraph g;
  EXPECT_TRUE(EnumerateTriangles(g).empty());
  g.AddVertex("a", {});
  g.AddVertex("b", {});
  ASSERT_TRUE(g.AddEdgePapers(0, 1, {0}).ok());
  EXPECT_TRUE(EnumerateTriangles(g).empty());
}

// --------------------------- Components -------------------------------------

TEST(ComponentsTest, CountsComponents) {
  CollabGraph g = TriangleGraph();
  g.AddVertex("iso", {9});
  int n = 0;
  auto comp = ConnectedComponents(g, &n);
  EXPECT_EQ(n, 2);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[0], comp[3]);
  EXPECT_NE(comp[0], comp[4]);
}

TEST(ComponentsTest, DeadVerticesExcluded) {
  CollabGraph g;
  g.AddVertex("a", {});
  g.AddVertex("a", {});
  ASSERT_TRUE(g.MergeVertices(0, 1).ok());
  int n = 0;
  auto comp = ConnectedComponents(g, &n);
  EXPECT_EQ(n, 1);
  EXPECT_EQ(comp[1], -1);
}

TEST(ComponentsTest, DegreeSequence) {
  CollabGraph g = TriangleGraph();
  auto deg = DegreeSequence(g);
  std::sort(deg.begin(), deg.end());
  EXPECT_EQ(deg, (std::vector<int64_t>{1, 2, 2, 3}));
}

// --------------------------- WL kernel --------------------------------------

TEST(WlKernelTest, SelfNormalizedKernelIsOneForConnectedVertices) {
  CollabGraph g = TriangleGraph();
  WlVertexKernel wl(g, 2);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(wl.NormalizedKernel(v, v), 1.0, 1e-12);
  }
  // Isolated vertices carry no structural evidence at all — by design the
  // (center-excluded) kernel is 0 even against themselves.
  const VertexId iso = g.AddVertex("loner", {});
  WlVertexKernel wl2(g, 2);
  EXPECT_DOUBLE_EQ(wl2.NormalizedKernel(iso, iso), 0.0);
}

TEST(WlKernelTest, SymmetricAndBounded) {
  CollabGraph g = TriangleGraph();
  WlVertexKernel wl(g, 2);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const double kuv = wl.NormalizedKernel(u, v);
      EXPECT_NEAR(kuv, wl.NormalizedKernel(v, u), 1e-12);
      EXPECT_GE(kuv, 0.0);
      EXPECT_LE(kuv, 1.0 + 1e-12);
    }
  }
}

TEST(WlKernelTest, StructurallyIdenticalTwinsShareLabels) {
  // Two disjoint copies of the same star with identical names must get the
  // same WL labels at every iteration.
  CollabGraph g;
  const VertexId hub1 = g.AddVertex("Hub", {});
  const VertexId leaf1a = g.AddVertex("LeafA", {});
  const VertexId leaf1b = g.AddVertex("LeafB", {});
  ASSERT_TRUE(g.AddEdgePapers(hub1, leaf1a, {0}).ok());
  ASSERT_TRUE(g.AddEdgePapers(hub1, leaf1b, {1}).ok());
  const VertexId hub2 = g.AddVertex("Hub", {});
  const VertexId leaf2a = g.AddVertex("LeafA", {});
  const VertexId leaf2b = g.AddVertex("LeafB", {});
  ASSERT_TRUE(g.AddEdgePapers(hub2, leaf2a, {2}).ok());
  ASSERT_TRUE(g.AddEdgePapers(hub2, leaf2b, {3}).ok());

  WlVertexKernel wl(g, 3);
  for (int iter = 0; iter <= 3; ++iter) {
    EXPECT_EQ(wl.LabelAt(hub1, iter), wl.LabelAt(hub2, iter));
    EXPECT_EQ(wl.LabelAt(leaf1a, iter), wl.LabelAt(leaf2a, iter));
  }
  EXPECT_NEAR(wl.NormalizedKernel(hub1, hub2), 1.0, 1e-12);
}

TEST(WlKernelTest, SharedCoauthorNamesBeatDisjointOnes) {
  // v1 and v2 share both co-author names; v1 and v3 share none.
  CollabGraph g;
  const VertexId v1 = g.AddVertex("X", {});
  const VertexId c1 = g.AddVertex("Alice", {});
  const VertexId c2 = g.AddVertex("Bob", {});
  ASSERT_TRUE(g.AddEdgePapers(v1, c1, {0}).ok());
  ASSERT_TRUE(g.AddEdgePapers(v1, c2, {1}).ok());
  const VertexId v2 = g.AddVertex("X", {});
  const VertexId c3 = g.AddVertex("Alice", {});
  const VertexId c4 = g.AddVertex("Bob", {});
  ASSERT_TRUE(g.AddEdgePapers(v2, c3, {2}).ok());
  ASSERT_TRUE(g.AddEdgePapers(v2, c4, {3}).ok());
  const VertexId v3 = g.AddVertex("X", {});
  const VertexId c5 = g.AddVertex("Carol", {});
  const VertexId c6 = g.AddVertex("Dan", {});
  ASSERT_TRUE(g.AddEdgePapers(v3, c5, {4}).ok());
  ASSERT_TRUE(g.AddEdgePapers(v3, c6, {5}).ok());

  WlVertexKernel wl(g, 2);
  EXPECT_GT(wl.NormalizedKernel(v1, v2), wl.NormalizedKernel(v1, v3));
  EXPECT_NEAR(wl.NormalizedKernel(v1, v2), 1.0, 1e-12);
}

TEST(WlKernelTest, DepthZeroCarriesNoSignal) {
  // h = 0 leaves every (center-excluded) ball empty; γ1 needs h >= 1.
  CollabGraph g = TriangleGraph();
  WlVertexKernel wl(g, 0);
  EXPECT_DOUBLE_EQ(wl.NormalizedKernel(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(wl.NormalizedKernel(0, 0), 0.0);
}

TEST(WlKernelTest, IsolatedVerticesHaveZeroKernel) {
  // The semantic fix motivating center exclusion: two isolated same-name
  // vertices share NO collaboration evidence, so their kernel must be 0
  // (a literal Eq. 3 reading would give a spurious 1.0).
  CollabGraph g;
  const VertexId iso1 = g.AddVertex("X", {});
  const VertexId iso2 = g.AddVertex("X", {});
  const VertexId named = g.AddVertex("X", {});
  const VertexId other = g.AddVertex("Y", {});
  ASSERT_TRUE(g.AddEdgePapers(named, other, {0}).ok());
  WlVertexKernel wl(g, 2);
  EXPECT_DOUBLE_EQ(wl.NormalizedKernel(iso1, iso2), 0.0);
  EXPECT_DOUBLE_EQ(wl.NormalizedKernel(iso1, named), 0.0);
}

TEST(WlKernelTest, NameSetKernelCountsBallMatches) {
  CollabGraph g;
  const VertexId v = g.AddVertex("X", {});
  const VertexId a = g.AddVertex("Alice", {});
  const VertexId b = g.AddVertex("Bob", {});
  ASSERT_TRUE(g.AddEdgePapers(v, a, {0}).ok());
  ASSERT_TRUE(g.AddEdgePapers(v, b, {1}).ok());
  WlVertexKernel wl(g, 2);
  // Both names in the ball: strong signal.
  const double both = wl.NormalizedKernelVsNameSet(v, {"Alice", "Bob"});
  const double one = wl.NormalizedKernelVsNameSet(v, {"Alice", "Nobody"});
  const double none = wl.NormalizedKernelVsNameSet(v, {"Zed", "Nobody"});
  EXPECT_GT(both, one);
  EXPECT_GT(one, none);
  EXPECT_DOUBLE_EQ(none, 0.0);
  EXPECT_LE(both, 1.0);
  // Degenerate inputs.
  EXPECT_DOUBLE_EQ(wl.NormalizedKernelVsNameSet(v, {}), 0.0);
  const VertexId iso = g.AddVertex("Q", {});
  WlVertexKernel wl2(g, 2);
  EXPECT_DOUBLE_EQ(wl2.NormalizedKernelVsNameSet(iso, {"Alice"}), 0.0);
}

TEST(WlKernelTest, PostBuildVerticesHandledConservatively) {
  CollabGraph g;
  const VertexId a = g.AddVertex("A", {});
  const VertexId b = g.AddVertex("B", {});
  ASSERT_TRUE(g.AddEdgePapers(a, b, {0}).ok());
  WlVertexKernel wl(g, 2);
  const VertexId late = g.AddVertex("A", {});  // added after Build
  EXPECT_DOUBLE_EQ(wl.NormalizedKernelVsNameSet(late, {"B"}), 0.0);
  EXPECT_DOUBLE_EQ(wl.NormalizedKernel(a, late), 0.0);
}

TEST(WlKernelTest, LazyFeaturesStayFrozenAtBuildAcrossMutations) {
  // γ1 must be a function of the build-time graph alone, however late a
  // vertex's ball is first enumerated: the incremental serving paths build
  // the kernel at a refresh and then keep committing papers.
  std::mt19937 rng(17);
  auto pick = [&rng](int n) {
    return static_cast<VertexId>(rng() % static_cast<unsigned>(n));
  };
  auto name_of = [](int k) { return "N" + std::to_string(k % 40); };
  CollabGraph g;
  constexpr int kBuilt = 400;
  for (int k = 0; k < kBuilt; ++k) g.AddVertex(name_of(k), {});
  int paper = 0;
  for (int e = 0; e < 1000; ++e) {
    const VertexId u = pick(kBuilt);
    const VertexId v = pick(kBuilt);
    if (u != v) {
      ASSERT_TRUE(g.AddEdgePapers(u, v, {paper++}).ok());
    }
  }
  g.Compact();  // as a refresh does: overflow empty at build
  const int edges_at_build = g.num_edges();

  const int kDepth = 2;
  const WlVertexKernel eager(g, kDepth);  // queried before any mutation
  const WlVertexKernel lazy(g, kDepth);   // queried only after them
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (VertexId v = 0; v + 40 < kBuilt; v += 7) pairs.emplace_back(v, v + 40);
  const std::vector<std::string> names{"N1", "N2", "N3", "Nobody"};
  std::vector<double> pair_ref, name_ref;
  for (const auto& [u, v] : pairs) {
    pair_ref.push_back(eager.NormalizedKernel(u, v));
    name_ref.push_back(eager.NormalizedKernelVsNameSet(u, names));
  }
  ASSERT_GT(*std::max_element(pair_ref.begin(), pair_ref.end()), 0.0);
  ASSERT_GT(*std::max_element(name_ref.begin(), name_ref.end()), 0.0);

  // Mutations: new vertices; "bridges" from pre-build vertices to new ones
  // that lead on to distant pre-build vertices (a live BFS would walk
  // through them); and enough new edges to force MaybeCompact, which
  // folds the overflow once it holds >= 1024 half-edges and >= 1/4 of the
  // base.
  const WlVertexKernel copied(lazy);  // copies share the snapshot
  constexpr int kLate = 100;
  for (int k = 0; k < kLate; ++k) g.AddVertex(name_of(k), {});
  for (const auto& [u, v] : pairs) {
    const VertexId bridge = kBuilt + pick(kLate);
    ASSERT_TRUE(g.AddEdgePapers(u, bridge, {paper++}).ok());
    ASSERT_TRUE(g.AddEdgePapers(bridge, (v + 123) % kBuilt, {paper++}).ok());
  }
  while (g.num_edges() - edges_at_build < 800) {
    const VertexId u = pick(kBuilt + kLate);
    const VertexId v = pick(kBuilt);
    if (u != v) {
      ASSERT_TRUE(g.AddEdgePapers(u, v, {paper++}).ok());
    }
  }
  const int new_half_edges = 2 * (g.num_edges() - edges_at_build);
  ASSERT_GE(new_half_edges, 1024);
  ASSERT_GE(new_half_edges * 4, 2 * edges_at_build);

  // The mutations do change the live balls: a rebuild sees them.
  const WlVertexKernel rebuilt(g, kDepth);
  bool moved = false;
  for (size_t k = 0; k < pairs.size(); ++k) {
    moved |= rebuilt.NormalizedKernel(pairs[k].first, pairs[k].second) !=
             pair_ref[k];
  }
  EXPECT_TRUE(moved);

  // The kernels built before them do not: bit-equal to the eager values.
  for (size_t k = 0; k < pairs.size(); ++k) {
    const auto [u, v] = pairs[k];
    EXPECT_EQ(lazy.NormalizedKernel(u, v), pair_ref[k]) << u << "," << v;
    EXPECT_EQ(lazy.NormalizedKernelVsNameSet(u, names), name_ref[k]) << u;
    EXPECT_EQ(copied.NormalizedKernel(u, v), pair_ref[k]) << u << "," << v;
    EXPECT_EQ(copied.NormalizedKernelVsNameSet(u, names), name_ref[k]) << u;
    EXPECT_EQ(lazy.NormalizedKernelVsLabels(u, lazy.NameLabels(names),
                                            names.size()),
              name_ref[k])
        << u;
  }
  // Post-build vertices stay featureless, bridges or not.
  EXPECT_EQ(lazy.NormalizedKernel(kBuilt, kBuilt), 0.0);
  EXPECT_EQ(lazy.NormalizedKernelVsNameSet(kBuilt, names), 0.0);
}

}  // namespace
}  // namespace iuad::graph
