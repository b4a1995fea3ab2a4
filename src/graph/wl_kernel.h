#ifndef IUAD_GRAPH_WL_KERNEL_H_
#define IUAD_GRAPH_WL_KERNEL_H_

/// \file wl_kernel.h
/// Weisfeiler-Lehman subtree kernel between *vertices* of one collaboration
/// graph (γ1 of Sec. V-B1, Eq. 3-4). A vertex v is represented by its h-hop
/// neighborhood subgraph; φ⟨h⟩(v) is the histogram of WL-refined labels
/// (iterations 0..h) over that subgraph, and K⟨h⟩(u, v) = ⟨φ⟨h⟩(u), φ⟨h⟩(v)⟩.
/// Initial labels are *author names*, so two candidates sharing co-author
/// names (and co-author-of-co-author structure) score high. Eq. 4 normalizes
/// by the self-kernels, giving a value in [0, 1] with K̂(v, v) = 1 for any
/// non-isolated v.
///
/// One deliberate refinement over a literal reading of Eq. 3 (documented in
/// DESIGN.md §5): the center vertex itself is EXCLUDED from its ball
/// histogram, so φ describes the *collaboration neighborhood* only. Under a
/// literal reading every pair of isolated same-name vertices would score a
/// perfect 1.0 — "identical subgraphs" with zero shared collaborators —
/// which floods the name-candidate pair population with spurious maximal
/// similarity (SCNs contain many per-paper singletons) and destabilizes the
/// EM fit. With the exclusion, isolated vertices have empty features and
/// kernel 0: no structural evidence. Requires h >= 1 for any signal.
///
/// Refinement is run once on the whole graph (Shervashidze et al., JMLR'11).
/// The build also takes a neighbor-id copy of the alive adjacency; per-vertex
/// features are ball histograms enumerated from that copy on first use and
/// cached, so they are frozen at the build no matter how late they are
/// first asked for.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/collab_graph.h"
#include "util/thread_pool.h"

namespace iuad::graph {

/// WL subtree features + kernel over one graph snapshot, taken at
/// construction. After the build the kernel reads nothing from the graph's
/// adjacency or vertex table — later vertices, edges and compactions do not
/// change any feature — and touches only its interner, to resolve names.
/// Vertices created after the build have no labels and score 0.
class WlVertexKernel {
 public:
  /// Runs h rounds of label refinement over the alive subgraph.
  /// h = 0 degenerates to bag-of-neighbor-names. When `pool` is given,
  /// each round's signature pass (neighbor-label gathering + sort) runs
  /// across its workers; compressed label ids are still assigned in a
  /// sequential sweep in vertex order, so labels are byte-identical at any
  /// thread count (and to the serial build).
  WlVertexKernel(const CollabGraph& graph, int h,
                 util::ThreadPool* pool = nullptr);

  /// Raw kernel ⟨φ⟨h⟩(u), φ⟨h⟩(v)⟩ (Eq. 3).
  double Kernel(VertexId u, VertexId v) const;

  /// Normalized kernel of Eq. 4, in [0, 1]; 0 if either self-kernel is 0.
  double NormalizedKernel(VertexId u, VertexId v) const;

  /// Normalized kernel between vertex v and a *hypothetical star* whose
  /// neighbors carry the given `names` — how the incremental path
  /// (Sec. V-E) scores a new paper: the unseen occurrence is a star center
  /// connected to its byline co-authors, whose iteration-0 labels are the
  /// only features known before insertion. Result: the count of `names`
  /// labels in v's ball, normalized by sqrt(|names| * K(v, v)); 0 when v is
  /// isolated, post-build, or `names` is empty.
  double NormalizedKernelVsNameSet(VertexId v,
                                   const std::vector<std::string>& names) const;

  /// The iteration-0 labels of `names`, in order, skipping names no
  /// build-time vertex carries (they can match no ball label). Together
  /// with names.size() this is everything NormalizedKernelVsNameSet needs
  /// from the names, so a caller scoring one star against many vertices
  /// resolves it once.
  std::vector<int> NameLabels(const std::vector<std::string>& names) const;

  /// NormalizedKernelVsNameSet for a star of `num_names` neighbors whose
  /// resolvable labels are `labels` (from NameLabels).
  double NormalizedKernelVsLabels(VertexId v, const std::vector<int>& labels,
                                  size_t num_names) const;

  /// Populates the lazy per-vertex feature cache for every vertex in `vs`
  /// (balls are computed concurrently on `pool` when given, committed to
  /// the cache sequentially). After the call, Kernel/NormalizedKernel over
  /// prewarmed vertices are pure reads and safe to invoke from many
  /// threads. Unknown / post-build vertex ids are ignored.
  void PrewarmFeatures(const std::vector<VertexId>& vs,
                       util::ThreadPool* pool = nullptr) const;

  /// The compressed WL label of vertex v at iteration `iter` (testing hook:
  /// two structurally-equivalent vertices share labels at every iteration).
  int LabelAt(VertexId v, int iter) const {
    return snap_->labels[static_cast<size_t>(iter)][static_cast<size_t>(v)];
  }

  int depth() const { return h_; }

 private:
  /// Everything the build derives from the graph. Immutable once built and
  /// shared by copies of the kernel (the shard router copies one kernel
  /// per shard); only the feature caches below are per copy.
  struct Snapshot {
    /// labels[i][v]: compressed label of v at iteration i (i = 0..h); -1
    /// for vertices dead at build.
    std::vector<std::vector<int>> labels;
    /// Iteration-0 dictionary (interned author name id -> label id), kept
    /// for the name-set kernel. Keyed by util::NameId: names are resolved
    /// through the graph's interner, so no strings are hashed after build.
    std::unordered_map<util::NameId, int> name_labels;
    /// Alive adjacency at build, CSR: the neighbors of v are
    /// nbrs[row_begin[v] .. row_begin[v + 1]), ascending.
    std::vector<uint32_t> row_begin;
    std::vector<VertexId> nbrs;
  };

  /// Sparse feature map of the h-hop ball of v (label -> count) and its
  /// self-kernel K(v, v), filled together so a prewarmed vertex needs no
  /// further cache writes.
  struct Features {
    std::unordered_map<int, double> counts;
    double self = 0.0;
  };

  /// The features of v, computed and cached on first use.
  const Features& FeaturesOf(VertexId v) const;
  /// The cache-free computation behind FeaturesOf (safe to run in
  /// parallel for distinct vertices: reads the snapshot only).
  Features ComputeFeatures(VertexId v) const;
  /// Raw kernel between two feature maps.
  static double Dot(const std::unordered_map<int, double>& fu,
                    const std::unordered_map<int, double>& fv);

  const util::StringInterner& interner_;
  int h_;
  std::shared_ptr<const Snapshot> snap_;
  mutable std::vector<Features> feature_cache_;
  mutable std::vector<bool> feature_cached_;
};

}  // namespace iuad::graph

#endif  // IUAD_GRAPH_WL_KERNEL_H_
