#include "graph/wl_kernel.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_set>

namespace iuad::graph {

namespace {

/// One vertex's refinement signature (its own label, then its neighbors'
/// labels sorted), viewed in the flat signature buffer.
struct SigView {
  const int* data;
  size_t size;
  bool operator==(const SigView& o) const {
    return size == o.size && std::equal(data, data + size, o.data);
  }
};

struct SigHash {
  size_t operator()(const SigView& s) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ s.size;
    for (size_t i = 0; i < s.size; ++i) {
      h = (h ^ static_cast<uint32_t>(s.data[i])) * 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    return static_cast<size_t>(h);
  }
};

}  // namespace

WlVertexKernel::WlVertexKernel(const CollabGraph& graph, int h,
                               util::ThreadPool* pool)
    : interner_(graph.interner()), h_(h) {
  const int n = graph.num_vertices();
  auto snap = std::make_shared<Snapshot>();
  auto& labels = snap->labels;
  auto& row_begin = snap->row_begin;
  auto& nbrs = snap->nbrs;
  labels.resize(static_cast<size_t>(h + 1),
                std::vector<int>(static_cast<size_t>(n), -1));
  row_begin.assign(static_cast<size_t>(n) + 1, 0);

  // Iteration 0: compress author names to dense label ids. The same sweep
  // is the one pass over the live neighbor lists: it copies the alive
  // adjacency (neighbor ids only, ascending as NeighborsOf yields them),
  // which refinement below and every later ball enumeration read.
  size_t num_alive = 0;
  nbrs.reserve(2 * static_cast<size_t>(graph.num_edges()));
  for (VertexId v = 0; v < n; ++v) {
    if (graph.alive(v)) {
      ++num_alive;
      auto [it, inserted] = snap->name_labels.try_emplace(
          graph.vertex(v).name_id,
          static_cast<int>(snap->name_labels.size()));
      labels[0][static_cast<size_t>(v)] = it->second;
      for (const auto& [u, papers] : graph.NeighborsOf(v)) nbrs.push_back(u);
    }
    row_begin[static_cast<size_t>(v) + 1] = static_cast<uint32_t>(nbrs.size());
  }

  // Iterations 1..h: label(v) <- compress(label(v), sorted labels of N(v)).
  // Each iteration uses a fresh compression dictionary; label ids are made
  // globally unique across iterations by an offset so ball histograms can
  // mix iterations safely. The signatures (neighbor gathering + sort) are
  // computed in parallel over vertices — each reads only the previous
  // iteration's labels and writes its own slice of one flat buffer — while
  // compressed ids are assigned in a sequential sweep in vertex order, so
  // the id assignment (first-encounter order) is identical at any thread
  // count.
  int next_global = 1 << 20;  // iteration-0 labels occupy [0, 2^20)
  // v's signature lives at sigs[row_begin[v] + v, row_begin[v + 1] + v + 1).
  std::vector<int> sigs(nbrs.size() + static_cast<size_t>(n));
  for (int iter = 1; iter <= h; ++iter) {
    const std::vector<int>& prev = labels[static_cast<size_t>(iter - 1)];
    util::ForIndices(pool, static_cast<size_t>(n), [&](size_t vi) {
      if (labels[0][vi] < 0) return;
      int* out = sigs.data() + row_begin[vi] + vi;
      *out++ = prev[vi];
      for (uint32_t e = row_begin[vi]; e < row_begin[vi + 1]; ++e) {
        *out++ = prev[static_cast<size_t>(nbrs[e])];
      }
      std::sort(sigs.data() + row_begin[vi] + vi + 1, out);
    });
    std::unordered_map<SigView, int, SigHash> signature_label;
    signature_label.reserve(num_alive);
    for (size_t vi = 0; vi < static_cast<size_t>(n); ++vi) {
      if (labels[0][vi] < 0) continue;
      const SigView sig{sigs.data() + row_begin[vi] + vi,
                        row_begin[vi + 1] - row_begin[vi] + 1};
      auto [it, inserted] = signature_label.try_emplace(sig, 0);
      if (inserted) it->second = next_global++;
      labels[static_cast<size_t>(iter)][vi] = it->second;
    }
  }
  snap_ = std::move(snap);
  feature_cache_.resize(static_cast<size_t>(n));
  feature_cached_.assign(static_cast<size_t>(n), false);
}

const WlVertexKernel::Features& WlVertexKernel::FeaturesOf(VertexId v) const {
  // Vertices created after the build have no labels or cache slot.
  static const Features* const kEmpty = new Features();
  if (v < 0 || v >= static_cast<VertexId>(feature_cache_.size())) {
    return *kEmpty;
  }
  Features& cache = feature_cache_[static_cast<size_t>(v)];
  if (feature_cached_[static_cast<size_t>(v)]) return cache;
  cache = ComputeFeatures(v);
  feature_cached_[static_cast<size_t>(v)] = true;
  return cache;
}

void WlVertexKernel::PrewarmFeatures(const std::vector<VertexId>& vs,
                                     util::ThreadPool* pool) const {
  std::vector<VertexId> missing;
  for (VertexId v : vs) {
    if (v >= 0 && v < static_cast<VertexId>(feature_cache_.size()) &&
        !feature_cached_[static_cast<size_t>(v)]) {
      missing.push_back(v);
    }
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  if (missing.empty()) return;
  std::vector<Features> built(missing.size());
  util::ForIndices(pool, missing.size(),
                   [&](size_t i) { built[i] = ComputeFeatures(missing[i]); });
  // Commit sequentially: feature_cached_ is a vector<bool>, whose packed
  // bits make even distinct-index writes race.
  for (size_t i = 0; i < missing.size(); ++i) {
    feature_cache_[static_cast<size_t>(missing[i])] = std::move(built[i]);
    feature_cached_[static_cast<size_t>(missing[i])] = true;
  }
}

WlVertexKernel::Features WlVertexKernel::ComputeFeatures(VertexId v) const {
  Features f;
  const Snapshot& snap = *snap_;
  if (snap.labels[0][static_cast<size_t>(v)] < 0) return f;  // dead at build

  // BFS ball of radius h around v over the build-time adjacency, one level
  // at a time: ball[level_begin, level_end) is the frontier at distance d.
  std::vector<VertexId> ball{v};
  std::unordered_set<VertexId> seen{v};
  size_t level_begin = 0;
  for (int d = 0; d < h_ && level_begin < ball.size(); ++d) {
    const size_t level_end = ball.size();
    for (size_t k = level_begin; k < level_end; ++k) {
      const size_t u = static_cast<size_t>(ball[k]);
      for (uint32_t e = snap.row_begin[u]; e < snap.row_begin[u + 1]; ++e) {
        if (seen.insert(snap.nbrs[e]).second) ball.push_back(snap.nbrs[e]);
      }
    }
    level_begin = level_end;
  }
  // Histogram of labels over all iterations for ball members, excluding the
  // center itself (see the header: φ describes the collaboration
  // neighborhood, not the vertex).
  for (size_t k = 1; k < ball.size(); ++k) {
    for (int iter = 0; iter <= h_; ++iter) {
      f.counts[snap.labels[static_cast<size_t>(iter)]
                          [static_cast<size_t>(ball[k])]] += 1.0;
    }
  }
  f.self = Dot(f.counts, f.counts);
  return f;
}

std::vector<int> WlVertexKernel::NameLabels(
    const std::vector<std::string>& names) const {
  std::vector<int> out;
  out.reserve(names.size());
  for (const auto& name : names) {
    const util::NameId id = interner_.Lookup(name);
    if (id == util::kInvalidNameId) continue;
    auto it = snap_->name_labels.find(id);
    if (it != snap_->name_labels.end()) out.push_back(it->second);
  }
  return out;
}

double WlVertexKernel::NormalizedKernelVsLabels(VertexId v,
                                                const std::vector<int>& labels,
                                                size_t num_names) const {
  if (num_names == 0) return 0.0;
  const Features& fv = FeaturesOf(v);
  if (fv.self <= 0.0) return 0.0;  // isolated, dead or post-build
  double cross = 0.0;
  for (int label : labels) {
    auto it = fv.counts.find(label);
    if (it != fv.counts.end()) cross += it->second;
  }
  return std::min(
      1.0, cross / std::sqrt(static_cast<double>(num_names) * fv.self));
}

double WlVertexKernel::NormalizedKernelVsNameSet(
    VertexId v, const std::vector<std::string>& names) const {
  return NormalizedKernelVsLabels(v, NameLabels(names), names.size());
}

double WlVertexKernel::Dot(const std::unordered_map<int, double>& fu,
                           const std::unordered_map<int, double>& fv) {
  const auto& small = fu.size() <= fv.size() ? fu : fv;
  const auto& large = fu.size() <= fv.size() ? fv : fu;
  double s = 0.0;
  for (const auto& [label, count] : small) {
    auto it = large.find(label);
    if (it != large.end()) s += count * it->second;
  }
  return s;
}

double WlVertexKernel::Kernel(VertexId u, VertexId v) const {
  return Dot(FeaturesOf(u).counts, FeaturesOf(v).counts);
}

double WlVertexKernel::NormalizedKernel(VertexId u, VertexId v) const {
  const double kuu = FeaturesOf(u).self;
  const double kvv = FeaturesOf(v).self;
  if (kuu <= 0.0 || kvv <= 0.0) return 0.0;
  return Kernel(u, v) / std::sqrt(kuu * kvv);
}

}  // namespace iuad::graph
