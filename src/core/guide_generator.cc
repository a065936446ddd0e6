#include "core/guide_generator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <numeric>
#include <utility>
#include <vector>

#include "flow/dinic.h"
#include "flow/ford_fulkerson.h"
#include "flow/min_cost_flow.h"
#include "model/feasibility.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace ftoa {

const std::vector<std::string>& AllGuideRefreshModeNames() {
  static const std::vector<std::string> kNames = {"cold", "warm"};
  return kNames;
}

const char* GuideRefreshModeName(GuideRefreshMode mode) {
  switch (mode) {
    case GuideRefreshMode::kCold:
      return "cold";
    case GuideRefreshMode::kWarm:
      return "warm";
  }
  return "unknown";
}

Result<GuideRefreshMode> ParseGuideRefreshMode(const std::string& name) {
  if (name == "cold") return GuideRefreshMode::kCold;
  if (name == "warm") return GuideRefreshMode::kWarm;
  return Status::NotFound("unknown refresh mode \"" + name + "\" (valid: " +
                          Join(AllGuideRefreshModeNames(), ", ") + ")");
}

namespace {

/// FNV-1a over 64-bit words — the warm cache's content hash. Collisions are
/// harmless (membership is confirmed by full sequence comparison); the hash
/// only has to make lookups cheap.
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

inline uint64_t FnvStep(uint64_t h, uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

inline uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

GuideGenerator::GuideGenerator(double velocity, GuideOptions options)
    : velocity_(velocity), options_(options) {}

GuideGenerator::~GuideGenerator() = default;

GuideGenerator::ShardArena& GuideGenerator::ShardAt(size_t index) const {
  while (shards_.size() <= index) {
    shards_.push_back(std::make_unique<ShardArena>());
  }
  return *shards_[index];
}

ThreadPool& GuideGenerator::Pool() const {
  if (!pool_) pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  return *pool_;
}

void GuideGenerator::InvalidateWarmCache() const {
  warm_cache_ = WarmCache{};
}

void GuideGenerator::ForEachFeasibleTypePair(
    const PredictionMatrix& prediction,
    const std::function<void(TypeId, TypeId)>& fn) const {
  const SpacetimeSpec& st = prediction.spacetime();
  const GridSpec& grid = st.grid();
  const SlotSpec& slots = st.slots();
  const int num_areas = st.num_areas();
  const double dw = options_.worker_duration;
  const double dr = options_.task_duration;
  const double rep_slack = options_.representative_slack;

  // Per-slot list of cells with predicted tasks, for sparse iteration when
  // the feasibility disk covers most of the grid.
  std::vector<std::vector<CellId>> task_cells_by_slot(
      static_cast<size_t>(slots.num_slots()));
  for (int slot = 0; slot < slots.num_slots(); ++slot) {
    for (CellId cell = 0; cell < num_areas; ++cell) {
      if (prediction.tasks_at(st.TypeAt(slot, cell)) > 0) {
        task_cells_by_slot[static_cast<size_t>(slot)].push_back(cell);
      }
    }
  }

  for (int wslot = 0; wslot < slots.num_slots(); ++wslot) {
    const double sw = slots.SlotMidpoint(wslot);
    // Candidate task slots: representatives must satisfy
    //   sr < sw + dw (+ slack)  and  dr - (sw - sr) (+ slack) >= 0.
    const int slot_lo = std::max(
        0, slots.SlotOf(std::max(0.0, sw - dr - rep_slack)) - 1);
    const int slot_hi = std::min(slots.num_slots() - 1,
                                 slots.SlotOf(sw + dw + rep_slack) + 1);

    for (CellId wcell = 0; wcell < num_areas; ++wcell) {
      const TypeId wtype = st.TypeAt(wslot, wcell);
      if (prediction.workers_at(wtype) <= 0) continue;
      const Point wloc = grid.CellCenter(wcell);

      for (int tslot = slot_lo; tslot <= slot_hi; ++tslot) {
        const double sr = slots.SlotMidpoint(tslot);
        if (!(sr < sw + dw + rep_slack)) continue;
        const double slack = dr - (sw - sr) + rep_slack;
        if (slack < 0.0) continue;
        const double radius = slack * velocity_;

        // Choose between scanning the bounding box of the feasibility disk
        // and scanning the slot's nonempty task cells, whichever is smaller.
        // std::floor before the int cast so each bound is the disk edge's
        // true cell index even when (wloc - radius) is negative. With the
        // current clamps the cast alone happens to agree (trunc and floor
        // differ only below zero, where max(0, ...) erases the difference),
        // but that equivalence is incidental — floor states the intended
        // semantics instead of relying on it.
        const int cx_lo = std::max(
            0, static_cast<int>(
                   std::floor((wloc.x - radius) / grid.cell_width())));
        const int cx_hi = std::min(
            grid.cells_x() - 1,
            static_cast<int>(
                std::floor((wloc.x + radius) / grid.cell_width())));
        const int cy_lo = std::max(
            0, static_cast<int>(
                   std::floor((wloc.y - radius) / grid.cell_height())));
        const int cy_hi = std::min(
            grid.cells_y() - 1,
            static_cast<int>(
                std::floor((wloc.y + radius) / grid.cell_height())));
        const int64_t box_cells = static_cast<int64_t>(cx_hi - cx_lo + 1) *
                                  (cy_hi - cy_lo + 1);
        const auto& sparse = task_cells_by_slot[static_cast<size_t>(tslot)];

        auto consider = [&](CellId tcell) {
          const TypeId ttype = st.TypeAt(tslot, tcell);
          if (prediction.tasks_at(ttype) <= 0) return;
          const double d = Distance(wloc, grid.CellCenter(tcell));
          if (d / velocity_ <= slack) fn(wtype, ttype);
        };

        if (box_cells <= static_cast<int64_t>(sparse.size())) {
          for (int cy = cy_lo; cy <= cy_hi; ++cy) {
            for (int cx = cx_lo; cx <= cx_hi; ++cx) {
              consider(grid.CellAt(cx, cy));
            }
          }
        } else {
          for (CellId tcell : sparse) consider(tcell);
        }
      }
    }
  }
}

int64_t GuideGenerator::EstimateNodeLevelEdges(
    const PredictionMatrix& prediction) const {
  int64_t edges = 0;
  ForEachFeasibleTypePair(prediction, [&](TypeId wt, TypeId tt) {
    edges += static_cast<int64_t>(prediction.workers_at(wt)) *
             prediction.tasks_at(tt);
  });
  return edges;
}

namespace {

/// Instantiates all predicted nodes into `guide`; returns the first guide
/// node id per type so callers can translate (type, ordinal) -> node id.
struct InstantiatedNodes {
  std::vector<GuideNodeId> first_worker_node;  // Per type, -1 when empty.
  std::vector<GuideNodeId> first_task_node;
};

InstantiatedNodes InstantiateNodes(const PredictionMatrix& prediction,
                                   OfflineGuide* guide) {
  const int num_types = prediction.spacetime().num_types();
  InstantiatedNodes out;
  out.first_worker_node.assign(static_cast<size_t>(num_types), -1);
  out.first_task_node.assign(static_cast<size_t>(num_types), -1);
  for (TypeId type = 0; type < num_types; ++type) {
    const int32_t workers = prediction.workers_at(type);
    for (int32_t k = 0; k < workers; ++k) {
      const GuideNodeId id = guide->AddWorkerNode(type);
      if (k == 0) out.first_worker_node[static_cast<size_t>(type)] = id;
    }
    const int32_t tasks = prediction.tasks_at(type);
    for (int32_t k = 0; k < tasks; ++k) {
      const GuideNodeId id = guide->AddTaskNode(type);
      if (k == 0) out.first_task_node[static_cast<size_t>(type)] = id;
    }
  }
  return out;
}

}  // namespace

Result<OfflineGuide> GuideGenerator::GenerateNodeLevel(
    const PredictionMatrix& prediction, bool use_dinic) const {
  // The node-level network has no component decomposition to diff, so it
  // always runs cold (docs/flow_engines.md documents the fallback).
  last_refresh_stats_ = GuideRefreshStats{};
  const int64_t m = prediction.TotalWorkers();
  const int64_t n = prediction.TotalTasks();
  const int64_t node_edges = EstimateNodeLevelEdges(prediction);
  if (m + n + 2 > (1LL << 30) || node_edges > (1LL << 28)) {
    return Status::InvalidArgument(
        "GuideGenerator: node-level network too large; use kCompressed");
  }

  OfflineGuide guide(prediction.spacetime(), velocity_,
                     options_.worker_duration, options_.task_duration,
                     options_.representative_slack);
  const InstantiatedNodes nodes = InstantiateNodes(prediction, &guide);

  // Network layout: source 0, worker nodes 1..m, task nodes m+1..m+n,
  // sink m+n+1 (Algorithm 1 lines 1-5). The edge arena and the solver
  // scratch live in the generator and are reused across calls.
  const NodeId source = 0;
  const NodeId sink = static_cast<NodeId>(m + n + 1);
  ShardArena& arena = ShardAt(0);
  FlowGraph& network = arena.maxflow;
  network.Reset(static_cast<NodeId>(m + n + 2));
  network.ReserveEdges(static_cast<size_t>(m + n + node_edges));
  for (int64_t w = 0; w < m; ++w) {
    network.AddEdge(source, static_cast<NodeId>(1 + w), 1);
  }
  for (int64_t r = 0; r < n; ++r) {
    network.AddEdge(static_cast<NodeId>(1 + m + r), sink, 1);
  }

  // Lines 6-9: one edge per feasible (worker node, task node) pair. Nodes of
  // a type are contiguous in the guide, so we expand per feasible type pair.
  std::vector<EdgeId> pair_edges;
  std::vector<std::pair<GuideNodeId, GuideNodeId>> pair_nodes;
  ForEachFeasibleTypePair(prediction, [&](TypeId wt, TypeId tt) {
    const GuideNodeId w0 = nodes.first_worker_node[static_cast<size_t>(wt)];
    const GuideNodeId r0 = nodes.first_task_node[static_cast<size_t>(tt)];
    const int32_t wc = prediction.workers_at(wt);
    const int32_t tc = prediction.tasks_at(tt);
    for (int32_t wi = 0; wi < wc; ++wi) {
      for (int32_t ti = 0; ti < tc; ++ti) {
        const EdgeId e = network.AddEdge(
            static_cast<NodeId>(1 + w0 + wi),
            static_cast<NodeId>(1 + m + r0 + ti), 1);
        pair_edges.push_back(e);
        pair_nodes.emplace_back(w0 + wi, r0 + ti);
      }
    }
  });

  // Line 10: max flow.
  if (use_dinic) {
    arena.dinic.Solve(&network, source, sink);
  } else {
    FordFulkersonMaxFlow(&network, source, sink);
  }

  for (size_t k = 0; k < pair_edges.size(); ++k) {
    if (network.Flow(pair_edges[k]) > 0) {
      FTOA_RETURN_NOT_OK(
          guide.MatchNodes(pair_nodes[k].first, pair_nodes[k].second));
    }
  }
  return guide;
}

Result<OfflineGuide> GuideGenerator::GenerateCompressed(
    const PredictionMatrix& prediction, bool minimize_cost) const {
  const SpacetimeSpec& st = prediction.spacetime();
  const int num_types = st.num_types();

  // Feasible type pairs in the deterministic enumeration order, thinned by
  // the approximate-mode Bernoulli sample *before* component decomposition
  // — the sampled pair list is what defines the components, so the
  // thread-count invariance of the solve below is untouched by sampling.
  struct TypePairEdge {
    TypeId worker_type;
    TypeId task_type;
  };
  std::vector<TypePairEdge> pairs;
  ApproxGuideReport report;
  {
    const double rate = options_.approx_sample_rate;
    Rng sampler(options_.approx_seed);
    ForEachFeasibleTypePair(prediction, [&](TypeId wt, TypeId tt) {
      ++report.feasible_pairs;
      if (rate < 1.0 && !sampler.NextBool(rate)) {
        // A dropped pair can carry at most min(supply, demand) flow — the
        // per-pair capacity of the exact network.
        report.utility_loss_bound +=
            std::min<int64_t>(prediction.workers_at(wt),
                              prediction.tasks_at(tt));
        return;
      }
      ++report.sampled_pairs;
      pairs.push_back(TypePairEdge{wt, tt});
    });
  }
  last_approx_report_ = report;

  // Dense type id -> compact network node id, assigned on first use over
  // the (sampled) pair list.
  std::vector<int32_t> worker_node_of_type(static_cast<size_t>(num_types),
                                           -1);
  std::vector<int32_t> task_node_of_type(static_cast<size_t>(num_types), -1);
  std::vector<TypeId> worker_types;
  std::vector<TypeId> task_types;
  for (const TypePairEdge& pair : pairs) {
    if (worker_node_of_type[static_cast<size_t>(pair.worker_type)] < 0) {
      worker_node_of_type[static_cast<size_t>(pair.worker_type)] =
          static_cast<int32_t>(worker_types.size());
      worker_types.push_back(pair.worker_type);
    }
    if (task_node_of_type[static_cast<size_t>(pair.task_type)] < 0) {
      task_node_of_type[static_cast<size_t>(pair.task_type)] =
          static_cast<int32_t>(task_types.size());
      task_types.push_back(pair.task_type);
    }
  }

  const int32_t wcount = static_cast<int32_t>(worker_types.size());
  const int32_t tcount = static_cast<int32_t>(task_types.size());

  OfflineGuide guide(st, velocity_, options_.worker_duration,
                     options_.task_duration,
                     options_.representative_slack);
  const InstantiatedNodes nodes = InstantiateNodes(prediction, &guide);

  // ---- Connected-component decomposition. Compact worker node i and
  // compact task node j live at union-find indices i and wcount + j.
  // Components are independent flow problems: every source/sink edge is
  // private to its type node, so no augmenting path crosses components and
  // solving them separately is exact.
  std::vector<int32_t> parent(static_cast<size_t>(wcount + tcount));
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](int32_t x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (const TypePairEdge& pair : pairs) {
    const int32_t a =
        find(worker_node_of_type[static_cast<size_t>(pair.worker_type)]);
    const int32_t b = find(
        wcount + task_node_of_type[static_cast<size_t>(pair.task_type)]);
    if (a != b) parent[static_cast<size_t>(b)] = a;
  }

  // Component ids in first-appearance order over the pair list, so the
  // decomposition — and with it the chunking below — is deterministic.
  std::vector<int32_t> comp_of_root(static_cast<size_t>(wcount + tcount),
                                    -1);
  std::vector<int32_t> pair_comp(pairs.size());
  int32_t num_components = 0;
  for (size_t k = 0; k < pairs.size(); ++k) {
    const int32_t root = find(
        worker_node_of_type[static_cast<size_t>(pairs[k].worker_type)]);
    if (comp_of_root[static_cast<size_t>(root)] < 0) {
      comp_of_root[static_cast<size_t>(root)] = num_components++;
    }
    pair_comp[k] = comp_of_root[static_cast<size_t>(root)];
  }
  last_num_components_ = num_components;

  // Group pairs and compact nodes by component with counting sorts that
  // preserve the original order within each component.
  auto group_by_comp = [num_components](const std::vector<int32_t>& comp_of,
                                        std::vector<int32_t>* begin,
                                        std::vector<int32_t>* items) {
    begin->assign(static_cast<size_t>(num_components) + 1, 0);
    for (const int32_t c : comp_of) ++(*begin)[static_cast<size_t>(c) + 1];
    for (int32_t c = 0; c < num_components; ++c) {
      (*begin)[static_cast<size_t>(c) + 1] += (*begin)[static_cast<size_t>(c)];
    }
    items->resize(comp_of.size());
    std::vector<int32_t> cursor(begin->begin(), begin->end() - 1);
    for (size_t i = 0; i < comp_of.size(); ++i) {
      (*items)[static_cast<size_t>(
          cursor[static_cast<size_t>(comp_of[i])]++)] =
          static_cast<int32_t>(i);
    }
  };

  std::vector<int32_t> comp_pair_begin;
  std::vector<int32_t> comp_pairs;  // Pair indices grouped by component.
  group_by_comp(pair_comp, &comp_pair_begin, &comp_pairs);

  std::vector<int32_t> comp_of_worker(static_cast<size_t>(wcount));
  for (int32_t i = 0; i < wcount; ++i) {
    comp_of_worker[static_cast<size_t>(i)] =
        comp_of_root[static_cast<size_t>(find(i))];
  }
  std::vector<int32_t> comp_of_task(static_cast<size_t>(tcount));
  for (int32_t j = 0; j < tcount; ++j) {
    comp_of_task[static_cast<size_t>(j)] =
        comp_of_root[static_cast<size_t>(find(wcount + j))];
  }
  std::vector<int32_t> comp_worker_begin;
  std::vector<int32_t> comp_workers;  // Compact worker ids by component.
  group_by_comp(comp_of_worker, &comp_worker_begin, &comp_workers);
  std::vector<int32_t> comp_task_begin;
  std::vector<int32_t> comp_tasks;  // Compact task ids by component.
  group_by_comp(comp_of_task, &comp_task_begin, &comp_tasks);

  // Local (within-component) network node id of each compact node.
  std::vector<int32_t> local_worker_id(static_cast<size_t>(wcount));
  for (int32_t c = 0; c < num_components; ++c) {
    for (int32_t p = comp_worker_begin[static_cast<size_t>(c)];
         p < comp_worker_begin[static_cast<size_t>(c) + 1]; ++p) {
      local_worker_id[static_cast<size_t>(comp_workers[static_cast<size_t>(
          p)])] = p - comp_worker_begin[static_cast<size_t>(c)];
    }
  }
  std::vector<int32_t> local_task_id(static_cast<size_t>(tcount));
  for (int32_t c = 0; c < num_components; ++c) {
    for (int32_t p = comp_task_begin[static_cast<size_t>(c)];
         p < comp_task_begin[static_cast<size_t>(c) + 1]; ++p) {
      local_task_id[static_cast<size_t>(comp_tasks[static_cast<size_t>(
          p)])] = p - comp_task_begin[static_cast<size_t>(c)];
    }
  }

  // ---- Warm cache lookup. A component's local network is fully determined
  // by its pair sequence: local node ids are first-use ranks within the
  // component's pairs, capacities come from the per-type predicted counts,
  // and edge costs are a pure function of the type ids (representative
  // locations) under a fixed geometry. So a component whose (worker type,
  // task type, worker count, task count) sequence matches a cached
  // component from the previous call — verified element-wise, the hash only
  // routes the lookup — would rebuild the *identical* network, and its
  // cached flows are exactly what a fresh solve would return. Those
  // components take their flows from the cache and skip the solve below;
  // only dirty components solve, from scratch on the persistent arenas
  // (injecting warm flows into a dirty component is NOT done: it could
  // steer the solver to a different equally-optimal flow pattern and break
  // the warm == cold bit-identity contract).
  const bool warm = options_.refresh_mode == GuideRefreshMode::kWarm;
  GuideRefreshStats refresh_stats;
  refresh_stats.components_total = num_components;
  refresh_stats.pairs_total = static_cast<int64_t>(pairs.size());

  uint64_t fingerprint = kFnvOffset;
  {
    const GridSpec& grid = st.grid();
    fingerprint = FnvStep(fingerprint, static_cast<uint64_t>(num_types));
    fingerprint =
        FnvStep(fingerprint, static_cast<uint64_t>(st.num_slots()));
    fingerprint = FnvStep(fingerprint, static_cast<uint64_t>(grid.cells_x()));
    fingerprint = FnvStep(fingerprint, static_cast<uint64_t>(grid.cells_y()));
    fingerprint = FnvStep(fingerprint, DoubleBits(grid.cell_width()));
    fingerprint = FnvStep(fingerprint, DoubleBits(grid.cell_height()));
    fingerprint = FnvStep(fingerprint, DoubleBits(velocity_));
  }

  // Per component: start of its cached flow slice, or -1 when dirty.
  std::vector<int64_t> cached_begin;
  std::vector<uint64_t> comp_hash;
  if (warm) {
    cached_begin.assign(static_cast<size_t>(num_components), -1);
    comp_hash.assign(static_cast<size_t>(num_components), 0);
    const bool cache_usable = warm_cache_.valid &&
                              warm_cache_.minimize_cost == minimize_cost &&
                              warm_cache_.fingerprint == fingerprint;
    for (int32_t c = 0; c < num_components; ++c) {
      const int32_t p_lo = comp_pair_begin[static_cast<size_t>(c)];
      const int32_t p_hi = comp_pair_begin[static_cast<size_t>(c) + 1];
      uint64_t h = kFnvOffset;
      for (int32_t p = p_lo; p < p_hi; ++p) {
        const TypePairEdge& pair =
            pairs[static_cast<size_t>(comp_pairs[static_cast<size_t>(p)])];
        h = FnvStep(h, static_cast<uint64_t>(pair.worker_type));
        h = FnvStep(h, static_cast<uint64_t>(pair.task_type));
        h = FnvStep(h, static_cast<uint64_t>(
                           prediction.workers_at(pair.worker_type)));
        h = FnvStep(h, static_cast<uint64_t>(
                           prediction.tasks_at(pair.task_type)));
      }
      comp_hash[static_cast<size_t>(c)] = h;
      if (!cache_usable) continue;
      const auto it = warm_cache_.by_hash.find(h);
      if (it == warm_cache_.by_hash.end()) continue;
      for (const int32_t entry_index : it->second) {
        const WarmCache::Entry& entry =
            warm_cache_.entries[static_cast<size_t>(entry_index)];
        if (entry.count != p_hi - p_lo) continue;
        bool equal = true;
        for (int32_t p = p_lo; p < p_hi && equal; ++p) {
          const size_t at = static_cast<size_t>(entry.begin + (p - p_lo));
          const TypePairEdge& pair =
              pairs[static_cast<size_t>(comp_pairs[static_cast<size_t>(p)])];
          equal = warm_cache_.pair_wt[at] == pair.worker_type &&
                  warm_cache_.pair_tt[at] == pair.task_type &&
                  warm_cache_.pair_wcap[at] ==
                      prediction.workers_at(pair.worker_type) &&
                  warm_cache_.pair_tcap[at] ==
                      prediction.tasks_at(pair.task_type);
        }
        if (equal) {
          cached_begin[static_cast<size_t>(c)] = entry.begin;
          break;
        }
      }
    }
  }

  // ---- Solve every component on a shard arena; per-pair flows land in a
  // shared array indexed by the *original* pair index, so the merge below
  // is independent of which thread solved which component.
  std::vector<int64_t> pair_flow(pairs.size(), 0);

  if (warm) {
    for (int32_t c = 0; c < num_components; ++c) {
      const int64_t begin = cached_begin[static_cast<size_t>(c)];
      if (begin < 0) continue;
      const int32_t p_lo = comp_pair_begin[static_cast<size_t>(c)];
      const int32_t p_hi = comp_pair_begin[static_cast<size_t>(c) + 1];
      for (int32_t p = p_lo; p < p_hi; ++p) {
        pair_flow[static_cast<size_t>(comp_pairs[static_cast<size_t>(p)])] =
            warm_cache_.pair_flow[static_cast<size_t>(begin + (p - p_lo))];
      }
      ++refresh_stats.components_reused;
      refresh_stats.pairs_reused += p_hi - p_lo;
    }
  }

  auto solve_components = [&](int32_t comp_lo, int32_t comp_hi,
                              ShardArena* arena) {
    std::vector<int32_t> edge_ids;  // Pair-edge ids of the current network.
    for (int32_t c = comp_lo; c < comp_hi; ++c) {
      if (warm && cached_begin[static_cast<size_t>(c)] >= 0) continue;
      const int32_t w_lo = comp_worker_begin[static_cast<size_t>(c)];
      const int32_t t_lo = comp_task_begin[static_cast<size_t>(c)];
      const int32_t cw =
          comp_worker_begin[static_cast<size_t>(c) + 1] - w_lo;
      const int32_t ct = comp_task_begin[static_cast<size_t>(c) + 1] - t_lo;
      const int32_t p_lo = comp_pair_begin[static_cast<size_t>(c)];
      const int32_t p_hi = comp_pair_begin[static_cast<size_t>(c) + 1];
      const int32_t source = 0;
      const int32_t sink = 1 + cw + ct;

      edge_ids.clear();
      edge_ids.reserve(static_cast<size_t>(p_hi - p_lo));
      auto add_supply_edges = [&](auto& network, auto add_edge) {
        for (int32_t p = w_lo; p < w_lo + cw; ++p) {
          const TypeId type = worker_types[static_cast<size_t>(
              comp_workers[static_cast<size_t>(p)])];
          add_edge(network, source, 1 + (p - w_lo),
                   static_cast<int64_t>(prediction.workers_at(type)));
        }
        for (int32_t p = t_lo; p < t_lo + ct; ++p) {
          const TypeId type = task_types[static_cast<size_t>(
              comp_tasks[static_cast<size_t>(p)])];
          add_edge(network, 1 + cw + (p - t_lo), sink,
                   static_cast<int64_t>(prediction.tasks_at(type)));
        }
      };

      if (minimize_cost) {
        MinCostFlowGraph& network = arena->mincost;
        network.Reset(sink + 1);
        network.ReserveEdges(static_cast<size_t>(cw + ct + (p_hi - p_lo)));
        add_supply_edges(network,
                         [](MinCostFlowGraph& net, int32_t u, int32_t v,
                            int64_t cap) { net.AddEdge(u, v, cap, 0); });
        for (int32_t p = p_lo; p < p_hi; ++p) {
          const TypePairEdge& pair =
              pairs[static_cast<size_t>(comp_pairs[static_cast<size_t>(p)])];
          const int32_t wi = local_worker_id[static_cast<size_t>(
              worker_node_of_type[static_cast<size_t>(pair.worker_type)])];
          const int32_t ti = local_task_id[static_cast<size_t>(
              task_node_of_type[static_cast<size_t>(pair.task_type)])];
          const double travel =
              TravelTime(st.RepresentativeLocation(pair.worker_type),
                         st.RepresentativeLocation(pair.task_type),
                         velocity_);
          const int64_t cap =
              std::min<int64_t>(prediction.workers_at(pair.worker_type),
                                prediction.tasks_at(pair.task_type));
          edge_ids.push_back(network.AddEdge(
              1 + wi, 1 + cw + ti, cap,
              static_cast<int64_t>(std::llround(travel * 1e6))));
        }
        network.Solve(source, sink, options_.flow_engine);
        for (int32_t p = p_lo; p < p_hi; ++p) {
          pair_flow[static_cast<size_t>(comp_pairs[static_cast<size_t>(
              p)])] = network.Flow(edge_ids[static_cast<size_t>(p - p_lo)]);
        }
      } else {
        FlowGraph& network = arena->maxflow;
        network.Reset(sink + 1);
        network.ReserveEdges(static_cast<size_t>(cw + ct + (p_hi - p_lo)));
        add_supply_edges(network,
                         [](FlowGraph& net, int32_t u, int32_t v,
                            int64_t cap) { net.AddEdge(u, v, cap); });
        for (int32_t p = p_lo; p < p_hi; ++p) {
          const TypePairEdge& pair =
              pairs[static_cast<size_t>(comp_pairs[static_cast<size_t>(p)])];
          const int32_t wi = local_worker_id[static_cast<size_t>(
              worker_node_of_type[static_cast<size_t>(pair.worker_type)])];
          const int32_t ti = local_task_id[static_cast<size_t>(
              task_node_of_type[static_cast<size_t>(pair.task_type)])];
          const int64_t cap =
              std::min<int64_t>(prediction.workers_at(pair.worker_type),
                                prediction.tasks_at(pair.task_type));
          edge_ids.push_back(network.AddEdge(1 + wi, 1 + cw + ti, cap));
        }
        arena->dinic.Solve(&network, source, sink);
        for (int32_t p = p_lo; p < p_hi; ++p) {
          pair_flow[static_cast<size_t>(comp_pairs[static_cast<size_t>(
              p)])] = network.Flow(edge_ids[static_cast<size_t>(p - p_lo)]);
        }
      }
    }
  };

  // Partition components into one contiguous chunk per thread, balanced on
  // pair counts (the dominant solve cost). The partition affects only which
  // arena/thread solves a component, never the component's result.
  const int32_t chunks = std::max<int32_t>(
      1, std::min<int32_t>(options_.num_threads, num_components));
  if (chunks <= 1) {
    // One thread, or one component: solve inline on the calling thread.
    solve_components(0, num_components, &ShardAt(0));
  } else {
    const int64_t total_pairs = static_cast<int64_t>(pairs.size());
    std::vector<int32_t> bounds(static_cast<size_t>(chunks) + 1, 0);
    bounds[static_cast<size_t>(chunks)] = num_components;
    for (int32_t i = 1; i < chunks; ++i) {
      const int64_t target = total_pairs * i / chunks;
      const auto it =
          std::lower_bound(comp_pair_begin.begin(), comp_pair_begin.end(),
                           static_cast<int32_t>(target));
      const int32_t at_least = bounds[static_cast<size_t>(i) - 1] + 1;
      bounds[static_cast<size_t>(i)] = std::min(
          num_components - (chunks - i),
          std::max(at_least, static_cast<int32_t>(
                                 it - comp_pair_begin.begin())));
    }
    std::vector<std::future<void>> done;
    done.reserve(static_cast<size_t>(chunks));
    for (int32_t i = 0; i < chunks; ++i) {
      const int32_t lo = bounds[static_cast<size_t>(i)];
      const int32_t hi = bounds[static_cast<size_t>(i) + 1];
      ShardArena* arena = &ShardAt(static_cast<size_t>(i));
      done.push_back(Pool().Submit(
          [&solve_components, lo, hi, arena]() {
            solve_components(lo, hi, arena);
          }));
    }
    for (std::future<void>& f : done) f.get();
  }

  // ---- Rebuild the cache from this call so the *next* call diffs against
  // the network just solved. Done for every warm-mode call (including the
  // first, all-dirty one — that is what seeds the cache).
  if (warm) {
    WarmCache& cache = warm_cache_;
    cache.valid = true;
    cache.minimize_cost = minimize_cost;
    cache.fingerprint = fingerprint;
    cache.entries.clear();
    cache.entries.reserve(static_cast<size_t>(num_components));
    cache.by_hash.clear();
    cache.pair_wt.resize(pairs.size());
    cache.pair_tt.resize(pairs.size());
    cache.pair_wcap.resize(pairs.size());
    cache.pair_tcap.resize(pairs.size());
    cache.pair_flow.resize(pairs.size());
    int64_t cursor = 0;
    for (int32_t c = 0; c < num_components; ++c) {
      const int32_t p_lo = comp_pair_begin[static_cast<size_t>(c)];
      const int32_t p_hi = comp_pair_begin[static_cast<size_t>(c) + 1];
      WarmCache::Entry entry;
      entry.begin = cursor;
      entry.count = p_hi - p_lo;
      for (int32_t p = p_lo; p < p_hi; ++p) {
        const size_t k =
            static_cast<size_t>(comp_pairs[static_cast<size_t>(p)]);
        const size_t at = static_cast<size_t>(cursor + (p - p_lo));
        cache.pair_wt[at] = pairs[k].worker_type;
        cache.pair_tt[at] = pairs[k].task_type;
        cache.pair_wcap[at] = prediction.workers_at(pairs[k].worker_type);
        cache.pair_tcap[at] = prediction.tasks_at(pairs[k].task_type);
        cache.pair_flow[at] = pair_flow[k];
      }
      cache.by_hash[comp_hash[static_cast<size_t>(c)]].push_back(c);
      cache.entries.push_back(entry);
      cursor += entry.count;
    }
  }
  refresh_stats.components_solved =
      refresh_stats.components_total - refresh_stats.components_reused;
  refresh_stats.warm = refresh_stats.components_reused > 0;
  last_refresh_stats_ = refresh_stats;

  // ---- Deterministic merge: realize matches in the original pair order,
  // handing out nodes with per-type cursors exactly like the serial path.
  std::vector<int32_t> worker_cursor(static_cast<size_t>(num_types), 0);
  std::vector<int32_t> task_cursor(static_cast<size_t>(num_types), 0);
  for (size_t k = 0; k < pairs.size(); ++k) {
    const int64_t flow = pair_flow[k];
    if (flow <= 0) continue;
    const TypeId wt = pairs[k].worker_type;
    const TypeId tt = pairs[k].task_type;
    const GuideNodeId w0 = nodes.first_worker_node[static_cast<size_t>(wt)];
    const GuideNodeId r0 = nodes.first_task_node[static_cast<size_t>(tt)];
    for (int64_t u = 0; u < flow; ++u) {
      const GuideNodeId w = w0 + worker_cursor[static_cast<size_t>(wt)]++;
      const GuideNodeId r = r0 + task_cursor[static_cast<size_t>(tt)]++;
      FTOA_RETURN_NOT_OK(guide.MatchNodes(w, r));
    }
  }
  return guide;
}

Result<OfflineGuide> GuideGenerator::Generate(
    const PredictionMatrix& prediction) const {
  const double rate = options_.approx_sample_rate;
  if (!(rate > 0.0 && rate <= 1.0)) {
    return Status::InvalidArgument(
        "GuideOptions::approx_sample_rate must be in (0, 1]");
  }
  const bool approx = rate < 1.0;
  switch (options_.engine) {
    case GuideOptions::Engine::kFordFulkerson:
    case GuideOptions::Engine::kDinic:
      if (approx) {
        return Status::InvalidArgument(
            "GuideGenerator: approx_sample_rate < 1 requires a compressed "
            "engine (kCompressed, kCompressedMinCost, or kAuto)");
      }
      return GenerateNodeLevel(
          prediction,
          /*use_dinic=*/options_.engine == GuideOptions::Engine::kDinic);
    case GuideOptions::Engine::kCompressed:
      return GenerateCompressed(prediction, /*minimize_cost=*/false);
    case GuideOptions::Engine::kCompressedMinCost:
      return GenerateCompressed(prediction, /*minimize_cost=*/true);
    case GuideOptions::Engine::kAuto: {
      if (approx) {
        // The sampled network is the compressed engines' pair list.
        return GenerateCompressed(prediction, /*minimize_cost=*/false);
      }
      const int64_t edges = EstimateNodeLevelEdges(prediction);
      if (edges <= options_.node_level_edge_limit) {
        return GenerateNodeLevel(prediction, /*use_dinic=*/true);
      }
      return GenerateCompressed(prediction, /*minimize_cost=*/false);
    }
  }
  return Status::Internal("GuideGenerator: unknown engine");
}

}  // namespace ftoa
