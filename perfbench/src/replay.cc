#include "replay.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "core/algorithm_registry.h"
#include "core/guide_generator.h"
#include "core/prediction_matrix.h"
#include "model/instance.h"
#include "prediction/dataset.h"
#include "prediction/registry.h"
#include "sim/boundary_reconciler.h"
#include "sim/sharded_dispatcher.h"

namespace perfbench {

namespace {

using ftoa::ObjectKind;
using ftoa::StreamArrival;

/// The sharded replay always runs this many grid shards on this many actor
/// threads (plus the caller), whatever the workload serves with, so the
/// routing, handoff and reconciliation layers are measured on every
/// workload. Its pairs are compared with serve's only when serve runs the
/// same shard count.
constexpr int kReplayShards = 4;
constexpr int kReplayShardThreads = 3;

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Nearest-rank percentile of a nanosecond sample.
double PercentileNs(std::vector<int64_t>* sample, double pct) {
  if (sample->empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sample->size())));
  const size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(sample->begin(),
                   sample->begin() + static_cast<ptrdiff_t>(index),
                   sample->end());
  return static_cast<double>((*sample)[index]);
}

/// One object of a window's universe, on the day-relative axis.
struct Entry {
  int64_t id = 0;
  ObjectKind kind = ObjectKind::kWorker;
  double rel = 0.0;
  double duration = 0.0;
  ftoa::Point location;
};

/// Realized per-type counts of one served day.
struct DayCounts {
  std::vector<int32_t> workers, tasks;
};

DayCounts CountDay(const ftoa::LoopedTraceSource& source,
                   const Stream& stream, int64_t day) {
  const ftoa::SpacetimeSpec spacetime = source.DaySpacetime();
  const int64_t slots = static_cast<int64_t>(source.day_horizon());
  DayCounts counts;
  counts.workers.assign(static_cast<size_t>(spacetime.num_types()), 0);
  counts.tasks.assign(static_cast<size_t>(spacetime.num_types()), 0);
  const double day_start = static_cast<double>(day) * source.day_horizon();
  const auto begin = stream.window_begin[static_cast<size_t>(day * slots)];
  const auto end =
      stream.window_begin[static_cast<size_t>((day + 1) * slots)];
  for (int64_t id = begin; id < end; ++id) {
    const StreamArrival& a = stream.arrivals[static_cast<size_t>(id)];
    const auto type = static_cast<size_t>(
        spacetime.TypeOf(a.location, a.time - day_start));
    ++(a.kind == ObjectKind::kWorker ? counts.workers : counts.tasks)[type];
  }
  return counts;
}

/// The rolling predictor dataset of a served day: the generator's history
/// followed by every completed served day, the target day last (the same
/// data the harness refits on at each day boundary).
ftoa::DemandDataset PredictorData(const ftoa::LoopedTraceSource& source,
                                  const std::vector<DayCounts>& realized,
                                  int64_t day) {
  const ftoa::CityTraceGenerator& generator = source.generator();
  const int history_days = generator.profile().history_days;
  const int num_cells = source.DaySpacetime().num_areas();
  const int slots = static_cast<int>(source.day_horizon());
  const int target_day = history_days + static_cast<int>(day);
  ftoa::DemandDataset data(target_day + 1, slots, num_cells);
  const ftoa::DemandDataset base = generator.GenerateHistory();
  for (int d = 0; d < history_days; ++d) {
    data.set_day_of_week(d, base.day_of_week(d));
    for (int slot = 0; slot < slots; ++slot) {
      data.set_weather(d, slot, base.weather(d, slot));
      for (int cell = 0; cell < num_cells; ++cell) {
        data.set_workers(d, slot, cell, base.workers(d, slot, cell));
        data.set_tasks(d, slot, cell, base.tasks(d, slot, cell));
      }
    }
  }
  for (int d = 0; d < static_cast<int>(day); ++d) {
    const int at = history_days + d;
    data.set_day_of_week(at, at % 7);
    for (int slot = 0; slot < slots; ++slot) {
      data.set_weather(at, slot,
                       generator.WeatherAt(d % source.loop_days(), slot));
      for (int cell = 0; cell < num_cells; ++cell) {
        const size_t type = static_cast<size_t>(slot * num_cells + cell);
        data.set_workers(at, slot, cell,
                         realized[static_cast<size_t>(d)].workers[type]);
        data.set_tasks(at, slot, cell,
                       realized[static_cast<size_t>(d)].tasks[type]);
      }
    }
  }
  data.set_day_of_week(target_day, target_day % 7);
  for (int slot = 0; slot < slots; ++slot) {
    data.set_weather(target_day, slot,
                     generator.WeatherAt(
                         static_cast<int>(day) % source.loop_days(), slot));
  }
  return data;
}

bool SameGuide(const ftoa::OfflineGuide& a, const ftoa::OfflineGuide& b) {
  const auto same_nodes = [](const std::vector<ftoa::GuideNode>& x,
                             const std::vector<ftoa::GuideNode>& y) {
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].type != y[i].type || x[i].partner != y[i].partner) {
        return false;
      }
    }
    return true;
  };
  return a.matched_pairs() == b.matched_pairs() &&
         same_nodes(a.worker_nodes(), b.worker_nodes()) &&
         same_nodes(a.task_nodes(), b.task_nodes());
}

/// Feeds a window's universe into `session` the way the harness does:
/// objects before the window start, AdvanceTo(window start), then the
/// window's own. Records each OnWorker/OnTask call's time.
template <typename Session>
void Feed(Session* session, const std::vector<Entry>& universe,
          const std::vector<int32_t>& local, double rel_start,
          std::vector<int64_t>* call_ns) {
  size_t i = 0;
  const auto feed_until = [&](double bound) {
    for (; i < universe.size() && universe[i].rel < bound; ++i) {
      const int64_t t0 = NowNanos();
      if (universe[i].kind == ObjectKind::kWorker) {
        session->OnWorker(local[i], universe[i].rel);
      } else {
        session->OnTask(local[i], universe[i].rel);
      }
      call_ns->push_back(NowNanos() - t0);
    }
  };
  feed_until(rel_start);
  session->AdvanceTo(rel_start);
  feed_until(rel_start + 1.0);
}

}  // namespace

ftoa::Result<ReplayResult> ReplayLayers(const ReplayInputs& in,
                                        SpanRecorder* spans) {
  const Workload& workload = *in.workload;
  const ftoa::CityProfile& profile = *in.profile;
  const ftoa::LoopedTraceSource& source = *in.source;
  const Stream& stream = *in.stream;
  const int64_t slots = static_cast<int64_t>(source.day_horizon());
  const ftoa::SpacetimeSpec spacetime = source.DaySpacetime();
  const std::string predictor_name =
      workload.refresh_predictor.empty() ? "HA" : workload.refresh_predictor;
  const bool predictor_serves = !workload.refresh_predictor.empty();
  const int64_t refreshes_per_day =
      workload.refresh_period_windows > 0
          ? (slots + workload.refresh_period_windows - 1) /
                workload.refresh_period_windows
          : 1;

  const ftoa::GuideGenerator cold_generator(
      profile.velocity,
      ResolvedGuideOptions(profile, ftoa::GuideRefreshMode::kCold));
  const ftoa::GuideGenerator warm_generator(
      profile.velocity,
      ResolvedGuideOptions(profile, ftoa::GuideRefreshMode::kWarm));

  ReplayResult out;
  int64_t gen_ns = 0, fit_ns = 0, predict_ns = 0, cold_ns = 0,
          warm_first_ns = 0, warm_ns = 0, instance_ns = 0, core_feed_ns = 0,
          core_finish_ns = 0, sim_feed_ns = 0, sim_finish_ns = 0,
          reconcile_ns = 0;
  int64_t components = 0, components_reused = 0, ignored = 0,
          augment_searches = 0, core_pairs = 0, decisions = 0,
          boundary_objects = 0, reconciled = 0;
  std::vector<int64_t> decide_ns, route_ns;
  std::vector<double> shard_busy(static_cast<size_t>(kReplayShards), 0.0);
  // The algorithm's own session's queries: what serve's sessions ask of
  // the retrieval layer (the reconciler's show in sim.reconcile_ms).
  ftoa::RetrievalStats retrieval;
  std::vector<DayCounts> realized;
  std::vector<int64_t> carry;  // Unmatched members of the last universe.

  for (int64_t day = 0; day < in.days; ++day) {
    ScopedSpan day_span(spans, "replay.day");
    {
      const int64_t t0 = NowNanos();
      spans->Begin("gen.day_arrivals");
      FTOA_ASSIGN_OR_RETURN(const std::vector<StreamArrival> arrivals,
                            source.ArrivalsForDay(day));
      spans->End();
      gen_ns += NowNanos() - t0;
      const int64_t begin =
          stream.window_begin[static_cast<size_t>(day * slots)];
      if (static_cast<int64_t>(arrivals.size()) !=
          stream.window_begin[static_cast<size_t>((day + 1) * slots)] -
              begin) {
        return ftoa::Status::Internal("replay: day arrivals differ");
      }
    }

    // Prediction layer: refit on history plus the completed days, then
    // predict every slot of the day.
    ftoa::PredictionMatrix predicted(spacetime);
    {
      // The refit: the rolling dataset, then both sides' fits.
      int64_t t0 = NowNanos();
      spans->Begin("prediction.fit");
      const ftoa::DemandDataset data = PredictorData(source, realized, day);
      const int target = static_cast<int>(data.num_days()) - 1;
      FTOA_ASSIGN_OR_RETURN(std::unique_ptr<ftoa::Predictor> workers,
                            ftoa::CreatePredictor(predictor_name));
      FTOA_ASSIGN_OR_RETURN(std::unique_ptr<ftoa::Predictor> tasks,
                            ftoa::CreatePredictor(predictor_name));
      FTOA_RETURN_NOT_OK(
          workers->Fit(data, target, ftoa::DemandSide::kWorkers));
      FTOA_RETURN_NOT_OK(tasks->Fit(data, target, ftoa::DemandSide::kTasks));
      spans->End();
      fit_ns += NowNanos() - t0;
      t0 = NowNanos();
      spans->Begin("prediction.predict");
      for (int slot = 0; slot < static_cast<int>(slots); ++slot) {
        const std::vector<double> w = workers->Predict(data, target, slot);
        const std::vector<double> r = tasks->Predict(data, target, slot);
        for (int cell = 0; cell < spacetime.num_areas(); ++cell) {
          const ftoa::TypeId type = spacetime.TypeAt(slot, cell);
          predicted.set_workers_at(
              type, static_cast<int32_t>(std::max<int64_t>(
                        0, std::llround(w[static_cast<size_t>(cell)]))));
          predicted.set_tasks_at(
              type, static_cast<int32_t>(std::max<int64_t>(
                        0, std::llround(r[static_cast<size_t>(cell)]))));
        }
      }
      spans->End();
      predict_ns += NowNanos() - t0;
    }

    // The prediction serve solves its guide from.
    ftoa::PredictionMatrix prediction(spacetime);
    if (predictor_serves) {
      prediction = predicted;
    } else if (day == 0) {
      const int source_day = 0;
      const std::vector<int> w = source.generator().SampleDayCounts(
          ftoa::DemandSide::kWorkers, source_day);
      const std::vector<int> r = source.generator().SampleDayCounts(
          ftoa::DemandSide::kTasks, source_day);
      for (int type = 0; type < spacetime.num_types(); ++type) {
        prediction.set_workers_at(type, w[static_cast<size_t>(type)]);
        prediction.set_tasks_at(type, r[static_cast<size_t>(type)]);
      }
    } else {
      const DayCounts& last = realized.back();
      for (int type = 0; type < spacetime.num_types(); ++type) {
        prediction.set_workers_at(type, last.workers[static_cast<size_t>(type)]);
        prediction.set_tasks_at(type, last.tasks[static_cast<size_t>(type)]);
      }
    }
    realized.push_back(CountDay(source, stream, day));

    // Guide layer: cold, then warm twice on the same prediction — the
    // first warm call reuses what the previous day left, the second is
    // the refresh of an unchanged prediction.
    std::shared_ptr<const ftoa::OfflineGuide> guide;
    {
      int64_t t0 = NowNanos();
      spans->Begin("core.guide_cold");
      FTOA_ASSIGN_OR_RETURN(ftoa::OfflineGuide cold,
                            cold_generator.Generate(prediction));
      spans->End();
      cold_ns += NowNanos() - t0;
      components += cold_generator.last_num_components();
      t0 = NowNanos();
      spans->Begin("core.guide_warm_first");
      FTOA_ASSIGN_OR_RETURN(ftoa::OfflineGuide warm_first,
                            warm_generator.Generate(prediction));
      spans->End();
      warm_first_ns += NowNanos() - t0;
      t0 = NowNanos();
      spans->Begin("core.guide_warm");
      FTOA_ASSIGN_OR_RETURN(ftoa::OfflineGuide warm,
                            warm_generator.Generate(prediction));
      spans->End();
      warm_ns += NowNanos() - t0;
      components_reused +=
          warm_generator.last_refresh_stats().components_reused;
      if (!SameGuide(cold, warm) || !SameGuide(cold, warm_first)) {
        ++out.warm_cold_mismatches;
      }
      out.guide_pairs_total += cold.matched_pairs();
      guide = std::make_shared<const ftoa::OfflineGuide>(std::move(cold));
    }

    ftoa::AlgorithmDeps deps;
    deps.guide = guide;
    deps.retrieval = ftoa::RetrievalMode::kEngine;
    const double day_start = static_cast<double>(day) * source.day_horizon();
    for (int64_t window = day * slots; window < (day + 1) * slots;
         ++window) {
      ScopedSpan window_span(spans, "replay.window");
      ++out.windows;
      // The window's universe: last window's unmatched, still-live
      // objects plus this window's admissions, re-timed onto the day axis
      // and in session arrival order.
      std::vector<Entry> universe;
      const double now = static_cast<double>(window);
      const auto add = [&](int64_t id) {
        const StreamArrival& a = stream.arrivals[static_cast<size_t>(id)];
        Entry entry{id, a.kind, a.time - day_start, a.duration, a.location};
        if (entry.rel < 0.0) {
          entry.duration = a.Deadline() - day_start;
          entry.rel = 0.0;
        }
        if (entry.duration > 0.0) universe.push_back(entry);
      };
      for (const int64_t id : carry) {
        if (stream.arrivals[static_cast<size_t>(id)].Deadline() > now) {
          add(id);
        }
      }
      for (int64_t id = stream.window_begin[static_cast<size_t>(window)];
           id < stream.window_begin[static_cast<size_t>(window + 1)]; ++id) {
        add(id);
      }
      std::sort(universe.begin(), universe.end(),
                [](const Entry& a, const Entry& b) {
                  if (a.rel != b.rel) return a.rel < b.rel;
                  if (a.kind != b.kind) return a.kind == ObjectKind::kWorker;
                  return a.id < b.id;
                });

      int64_t t0 = NowNanos();
      spans->Begin("model.instance_build");
      std::vector<ftoa::Worker> workers;
      std::vector<ftoa::Task> tasks;
      std::vector<int64_t> worker_stream, task_stream;
      std::vector<int32_t> local(universe.size(), -1);
      for (size_t i = 0; i < universe.size(); ++i) {
        const Entry& e = universe[i];
        if (e.kind == ObjectKind::kWorker) {
          local[i] = static_cast<int32_t>(workers.size());
          workers.push_back(ftoa::Worker{-1, e.location, e.rel, e.duration});
          worker_stream.push_back(e.id);
        } else {
          local[i] = static_cast<int32_t>(tasks.size());
          tasks.push_back(ftoa::Task{-1, e.location, e.rel, e.duration});
          task_stream.push_back(e.id);
        }
      }
      const ftoa::Instance instance(spacetime, profile.velocity,
                                    std::move(workers), std::move(tasks));
      spans->End();
      instance_ns += NowNanos() - t0;

      const size_t serve_begin =
          window == 0 ? 0
                      : (*in.serve_pairs_end)[static_cast<size_t>(window - 1)];
      const size_t serve_end =
          (*in.serve_pairs_end)[static_cast<size_t>(window)];
      const auto same_as_serve = [&](const ftoa::Assignment& assignment) {
        const auto& pairs = assignment.pairs();
        if (pairs.size() != serve_end - serve_begin) return false;
        for (size_t i = 0; i < pairs.size(); ++i) {
          const Pair got{worker_stream[static_cast<size_t>(pairs[i].worker)],
                         task_stream[static_cast<size_t>(pairs[i].task)]};
          if (got != (*in.serve_pairs)[serve_begin + i]) return false;
        }
        return true;
      };
      const double rel_start = static_cast<double>(window % slots);

      // Core layer: the algorithm's own session, unsharded.
      {
        ScopedSpan core_span(spans, "core.session");
        FTOA_ASSIGN_OR_RETURN(
            std::unique_ptr<ftoa::OnlineAlgorithm> algorithm,
            ftoa::CreateAlgorithm(workload.algorithm, deps));
        std::unique_ptr<ftoa::AssignmentSession> session =
            algorithm->StartSession(instance);
        session->set_collect_dispatches(false);
        t0 = NowNanos();
        spans->Begin("core.decide");
        const size_t before = decide_ns.size();
        Feed(session.get(), universe, local, rel_start, &decide_ns);
        spans->End();
        core_feed_ns += NowNanos() - t0;
        decisions += static_cast<int64_t>(decide_ns.size() - before);
        t0 = NowNanos();
        spans->Begin("core.finish");
        const ftoa::SessionResult result = session->Finish();
        spans->End();
        core_finish_ns += NowNanos() - t0;
        ignored += result.trace.ignored_workers + result.trace.ignored_tasks;
        augment_searches += result.trace.matcher_augment_searches;
        core_pairs += static_cast<int64_t>(result.assignment.size());
        retrieval.Absorb(result.trace.retrieval);
        if (workload.num_shards == 1 && !same_as_serve(result.assignment)) {
          ++out.mismatched_windows;
        }
      }

      // Sim layer: the sharded dispatcher on kReplayShards shards, with
      // boundary reconciliation taken out of Finish and called on its own.
      {
        ScopedSpan sim_span(spans, "sim.session");
        FTOA_ASSIGN_OR_RETURN(
            std::unique_ptr<ftoa::OnlineAlgorithm> algorithm,
            ftoa::CreateAlgorithm(workload.algorithm, deps));
        ftoa::ShardedOptions options;
        options.num_shards = kReplayShards;
        options.num_threads = kReplayShardThreads;
        options.reconcile = false;
        ftoa::ShardedDispatcher dispatcher(algorithm.get(), options);
        std::unique_ptr<ftoa::ShardedSession> session =
            dispatcher.StartSession(instance);
        session->set_collect_dispatches(false);
        t0 = NowNanos();
        spans->Begin("sim.route");
        Feed(session.get(), universe, local, rel_start, &route_ns);
        spans->End();
        sim_feed_ns += NowNanos() - t0;
        t0 = NowNanos();
        spans->Begin("sim.finish");
        FTOA_ASSIGN_OR_RETURN(ftoa::ShardedRunResult result,
                              session->Finish());
        spans->End();
        sim_finish_ns += NowNanos() - t0;
        ftoa::ReconcileOptions reconcile;
        reconcile.policy = algorithm->feasibility_policy();
        reconcile.guide = algorithm->guide();
        t0 = NowNanos();
        spans->Begin("sim.reconcile");
        FTOA_ASSIGN_OR_RETURN(
            const ftoa::ReconcileStats stats,
            ftoa::ReconcileShardBoundary(instance, session->router(),
                                         reconcile, &result.assignment));
        spans->End();
        reconcile_ns += NowNanos() - t0;
        boundary_objects += stats.boundary_workers + stats.boundary_tasks;
        reconciled += stats.recovered_pairs;
        for (size_t s = 0; s < result.shard_metrics.size(); ++s) {
          shard_busy[s] += result.shard_metrics[s].busy_seconds;
        }
        if (workload.num_shards == kReplayShards &&
            !same_as_serve(result.assignment)) {
          ++out.mismatched_windows;
        }
      }

      // Next universe: what serve left unmatched.
      std::vector<int64_t> serve_ids;
      for (size_t i = serve_begin; i < serve_end; ++i) {
        serve_ids.push_back((*in.serve_pairs)[i].first);
        serve_ids.push_back((*in.serve_pairs)[i].second);
      }
      std::sort(serve_ids.begin(), serve_ids.end());
      carry.clear();
      for (const Entry& e : universe) {
        if (!std::binary_search(serve_ids.begin(), serve_ids.end(), e.id)) {
          carry.push_back(e.id);
        }
      }
    }
  }

  const double days = static_cast<double>(in.days);
  // Serve's session is the sharded replay's when the shard counts match
  // (reconciling only when the workload asks for it), else the algorithm's
  // own session.
  double served_ns = static_cast<double>(gen_ns + instance_ns);
  if (workload.num_shards == kReplayShards) {
    served_ns += static_cast<double>(sim_feed_ns + sim_finish_ns +
                                     (workload.reconcile ? reconcile_ns : 0));
  } else {
    served_ns += static_cast<double>(core_feed_ns + core_finish_ns);
  }
  if (predictor_serves) {
    // Serve refits once a day and predicts at every refresh; the first
    // warm refresh of a day reuses yesterday's components, the rest an
    // unchanged prediction.
    served_ns += static_cast<double>(fit_ns) +
                 static_cast<double>(predict_ns * refreshes_per_day) +
                 static_cast<double>(warm_first_ns) +
                 static_cast<double>(warm_ns * (refreshes_per_day - 1));
  } else {
    served_ns += static_cast<double>(cold_ns);
  }
  out.served_layers_ms_per_day = served_ns * 1e-6 / days;

  double busy_max = 0.0, busy_sum = 0.0;
  for (const double busy : shard_busy) {
    busy_max = std::max(busy_max, busy);
    busy_sum += busy;
  }
  const double queries = static_cast<double>(retrieval.queries);
  out.metrics = {
      {"gen.day_arrivals_ms", Ms(gen_ns) / days, "ms"},
      {"model.instance_build_ms", Ms(instance_ns) / days, "ms"},
      {"prediction.fit_ms", Ms(fit_ns) / days, "ms"},
      {"prediction.predict_ms", Ms(predict_ns) / days, "ms"},
      {"core.guide_cold_ms", Ms(cold_ns) / days, "ms"},
      {"core.guide_warm_ms", Ms(warm_ns) / days, "ms"},
      {"core.guide_pairs", static_cast<double>(out.guide_pairs_total) / days,
       "pairs"},
      {"core.ignored_objects", static_cast<double>(ignored) / days, "count"},
      {"flow.components", static_cast<double>(components) / days, "count"},
      {"flow.components_reused",
       static_cast<double>(components_reused) / days, "count"},
      {"flow.augment_searches_per_pair",
       Ratio(static_cast<double>(augment_searches),
             static_cast<double>(core_pairs)),
       "ratio"},
      {"core.decide_p50_ns", PercentileNs(&decide_ns, 50.0), "ns"},
      {"core.decide_p99_ns", PercentileNs(&decide_ns, 99.0), "ns"},
      {"core.decisions", static_cast<double>(decisions) / days, "count"},
      {"core.finish_ms", Ms(core_finish_ns) / days, "ms"},
      {"retrieval.queries", queries / days, "count"},
      {"retrieval.cells_per_query",
       Ratio(static_cast<double>(retrieval.cells_visited), queries), "ratio"},
      {"retrieval.candidates_per_query",
       Ratio(static_cast<double>(retrieval.candidates_examined), queries),
       "ratio"},
      {"retrieval.pairs_per_query",
       Ratio(static_cast<double>(core_pairs), queries), "ratio"},
      {"sim.route_p50_ns", PercentileNs(&route_ns, 50.0), "ns"},
      {"sim.finish_ms", Ms(sim_finish_ns) / days, "ms"},
      {"sim.shard_busy_skew",
       Ratio(busy_max, busy_sum / static_cast<double>(shard_busy.size())),
       "ratio"},
      {"sim.reconcile_ms", Ms(reconcile_ns) / days, "ms"},
      {"sim.boundary_objects", static_cast<double>(boundary_objects) / days,
       "count"},
      {"sim.reconciled_pairs", static_cast<double>(reconciled) / days,
       "pairs"},
      {"sim.reconcile_yield",
       Ratio(static_cast<double>(reconciled),
             static_cast<double>(boundary_objects)),
       "ratio"},
  };
  return out;
}

}  // namespace perfbench
