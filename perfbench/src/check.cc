#include "check.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "core/algorithm_registry.h"
#include "core/guide_generator.h"
#include "core/prediction_matrix.h"
#include "gen/city_trace.h"
#include "model/instance.h"
#include "workload.h"

namespace perfbench {

using ftoa::FeasibilityPolicy;
using ftoa::ObjectKind;
using ftoa::StreamArrival;

ftoa::Result<Stream> RegenerateStream(const ftoa::LoopedTraceSource& source,
                                      int64_t days) {
  const int64_t slots = static_cast<int64_t>(source.day_horizon());
  Stream stream;
  std::vector<int64_t> offered(static_cast<size_t>(days * slots), 0);
  for (int64_t day = 0; day < days; ++day) {
    FTOA_ASSIGN_OR_RETURN(std::vector<StreamArrival> arrivals,
                          source.ArrivalsForDay(day));
    for (const StreamArrival& arrival : arrivals) {
      // A day's arrivals belong to that day's windows; one that rounds
      // onto the next day's boundary still counts in the day's last window.
      const int64_t slot = std::min<int64_t>(
          slots - 1, std::max<int64_t>(
                         0, static_cast<int64_t>(std::floor(arrival.time)) -
                                day * slots));
      ++offered[static_cast<size_t>(day * slots + slot)];
    }
    stream.arrivals.insert(stream.arrivals.end(), arrivals.begin(),
                           arrivals.end());
  }
  stream.window_begin.assign(offered.size() + 1, 0);
  for (size_t w = 0; w < offered.size(); ++w) {
    stream.window_begin[w + 1] = stream.window_begin[w] + offered[w];
  }
  return stream;
}

bool PairFeasible(const StreamArrival& worker, const StreamArrival& task,
                  double velocity, FeasibilityPolicy policy) {
  // The task must appear before the worker leaves.
  if (!(task.time < worker.time + worker.duration)) return false;
  const double dx = worker.location.x - task.location.x;
  const double dy = worker.location.y - task.location.y;
  const double travel = std::sqrt(dx * dx + dy * dy) / velocity;
  if (policy == FeasibilityPolicy::kDispatchAtWorkerStart) {
    // The worker moves from its own start: it reaches the task by the
    // task's deadline.
    return worker.time + travel <= task.time + task.duration;
  }
  // Wait in place: the worker leaves when both are present.
  return std::max(worker.time, task.time) + travel <=
         task.time + task.duration;
}

PairCheck CheckPairs(const std::vector<StreamArrival>& offered,
                     const std::vector<Pair>& pairs, double velocity,
                     FeasibilityPolicy policy) {
  PairCheck check;
  check.feasible.assign(pairs.size(), 0);
  std::vector<char> used(offered.size(), 0);
  const int64_t size = static_cast<int64_t>(offered.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [worker, task] = pairs[i];
    const std::string where = "pair " + std::to_string(i) + " (" +
                              std::to_string(worker) + ", " +
                              std::to_string(task) + "): ";
    if (worker < 0 || worker >= size || task < 0 || task >= size) {
      check.errors.push_back(where + "id was never offered");
      continue;
    }
    const StreamArrival& w = offered[static_cast<size_t>(worker)];
    const StreamArrival& r = offered[static_cast<size_t>(task)];
    if (w.kind != ObjectKind::kWorker || r.kind != ObjectKind::kTask) {
      check.errors.push_back(where + "not worker -> task");
      continue;
    }
    bool duplicate = false;
    for (const int64_t id : {worker, task}) {
      if (used[static_cast<size_t>(id)]) duplicate = true;
      used[static_cast<size_t>(id)] = 1;
    }
    if (duplicate) {
      check.errors.push_back(where + "object already in another pair");
      continue;
    }
    if (PairFeasible(w, r, velocity, policy)) {
      check.feasible[i] = 1;
    } else {
      ++check.infeasible;
    }
  }
  return check;
}

std::string CheckerSelfTest() {
  const auto worker = [](double x, double t, double d) {
    return StreamArrival{ObjectKind::kWorker, t, ftoa::Point{x, 0.0}, d, -1,
                         0};
  };
  const auto task = [](double x, double t, double d) {
    return StreamArrival{ObjectKind::kTask, t, ftoa::Point{x, 0.0}, d, -1,
                         0};
  };
  // Velocity 1, so a distance is a travel time.
  const std::vector<StreamArrival> offered = {
      worker(0.0, 0.0, 2.0),  // 0
      task(0.5, 0.5, 1.0),    // 1: feasible with 0 under both policies.
      worker(0.0, 1.0, 2.0),  // 2
      task(1.8, 0.0, 2.0),    // 3: too far for 2 under both policies.
      worker(0.0, 0.0, 3.0),  // 4
      task(1.5, 1.0, 1.0),    // 5: with 4, only moving early makes it.
      worker(0.0, 0.0, 0.5),  // 6
      task(0.0, 1.0, 1.0),    // 7: appears after 6 has left.
  };
  const FeasibilityPolicy kStart = FeasibilityPolicy::kDispatchAtWorkerStart;
  const FeasibilityPolicy kWait = FeasibilityPolicy::kDispatchAtAssignmentTime;
  struct Case {
    const char* what;
    std::vector<Pair> pairs;
    FeasibilityPolicy policy;
    bool want_error;
    int64_t want_infeasible;
  };
  const std::vector<Case> cases = {
      {"feasible pair (dispatch at worker start)", {{0, 1}}, kStart, false, 0},
      {"feasible pair (wait in place)", {{0, 1}}, kWait, false, 0},
      {"pair out of reach (dispatch at worker start)", {{2, 3}}, kStart,
       false, 1},
      {"pair the worker reaches only by moving early (wait in place)",
       {{4, 5}}, kWait, false, 1},
      {"the same pair is feasible when moving early", {{4, 5}}, kStart,
       false, 0},
      {"task after the worker left", {{6, 7}}, kStart, false, 1},
      {"duplicate object", {{0, 1}, {0, 5}}, kStart, true, 0},
      {"worker-worker pair", {{0, 2}}, kStart, true, 0},
      {"task-worker pair", {{1, 0}}, kStart, true, 0},
      {"id never offered", {{0, 99}}, kStart, true, 0},
  };
  for (const Case& c : cases) {
    const PairCheck check = CheckPairs(offered, c.pairs, 1.0, c.policy);
    if (!check.errors.empty() != c.want_error ||
        check.infeasible != c.want_infeasible) {
      return std::string("checker self-test missed: ") + c.what;
    }
  }
  return "";
}

ftoa::Result<bool> GuideTrustProbeFails(const std::string& algorithm,
                                        const ftoa::CityProfile& profile) {
  const ftoa::SpacetimeSpec spacetime =
      ftoa::CityTraceGenerator(profile).DaySpacetime();
  const ftoa::Point where{spacetime.grid().width() / 2.0,
                          spacetime.grid().height() / 2.0};
  // Worker and task share one (slot 1, centre cell) type. The type-level
  // test at the slot midpoint passes, but the task appears at 1.5, after
  // the worker left at 1.2.
  const double worker_start = 1.0;
  const double worker_duration = 0.2;
  const double task_start = 1.5;
  const double task_duration = 1.0;
  const ftoa::TypeId type = spacetime.TypeOf(where, worker_start);
  ftoa::PredictionMatrix prediction(spacetime);
  prediction.set_workers_at(type, 1);
  prediction.set_tasks_at(type, 1);
  const ftoa::GuideGenerator generator(
      profile.velocity,
      ResolvedGuideOptions(profile, ftoa::GuideRefreshMode::kCold));
  FTOA_ASSIGN_OR_RETURN(ftoa::OfflineGuide guide,
                        generator.Generate(prediction));

  const ftoa::Instance instance(
      spacetime, profile.velocity,
      {ftoa::Worker{-1, where, worker_start, worker_duration}},
      {ftoa::Task{-1, where, task_start, task_duration}});
  ftoa::AlgorithmDeps deps;
  deps.guide = std::make_shared<const ftoa::OfflineGuide>(std::move(guide));
  deps.retrieval = ftoa::RetrievalMode::kEngine;
  FTOA_ASSIGN_OR_RETURN(std::unique_ptr<ftoa::OnlineAlgorithm> online,
                        ftoa::CreateAlgorithm(algorithm, deps));
  std::unique_ptr<ftoa::AssignmentSession> session =
      online->StartSession(instance);
  session->OnWorker(0, worker_start);
  session->OnTask(0, task_start);
  const ftoa::SessionResult result = session->Finish();

  const std::vector<StreamArrival> offered = {
      {ObjectKind::kWorker, worker_start, where, worker_duration, 0, 0},
      {ObjectKind::kTask, task_start, where, task_duration, 0, 0}};
  std::vector<Pair> pairs;
  for (const ftoa::MatchedPair& pair : result.assignment.pairs()) {
    // Worker 0 is stream id 0, task 0 is stream id 1.
    pairs.emplace_back(pair.worker, 1 + pair.task);
  }
  const PairCheck check = CheckPairs(offered, pairs, profile.velocity,
                                     online->feasibility_policy());
  if (!check.errors.empty()) {
    return ftoa::Status::Internal("guide-trust probe: " + check.errors[0]);
  }
  return check.infeasible > 0;
}

uint64_t DigestPairs(const std::vector<Pair>& pairs, size_t begin,
                     size_t end) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](int64_t value) {
    unsigned char bytes[sizeof(value)];
    std::memcpy(bytes, &value, sizeof(value));
    for (const unsigned char byte : bytes) {
      hash ^= byte;
      hash *= 0x100000001b3ULL;
    }
  };
  for (size_t i = begin; i < end && i < pairs.size(); ++i) {
    mix(pairs[i].first);
    mix(pairs[i].second);
  }
  return hash;
}

}  // namespace perfbench
