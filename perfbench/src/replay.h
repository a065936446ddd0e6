// The traced run's layer replay. It replays served days, window by window
// and in serve order, through each layer's public functions — arrival
// generation, prediction, guide solve (cold, then warm on the same
// prediction), Instance construction, the algorithm's own session and the
// sharded dispatcher's session with boundary reconciliation called on its
// own — timing each call from the outside, so serve time is attributed to
// the modules under src/. Each window's universe is rebuilt from the
// regenerated stream and the pairs serve committed, exactly as the harness
// builds it, so the replayed sessions see the inputs serve saw.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "check.h"
#include "gen/config.h"
#include "gen/looped_trace.h"
#include "spans.h"
#include "util/result.h"
#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct ReplayInputs {
  const Workload* workload = nullptr;
  const ftoa::CityProfile* profile = nullptr;
  const ftoa::LoopedTraceSource* source = nullptr;
  const Stream* stream = nullptr;
  /// Every pair serve committed, and the pair count after each window.
  const std::vector<Pair>* serve_pairs = nullptr;
  const std::vector<size_t>* serve_pairs_end = nullptr;
  int64_t days = 0;
};

struct ReplayResult {
  std::vector<Metric> metrics;
  /// Time per served day of the layers serve itself runs (the rest of a
  /// served day is the harness's own work).
  double served_layers_ms_per_day = 0.0;
  /// Sum over days of the guide's matched pairs.
  int64_t guide_pairs_total = 0;
  /// Windows whose replayed session committed other pairs than serve did
  /// (the algorithm's own session on one shard, the sharded replay when
  /// serve runs its shard count).
  int64_t mismatched_windows = 0;
  int64_t windows = 0;
  /// Days on which the warm guide of an unchanged prediction differed
  /// from the cold guide.
  int64_t warm_cold_mismatches = 0;
};

ftoa::Result<ReplayResult> ReplayLayers(const ReplayInputs& inputs,
                                        SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
