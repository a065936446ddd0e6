// The benchmark's workloads: each one is a city profile plus the few
// ServiceHarness options that differ from the program's defaults. Every
// other setting is left at its default, so a change to a default shows up.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/guide_generator.h"
#include "gen/config.h"
#include "gen/looped_trace.h"
#include "serve/service_harness.h"

namespace perfbench {

struct Workload {
  std::string name;
  bool beijing = true;  ///< Beijing (demand > supply) or Hangzhou.
  std::string algorithm;
  int num_shards = 1;
  int shard_threads = 1;
  bool reconcile = false;
  int refresh_period_windows = 0;  ///< 0 = the default, once a day.
  ftoa::GuideRefreshMode refresh_mode = ftoa::GuideRefreshMode::kCold;
  std::string refresh_predictor;   ///< Empty = realized counts.
};

const std::vector<Workload>& AllWorkloads();

/// Null when `name` names no workload.
const Workload* FindWorkload(const std::string& name);

/// The workload's city profile; `seed` drives every random draw of the
/// trace generator.
ftoa::CityProfile ProfileFor(const Workload& workload, uint64_t seed);

/// Paper scale (Table 3): about 105k objects per city day.
ftoa::LoopedTraceSource::Options TraceOptions();

/// Harness options of the workload. `shard_threads` overrides the
/// workload's actor thread count when >= 1.
ftoa::ServiceOptions ServiceOptionsFor(const Workload& workload,
                                       int shard_threads = 0);

/// The guide options the harness resolves at Create (durations from the
/// profile), with the given refresh mode.
ftoa::GuideOptions ResolvedGuideOptions(const ftoa::CityProfile& profile,
                                        ftoa::GuideRefreshMode mode);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
