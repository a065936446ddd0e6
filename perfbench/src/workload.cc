#include "workload.h"

namespace perfbench {

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> all;
    Workload bj_polarop;
    bj_polarop.name = "bj-polarop";
    bj_polarop.algorithm = "polar-op";
    all.push_back(bj_polarop);

    Workload bj_tgoa = bj_polarop;
    bj_tgoa.name = "bj-tgoa";
    bj_tgoa.algorithm = "tgoa";
    all.push_back(bj_tgoa);

    Workload hz_shard4;
    hz_shard4.name = "hz-polarop-shard4";
    hz_shard4.beijing = false;
    hz_shard4.algorithm = "polar-op";
    hz_shard4.num_shards = 4;
    // Three actor threads plus the calling thread: the 4 cores of the
    // reference host.
    hz_shard4.shard_threads = 3;
    hz_shard4.reconcile = true;
    all.push_back(hz_shard4);

    Workload hz_hourly;
    hz_hourly.name = "hz-polarop-hourly";
    hz_hourly.beijing = false;
    hz_hourly.algorithm = "polar-op";
    hz_hourly.refresh_period_windows = 1;
    hz_hourly.refresh_mode = ftoa::GuideRefreshMode::kWarm;
    hz_hourly.refresh_predictor = "HA";
    all.push_back(hz_hourly);
    return all;
  }();
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : AllWorkloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

ftoa::CityProfile ProfileFor(const Workload& workload, uint64_t seed) {
  ftoa::CityProfile profile =
      workload.beijing ? ftoa::BeijingProfile() : ftoa::HangzhouProfile();
  profile.seed = seed;
  return profile;
}

ftoa::LoopedTraceSource::Options TraceOptions() {
  ftoa::LoopedTraceSource::Options options;
  options.scale = 1.0;
  return options;
}

ftoa::ServiceOptions ServiceOptionsFor(const Workload& workload,
                                       int shard_threads) {
  ftoa::ServiceOptions options;
  options.algorithm = workload.algorithm;
  options.num_shards = workload.num_shards;
  options.shard_threads =
      shard_threads >= 1 ? shard_threads : workload.shard_threads;
  options.reconcile = workload.reconcile;
  // What `ftoa serve` picks for both cities at scale 1.0.
  options.retrieval = ftoa::RetrievalMode::kEngine;
  options.refresh_period_windows = workload.refresh_period_windows;
  options.guide.refresh_mode = workload.refresh_mode;
  options.refresh_predictor = workload.refresh_predictor;
  return options;
}

ftoa::GuideOptions ResolvedGuideOptions(const ftoa::CityProfile& profile,
                                        ftoa::GuideRefreshMode mode) {
  ftoa::GuideOptions options;
  options.worker_duration = profile.worker_duration;
  options.task_duration = profile.task_duration;
  options.refresh_mode = mode;
  return options;
}

}  // namespace perfbench
