// Harness-level equivalences.
//
// Rotation: the incremental spine (ServiceOptions::incremental_rotation)
// must commit exactly the pairs of the rebuild reference on the same
// stream — across algorithms, shard counts, eviction settings, fault
// plans, and day boundaries. The spine is an optimization of *how* the
// carryover universe is assembled, never of what it contains.
//
// Chunking: one session per window, so RunWindows(n) commits exactly what
// n calls of RunWindows(1) commit, whatever refreshes and faults land.
//
// Refresh: a harness serving with GuideRefreshMode::kWarm must match the
// cold-serving harness bit for bit, including refreshes every few
// windows, while actually reusing component solves (the reuse totals
// prove the warm path engaged, not silently fell back cold).
//
// The *Stress* suite fuzzes option interleavings under the `stress` ctest
// label (re-runnable via tools/run_stress.sh).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/service_harness.h"
#include "util/rng.h"

namespace ftoa {
namespace {

CityProfile SmallCity() {
  CityProfile profile;
  profile.name = "test-city";
  profile.grid_x = 6;
  profile.grid_y = 4;
  profile.slots_per_day = 6;
  profile.history_days = 4;
  profile.workers_per_day = 60;
  profile.tasks_per_day = 70;
  profile.velocity = 3.0;
  profile.task_duration = 1.0;
  profile.worker_duration = 2.0;
  profile.seed = 99;
  return profile;
}

std::unique_ptr<ServiceHarness> MakeHarness(const ServiceOptions& options) {
  auto harness = ServiceHarness::Create(SmallCity(),
                                        LoopedTraceSource::Options{}, options);
  EXPECT_TRUE(harness.ok()) << harness.status();
  return std::move(harness).value();
}

void ExpectSamePairs(const ServiceHarness& a, const ServiceHarness& b,
                     const std::string& context) {
  EXPECT_EQ(a.totals().matched, b.totals().matched) << context;
  ASSERT_EQ(a.matched_pairs().size(), b.matched_pairs().size()) << context;
  for (size_t i = 0; i < a.matched_pairs().size(); ++i) {
    ASSERT_EQ(a.matched_pairs()[i], b.matched_pairs()[i])
        << context << " pair " << i;
  }
}

TEST(RotationEquivalenceTest, SpineMatchesRebuildAcrossAlgorithmsAndShards) {
  for (const char* algorithm : {"simple-greedy", "tgoa", "polar-op"}) {
    for (const int shards : {1, 3}) {
      for (const bool evict : {true, false}) {
        ServiceOptions incremental;
        incremental.algorithm = algorithm;
        incremental.num_shards = shards;
        incremental.evict_expired = evict;
        incremental.incremental_rotation = true;
        ServiceOptions rebuild = incremental;
        rebuild.incremental_rotation = false;

        auto a = MakeHarness(incremental);
        auto b = MakeHarness(rebuild);
        // 20 windows = 3+ days: multiple day-boundary re-timings.
        ASSERT_TRUE(a->RunWindows(20).ok());
        ASSERT_TRUE(b->RunWindows(20).ok());
        ExpectSamePairs(*a, *b,
                        std::string(algorithm) +
                            " shards=" + std::to_string(shards) +
                            (evict ? " evict" : " no-evict"));
        EXPECT_GT(a->totals().matched, 0);
      }
    }
  }
}

TEST(RotationEquivalenceTest, SpineMatchesRebuildUnderFaults) {
  // Dropped handoffs leave objects for redelivery, flash crowds force
  // shedding, and a failed refresh degrades windows — all paths that
  // exercise the spine's carryover filter differently from a clean run.
  ServiceOptions incremental;
  incremental.max_queue_depth = 80;
  incremental.faults =
      "drop-batch@3-4,flash@7-8:factor=6,guide-fail@6-6:count=1";
  ServiceOptions rebuild = incremental;
  rebuild.incremental_rotation = false;

  auto a = MakeHarness(incremental);
  auto b = MakeHarness(rebuild);
  ASSERT_TRUE(a->RunWindows(18).ok());
  ASSERT_TRUE(b->RunWindows(18).ok());
  ExpectSamePairs(*a, *b, "faulted");
  EXPECT_GT(a->totals().dropped_arrivals, 0);
  EXPECT_GT(a->totals().shed, 0);
}

TEST(ChunkingEquivalenceTest, RunWindowsIsIndependentOfChunking) {
  // Two days served by one call must commit the pairs, in order and per
  // window, of the same two days served one window per call — with and
  // without refreshes inside the day and an injected handoff drop.
  constexpr int64_t kWindows = 12;  // 2 days of 6 windows.
  for (const char* algorithm : {"simple-greedy", "gr", "tgoa", "polar-op"}) {
    for (const int shards : {1, 3}) {
      for (const bool refresh : {false, true}) {
        for (const bool drop : {false, true}) {
          ServiceOptions options;
          options.algorithm = algorithm;
          options.num_shards = shards;
          if (refresh) options.refresh_period_windows = 3;
          if (drop) options.faults = "drop-batch@4-5";
          const std::string context =
              std::string(algorithm) + " shards=" + std::to_string(shards) +
              (refresh ? " refresh=3" : "") + (drop ? " drop" : "");

          auto whole = MakeHarness(options);
          auto stepped = MakeHarness(options);
          ASSERT_TRUE(whole->RunWindows(kWindows).ok()) << context;
          for (int64_t w = 0; w < kWindows; ++w) {
            ASSERT_TRUE(stepped->RunWindows(1).ok()) << context;
          }
          ExpectSamePairs(*whole, *stepped, context);
          ASSERT_EQ(whole->windows().size(), stepped->windows().size());
          for (size_t w = 0; w < whole->windows().size(); ++w) {
            EXPECT_EQ(whole->windows()[w].matched,
                      stepped->windows()[w].matched)
                << context << " window " << w;
            EXPECT_EQ(whole->windows()[w].dropped_arrivals,
                      stepped->windows()[w].dropped_arrivals)
                << context << " window " << w;
          }
          EXPECT_GT(whole->totals().matched, 0) << context;
          if (drop) {
            EXPECT_GT(whole->totals().dropped_arrivals, 0) << context;
          }
        }
      }
    }
  }
}

TEST(WarmRefreshServeTest, WarmServeMatchesColdAcrossRefreshes) {
  // refresh_period 3 on 6-window days: two publishes a day, and re-solves
  // within one day see an unchanged prediction — the warm cache's steady
  // state. kCompressed keeps the solve on the component-reusing path (kAuto
  // would pick node-level at this scale and run cold by design).
  ServiceOptions cold;
  cold.refresh_period_windows = 3;
  cold.guide.engine = GuideOptions::Engine::kCompressed;
  cold.guide.refresh_mode = GuideRefreshMode::kCold;
  ServiceOptions warm = cold;
  warm.guide.refresh_mode = GuideRefreshMode::kWarm;

  auto a = MakeHarness(warm);
  auto b = MakeHarness(cold);
  ASSERT_TRUE(a->RunWindows(18).ok());
  ASSERT_TRUE(b->RunWindows(18).ok());
  ExpectSamePairs(*a, *b, "warm vs cold serve");
  EXPECT_EQ(a->refresher_stats().publishes, 6);  // Windows 0, 3, ..., 15.

  // The warm harness reused solves (within-day refreshes see the same
  // realized counts); the cold one never does.
  EXPECT_GT(a->totals().warm_refreshes, 0);
  EXPECT_GT(a->totals().refresh_components_reused, 0);
  EXPECT_EQ(b->totals().warm_refreshes, 0);
  EXPECT_EQ(b->totals().refresh_components_reused, 0);
  // Cost attribution reaches the per-window rows: every publish window
  // carries a solve time, non-publish windows carry none.
  double attributed_ms = 0.0;
  for (const WindowMetrics& w : a->windows()) {
    attributed_ms += w.refresh_ms;
    if (w.refresh_components_total > 0) {
      EXPECT_GE(w.refresh_components_total, w.refresh_components_reused);
    }
  }
  EXPECT_GT(attributed_ms, 0.0);
  EXPECT_DOUBLE_EQ(attributed_ms, a->totals().refresh_ms);
}

TEST(WarmRefreshServeTest, BackgroundWarmRefreshAttributesCycles) {
  ServiceOptions options;
  options.background_refresh = true;
  options.guide.engine = GuideOptions::Engine::kCompressed;
  options.guide.refresh_mode = GuideRefreshMode::kWarm;
  options.refresh.timeout_ms = 30000.0;
  auto harness = MakeHarness(options);
  for (int i = 0; i < 1000 && harness->totals().cold_refreshes +
                                  harness->totals().warm_refreshes < 2;
       ++i) {
    ASSERT_TRUE(harness->RunWindows(6).ok());
  }
  // Background publishes carry their cycle report across the thread
  // boundary into the totals.
  EXPECT_GE(harness->totals().cold_refreshes +
                harness->totals().warm_refreshes,
            2);
  EXPECT_GT(harness->totals().refresh_ms, 0.0);
}

TEST(AnalyticalSliceTest, SharedPoolServeMatchesDedicatedLayout) {
  // analytical_slice shares one pool between shard drains and the
  // refresher's bounded slice. Scheduling must not leak into results:
  // with inline refresh (whose publish timing is deterministic), pairs
  // are bit-identical to the PR 6 layout (dispatcher-owned pools).
  ServiceOptions dedicated;
  dedicated.num_shards = 2;
  dedicated.shard_threads = 2;
  ServiceOptions shared = dedicated;
  shared.analytical_slice = 1;

  auto a = MakeHarness(shared);
  auto b = MakeHarness(dedicated);
  ASSERT_TRUE(a->RunWindows(18).ok());
  ASSERT_TRUE(b->RunWindows(18).ok());
  ExpectSamePairs(*a, *b, "shared pool vs dedicated");
  EXPECT_GT(a->totals().matched, 0);
}

TEST(AnalyticalSliceTest, BackgroundSolvesOnTheSharedPoolStayLive) {
  // Background refresh on the slice races the window loop (publish timing
  // is scheduling-dependent, so no bit-identity claim) — but cycles must
  // keep completing and publishing while shard drains share the pool, and
  // the harness must tear down cleanly with solves possibly in flight.
  ServiceOptions options;
  options.num_shards = 2;
  options.shard_threads = 2;
  options.background_refresh = true;
  options.analytical_slice = 1;
  options.refresh.timeout_ms = 30000.0;
  auto harness = MakeHarness(options);
  for (int i = 0; i < 1000 && harness->guide_epoch() < 2; ++i) {
    ASSERT_TRUE(harness->RunWindows(6).ok());
  }
  EXPECT_GE(harness->guide_epoch(), 2);
  EXPECT_GT(harness->totals().matched, 0);
}

TEST(RefreshPredictorTest, LearnedPredictorFeedsTheRefresher) {
  ServiceOptions options;
  options.refresh_predictor = "HA";
  auto harness = MakeHarness(options);
  ASSERT_TRUE(harness->RunWindows(18).ok());
  EXPECT_GE(harness->refresher_stats().publishes, 3);
  EXPECT_GT(harness->totals().matched, 0);

  // A lagged model (LR wants > 15 training days) fits too once the
  // history is long enough — the rolling refit hands it the generator
  // history plus every completed stream day.
  CityProfile long_history = SmallCity();
  long_history.history_days = 18;
  ServiceOptions lr = options;
  lr.refresh_predictor = "LR";
  auto lr_harness = ServiceHarness::Create(
      long_history, LoopedTraceSource::Options{}, lr);
  ASSERT_TRUE(lr_harness.ok()) << lr_harness.status();
  const Status lr_run = (*lr_harness)->RunWindows(18);
  ASSERT_TRUE(lr_run.ok()) << lr_run;
  EXPECT_GT((*lr_harness)->totals().matched, 0);

  ServiceOptions unknown;
  unknown.refresh_predictor = "oracle";
  const auto bad = ServiceHarness::Create(
      SmallCity(), LoopedTraceSource::Options{}, unknown);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound());
}

TEST(FaultLaneTest, ShardTargetedDropsFollowTheRouterNotStreamIds) {
  // A shard-targeted drop-batch hits the lane the session router actually
  // assigns (spatial bands under the grid router), so it must drop only
  // part of each window's traffic — and stay deterministic across shard
  // thread counts, since Route is a pure function of (kind, id, location).
  ServiceOptions options;
  options.num_shards = 2;
  options.faults = "drop-batch@0-8:shard=0";
  auto harness = MakeHarness(options);
  ASSERT_TRUE(harness->RunWindows(9).ok());
  EXPECT_GT(harness->totals().dropped_arrivals, 0);
  // Shard 1's band was never dropped: traffic flowed and matched, unlike
  // the all-lanes drop below.
  EXPECT_GT(harness->totals().matched, 0);

  // Dropping every lane loses strictly more traffic than dropping one
  // shard's band (carryover that arrived before a window's start is
  // redelivered ahead of that window's drop decision in both runs).
  ServiceOptions all_lanes = options;
  all_lanes.faults = "drop-batch@0-8";  // No shard filter: whole handoff.
  auto nothing = MakeHarness(all_lanes);
  ASSERT_TRUE(nothing->RunWindows(9).ok());
  EXPECT_LT(nothing->totals().matched, harness->totals().matched);
  EXPECT_GT(nothing->totals().dropped_arrivals,
            harness->totals().dropped_arrivals);

  ServiceOptions threaded = options;
  threaded.shard_threads = 2;
  auto b = MakeHarness(threaded);
  ASSERT_TRUE(b->RunWindows(9).ok());
  ExpectSamePairs(*harness, *b, "lane drops across thread counts");
  EXPECT_EQ(harness->totals().dropped_arrivals,
            b->totals().dropped_arrivals);
}

TEST(RotationRefreshStressTest, FuzzedInterleavingsStayEquivalent) {
  // Randomized option interleavings: every draw must keep the incremental
  // spine equivalent to the rebuild reference, warm equivalent to cold —
  // both at once, against the (rebuild, cold) baseline.
  Rng draw(20260808ULL);
  for (int trial = 0; trial < 12; ++trial) {
    ServiceOptions base;
    base.algorithm =
        std::vector<const char*>{"simple-greedy", "tgoa",
                                 "polar-op"}[draw.NextBounded(3)];
    base.num_shards = static_cast<int>(draw.NextInt(1, 3));
    base.refresh_period_windows = static_cast<int>(draw.NextInt(1, 6));
    base.evict_expired = draw.NextBool();
    base.guide.engine = GuideOptions::Engine::kCompressed;
    if (draw.NextBool(0.4)) {
      base.faults = "drop-batch@2-5:prob=0.5,flash@6-7:factor=3";
      base.max_queue_depth = 100;
    }
    base.incremental_rotation = false;
    base.guide.refresh_mode = GuideRefreshMode::kCold;

    ServiceOptions tentpole = base;
    tentpole.incremental_rotation = true;
    tentpole.guide.refresh_mode = GuideRefreshMode::kWarm;

    auto reference = MakeHarness(base);
    auto subject = MakeHarness(tentpole);
    const int64_t windows = draw.NextInt(7, 20);
    ASSERT_TRUE(reference->RunWindows(windows).ok());
    ASSERT_TRUE(subject->RunWindows(windows).ok());
    ExpectSamePairs(*subject, *reference,
                    "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace ftoa
