// The serving soak: a time-boxed ServiceHarness run under the acceptance
// fault plan — a slow shard lane, two forced guide-refresh failures, and a
// flash crowd — with sharded threaded sessions and background guide
// refresh (the configuration that exercises every cross-thread edge, which
// is what the TSan build of this suite is for).
//
// Registered as the aggregate `ftoa_service_soak` ctest entry under the
// `soak` label (excluded from per-test discovery like the *Stress*
// suites). The default duration is a short smoke so a plain ctest run
// stays fast; tools/run_service_soak.sh sets FTOA_SOAK_SECONDS=60 for the
// real soak.
//
// Health criteria checked after the time box:
//  * zero crashes / failed statuses (the run completed),
//  * every processed window reported metrics, in order,
//  * memory stayed bounded (live set + current window, not the history),
//  * no live-deadline object was ever freed,
//  * at least one refresh replaced a published guide and the window that
//    followed served with it,
//  * both forced refresh failures were observed and survived,
//  * shedding happened only under the injected overload.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "serve/service_harness.h"
#include "util/stopwatch.h"

namespace ftoa {
namespace {

double SoakSeconds() {
  const char* env = std::getenv("FTOA_SOAK_SECONDS");
  if (env == nullptr || *env == '\0') return 3.0;  // Smoke duration.
  const double seconds = std::atof(env);
  return seconds > 0.0 ? seconds : 3.0;
}

CityProfile SoakCity() {
  CityProfile profile;
  profile.name = "soak-city";
  profile.grid_x = 8;
  profile.grid_y = 6;
  profile.slots_per_day = 6;
  profile.history_days = 5;
  profile.workers_per_day = 120;
  profile.tasks_per_day = 140;
  profile.velocity = 3.0;
  profile.task_duration = 1.0;
  profile.worker_duration = 2.0;
  profile.seed = 2017;
  return profile;
}

TEST(ServiceSoakTest, FaultedSoakStaysHealthy) {
  ServiceOptions options;
  options.algorithm = "polar-op";
  options.num_shards = 3;
  options.shard_threads = 3;
  options.background_refresh = true;
  options.refresh_period_windows = 3;
  options.refresh.timeout_ms = 30000.0;
  options.slo_p99_ms = 250.0;
  // Between the base rush-hour peak (85 offered) and the flash-crowd
  // windows (132/468): only the injected overload can trip it.
  options.max_queue_depth = 110;
  options.max_live_objects = 5000;
  // The acceptance plan: a slow shard lane, two forced refresh failures,
  // and a flash crowd that overflows the queue-depth cap.
  // The wide guide-fail range makes both forced failures land even when a
  // busy background refresher skips due windows (TSan-slowed runs).
  options.faults =
      "slow-shard@4-6:shard=1:stall-ms=2,guide-fail@6-600:count=2,"
      "flash@8-9:factor=6";
  options.fault_seed = 42;

  auto created =
      ServiceHarness::Create(SoakCity(), LoopedTraceSource::Options{},
                             options);
  ASSERT_TRUE(created.ok()) << created.status();
  std::unique_ptr<ServiceHarness> harness = std::move(created).value();

  const double budget = SoakSeconds();
  const Stopwatch stopwatch;
  int64_t processed = 0;
  // At least two days even when one beat overruns the budget (the flash
  // windows live in day 2) — then run the clock out.
  while (processed < 12 || stopwatch.ElapsedSeconds() < budget) {
    const Status status = harness->RunWindows(6);  // One day per beat.
    ASSERT_TRUE(status.ok()) << "window " << processed << ": " << status;
    processed += 6;
    // The eviction safety invariant must hold after every beat, not just
    // at the end.
    ASSERT_EQ(harness->totals().evicted_live, 0);
  }

  // Every window reported, in order.
  ASSERT_EQ(static_cast<int64_t>(harness->windows().size()), processed);
  for (int64_t i = 0; i < processed; ++i) {
    EXPECT_EQ(harness->windows()[static_cast<size_t>(i)].window, i);
  }

  // The service did real work and the stream kept flowing through faults.
  EXPECT_GT(harness->totals().admitted, 0);
  EXPECT_GT(harness->totals().matched, 0);

  // Memory bounded: the store holds the live tail plus at most the
  // current window's admissions, never the whole admitted history.
  EXPECT_GT(harness->totals().evictions, 0);
  EXPECT_LT(harness->store_size(), harness->totals().admitted / 2);
  EXPECT_LE(harness->live_objects(), options.max_live_objects);

  // Guide lifecycle: refreshes published, at least one replaced an
  // earlier guide and the window it landed in served guided with it, and
  // both injected refresh failures were observed and survived.
  EXPECT_GE(harness->guide_epoch(), 1);
  bool adopted = false;
  for (size_t w = 1; w < harness->windows().size(); ++w) {
    const WindowMetrics& before = harness->windows()[w - 1];
    const WindowMetrics& window = harness->windows()[w];
    adopted = adopted || (before.guide_epoch >= 1 &&
                          window.guide_epoch > before.guide_epoch &&
                          !window.degraded_greedy);
  }
  EXPECT_TRUE(adopted);
  EXPECT_EQ(harness->fault_counters().guide_failures, 2);
  EXPECT_GE(harness->refresher_stats().failed_cycles, 2);

  // Shedding only under the injected overload: the flash windows (and the
  // windows their surviving backlog could cap) are 8-9; outside, the base
  // load never trips any cap.
  for (const WindowMetrics& window : harness->windows()) {
    if (window.window < 8 || window.window > 9) {
      EXPECT_EQ(window.shed, 0) << "window " << window.window;
    }
  }
  const WindowMetrics& flash = harness->windows()[8];
  EXPECT_GT(flash.flash_clones, 0);
  EXPECT_GT(flash.shed + harness->windows()[9].shed, 0);
}

}  // namespace
}  // namespace ftoa
