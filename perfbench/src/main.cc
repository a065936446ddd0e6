// Serve-loop benchmark of ServiceHarness at paper scale.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// --trace 0 is the timed run: it sets up the harness several times
// (Create plus the first window, which holds the bootstrap guide solve),
// then calls RunWindows(1) once per window, timing each call, for whole
// days until at least kMinDays days are served and --seconds have passed.
// It then regenerates the offered stream from the seed and checks every
// committed pair (check.h). --trace 1 is the traced run: it serves the same
// days untraced and traced, replays them layer by layer (replay.h) and
// prints per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Operations: every served window is one operation; it fails when the
// harness did not admit every object the regenerated stream offered in
// it. Every served day also counts the fixed guide-trust probe once; it
// fails while the POLAR family commits guide-trusted pairs without the
// object-level deadline test (PolarOptions::check_liveness defaults to
// false). Wrong output (an object in two pairs, a pair that is not
// worker -> task, an id never offered, an infeasible pair of an algorithm
// that does not trust a guide) makes `correct` false.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check.h"
#include "core/algorithm_registry.h"
#include "replay.h"
#include "serve/service_harness.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Every timed run serves at least this many whole days (108 windows), so
/// commit_p90_ms has at least ten windows beyond it, and feasible_pairs
/// covers the same days in every run.
constexpr int64_t kMinDays = 9;
/// Harness set-ups per timed run; setup_s is their median.
constexpr int kSetupReps = 11;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0.0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (key == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

struct WindowCall {
  int64_t ns = 0;
  int64_t offered = 0;
  int64_t admitted = 0;
  bool refresh = false;  ///< A guide publish landed in this window.
};

/// What serving recorded: one entry per RunWindows(1) call, and the
/// harness's committed-pair count after each call.
struct ServeLog {
  std::vector<WindowCall> calls;
  std::vector<size_t> pairs_end;
  int64_t days = 0;
};

ftoa::Status ServeWindow(ftoa::ServiceHarness* harness, ServeLog* log,
                         SpanRecorder* spans) {
  if (spans != nullptr) spans->Begin("serve.window");
  const int64_t t0 = NowNanos();
  FTOA_RETURN_NOT_OK(harness->RunWindows(1));
  const int64_t ns = NowNanos() - t0;
  const ftoa::WindowMetrics& metrics = harness->windows().back();
  const bool refresh = metrics.refresh_ms > 0.0;
  if (spans != nullptr) {
    spans->End(refresh ? "serve.refresh_window" : "serve.window");
  }
  log->calls.push_back(
      WindowCall{ns, metrics.offered, metrics.admitted, refresh});
  log->pairs_end.push_back(harness->matched_pairs().size());
  return ftoa::Status::OK();
}

/// Serves whole days until `max_days` days are done, or until at least
/// `min_days` are done and `seconds` have passed since `start_ns`.
ftoa::Status ServeDays(ftoa::ServiceHarness* harness, ServeLog* log,
                       int64_t min_days, double seconds, int64_t max_days,
                       int64_t slots, int64_t start_ns, SpanRecorder* spans) {
  while (true) {
    const double elapsed = static_cast<double>(NowNanos() - start_ns) * 1e-9;
    if (log->days >= max_days ||
        (log->days >= min_days && elapsed >= seconds)) {
      return ftoa::Status::OK();
    }
    int64_t window = 0;
    do {
      window = static_cast<int64_t>(log->calls.size());
      if (spans != nullptr && window % slots == 0) spans->Begin("serve.day");
      FTOA_RETURN_NOT_OK(ServeWindow(harness, log, spans));
    } while (window % slots != slots - 1);
    if (spans != nullptr) spans->End();
    ++log->days;
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Object-weighted nearest-rank percentile of the calls' times, in ms.
double WeightedPercentileMs(const std::vector<WindowCall>& calls,
                            size_t first, double pct) {
  std::vector<std::pair<int64_t, int64_t>> sample;  // (ns, objects)
  int64_t total = 0;
  for (size_t i = first; i < calls.size(); ++i) {
    sample.emplace_back(calls[i].ns, calls[i].admitted);
    total += calls[i].admitted;
  }
  if (sample.empty() || total == 0) return 0.0;
  std::sort(sample.begin(), sample.end());
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(
             std::ceil(pct / 100.0 * static_cast<double>(total))));
  int64_t seen = 0;
  for (const auto& [ns, objects] : sample) {
    seen += objects;
    if (seen >= rank) return static_cast<double>(ns) * 1e-6;
  }
  return static_cast<double>(sample.back().first) * 1e-6;
}

/// Unweighted nearest-rank median of the selected calls, in ms.
double CallMedianMs(const std::vector<WindowCall>& calls, bool refresh_only) {
  std::vector<double> ms;
  for (const WindowCall& call : calls) {
    if (!refresh_only || call.refresh) {
      ms.push_back(static_cast<double>(call.ns) * 1e-6);
    }
  }
  if (ms.empty()) return 0.0;
  std::sort(ms.begin(), ms.end());
  return ms[(ms.size() - 1) / 2];
}

/// The POLAR family commits guide-trusted pairs (the named fault); every
/// other algorithm must commit only feasible pairs.
bool TrustsGuide(const std::string& algorithm) {
  return algorithm.rfind("polar", 0) == 0;
}

ftoa::Result<ftoa::FeasibilityPolicy> PolicyOf(const std::string& algorithm) {
  ftoa::AlgorithmDeps deps;
  deps.guide = std::make_shared<const ftoa::OfflineGuide>();
  FTOA_ASSIGN_OR_RETURN(std::unique_ptr<ftoa::OnlineAlgorithm> online,
                        ftoa::CreateAlgorithm(algorithm, deps));
  return online->feasibility_policy();
}

struct Verdict {
  bool correct = true;
  std::string error;
  int64_t attempted = 0;
  int64_t failed = 0;
  PairCheck pairs;
};

/// Checks a served log against the regenerated stream.
ftoa::Result<Verdict> Verify(const Workload& workload,
                             const ftoa::CityProfile& profile,
                             const ftoa::ServiceHarness& harness,
                             const ServeLog& log, const Stream& stream) {
  Verdict verdict;
  FTOA_ASSIGN_OR_RETURN(const ftoa::FeasibilityPolicy policy,
                        PolicyOf(workload.algorithm));
  // One probe per served day, on the city's fixed built-in profile. The
  // probe's input is fixed, so one run of it answers for every day.
  FTOA_ASSIGN_OR_RETURN(
      const bool probe_fails,
      GuideTrustProbeFails(workload.algorithm,
                           workload.beijing ? ftoa::BeijingProfile()
                                            : ftoa::HangzhouProfile()));
  const int64_t failed_probes = probe_fails ? log.days : 0;
  int64_t failed_windows = 0;
  for (size_t w = 0; w < log.calls.size(); ++w) {
    const WindowCall& call = log.calls[w];
    if (call.offered != stream.window_begin[w + 1] - stream.window_begin[w] ||
        call.admitted != call.offered) {
      ++failed_windows;
    }
  }
  verdict.attempted = static_cast<int64_t>(log.calls.size()) + log.days;
  verdict.failed = failed_windows + failed_probes;
  if (harness.totals().admitted !=
      static_cast<int64_t>(stream.arrivals.size())) {
    verdict.correct = false;
    verdict.error = "admitted " + std::to_string(harness.totals().admitted) +
                    " objects, the stream offered " +
                    std::to_string(stream.arrivals.size());
    return verdict;
  }
  verdict.pairs = CheckPairs(stream.arrivals, harness.matched_pairs(),
                             profile.velocity, policy);
  if (!verdict.pairs.errors.empty()) {
    verdict.correct = false;
    verdict.error = verdict.pairs.errors.front() + " (" +
                    std::to_string(verdict.pairs.errors.size()) +
                    " structural errors)";
  } else if (verdict.pairs.infeasible > 0 &&
             !TrustsGuide(workload.algorithm)) {
    verdict.correct = false;
    verdict.error = std::to_string(verdict.pairs.infeasible) +
                    " committed pairs miss their deadline";
  }
  return verdict;
}

void PrintResult(const Verdict& verdict, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              verdict.correct ? "true" : "false", verdict.attempted,
              verdict.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value
                                                          : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintVerdictSummary(const Workload& workload, const Verdict& verdict) {
  std::printf("pairs          %zu committed, %" PRId64
              " miss their deadline under %s's policy%s\n",
              verdict.pairs.feasible.size(), verdict.pairs.infeasible,
              workload.algorithm.c_str(),
              TrustsGuide(workload.algorithm) && verdict.pairs.infeasible > 0
                  ? " (guide-trust fault)"
                  : "");
  std::printf("operations     %" PRId64 " attempted, %" PRId64 " failed\n",
              verdict.attempted, verdict.failed);
  if (!verdict.correct) {
    std::printf("WRONG OUTPUT   %s\n", verdict.error.c_str());
  }
}

/// Reports an error the run cannot continue from; no result is printed.
int Fail(const ftoa::Status& status) {
  std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
  return 1;
}

ftoa::Result<std::unique_ptr<ftoa::ServiceHarness>> NewHarness(
    const Workload& workload, const ftoa::CityProfile& profile,
    int shard_threads = 0) {
  return ftoa::ServiceHarness::Create(
      profile, TraceOptions(), ServiceOptionsFor(workload, shard_threads));
}

int TimedRun(const Workload& workload, const Args& args) {
  const ftoa::CityProfile profile = ProfileFor(workload, args.seed);
  const ftoa::LoopedTraceSource source(profile, TraceOptions());
  const int64_t slots = static_cast<int64_t>(source.day_horizon());

  std::vector<double> setup_s;
  std::unique_ptr<ftoa::ServiceHarness> harness;
  ServeLog log;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    harness.reset();
    log = ServeLog{};
    const int64_t t0 = NowNanos();
    auto created = NewHarness(workload, profile);
    if (!created.ok()) return Fail(created.status());
    harness = std::move(created).value();
    const ftoa::Status first = ServeWindow(harness.get(), &log, nullptr);
    if (!first.ok()) return Fail(first);
    setup_s.push_back(static_cast<double>(NowNanos() - t0) * 1e-9);
  }
  // The high-water mark is read once the fixed first days are served, so
  // it covers the same work in every run and not the check's copy of the
  // stream.
  const int64_t serve_start = NowNanos();
  ftoa::Status served = ServeDays(harness.get(), &log, kMinDays, 0.0,
                                  kMinDays, slots, serve_start, nullptr);
  const double peak_rss_mb = PeakRssMb();
  if (served.ok()) {
    served = ServeDays(harness.get(), &log, kMinDays, args.seconds,
                       INT64_MAX, slots, serve_start, nullptr);
  }
  if (!served.ok()) return Fail(served);

  auto stream = RegenerateStream(source, log.days);
  if (!stream.ok()) return Fail(stream.status());
  auto verified = Verify(workload, profile, *harness, log, *stream);
  if (!verified.ok()) return Fail(verified.status());
  const Verdict& verdict = *verified;

  int64_t offered = 0, serve_ns = 0;
  for (size_t i = 1; i < log.calls.size(); ++i) {
    offered += log.calls[i].offered;
    serve_ns += log.calls[i].ns;
  }
  // feasible_pairs covers the first kMinDays days: every run serves them.
  const size_t fixed_end =
      log.pairs_end[static_cast<size_t>(kMinDays * slots - 1)];
  int64_t feasible = 0;
  if (verdict.correct) {
    for (size_t i = 0; i < fixed_end; ++i) feasible += verdict.pairs.feasible[i];
  }

  std::printf("workload       %s, seed %" PRIu64 ", %" PRId64
              " days (%zu windows), %" PRId64 " objects offered\n",
              workload.name.c_str(), args.seed, log.days, log.calls.size(),
              static_cast<int64_t>(stream->arrivals.size()));
  std::printf("digest         %016" PRIx64 " (pairs of the first %" PRId64
              " days)\n",
              DigestPairs(harness->matched_pairs(), 0, fixed_end), kMinDays);
  std::printf("setup          ");
  for (const double s : setup_s) std::printf("%.4f ", s);
  std::printf("s (%d set-ups)\n", kSetupReps);
  PrintVerdictSummary(workload, verdict);
  // The fault's size on the served stream: the infeasible pairs of the
  // fixed first days depend on the seed, so they stay out of `failed`.
  if (verdict.correct) {
    std::printf("fixed days     %" PRId64 " of %zu pairs of the first %" PRId64
                " days miss their deadline\n",
                static_cast<int64_t>(fixed_end) - feasible, fixed_end,
                kMinDays);
  }
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"objects_per_s",
       static_cast<double>(offered) / (static_cast<double>(serve_ns) * 1e-9),
       "1/s"},
      {"commit_p50_ms", WeightedPercentileMs(log.calls, 1, 50.0), "ms"},
      {"commit_p90_ms", WeightedPercentileMs(log.calls, 1, 90.0), "ms"},
      {"feasible_pairs", static_cast<double>(feasible), "pairs"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  PrintResult(verdict, metrics);
  return verdict.correct ? 0 : 1;
}

int TracedRun(const Workload& workload, const Args& args) {
  const ftoa::CityProfile profile = ProfileFor(workload, args.seed);
  const ftoa::LoopedTraceSource source(profile, TraceOptions());
  const int64_t slots = static_cast<int64_t>(source.day_horizon());
  // Untraced serve: warms the process up and picks the days (a quarter of
  // the time budget, at least two days).
  const auto serve_plain = [&](int64_t min_days, double seconds,
                               int64_t max_days, ServeLog* log,
                               int64_t* wall_ns,
                               uint64_t* pairs_digest) -> ftoa::Status {
    auto harness = NewHarness(workload, profile);
    if (!harness.ok()) return harness.status();
    FTOA_RETURN_NOT_OK(ServeDays(harness->get(), log, min_days, seconds,
                                 max_days, slots, NowNanos(), nullptr));
    for (const WindowCall& call : log->calls) *wall_ns += call.ns;
    const auto& pairs = (*harness)->matched_pairs();
    *pairs_digest = DigestPairs(pairs, 0, pairs.size());
    return ftoa::Status::OK();
  };
  ServeLog warmup;
  int64_t warmup_ns = 0;
  uint64_t warmup_digest = 0;
  {
    const ftoa::Status status =
        serve_plain(2, args.seconds / 4.0, INT64_MAX, &warmup, &warmup_ns,
                    &warmup_digest);
    if (!status.ok()) return Fail(status);
  }
  const int64_t days = warmup.days;

  SpanRecorder spans;
  ServeLog traced;
  auto harness = NewHarness(workload, profile);
  if (!harness.ok()) return Fail(harness.status());
  {
    const ftoa::Status status = ServeDays(harness->get(), &traced, days, 0.0,
                                          days, slots, NowNanos(), &spans);
    if (!status.ok()) return Fail(status);
  }
  int64_t traced_ns = 0;
  for (const WindowCall& call : traced.calls) traced_ns += call.ns;
  const std::vector<Pair>& pairs = (*harness)->matched_pairs();
  const uint64_t digest = DigestPairs(pairs, 0, pairs.size());

  // Untraced reference for the tracing overhead, served after the traced
  // run so neither pays the process warm-up.
  ServeLog plain;
  int64_t plain_ns = 0;
  uint64_t plain_digest = 0;
  {
    const ftoa::Status status =
        serve_plain(days, 0.0, days, &plain, &plain_ns, &plain_digest);
    if (!status.ok()) return Fail(status);
  }

  // Property: the dispatcher's output does not depend on its thread count.
  bool thread_invariant = true;
  if (workload.shard_threads > 1) {
    auto inline_harness = NewHarness(workload, profile, 1);
    if (!inline_harness.ok()) return Fail(inline_harness.status());
    ServeLog inline_log;
    const ftoa::Status status =
        ServeDays(inline_harness->get(), &inline_log, days, 0.0, days, slots,
                  NowNanos(), nullptr);
    if (!status.ok()) return Fail(status);
    const auto& inline_pairs = (*inline_harness)->matched_pairs();
    const uint64_t inline_digest =
        DigestPairs(inline_pairs, 0, inline_pairs.size());
    thread_invariant = inline_digest == digest;
    std::printf("threads        digest %016" PRIx64 " on %d actor threads, "
                "%016" PRIx64 " inline: %s\n",
                digest, workload.shard_threads, inline_digest,
                thread_invariant ? "equal" : "DIFFERENT");
  }

  auto stream = RegenerateStream(source, days);
  if (!stream.ok()) return Fail(stream.status());
  auto verified = Verify(workload, profile, **harness, traced, *stream);
  if (!verified.ok()) return Fail(verified.status());
  Verdict verdict = *verified;

  ReplayInputs inputs;
  inputs.workload = &workload;
  inputs.profile = &profile;
  inputs.source = &source;
  inputs.stream = &*stream;
  inputs.serve_pairs = &pairs;
  inputs.serve_pairs_end = &traced.pairs_end;
  inputs.days = days;
  auto replay = ReplayLayers(inputs, &spans);
  if (!replay.ok()) return Fail(replay.status());

  // The first broken property is the run's error.
  const auto require = [&verdict](bool holds, const std::string& what) {
    if (verdict.correct && !holds) {
      verdict.correct = false;
      verdict.error = what;
    }
  };
  require(thread_invariant,
          "sharded output depends on the actor thread count");
  require(replay->warm_cold_mismatches == 0,
          "warm guide differs from the cold guide");
  require(plain_digest == digest && warmup_digest == digest,
          "two serves of the same seed committed different pairs");
  require(replay->mismatched_windows == 0,
          std::to_string(replay->mismatched_windows) +
              " replayed windows committed other pairs than serve");

  const double serve_ms_per_day =
      static_cast<double>(traced_ns) * 1e-6 / static_cast<double>(days);
  double live_sum = 0.0;
  for (const ftoa::WindowMetrics& w : (*harness)->windows()) {
    live_sum += static_cast<double>(w.live_objects);
  }
  std::vector<Metric> metrics = {
      {"serve.window_p50_ms", CallMedianMs(traced.calls, false), "ms"},
      {"serve.refresh_window_p50_ms", CallMedianMs(traced.calls, true),
       "ms"},
      {"serve.self_ms_per_day",
       serve_ms_per_day - replay->served_layers_ms_per_day, "ms"},
      {"serve.store_peak",
       static_cast<double>((*harness)->totals().store_peak), "count"},
      {"serve.live_objects_mean",
       live_sum / static_cast<double>((*harness)->windows().size()),
       "count"},
      {"core.guide_realized_ratio",
       replay->guide_pairs_total > 0
           ? static_cast<double>(pairs.size()) /
                 static_cast<double>(replay->guide_pairs_total)
           : 0.0,
       "ratio"},
      {"core.infeasible_ratio",
       pairs.empty() ? 0.0
                     : static_cast<double>(verdict.pairs.infeasible) /
                           static_cast<double>(pairs.size()),
       "ratio"},
  };
  metrics.insert(metrics.end(), replay->metrics.begin(),
                 replay->metrics.end());

  std::printf("workload       %s, seed %" PRIu64 ", %" PRId64
              " days traced (%zu windows)\n",
              workload.name.c_str(), args.seed, days, traced.calls.size());
  std::printf("tracing        serve %.1f ms traced vs %.1f ms untraced "
              "(overhead %+.2f%%)\n",
              static_cast<double>(traced_ns) * 1e-6,
              static_cast<double>(plain_ns) * 1e-6,
              100.0 * (static_cast<double>(traced_ns) /
                           static_cast<double>(plain_ns) -
                       1.0));
  std::printf("replay         %" PRId64 " windows, %" PRId64
              " committed other pairs than serve; warm guide %s cold\n",
              replay->windows, replay->mismatched_windows,
              replay->warm_cold_mismatches == 0 ? "equals" : "DIFFERS FROM");
  std::printf("%-28s %8s %12s %12s\n", "span", "count", "total ms",
              "self ms");
  for (const auto& [name, totals] : spans.TotalsByName()) {
    std::printf("%-28s %8" PRId64 " %12.3f %12.3f\n", name.c_str(),
                totals.count, static_cast<double>(totals.total_ns) * 1e-6,
                static_cast<double>(totals.self_ns) * 1e-6);
  }
  if (!args.spans_path.empty() && !spans.WriteCsv(args.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_path.c_str());
  }
  PrintVerdictSummary(workload, verdict);
  PrintResult(verdict, metrics);
  return verdict.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <file>]\n");
    return 2;
  }
  const perfbench::Workload* workload =
      perfbench::FindWorkload(args.workload);
  if (workload == nullptr) {
    std::string valid;
    for (const perfbench::Workload& w : perfbench::AllWorkloads()) {
      valid += (valid.empty() ? "" : ", ") + w.name;
    }
    std::fprintf(stderr, "perfbench: unknown workload '%s' (valid: %s)\n",
                 args.workload.c_str(), valid.c_str());
    return 2;
  }
  const std::string self_test = perfbench::CheckerSelfTest();
  if (!self_test.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", self_test.c_str());
    return 3;
  }
  return args.trace == 1 ? perfbench::TracedRun(*workload, args)
                         : perfbench::TimedRun(*workload, args);
}
