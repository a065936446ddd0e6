// The benchmark's independent output check. It regenerates the offered
// stream from the workload seed, maps the harness's stream ids (admission
// order) back to arrivals, and re-evaluates every committed pair with its
// own arithmetic, never the program's CanServe. A self-test feeds it
// hand-built bad pair lists so it cannot pass vacuously, and a fixed probe
// exercises the guide-trust fault of the POLAR family.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gen/config.h"
#include "gen/looped_trace.h"
#include "model/feasibility.h"
#include "util/result.h"

namespace perfbench {

using Pair = std::pair<int64_t, int64_t>;  ///< (worker, task) stream ids.

/// The offered stream of days [0, days), indexed by stream id.
struct Stream {
  std::vector<ftoa::StreamArrival> arrivals;
  /// Stream id of each window's first arrival (one window = one day slot),
  /// plus the end: window w offered window_begin[w + 1] - window_begin[w].
  std::vector<int64_t> window_begin;
};

ftoa::Result<Stream> RegenerateStream(const ftoa::LoopedTraceSource& source,
                                      int64_t days);

/// Deadline predicate of Definition 4 on absolute stream times, under the
/// movement semantics `policy` names.
bool PairFeasible(const ftoa::StreamArrival& worker,
                  const ftoa::StreamArrival& task, double velocity,
                  ftoa::FeasibilityPolicy policy);

struct PairCheck {
  /// Structural violations: an id never offered, a pair that is not
  /// worker -> task, an object in two pairs. Any one is wrong output.
  std::vector<std::string> errors;
  /// Per pair: 1 if it passes the deadline predicate.
  std::vector<char> feasible;
  int64_t infeasible = 0;
};

PairCheck CheckPairs(const std::vector<ftoa::StreamArrival>& offered,
                     const std::vector<Pair>& pairs, double velocity,
                     ftoa::FeasibilityPolicy policy);

/// Feeds CheckPairs hand-built pair lists that it must flag. Returns an
/// empty string on success, else what the check missed.
std::string CheckerSelfTest();

/// A fixed, seed-independent input on which a guided algorithm that trusts
/// its guide commits a pair that misses its deadline: one worker and one
/// task of the same (slot, cell) type, the task arriving after the worker
/// has left. Returns true when `algorithm` commits a pair the check
/// rejects (the operation fails).
ftoa::Result<bool> GuideTrustProbeFails(const std::string& algorithm,
                                        const ftoa::CityProfile& profile);

/// FNV-1a over the pairs [begin, end).
uint64_t DigestPairs(const std::vector<Pair>& pairs, size_t begin,
                     size_t end);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
