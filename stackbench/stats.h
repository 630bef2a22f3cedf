// Statistics the stack benchmark reports: the tail-percentile rule,
// open-loop timing from due times, and failure counting.
#ifndef STACKBENCH_STATS_H_
#define STACKBENCH_STATS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "api/requests.h"
#include "common/result.h"
#include "common/status.h"

namespace stackbench {

using Clock = std::chrono::steady_clock;

/// Microseconds between two steady_clock points (negative when b < a).
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank q-quantile (q in (0, 1]) of an unsorted sample; 0 when empty.
double Percentile(std::vector<double> samples, double q);

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Samples a reported tail percentile must leave beyond it.
inline constexpr size_t kTailMinBeyond = 10;

/// The reported tail of a timing sample: the highest of p99, p95, p90, p75
/// and p50 whose nearest rank leaves at least kTailMinBeyond samples above
/// it. `q` is 0 (and `value` 0) when even p50 has too few.
struct Tail {
  double q = 0.0;
  double value = 0.0;
  size_t count = 0;   ///< sample size
  size_t beyond = 0;  ///< samples ranked above the percentile
};
Tail TailOf(const std::vector<double>& samples);

/// Open-loop schedule: request i is due at start + i * period, whenever the
/// generator actually gets to send it. Latency runs from the due time, so a
/// stall that delays later sends is charged to those requests too; lateness
/// (send time minus due time) says how far behind the generator ran.
class OpenLoopTimer {
 public:
  OpenLoopTimer(Clock::time_point start, std::chrono::nanoseconds period)
      : start_(start), period_(period) {}

  Clock::time_point Due(size_t i) const {
    return start_ + period_ * static_cast<int64_t>(i);
  }
  /// Records request i as put on the wire at `t`.
  void Sent(size_t i, Clock::time_point t);
  /// Records request i's reply as received at `t`.
  void Done(size_t i, Clock::time_point t);

  const std::vector<double>& latencies_us() const { return latencies_us_; }
  const std::vector<double>& lateness_us() const { return lateness_us_; }

 private:
  Clock::time_point start_;
  std::chrono::nanoseconds period_;
  std::vector<double> latencies_us_;
  std::vector<double> lateness_us_;
};

/// The first non-OK status a reply carries (top-level or per item), or OK.
itag::Status FirstError(const itag::api::AnyResponse& reply);

enum class FailKind : uint8_t {
  kTransport,   ///< the connection broke (IOError / Corruption)
  kTypedError,  ///< the server answered with a typed error reply
  kItemStatus,  ///< the reply carried a non-OK status (top-level or item)
  kStarved,     ///< an accept drew fewer tasks than asked for
};
inline constexpr size_t kFailKinds = 4;

/// Counts attempted operations and the ones that failed, by kind. Each
/// operation counts at most once as failed, with its first failure.
class FailTally {
 public:
  void Attempt() { ++attempted_; }
  void Fail(FailKind kind) { ++failed_[static_cast<size_t>(kind)]; }

  /// Attempts one operation whose transport outcome is `result`; returns
  /// true when a reply arrived that the caller may inspect further.
  template <typename T>
  bool Check(const itag::Result<T>& result) {
    Attempt();
    if (result.ok()) return true;
    itag::StatusCode code = result.status().code();
    Fail(code == itag::StatusCode::kIOError ||
                 code == itag::StatusCode::kCorruption
             ? FailKind::kTransport
             : FailKind::kTypedError);
    return false;
  }

  /// For a reply Check() accepted: fails the operation when any status it
  /// carries is not OK. Returns true when all were OK.
  bool CheckReply(const itag::api::AnyResponse& reply);

  /// For an accept reply Check() accepted: fails the operation when it
  /// drew fewer than `asked` tasks.
  bool CheckAccept(const itag::api::BatchAcceptTasksResponse& reply,
                   size_t asked);

  void Merge(const FailTally& other);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const;
  uint64_t failed(FailKind kind) const {
    return failed_[static_cast<size_t>(kind)];
  }
  double ratio() const {
    return attempted_ == 0 ? 0.0 : static_cast<double>(failed()) / attempted_;
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_[kFailKinds] = {};
};

}  // namespace stackbench

#endif  // STACKBENCH_STATS_H_
