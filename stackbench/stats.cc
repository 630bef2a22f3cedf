#include "stats.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>
#include <variant>

namespace stackbench {

namespace {

template <typename T, typename = void>
struct HasOutcome : std::false_type {};
template <typename T>
struct HasOutcome<T, std::void_t<decltype(std::declval<T>().outcome)>>
    : std::true_type {};

// 1-based nearest rank of quantile q in a sample of n (the epsilon keeps
// 0.99 * 100 from rounding up to rank 100).
size_t NearestRank(size_t n, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  size_t idx = NearestRank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

Tail TailOf(const std::vector<double>& samples) {
  static constexpr double kCandidates[] = {0.99, 0.95, 0.90, 0.75, 0.50};
  Tail tail;
  tail.count = samples.size();
  for (double q : kCandidates) {
    if (samples.empty()) break;
    size_t beyond = samples.size() - NearestRank(samples.size(), q);
    if (beyond >= kTailMinBeyond) {
      tail.q = q;
      tail.beyond = beyond;
      tail.value = Percentile(samples, q);
      break;
    }
  }
  return tail;
}

void OpenLoopTimer::Sent(size_t i, Clock::time_point t) {
  lateness_us_.push_back(std::max(0.0, MicrosBetween(Due(i), t)));
}

void OpenLoopTimer::Done(size_t i, Clock::time_point t) {
  latencies_us_.push_back(MicrosBetween(Due(i), t));
}

itag::Status FirstError(const itag::api::AnyResponse& reply) {
  return std::visit(
      [](const auto& resp) -> itag::Status {
        if constexpr (HasOutcome<std::decay_t<decltype(resp)>>::value) {
          for (const itag::Status& s : resp.outcome.statuses) {
            if (!s.ok()) return s;
          }
          return itag::Status::OK();
        } else {
          return resp.status;
        }
      },
      reply);
}

bool FailTally::CheckReply(const itag::api::AnyResponse& reply) {
  if (FirstError(reply).ok()) return true;
  Fail(FailKind::kItemStatus);
  return false;
}

bool FailTally::CheckAccept(const itag::api::BatchAcceptTasksResponse& reply,
                            size_t asked) {
  if (!reply.status.ok()) {
    Fail(FailKind::kItemStatus);
    return false;
  }
  if (reply.tasks.size() < asked) {
    Fail(FailKind::kStarved);
    return false;
  }
  return true;
}

void FailTally::Merge(const FailTally& other) {
  attempted_ += other.attempted_;
  for (size_t k = 0; k < kFailKinds; ++k) failed_[k] += other.failed_[k];
}

uint64_t FailTally::failed() const {
  uint64_t total = 0;
  for (uint64_t f : failed_) total += f;
  return total;
}

}  // namespace stackbench
