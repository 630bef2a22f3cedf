// A true open-loop request generator: one thread sends each request when it
// is due, round robin over a few connections, and one thread receives the
// replies on all of them. A slow reply never holds back a later send, so
// the requests arrive at the server on schedule as independent users'
// would. It speaks the wire protocol directly through the codec functions.
#ifndef STACKBENCH_OPENLOOP_H_
#define STACKBENCH_OPENLOOP_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "api/requests.h"
#include "levels.h"
#include "stats.h"

namespace stackbench {

struct OpenLoopResult {
  std::vector<double> latencies_us;  ///< from due time, in arrival order
  std::vector<double> lateness_us;   ///< send time minus due time
  FailTally fails;
  uint64_t sent = 0;
};

/// Sends `requests[i]` at start + i / rate over `connections` loopback
/// connections to `port`, counting each send in `sent_counter`, and waits
/// for every reply (or `timeout_s`). Spans (send → reply) go to `spans`
/// when it is enabled.
OpenLoopResult RunOpenLoop(uint16_t port, size_t connections,
                           const std::vector<itag::api::AnyRequest>& requests,
                           double rate, double timeout_s,
                           std::atomic<uint64_t>* sent_counter,
                           SpanLog* spans);

}  // namespace stackbench

#endif  // STACKBENCH_OPENLOOP_H_
