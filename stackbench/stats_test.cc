// Tests of the benchmark's own statistics: the tail-percentile rule,
// open-loop timing from due times with its lateness figure, and failure
// counting. run.py runs this binary before every benchmark run.
#include "stats.h"

#include <gtest/gtest.h>

#include <numeric>

namespace stackbench {
namespace {

using itag::Result;
using itag::Status;
namespace api = itag::api;

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 0.5), 3);
  EXPECT_EQ(Percentile(v, 1.0), 5);
  EXPECT_EQ(Percentile(v, 0.01), 1);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile(OneTo(100), 0.99), 99);
}

TEST(TailTest, HighestPercentileWithTenBeyond) {
  // 1000 samples: p99 is rank 990, leaving exactly ten above it.
  Tail t = TailOf(OneTo(1000));
  EXPECT_DOUBLE_EQ(t.q, 0.99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.count, 1000u);
  EXPECT_EQ(t.beyond, 10u);

  // 999 samples leave only nine above p99, so p95 is reported.
  t = TailOf(OneTo(999));
  EXPECT_DOUBLE_EQ(t.q, 0.95);
  EXPECT_EQ(t.beyond, 999u - 950u);

  // 200 samples (a short tick run): p95 leaves ten.
  t = TailOf(OneTo(200));
  EXPECT_DOUBLE_EQ(t.q, 0.95);
  EXPECT_EQ(t.value, 190);

  // Too few for any percentile.
  t = TailOf(OneTo(19));
  EXPECT_EQ(t.q, 0.0);
  EXPECT_EQ(t.count, 19u);
  t = TailOf(OneTo(20));
  EXPECT_DOUBLE_EQ(t.q, 0.5);
}

TEST(OpenLoopTest, LatencyRunsFromDueTimeNotSendTime) {
  Clock::time_point t0 = Clock::now();
  OpenLoopTimer timer(t0, std::chrono::milliseconds(1));
  EXPECT_EQ(timer.Due(3) - t0, std::chrono::milliseconds(3));

  // Request 0 goes out on time and takes 200us.
  timer.Sent(0, t0);
  timer.Done(0, t0 + std::chrono::microseconds(200));
  // Request 1 was due at 1ms but the generator stalled until 5ms; the
  // server answered 200us after the send. Its latency is 4.2ms, not 200us.
  timer.Sent(1, t0 + std::chrono::milliseconds(5));
  timer.Done(1, t0 + std::chrono::microseconds(5200));
  // Sent early (never happens, but lateness never goes negative).
  timer.Sent(2, t0);

  ASSERT_EQ(timer.latencies_us().size(), 2u);
  EXPECT_NEAR(timer.latencies_us()[0], 200.0, 1e-6);
  EXPECT_NEAR(timer.latencies_us()[1], 4200.0, 1e-6);
  ASSERT_EQ(timer.lateness_us().size(), 3u);
  EXPECT_NEAR(timer.lateness_us()[0], 0.0, 1e-6);
  EXPECT_NEAR(timer.lateness_us()[1], 4000.0, 1e-6);
  EXPECT_EQ(timer.lateness_us()[2], 0.0);
}

TEST(FailTallyTest, EachKindCountsOnce) {
  FailTally tally;
  EXPECT_TRUE(tally.Check(Result<int>(7)));
  EXPECT_FALSE(tally.Check(Result<int>(Status::IOError("reset"))));
  EXPECT_FALSE(tally.Check(Result<int>(Status::Corruption("bad crc"))));
  EXPECT_FALSE(
      tally.Check(Result<int>(Status::ResourceExhausted("overloaded"))));
  EXPECT_EQ(tally.attempted(), 4u);
  EXPECT_EQ(tally.failed(FailKind::kTransport), 2u);
  EXPECT_EQ(tally.failed(FailKind::kTypedError), 1u);

  // A batch reply with one bad item fails the operation once.
  api::BatchDecideResponse decide;
  decide.outcome.statuses = {Status::OK(), Status::NotFound("handle")};
  decide.outcome.ok_count = 1;
  tally.Attempt();
  EXPECT_FALSE(tally.CheckReply(api::AnyResponse{decide}));
  // A top-level error status fails it too; an OK reply does not.
  api::ProjectQueryResponse query;
  tally.Attempt();
  EXPECT_TRUE(tally.CheckReply(api::AnyResponse{query}));
  query.status = Status::NotFound("project");
  tally.Attempt();
  EXPECT_FALSE(tally.CheckReply(api::AnyResponse{query}));
  EXPECT_EQ(tally.failed(FailKind::kItemStatus), 2u);

  // An accept that draws fewer tasks than asked is starved.
  api::BatchAcceptTasksResponse accept;
  accept.tasks.resize(3);
  tally.Attempt();
  EXPECT_FALSE(tally.CheckAccept(accept, 4));
  tally.Attempt();
  EXPECT_TRUE(tally.CheckAccept(accept, 3));
  EXPECT_EQ(tally.failed(FailKind::kStarved), 1u);

  EXPECT_EQ(tally.attempted(), 9u);
  EXPECT_EQ(tally.failed(), 6u);
  EXPECT_DOUBLE_EQ(tally.ratio(), 6.0 / 9.0);

  FailTally other;
  other.Attempt();
  other.Merge(tally);
  EXPECT_EQ(other.attempted(), 10u);
  EXPECT_EQ(other.failed(), 6u);
  EXPECT_EQ(FailTally().ratio(), 0.0);
}

}  // namespace
}  // namespace stackbench
