// stackbench — the serving-stack benchmark. It runs the real
// net::Server → api::Service → core::ShardedSystem stack in this process,
// drives it through net::Client connections, checks the outputs, and
// prints one JSON result line last. run.py builds it and passes:
//
//   stackbench --workload NAME --seed N --seconds S --trace 0|1
//              --work-dir DIR --out-dir DIR
//
// Workloads (inputs all drawn from --seed; work is a fixed count of
// requests, cycles or ticks scaled by --seconds, never by speed):
//   dashboard_read   64 audience projects x 16 resources, Zipf(1.1)
//                    popularity, a quarter of reads with the feed. Three
//                    pipelined readers in closed-loop rounds give
//                    ops_per_s; then a fixed-rate open loop gives latency.
//                    One writer tags once per kReadsPerWrite reads sent.
//                    Five repetitions on fresh stacks, medians reported.
//   audience_ingest  durable primary streaming to one in-process follower;
//                    4 taggers run accept -> submit+peek -> decide cycles
//                    on 16 projects x 32 resources, Zipf(0.8); then the
//                    follower catches up and the primary is reopened.
//                    Three repetitions on fresh stacks, medians reported.
//   platform_tick    in memory, 64 projects x 32 resources, 16 running on
//                    the simulated MTurk platform (FP, MU, FP-MU, EG), 48
//                    idle; one connection sends Step(1) in a closed loop.
//
// --trace 0 reports the end-to-end metrics of one untraced pass. --trace 1
// runs an untraced and a traced pass (spans around every client call),
// then replays a fixed slice of the workload's operations one layer lower
// at a time (wire, service, sharded core, facade; durable and in-memory
// facade for the durable workload) on fresh worlds built from the same
// seed, writes all spans to --out-dir, and reports per-layer metrics:
// each layer's self time is the difference between adjacent levels.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/service.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "repl/repl.h"
#include "storage/database.h"

#include "levels.h"
#include "openloop.h"
#include "stats.h"
#include "world.h"

namespace stackbench {
namespace {

namespace fs = std::filesystem;
namespace core = itag::core;
namespace api = itag::api;
namespace net = itag::net;
namespace obs = itag::obs;
namespace repl = itag::repl;
using itag::Result;
using itag::Status;

// ---------------------------------------------------------------- sizing
//
// Counts per second of --seconds, sized from a 4-core host so that each
// phase takes roughly its share of the run there.

// dashboard_read
constexpr size_t kReadsPerSecondClosed = 2500;  // phase 1, ~40% of the run
constexpr size_t kReadWindow = 8;               // pipelined reads in flight
constexpr size_t kRounds = 5;  // closed-loop rounds, median rate reported
// A quarter of what the stack serves when requests arrive one at a time
// (~2.5k/s on a 4-core host). Near that knee latency swings by 10x; at half
// of it, on a shared 4-vCPU VM, the median latency of five seeds spread by
// 45% of itself while the host's other load was high.
constexpr double kOpenLoopRate = 600.0;
constexpr double kOpenLoopShare = 0.5;  // phase 2 length
constexpr size_t kReadsPerWrite = 200;
constexpr size_t kWriterTasksPerCycle = 4;
constexpr size_t kEqualitySamples = 16;
// audience_ingest. The follower re-derives every touched shard per stream
// burst, so its catch-up grows faster than the data (on a 4-core host 600
// cycles in one stack take 6 s, 1000 take 14 s, 1800 over a minute);
// repetitions of 300 cycles keep it to one or two seconds each.
constexpr size_t kCyclesPerSecond = 90;
constexpr size_t kCyclesPerRep = 300;
constexpr size_t kTasksPerCycle = 16;
constexpr size_t kCheckpointEvery = 40;  // tagger 0's cycles
// platform_tick: 20 s of ticks leave 25 beyond p95.
constexpr size_t kTicksPerSecond = 25;

// Replay slices of the traced run.
constexpr size_t kReplayReads = 2000;
constexpr size_t kReplayCyclesPerTagger = 40;
constexpr size_t kReplaySteps = 30;
constexpr size_t kReplayChunks = 15;
constexpr size_t kSetupsUntraced = 5;

struct Args {
  Workload workload = Workload::kDashboardRead;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string out_dir;
};

size_t HostCores() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// Load connections: four, but never more than the host has cores.
size_t LoadConnections() { return std::min<size_t>(4, HostCores()); }

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

// ---------------------------------------------------------------- metrics

using Samples = std::vector<obs::MetricSample>;

const obs::MetricSample* FindSample(const Samples& s, const std::string& n) {
  for (const obs::MetricSample& m : s) {
    if (m.name == n) return &m;
  }
  return nullptr;
}
uint64_t CountOf(const Samples& s, const std::string& n) {
  const obs::MetricSample* m = FindSample(s, n);
  return m == nullptr ? 0 : m->count;
}
uint64_t SumOf(const Samples& s, const std::string& n) {
  const obs::MetricSample* m = FindSample(s, n);
  return m == nullptr ? 0 : m->sum;
}
double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// ------------------------------------------------------------------ stack

/// One served stack: service, wire server, and for the durable workload the
/// replication streamer plus an in-process follower attached over loopback.
struct Stack {
  std::string dir;
  std::unique_ptr<api::Service> service;
  std::unique_ptr<repl::Primary> primary;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<api::Service> follower_service;
  std::unique_ptr<repl::Follower> follower;
  net::Client admin;
  std::vector<net::Client> clients;  ///< one per load thread
  WorldIds ids;

  ~Stack() { Stop(); }
  void Stop() {
    admin.Close();
    for (net::Client& c : clients) c.Close();
    if (follower != nullptr) follower->Stop();
    if (primary != nullptr) primary->Stop();
    if (server != nullptr) server->Stop();
  }
  core::ShardedSystem& primary_core() { return *service->sharded(); }
};

bool WaitCaughtUp(Stack& s, double timeout_s = 60) {
  Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(static_cast<int>(timeout_s * 1e3));
  while (Clock::now() < deadline) {
    if (s.follower->applied_lsns() == s.primary_core().ReplLsns()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

/// Builds and provisions the stack; everything until the first timed
/// request, so its wall time is the workload's set-up time.
Status BuildStack(Workload w, const World& world, const std::string& dir,
                  size_t load_clients, Stack* s) {
  s->dir = dir;
  s->service = std::make_unique<api::Service>(PinnedSharded(dir));
  ITAG_RETURN_IF_ERROR(s->service->Init());
  s->server = std::make_unique<net::Server>(s->service.get(), PinnedServer());
  if (w == Workload::kAudienceIngest) {
    s->primary = std::make_unique<repl::Primary>(&s->primary_core(),
                                                 repl::PrimaryOptions{});
    s->server->SetReplHooks(s->primary->Hooks());
  }
  ITAG_RETURN_IF_ERROR(s->server->Start());
  ITAG_RETURN_IF_ERROR(s->admin.Connect("127.0.0.1", s->server->port()));
  ITAG_RETURN_IF_ERROR(ProvisionViaApi(
      world, [s](const api::AnyRequest& r) { return s->admin.Dispatch(r); },
      &s->ids));
  if (w == Workload::kAudienceIngest) {
    s->follower_service = std::make_unique<api::Service>(
        PinnedSharded(dir + "-follower", /*read_only=*/true));
    ITAG_RETURN_IF_ERROR(s->follower_service->Init());
    s->follower_service->SetReplicaMode("127.0.0.1:" +
                                        std::to_string(s->server->port()));
    repl::FollowerOptions fopts;
    fopts.primary_port = s->server->port();
    s->follower = std::make_unique<repl::Follower>(
        s->follower_service->sharded(), fopts);
    ITAG_RETURN_IF_ERROR(s->follower->Start());
    if (!WaitCaughtUp(*s)) return Status::Aborted("follower never caught up");
  }
  s->clients.resize(load_clients);
  for (net::Client& c : s->clients) {
    ITAG_RETURN_IF_ERROR(c.Connect("127.0.0.1", s->server->port()));
  }
  return Status::OK();
}

Samples MetricsOf(net::Client& c) {
  Result<api::MetricsQueryResponse> r = c.Metrics({""});
  return r.ok() ? r.value().metrics : Samples{};
}

/// The encoded in-process reply to a ProjectQuery with its feed.
std::string EncodedInfo(api::Service& service, core::ProjectId project) {
  api::ProjectQueryRequest q;
  q.project = project;
  q.include_feed = true;
  return net::EncodeResponsePayload(service.Dispatch(q));
}

// -------------------------------------------------------------- one pass

struct PassResult {
  std::vector<double> setup_s;
  double ops_per_s = 0;
  std::vector<double> latencies_us;  ///< the workload's user-facing op
  std::vector<double> lateness_us;   ///< open-loop sends behind schedule
  double p50_us = 0;                 ///< median latency
  FailTally fails;
  std::vector<std::string> errors;  ///< failed output checks
  // Layer figures the wire run yields.
  double net_bytes_per_op = 0;
  double net_dispatch_batch = 0;
  double disk_bytes_per_task = 0;
  double restart_s = 0;
  double open_ms = 0;
  double repl_bytes_per_task = 0;
  double catchup_ms = 0;
  std::vector<double> lag_ms;
  double tasks_per_tick = 0;
  uint64_t checksum = 0;
};

/// Per-thread results of the load; merged after the join.
struct ThreadOut {
  FailTally fails;
  std::vector<double> latencies_us;
  std::vector<double> lateness_us;
  uint64_t sent[api::kRequestTypeCount] = {};
  uint64_t approved = 0;
  SpanLog spans{false};
};

/// Sends one request, counting it as sent and attempted; the span runs
/// from send to reply.
class Caller {
 public:
  Caller(net::Client* client, ThreadOut* out) : c_(client), out_(out) {}

  Result<uint64_t> Send(const api::AnyRequest& req) {
    ++out_->sent[req.index()];
    return c_->DispatchAsync(req);
  }
  /// Sync round trip; returns the reply when it arrived and carried only
  /// OK statuses (failures are tallied).
  const api::AnyResponse* Call(const api::AnyRequest& req, const char* name,
                               uint64_t parent, uint64_t request) {
    Span span{name, out_->spans.NewId(), parent, request, Clock::now(), {}};
    Result<uint64_t> id = Send(req);
    if (!id.ok()) {
      out_->fails.Check(id);
      return nullptr;
    }
    reply_ = c_->Await(id.value());
    span.end = Clock::now();
    out_->spans.Add(span);
    if (!out_->fails.Check(reply_)) return nullptr;
    return out_->fails.CheckReply(reply_.value()) ? &reply_.value() : nullptr;
  }

 private:
  net::Client* c_;
  ThreadOut* out_;
  Result<api::AnyResponse> reply_{Status::Internal("no reply yet")};
};

/// Reconciles the requests clients sent with the server's api.*.requests
/// deltas, per endpoint.
void Reconcile(const std::vector<ThreadOut>& outs, const Samples& before,
               const Samples& after, std::vector<std::string>* errors) {
  for (size_t t = 0; t < api::kRequestTypeCount; ++t) {
    uint64_t sent = 0;
    for (const ThreadOut& o : outs) sent += o.sent[t];
    if (sent == 0) continue;
    std::string name =
        std::string("api.") + api::RequestTypeName(t) + ".requests";
    uint64_t served = CountOf(after, name) - CountOf(before, name);
    if (served != sent) {
      errors->push_back(name + ": clients sent " + std::to_string(sent) +
                        ", server counted " + std::to_string(served));
    }
  }
}

void NetFigures(const Samples& before, const Samples& after, uint64_t ops,
                PassResult* r) {
  uint64_t bytes = (CountOf(after, "net.bytes_in") -
                    CountOf(before, "net.bytes_in")) +
                   (CountOf(after, "net.bytes_out") -
                    CountOf(before, "net.bytes_out"));
  r->net_bytes_per_op = Ratio(static_cast<double>(bytes), ops);
  r->net_dispatch_batch =
      Ratio(static_cast<double>(SumOf(after, "net.dispatch.batch_size") -
                                SumOf(before, "net.dispatch.batch_size")),
            static_cast<double>(CountOf(after, "net.dispatch.batch_size") -
                                CountOf(before, "net.dispatch.batch_size")));
}

uint64_t TotalSent(const std::vector<ThreadOut>& outs) {
  uint64_t n = 0;
  for (const ThreadOut& o : outs) {
    for (uint64_t s : o.sent) n += s;
  }
  return n;
}

/// Starts `n` threads running fn(i) together; returns the wall time from
/// the common start until the last one finished.
template <typename Fn>
double RunTogether(size_t n, Fn fn) {
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      fn(i);
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  Clock::time_point t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  return Seconds(t0, Clock::now());
}

// ------------------------------------------------------- dashboard_read

/// Keeps kReadWindow reads in flight until `ops` are all answered; counts
/// each send in `sent`.
void ClosedReads(net::Client* client, const WorldIds& ids,
                 const std::vector<QueryOp>& ops,
                 std::atomic<uint64_t>* sent, ThreadOut* out) {
  Caller caller(client, out);
  std::deque<std::pair<uint64_t, Span>> window;
  size_t next = 0;
  while (next < ops.size() || !window.empty()) {
    while (next < ops.size() && window.size() < kReadWindow) {
      api::ProjectQueryRequest q;
      q.project = ids.projects[ops[next].project];
      q.include_feed = ops[next].feed;
      Span span{"query", out->spans.NewId(), 0, next, Clock::now(), {}};
      Result<uint64_t> id = caller.Send(q);
      sent->fetch_add(1);
      ++next;
      if (!out->fails.Check(id)) return;
      window.emplace_back(id.value(), span);
    }
    Result<api::AnyResponse> r = client->Await(window.front().first);
    window.front().second.end = Clock::now();
    out->spans.Add(window.front().second);
    window.pop_front();
    if (out->fails.Check(r)) {
      out->fails.CheckReply(r.value());
    } else if (!client->connected()) {
      return;
    }
  }
}

/// One accept → submit (+ peek, pipelined) → decide cycle. Returns false
/// when the connection broke.
bool TagCycle(net::Client* client, const WorldIds& ids, const CycleOp& op,
              uint64_t request, ThreadOut* out) {
  Caller caller(client, out);
  Span root{"cycle", out->spans.NewId(), 0, request, Clock::now(), {}};
  const api::AnyResponse* accepted = caller.Call(
      api::BatchAcceptTasksRequest{ids.taggers[op.tagger],
                                   ids.projects[op.project], op.count},
      "accept", root.id, request);
  if (accepted == nullptr) return client->connected();
  const auto& tasks = std::get<api::BatchAcceptTasksResponse>(*accepted);
  if (!out->fails.CheckAccept(tasks, op.count)) return true;
  api::BatchSubmitTagsRequest submit;
  api::BatchDecideRequest decide;
  decide.provider = ids.provider;
  for (size_t i = 0; i < tasks.tasks.size(); ++i) {
    submit.items.push_back(
        {ids.taggers[op.tagger], tasks.tasks[i].handle, op.tags[i]});
    decide.items.push_back({tasks.tasks[i].handle, true});
  }
  api::ProjectQueryRequest peek;
  peek.project = ids.projects[op.project];
  Span s1{"submit", out->spans.NewId(), root.id, request, Clock::now(), {}};
  Span s2{"query", out->spans.NewId(), root.id, request, Clock::now(), {}};
  Result<uint64_t> c1 = caller.Send(submit);
  Result<uint64_t> c2 = caller.Send(peek);
  if (!out->fails.Check(c1) || !out->fails.Check(c2)) return false;
  Result<api::AnyResponse> r1 = client->Await(c1.value());
  s1.end = Clock::now();
  Result<api::AnyResponse> r2 = client->Await(c2.value());
  s2.end = Clock::now();
  out->spans.Add(s1);
  out->spans.Add(s2);
  const bool got1 = out->fails.Check(r1);
  if (out->fails.Check(r2)) out->fails.CheckReply(r2.value());
  if (!got1) return client->connected();
  if (!out->fails.CheckReply(r1.value())) return true;
  const api::AnyResponse* decided =
      caller.Call(decide, "decide", root.id, request);
  if (decided == nullptr) return client->connected();
  out->approved +=
      std::get<api::BatchDecideResponse>(*decided).outcome.ok_count;
  root.end = Clock::now();
  out->spans.Add(root);
  out->latencies_us.push_back(MicrosBetween(root.start, root.end));
  return true;
}

struct Ctx {
  Args args;
  World world;
  size_t run = 0;  ///< distinct data directories per stack
  std::string settings;  ///< JSON object of the run's pinned settings

  std::string NextDir(const char* what) {
    return args.work_dir + "/" + what + "-" + std::to_string(++run);
  }
};

/// Builds `setups` stacks, keeping the last; records each one's time.
Status Setup(Ctx& ctx, size_t setups, size_t load_clients, bool durable,
             std::unique_ptr<Stack>* stack, PassResult* r) {
  for (size_t k = 0; k < setups; ++k) {
    stack->reset();
    malloc_trim(0);
    Clock::time_point t0 = Clock::now();
    auto s = std::make_unique<Stack>();
    ITAG_RETURN_IF_ERROR(BuildStack(ctx.args.workload, ctx.world,
                                    durable ? ctx.NextDir("primary") : "",
                                    load_clients, s.get()));
    r->setup_s.push_back(Seconds(t0, Clock::now()));
    *stack = std::move(s);
  }
  return Status::OK();
}

void MergeOuts(std::vector<ThreadOut>& outs, bool traced, SpanLog* spans,
               PassResult* r) {
  for (ThreadOut& o : outs) {
    r->fails.Merge(o.fails);
    r->latencies_us.insert(r->latencies_us.end(), o.latencies_us.begin(),
                           o.latencies_us.end());
    r->lateness_us.insert(r->lateness_us.end(), o.lateness_us.begin(),
                          o.lateness_us.end());
    if (traced) spans->Append(o.spans);
  }
}

std::vector<ThreadOut> MakeOuts(size_t n, bool traced) {
  std::vector<ThreadOut> outs(n);
  for (size_t i = 0; i < n; ++i) {
    outs[i].spans = SpanLog(traced);
    outs[i].spans.SetIdBase(static_cast<uint64_t>(i + 1) << 40);
  }
  return outs;
}

PassResult DashboardPass(Ctx& ctx, size_t setups, double secs,
                         SpanLog* spans) {
  PassResult r;
  const bool traced = spans != nullptr;
  const size_t readers = std::max<size_t>(1, LoadConnections() - 1);
  std::unique_ptr<Stack> stack;
  Status st = Setup(ctx, setups, readers + 1, false, &stack, &r);
  if (!st.ok()) {
    r.errors.push_back("setup: " + st.ToString());
    return r;
  }
  Streams streams(ctx.args.workload, ctx.args.seed, ctx.world);
  const size_t closed_per_round = static_cast<size_t>(
      secs * kReadsPerSecondClosed / (readers * kRounds));
  std::vector<std::vector<QueryOp>> closed(readers);
  for (size_t i = 0; i < readers; ++i) {
    closed[i] = streams.Reads(i, closed_per_round * kRounds);
  }
  std::vector<api::AnyRequest> open;
  for (const QueryOp& op : streams.Reads(
           readers, static_cast<size_t>(secs * kOpenLoopShare * kOpenLoopRate))) {
    open.push_back(api::ProjectQueryRequest{stack->ids.projects[op.project],
                                            op.feed, {}});
  }
  const size_t total_reads = closed_per_round * kRounds * readers + open.size();
  std::vector<CycleOp> writes = streams.Cycles(
      0, 0, total_reads / kReadsPerWrite, kWriterTasksPerCycle);

  Samples before = MetricsOf(stack->admin);
  std::vector<ThreadOut> outs = MakeOuts(readers + 1, traced);

  // The writer runs one tagging cycle per kReadsPerWrite reads sent, so
  // derived state keeps changing under the readers, and every read sees
  // the same amount of written data however fast the reads go.
  std::atomic<uint64_t> reads_sent{0};
  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    net::Client* c = &stack->clients[readers];
    for (size_t i = 0; i < writes.size(); ++i) {
      while (reads_sent.load() < (i + 1) * kReadsPerWrite) {
        if (stop_writer.load()) return;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (!TagCycle(c, stack->ids, writes[i], i, &outs[readers])) return;
    }
  });

  // Phase 1, closed loop: each round every reader keeps kReadWindow reads
  // in flight through its slice; ops_per_s is the median round's rate.
  std::vector<double> round_rates;
  for (size_t round = 0; round < kRounds; ++round) {
    std::vector<uint64_t> ok_before(readers);
    for (size_t i = 0; i < readers; ++i) {
      ok_before[i] = outs[i].fails.attempted() - outs[i].fails.failed();
    }
    double wall = RunTogether(readers, [&](size_t i) {
      std::vector<QueryOp> slice(
          closed[i].begin() + round * closed_per_round,
          closed[i].begin() + (round + 1) * closed_per_round);
      ClosedReads(&stack->clients[i], stack->ids, slice, &reads_sent,
                  &outs[i]);
    });
    uint64_t replies = 0;
    for (size_t i = 0; i < readers; ++i) {
      replies += outs[i].fails.attempted() - outs[i].fails.failed() -
                 ok_before[i];
    }
    round_rates.push_back(replies / wall);
  }
  r.ops_per_s = Median(round_rates);
  for (size_t i = 0; i < readers; ++i) stack->clients[i].Close();

  // Phase 2, open loop at a fixed rate on as many fresh connections.
  SpanLog open_spans(traced);
  open_spans.SetIdBase(static_cast<uint64_t>(readers + 2) << 40);
  OpenLoopResult ol = RunOpenLoop(stack->server->port(), readers, open,
                                  kOpenLoopRate, 30.0, &reads_sent,
                                  &open_spans);
  stop_writer.store(true);
  writer.join();
  // The writer's cycle times are not the dashboard's latency.
  outs[readers].latencies_us.clear();
  outs[0].sent[api::kRequestTypeIndex<api::ProjectQueryRequest>] += ol.sent;
  outs[0].fails.Merge(ol.fails);
  outs[0].latencies_us = ol.latencies_us;
  outs[0].lateness_us = ol.lateness_us;
  if (traced) outs[0].spans.Append(open_spans);

  Samples after = MetricsOf(stack->admin);
  Reconcile(outs, before, after, &r.errors);
  NetFigures(before, after, TotalSent(outs), &r);
  MergeOuts(outs, traced, spans, &r);

  // At quiesce, wire replies must equal in-process replies byte for byte.
  for (size_t k = 0; k < kEqualitySamples; ++k) {
    size_t p = (k * 5) % stack->ids.projects.size();
    api::ProjectQueryRequest q;
    q.project = stack->ids.projects[p];
    q.include_feed = true;
    Result<api::AnyResponse> wire = stack->admin.Dispatch(q);
    if (!wire.ok() || net::EncodeResponsePayload(wire.value()) !=
                          EncodedInfo(*stack->service, q.project)) {
      r.errors.push_back("wire ProjectQuery reply for project " +
                         std::to_string(p) + " differs from in-process");
    }
  }
  return r;
}

// ------------------------------------------------------ audience_ingest

/// Replication lag in time: at each cycle's decide ack the primary's LSNs
/// are noted; the lag is how long the follower takes to apply them.
class LagTracker {
 public:
  explicit LagTracker(Stack* s) : s_(s), thread_([this] { Run(); }) {}
  ~LagTracker() { Finish(); }

  void Ack() {
    std::vector<uint64_t> lsns = s_->primary_core().ReplLsns();
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back({Clock::now(), std::move(lsns)});
  }
  /// Waits until every noted ack was applied (or the follower stalls).
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      draining_ = true;
    }
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<double>& lag_ms() const { return lag_ms_; }

 private:
  struct Entry {
    Clock::time_point ack;
    std::vector<uint64_t> lsns;
  };
  static bool Covers(const std::vector<uint64_t>& applied,
                     const std::vector<uint64_t>& want) {
    if (applied.size() < want.size()) return false;
    for (size_t i = 0; i < want.size(); ++i) {
      if (applied[i] < want[i]) return false;
    }
    return true;
  }
  void Run() {
    Clock::time_point stall_deadline = Clock::time_point::max();
    for (;;) {
      std::vector<uint64_t> applied = s_->follower->applied_lsns();
      Clock::time_point now = Clock::now();
      std::lock_guard<std::mutex> lock(mu_);
      while (!queue_.empty() && Covers(applied, queue_.front().lsns)) {
        lag_ms_.push_back(MicrosBetween(queue_.front().ack, now) / 1e3);
        queue_.pop_front();
      }
      if (draining_) {
        if (queue_.empty()) return;
        if (stall_deadline == Clock::time_point::max()) {
          stall_deadline = now + std::chrono::seconds(60);
        } else if (now > stall_deadline) {
          return;
        }
      }
      mu_.unlock();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      mu_.lock();
    }
  }

  Stack* s_;
  std::mutex mu_;
  std::deque<Entry> queue_;
  bool draining_ = false;
  std::vector<double> lag_ms_;
  std::thread thread_;
};

PassResult IngestPass(Ctx& ctx, size_t setups, double secs,
                      SpanLog* spans) {
  PassResult r;
  const bool traced = spans != nullptr;
  const size_t taggers = LoadConnections();
  std::unique_ptr<Stack> stack;
  Status st = Setup(ctx, setups, taggers, true, &stack, &r);
  if (!st.ok()) {
    r.errors.push_back("setup: " + st.ToString());
    return r;
  }
  Streams streams(ctx.args.workload, ctx.args.seed, ctx.world);
  const size_t per_tagger = static_cast<size_t>(
      secs * kCyclesPerSecond / static_cast<double>(taggers));
  std::vector<std::vector<CycleOp>> cycles(taggers);
  for (size_t t = 0; t < taggers; ++t) {
    cycles[t] = streams.Cycles(t, t % ctx.world.taggers, per_tagger,
                               kTasksPerCycle);
  }
  Samples before = MetricsOf(stack->admin);
  std::vector<ThreadOut> outs = MakeOuts(taggers, traced);
  std::unique_ptr<LagTracker> lag;
  if (traced) lag = std::make_unique<LagTracker>(stack.get());
  double wall = RunTogether(taggers, [&](size_t t) {
    net::Client* c = &stack->clients[t];
    for (size_t i = 0; i < cycles[t].size(); ++i) {
      if (!TagCycle(c, stack->ids, cycles[t][i], i, &outs[t])) return;
      if (lag != nullptr) lag->Ack();
      if (t == 0 && (i + 1) % kCheckpointEvery == 0) {
        Caller(c, &outs[t]).Call(api::CheckpointRequest{}, "checkpoint", 0,
                                 i);
      }
    }
  });
  Clock::time_point load_end = Clock::now();
  uint64_t approved = 0;
  for (const ThreadOut& o : outs) approved += o.approved;
  r.ops_per_s = approved / wall;
  Samples after = MetricsOf(stack->admin);
  Reconcile(outs, before, after, &r.errors);
  NetFigures(before, after, TotalSent(outs), &r);
  MergeOuts(outs, traced, spans, &r);
  r.repl_bytes_per_task = Ratio(
      static_cast<double>(CountOf(after, "repl.bytes_sent") -
                          CountOf(before, "repl.bytes_sent")),
      static_cast<double>(approved));

  if (!WaitCaughtUp(*stack)) r.errors.push_back("follower did not catch up");
  r.catchup_ms = Seconds(load_end, Clock::now()) * 1e3;
  if (lag != nullptr) {
    lag->Finish();
    r.lag_ms = lag->lag_ms();
    lag.reset();
  }
  std::vector<std::string> infos;
  for (core::ProjectId p : stack->ids.projects) {
    infos.push_back(EncodedInfo(*stack->service, p));
    if (EncodedInfo(*stack->follower_service, p) != infos.back()) {
      r.errors.push_back("follower info differs for project " +
                         std::to_string(p));
    }
  }
  r.disk_bytes_per_task =
      Ratio(static_cast<double>(DirBytes(stack->dir)), approved);

  // Reopen the primary on its own directory, and open one shard database
  // on a copy of its directory to compare against.
  std::string dir = stack->dir;
  WorldIds ids = stack->ids;
  stack.reset();
  Clock::time_point t0 = Clock::now();
  api::Service reopened(PinnedSharded(dir));
  st = reopened.Init();
  r.restart_s = Seconds(t0, Clock::now());
  if (!st.ok()) {
    r.errors.push_back("restart: " + st.ToString());
    return r;
  }
  for (size_t i = 0; i < ids.projects.size(); ++i) {
    if (EncodedInfo(reopened, ids.projects[i]) != infos[i]) {
      r.errors.push_back("restarted info differs for project " +
                         std::to_string(ids.projects[i]));
    }
  }
  std::string copy = ctx.NextDir("open-copy");
  fs::copy(dir + "/shard-0", copy, fs::copy_options::recursive);
  itag::storage::DatabaseOptions dbo = PinnedSharded(copy).shard.db;
  itag::storage::Database db;
  t0 = Clock::now();
  st = db.Open(dbo);
  r.open_ms = Seconds(t0, Clock::now()) * 1e3;
  if (!st.ok()) r.errors.push_back("shard open: " + st.ToString());
  return r;
}

// -------------------------------------------------------- platform_tick

struct PlatformState {
  uint64_t completed = 0;
  uint64_t checksum = 0;
};

PlatformState ReadPlatform(Stack& s, const World& world,
                           std::vector<std::string>* errors) {
  PlatformState state;
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over every project
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (size_t i = 0; i < s.ids.projects.size(); ++i) {
    Result<api::ProjectQueryResponse> q =
        s.admin.ProjectQuery({s.ids.projects[i], false, {}});
    if (!q.ok() || !q.value().status.ok()) {
      errors->push_back("query of project " + std::to_string(i) + " failed");
      continue;
    }
    const core::ProjectInfo& info = q.value().info;
    // Budget is conserved: every completed task was paid from the budget,
    // and the remainder never exceeds what was granted.
    uint32_t budget = world.projects[i].spec.budget;
    if (info.budget_remaining > budget ||
        info.tasks_completed + info.budget_remaining > budget) {
      errors->push_back("budget not conserved in project " +
                        std::to_string(i));
    }
    state.completed += info.tasks_completed;
    uint64_t quality_bits;
    std::memcpy(&quality_bits, &info.quality, sizeof(quality_bits));
    mix(info.tasks_completed);
    mix(quality_bits);
    mix(info.budget_remaining);
  }
  state.checksum = h;
  return state;
}

PassResult PlatformPass(Ctx& ctx, size_t setups, double secs,
                        SpanLog* spans) {
  PassResult r;
  const bool traced = spans != nullptr;
  std::unique_ptr<Stack> stack;
  Status st = Setup(ctx, setups, 1, false, &stack, &r);
  if (!st.ok()) {
    r.errors.push_back("setup: " + st.ToString());
    return r;
  }
  const size_t ticks =
      static_cast<size_t>(secs * kTicksPerSecond);
  PlatformState start = ReadPlatform(*stack, ctx.world, &r.errors);
  Samples before = MetricsOf(stack->admin);
  std::vector<ThreadOut> outs = MakeOuts(1, traced);
  Caller caller(&stack->clients[0], &outs[0]);
  Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < ticks; ++i) {
    Clock::time_point s0 = Clock::now();
    if (caller.Call(api::StepRequest{1}, "step", 0, i) == nullptr &&
        !stack->clients[0].connected()) {
      break;
    }
    outs[0].latencies_us.push_back(MicrosBetween(s0, Clock::now()));
  }
  double wall = Seconds(t0, Clock::now());
  Samples after = MetricsOf(stack->admin);
  Reconcile(outs, before, after, &r.errors);
  NetFigures(before, after, TotalSent(outs), &r);
  MergeOuts(outs, traced, spans, &r);
  PlatformState end = ReadPlatform(*stack, ctx.world, &r.errors);
  uint64_t tasks = end.completed - start.completed;
  if (tasks == 0) r.errors.push_back("no simulated task completed");
  r.ops_per_s = tasks / wall;
  r.tasks_per_tick = Ratio(static_cast<double>(tasks), ticks);
  r.checksum = end.checksum;
  return r;
}

PassResult RunRep(Ctx& ctx, size_t setups, double secs, SpanLog* spans) {
  switch (ctx.args.workload) {
    case Workload::kDashboardRead:
      return DashboardPass(ctx, setups, secs, spans);
    case Workload::kAudienceIngest:
      return IngestPass(ctx, setups, secs, spans);
    case Workload::kPlatformTick:
      return PlatformPass(ctx, setups, secs, spans);
  }
  return {};
}

/// Repetitions of a pass of `secs`. Each runs its share of the work on a
/// fresh stack (fresh threads and connections); the pass reports the median
/// over them, which keeps one unlucky stack from setting a run's figures.
size_t RepsOf(Workload w, double secs) {
  switch (w) {
    case Workload::kDashboardRead:
      return 5;
    case Workload::kAudienceIngest:
      return std::max<long>(1, std::lround(secs * kCyclesPerSecond /
                                           kCyclesPerRep));
    case Workload::kPlatformTick:
      return 1;
  }
  return 1;
}

double MedianOf(const std::vector<PassResult>& reps,
                double PassResult::*field) {
  std::vector<double> v;
  for (const PassResult& r : reps) v.push_back(r.*field);
  return Median(v);
}

/// One pass of `secs` of the workload: its repetitions, merged. With
/// `many_setups` at least kSetupsUntraced set-ups are timed in all.
PassResult Pass(Ctx& ctx, double secs, bool many_setups, SpanLog* spans) {
  const size_t reps = RepsOf(ctx.args.workload, secs);
  const size_t setups =
      many_setups ? (kSetupsUntraced + reps - 1) / reps : 1;
  std::vector<PassResult> runs;
  for (size_t k = 0; k < reps; ++k) {
    // Hand the previous stack's freed memory back, so the process's peak
    // resident size is one repetition's, not an accident of heap reuse.
    malloc_trim(0);
    runs.push_back(RunRep(ctx, setups, secs / reps, spans));
    PassResult& r = runs.back();
    r.p50_us = Median(r.latencies_us);
  }
  PassResult m;
  for (PassResult& r : runs) {
    auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&m.setup_s, r.setup_s);
    cat(&m.latencies_us, r.latencies_us);
    cat(&m.lateness_us, r.lateness_us);
    cat(&m.lag_ms, r.lag_ms);
    m.fails.Merge(r.fails);
    m.errors.insert(m.errors.end(), r.errors.begin(), r.errors.end());
    m.checksum = m.checksum * 1099511628211ULL ^ r.checksum;
  }
  m.p50_us = MedianOf(runs, &PassResult::p50_us);
  m.ops_per_s = MedianOf(runs, &PassResult::ops_per_s);
  m.net_bytes_per_op = MedianOf(runs, &PassResult::net_bytes_per_op);
  m.net_dispatch_batch = MedianOf(runs, &PassResult::net_dispatch_batch);
  m.disk_bytes_per_task = MedianOf(runs, &PassResult::disk_bytes_per_task);
  m.restart_s = MedianOf(runs, &PassResult::restart_s);
  m.open_ms = MedianOf(runs, &PassResult::open_ms);
  m.repl_bytes_per_task = MedianOf(runs, &PassResult::repl_bytes_per_task);
  m.catchup_ms = MedianOf(runs, &PassResult::catchup_ms);
  m.tasks_per_tick = MedianOf(runs, &PassResult::tasks_per_tick);
  return m;
}

// ------------------------------------------------------------- the output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Prints the result line and keeps it, with the settings that shaped it,
/// in --out-dir.
void PrintResult(const Ctx& ctx, bool correct, const FailTally& fails,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(fails.attempted());
  json += ", \"failed\": " + std::to_string(fails.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::ofstream(ctx.args.out_dir + "/result-" + WorkloadName(ctx.args.workload) +
                "-seed" + std::to_string(ctx.args.seed) + "-trace" +
                (ctx.args.trace ? "1" : "0") + ".json")
      << "{\"settings\": " << ctx.settings << ", \"result\": " << json
      << "}\n";
  std::printf("%s\n", json.c_str());
}

void PrintErrors(const std::vector<std::string>& errors) {
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
}

void PrintFails(const char* what, const FailTally& f) {
  std::printf(
      "%s: attempted=%llu failed=%llu (transport=%llu typed=%llu "
      "item=%llu starved=%llu)\n",
      what, static_cast<unsigned long long>(f.attempted()),
      static_cast<unsigned long long>(f.failed()),
      static_cast<unsigned long long>(f.failed(FailKind::kTransport)),
      static_cast<unsigned long long>(f.failed(FailKind::kTypedError)),
      static_cast<unsigned long long>(f.failed(FailKind::kItemStatus)),
      static_cast<unsigned long long>(f.failed(FailKind::kStarved)));
}

int RunUntraced(Ctx& ctx) {
  PassResult r = Pass(ctx, ctx.args.seconds, true, nullptr);
  Tail late = TailOf(r.lateness_us);
  Tail tail = TailOf(r.latencies_us);
  std::printf("latency: n=%zu p50=%.1fus (median of %zu repetitions) "
              "tail=p%g %.1fus (%zu beyond)\n",
              r.latencies_us.size(), r.p50_us,
              RepsOf(ctx.args.workload, ctx.args.seconds), tail.q * 100,
              tail.value, tail.beyond);
  if (!r.lateness_us.empty()) {
    std::printf("open-loop lateness: p50=%.1fus p%g=%.1fus\n",
                Median(r.lateness_us), late.q * 100, late.value);
  }
  PrintFails("operations", r.fails);
  PrintErrors(r.errors);
  bool correct = r.errors.empty() && tail.q > 0;
  PrintResult(ctx, correct, r.fails,
              {{"setup_s", Median(r.setup_s), "s"},
               {"ops_per_s", r.ops_per_s, "1/s"},
               {"latency_p50_us", r.p50_us, "us"},
               {"peak_rss_mb", PeakRssMb(), "MB"}});
  return 0;
}

// ---------------------------------------------------------- traced replay

/// The fixed slice of the workload's operations every level executes.
std::vector<Op> ReplayOps(const Ctx& ctx) {
  Streams streams(ctx.args.workload, ctx.args.seed, ctx.world);
  std::vector<Op> ops;
  switch (ctx.args.workload) {
    case Workload::kDashboardRead: {
      std::vector<QueryOp> reads = streams.Reads(0, kReplayReads);
      std::vector<CycleOp> writes = streams.Cycles(
          0, 0, kReplayReads / kReadsPerWrite, kWriterTasksPerCycle);
      for (size_t i = 0; i < reads.size(); ++i) {
        ops.push_back(reads[i]);
        if ((i + 1) % kReadsPerWrite == 0) {
          ops.push_back(writes[i / kReadsPerWrite]);
        }
      }
      break;
    }
    case Workload::kAudienceIngest: {
      std::vector<std::vector<CycleOp>> per(ctx.world.taggers);
      for (size_t t = 0; t < per.size(); ++t) {
        per[t] = streams.Cycles(t, t, kReplayCyclesPerTagger, kTasksPerCycle);
      }
      for (size_t i = 0; i < kReplayCyclesPerTagger; ++i) {
        for (const auto& p : per) ops.push_back(p[i]);
        if ((i + 1) * per.size() % kCheckpointEvery == 0) {
          ops.push_back(CheckpointOp{});
        }
      }
      break;
    }
    case Workload::kPlatformTick:
      ops.assign(kReplaySteps, StepOp{});
      break;
  }
  return ops;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}
double SelfUs(const std::vector<double>& upper,
              const std::vector<double>& lower) {
  return upper.empty() || lower.empty() ? 0.0 : Median(upper) - Median(lower);
}

/// Median µs of one codec round trip of a request and its reply: encode
/// and decode the request frame and payload, then the reply's.
double CodecUs(const CodecSample& s) {
  std::vector<double> times;
  for (int rep = 0; rep < 200; ++rep) {
    Clock::time_point t0 = Clock::now();
    std::string req = net::EncodeRequestFrame(1, s.request);
    net::Frame f;
    size_t used = 0;
    api::AnyRequest req_out;
    bool ok = net::TryDecodeFrame(req, &f, &used).ok() &&
              net::DecodeRequestPayload(f.type, f.payload, &req_out).ok();
    std::string resp = net::EncodeResponseFrame(1, s.response);
    api::AnyResponse resp_out;
    ok = ok && net::TryDecodeFrame(resp, &f, &used).ok() &&
         net::DecodeResponsePayload(f.type, f.payload, &resp_out).ok();
    times.push_back(MicrosBetween(t0, Clock::now()));
    if (!ok) return -1;
  }
  return Median(times);
}

int RunTraced(Ctx& ctx) {
  std::vector<std::string> errors;
  FailTally fails;
  const Workload w = ctx.args.workload;
  const bool durable = w == Workload::kAudienceIngest;

  // Half of --seconds each, so the replays below fit the run's time too.
  const double secs = ctx.args.seconds / 2;
  PassResult base = Pass(ctx, secs, false, nullptr);
  SpanLog wire_spans(true);
  PassResult traced = Pass(ctx, secs, false, &wire_spans);
  for (PassResult* p : {&base, &traced}) {
    errors.insert(errors.end(), p->errors.begin(), p->errors.end());
    fails.Merge(p->fails);
  }
  if (w == Workload::kPlatformTick && base.checksum != traced.checksum) {
    errors.push_back("platform checksum differs between traced and "
                     "untraced runs of one seed");
  }
  const double overhead_pct =
      Ratio(base.ops_per_s - traced.ops_per_s, base.ops_per_s) * 100.0;

  // Replays, one level lower at a time, each on a fresh world. The levels
  // take turns chunk by chunk, so drift in the host's speed over the run
  // lands on every level alike instead of on whichever ran last.
  std::vector<Op> ops = ReplayOps(ctx);
  std::vector<CodecSample> codec;
  struct LevelRun {
    std::string name;
    std::unique_ptr<Level> level;
    CallTimes times;
    SpanLog spans{true};
  };
  auto dir = [&](const char* what) {
    return durable ? ctx.NextDir(what) : std::string();
  };
  std::vector<LevelRun> levels;
  auto add_level = [&](const std::string& name, std::unique_ptr<Level> level) {
    Status st = level == nullptr ? Status::Aborted("failed to start")
                                 : level->Provision(ctx.world);
    if (!st.ok()) {
      errors.push_back(name + " level: " + st.ToString());
      return;
    }
    levels.push_back({name, std::move(level), {}, SpanLog(true)});
  };
  add_level("wire", MakeWireLevel(dir("wire")));
  add_level("api", MakeServiceLevel(dir("api"), &codec));
  ShardedLevel* core_level = nullptr;
  {
    std::unique_ptr<ShardedLevel> level = MakeShardedLevel(dir("core"));
    core_level = level.get();
    add_level("core", std::move(level));
  }
  if (durable) add_level("facade_durable", MakeFacadeLevel(dir("facade")));
  add_level("facade", MakeFacadeLevel(""));

  uint64_t wal_bytes = 0, wal_appends = 0;
  const size_t chunk = std::max<size_t>(1, ops.size() / kReplayChunks);
  for (size_t first = 0; first < ops.size(); first += chunk) {
    std::vector<Op> slice(ops.begin() + first,
                          ops.begin() + std::min(ops.size(), first + chunk));
    for (LevelRun& run : levels) {
      Samples before = obs::MetricsRegistry::Default().Snapshot("storage.wal.");
      run.times.Merge(Replay(*run.level, slice, &run.spans, first));
      if (run.name == "facade_durable") {
        Samples after = obs::MetricsRegistry::Default().Snapshot("storage.wal.");
        wal_bytes += CountOf(after, "storage.wal.bytes") -
                     CountOf(before, "storage.wal.bytes");
        wal_appends += CountOf(after, "storage.wal.appends") -
                       CountOf(before, "storage.wal.appends");
      }
    }
  }
  std::map<std::string, const CallTimes*> runs;
  for (const LevelRun& run : levels) {
    runs[run.name] = &run.times;
    fails.Merge(run.times.fails);
  }
  static const CallTimes kNone;
  auto times_of = [&](const std::string& name) -> const CallTimes& {
    auto it = runs.find(name);
    return it == runs.end() ? kNone : *it->second;
  };
  double peek_us = 0;
  if (runs.count("core") != 0 && core_level->num_projects() > 0) {
    const size_t n = 100000;
    Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      if (!core_level->Peek(i % core_level->num_projects())) {
        errors.push_back("PeekQuality failed");
        break;
      }
    }
    peek_us = MicrosBetween(t0, Clock::now()) / n;
  }
  uint64_t approved_per_replay = 0;
  size_t cycles_per_replay = 0;
  for (const Op& op : ops) {
    if (const auto* c = std::get_if<CycleOp>(&op)) {
      approved_per_replay += c->count;
      ++cycles_per_replay;
    }
  }
  const double wal_bytes_per_task =
      Ratio(static_cast<double>(wal_bytes), approved_per_replay);
  const double wal_appends_per_cycle =
      Ratio(static_cast<double>(wal_appends), cycles_per_replay);

  // Per-call waiting in the core: the same calls from as many threads as
  // load connections at once, against one thread, on a fresh world.
  double wait_query = 0, wait_accept = 0;
  if (w != Workload::kPlatformTick) {
    std::unique_ptr<ShardedLevel> level = MakeShardedLevel(dir("core-par"));
    if (level == nullptr || !level->Provision(ctx.world).ok()) {
      errors.push_back("parallel core level failed to start");
    } else {
      const size_t threads = LoadConnections();
      std::vector<CallTimes> par(threads);
      std::vector<SpanLog> logs(threads, SpanLog(false));
      RunTogether(threads, [&](size_t t) {
        std::vector<Op> mine;
        for (size_t i = t; i < ops.size(); i += threads) {
          if (!std::holds_alternative<CheckpointOp>(ops[i])) {
            mine.push_back(ops[i]);
          }
        }
        par[t] = Replay(*level, mine, &logs[t]);
      });
      CallTimes all;
      for (const CallTimes& p : par) all.Merge(p);
      fails.Merge(all.fails);
      wait_query = Mean(all.query) - Mean(times_of("core").query);
      wait_accept = all.accept.empty()
                        ? 0.0
                        : Mean(all.accept) - Mean(times_of("core").accept);
    }
  }

  // Codec time on the workload's real messages.
  std::map<size_t, std::vector<double>> codec_us;
  for (const CodecSample& s : codec) {
    double us = CodecUs(s);
    if (us < 0) errors.push_back("codec round trip failed");
    codec_us[s.request.index()].push_back(us);
  }
  auto codec_of = [&](size_t type) {
    auto it = codec_us.find(type);
    return it == codec_us.end() ? 0.0 : Median(it->second);
  };
  const double codec_query = codec_of(api::kRequestTypeIndex<api::ProjectQueryRequest>);
  const double codec_cycle =
      cycles_per_replay == 0
          ? 0.0
          : codec_of(api::kRequestTypeIndex<api::BatchAcceptTasksRequest>) +
                codec_of(api::kRequestTypeIndex<api::BatchSubmitTagsRequest>) +
                codec_query +
                codec_of(api::kRequestTypeIndex<api::BatchDecideRequest>);

  // Spans of the traced pass and of every level, one JSON line each.
  Clock::time_point epoch = Clock::now();
  for (const Span& s : wire_spans.spans()) epoch = std::min(epoch, s.start);
  for (const LevelRun& run : levels) {
    for (const Span& s : run.spans.spans()) epoch = std::min(epoch, s.start);
  }
  const std::string span_path = ctx.args.out_dir + "/spans-" +
                                WorkloadName(w) + "-seed" +
                                std::to_string(ctx.args.seed) + ".jsonl";
  fs::remove(span_path);
  bool wrote = WriteSpans(span_path, "load", wire_spans.spans(), epoch);
  for (const LevelRun& run : levels) {
    wrote = WriteSpans(span_path, run.name, run.spans.spans(), epoch) && wrote;
  }
  if (!wrote) errors.push_back("could not write " + span_path);
  std::printf("spans: %s\n", span_path.c_str());

  const CallTimes& wire = times_of("wire");
  const CallTimes& api_t = times_of("api");
  const CallTimes& core_t = times_of("core");
  const CallTimes& facade = times_of("facade");
  const CallTimes& durable_facade = times_of("facade_durable");
  const CallTimes& below_core = durable ? durable_facade : facade;
  Tail late = TailOf(base.lateness_us);
  Tail lag = TailOf(traced.lag_ms);
  Tail tail = TailOf(base.latencies_us);
  std::vector<Metric> m = {
      {"net.rtt_self_us.query", SelfUs(wire.query, api_t.query), "us"},
      {"net.rtt_self_us.cycle", SelfUs(wire.cycle, api_t.cycle), "us"},
      {"net.codec_us.query", codec_query, "us"},
      {"net.codec_us.cycle", codec_cycle, "us"},
      {"net.bytes_per_op", base.net_bytes_per_op, "bytes"},
      {"net.dispatch_batch", base.net_dispatch_batch, "count"},
      {"api.self_us.query", SelfUs(api_t.query, core_t.query), "us"},
      {"api.self_us.accept", SelfUs(api_t.accept, core_t.accept), "us"},
      {"api.self_us.submit", SelfUs(api_t.submit, core_t.submit), "us"},
      {"api.self_us.decide", SelfUs(api_t.decide, core_t.decide), "us"},
      {"api.self_us.step", SelfUs(api_t.step, core_t.step), "us"},
      {"itag.core.self_us.query", SelfUs(core_t.query, below_core.query), "us"},
      {"itag.core.self_us.accept", SelfUs(core_t.accept, below_core.accept), "us"},
      {"itag.core.self_us.submit", SelfUs(core_t.submit, below_core.submit), "us"},
      {"itag.core.self_us.decide", SelfUs(core_t.decide, below_core.decide), "us"},
      {"itag.core.self_us.step", SelfUs(core_t.step, below_core.step), "us"},
      {"itag.core.wait_us.query", wait_query, "us"},
      {"itag.core.wait_us.accept", wait_accept, "us"},
      {"itag.core.peek_us", peek_us, "us"},
      {"itag.facade_us.query", Median(facade.query), "us"},
      {"itag.facade_us.accept", Median(facade.accept), "us"},
      {"itag.facade_us.submit", Median(facade.submit), "us"},
      {"itag.facade_us.decide", Median(facade.decide), "us"},
      {"itag.facade_us.step", Median(facade.step), "us"},
      {"crowd.tasks_per_tick", base.tasks_per_tick, "count"},
      {"storage.self_us.accept", SelfUs(durable_facade.accept, facade.accept), "us"},
      {"storage.self_us.submit", SelfUs(durable_facade.submit, facade.submit), "us"},
      {"storage.self_us.decide", SelfUs(durable_facade.decide, facade.decide), "us"},
      {"storage.wal.bytes_per_task", wal_bytes_per_task, "bytes"},
      {"storage.wal.appends_per_cycle", wal_appends_per_cycle, "count"},
      {"storage.checkpoint_ms", Median(api_t.checkpoint) / 1e3, "ms"},
      {"storage.disk_bytes_per_task", base.disk_bytes_per_task, "bytes"},
      {"storage.open_ms", base.open_ms, "ms"},
      {"restart_s", base.restart_s, "s"},
      {"repl.lag_ms_p50", Median(traced.lag_ms), "ms"},
      {"repl.lag_ms_tail", lag.value, "ms"},
      {"repl.catchup_ms", base.catchup_ms, "ms"},
      {"repl.bytes_per_task", base.repl_bytes_per_task, "bytes"},
      {"loadgen.late_tail_us", late.value, "us"},
      {"latency_tail_us", tail.value, "us"},
      {"trace.overhead_pct", overhead_pct, "%"},
      {"fail_ratio", fails.ratio(), "ratio"},
  };
  for (const Metric& metric : m) {
    std::printf("%-32s %14.3f %s\n", metric.name.c_str(), metric.value,
                metric.unit);
  }
  PrintFails("operations", fails);
  PrintErrors(errors);
  PrintResult(ctx, errors.empty(), fails, m);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      if (!ParseWorkload(val, &a->workload)) return false;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else if (key == "--work-dir") {
      a->work_dir = val;
    } else if (key == "--out-dir") {
      a->out_dir = val;
    } else {
      return false;
    }
  }
  return have_workload && a->seconds > 0 && !a->work_dir.empty() &&
         !a->out_dir.empty() && argc % 2 == 1;
}

}  // namespace
}  // namespace stackbench

int main(int argc, char** argv) {
  using namespace stackbench;
  Ctx ctx;
  if (!ParseArgs(argc, argv, &ctx.args)) {
    std::fprintf(stderr,
                 "usage: %s --workload dashboard_read|audience_ingest|"
                 "platform_tick --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR --out-dir DIR\n",
                 argv[0]);
    return 2;
  }
  // Tracing inside the program stays off: benchmark spans are recorded
  // from outside, around the calls into each layer.
  itag::obs::Tracer::Default().Configure(0, 0);
  std::error_code ec;
  fs::remove_all(ctx.args.work_dir, ec);
  fs::create_directories(ctx.args.work_dir);
  fs::create_directories(ctx.args.out_dir);
  ctx.world = MakeWorld(ctx.args.workload, ctx.args.seed);
  char settings[512];
  std::snprintf(
      settings, sizeof(settings),
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"host_cores\": %zu, \"shards\": %zu, "
      "\"pool_threads\": %zu, \"reactors\": %zu, \"workers\": %zu, "
      "\"max_in_flight\": %zu, \"load_connections\": %zu, "
      "\"wal_flush\": \"%s\", \"tracer\": \"off\", "
      "\"rebalancer\": \"off\", \"admission\": \"off\"}",
      WorkloadName(ctx.args.workload),
      static_cast<unsigned long long>(ctx.args.seed), ctx.args.seconds,
      ctx.args.trace ? 1 : 0, HostCores(), kShards, kPoolThreads, kReactors,
      kWorkers, kMaxInFlight, LoadConnections(), kWalFlushPolicy);
  ctx.settings = settings;
  std::printf("settings: %s\n", settings);
  std::fflush(stdout);
  int rc = ctx.args.trace ? RunTraced(ctx) : RunUntraced(ctx);
  fs::remove_all(ctx.args.work_dir, ec);
  return rc;
}
