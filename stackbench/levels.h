// The layers of the stack as the benchmark reaches them from outside, one
// public surface each: the wire (net::Client → net::Server), the service
// (api::Service::Dispatch), the sharded core (core::ShardedSystem) and the
// facade (core::ITagSystem, in memory or durable). Every level provisions
// the same seeded world and executes the same operations, so the
// difference between two adjacent levels' times is the self time of the
// layer in between.
#ifndef STACKBENCH_LEVELS_H_
#define STACKBENCH_LEVELS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/service.h"
#include "itag/itag_system.h"
#include "itag/sharded_system.h"
#include "net/server.h"
#include "stats.h"
#include "world.h"

namespace stackbench {

// ------------------------------------------------------- pinned settings

/// Every host-dependent setting of the served stack, fixed so that runs on
/// different hosts differ only in speed. The WAL policy is the storage
/// layer's only one today: an ofstream flush per append, no fsync.
inline constexpr size_t kShards = 4;
inline constexpr size_t kPoolThreads = 4;
inline constexpr size_t kReactors = 2;
inline constexpr size_t kWorkers = 4;
inline constexpr size_t kMaxInFlight = 256;
inline constexpr const char* kWalFlushPolicy = "ofstream-flush-no-fsync";

/// Sharded-core options: rebalancer off, admission control never set.
/// `dir` empty means in memory; durable directories retain their WAL
/// (replication primaries need it).
itag::core::ShardedSystemOptions PinnedSharded(const std::string& dir,
                                               bool read_only = false);
itag::net::ServerOptions PinnedServer();

// ----------------------------------------------------------------- spans

/// One timed call, recorded after the fact. Spans of one operation share
/// `request`; `parent` is 0 for an operation's root span.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span buffer of one thread; written out when the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  uint64_t NewId() { return ++next_id_ + id_base_; }
  void Add(const Span& span) {
    if (enabled_) spans_.push_back(span);
  }
  /// Gives this log an id range disjoint from other logs' (per thread).
  void SetIdBase(uint64_t base) { id_base_ = base; }
  const std::vector<Span>& spans() const { return spans_; }
  void Append(const SpanLog& other);

 private:
  bool enabled_;
  uint64_t id_base_ = 0;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// Writes spans as JSON lines, times in microseconds since `epoch`, each
/// tagged with `level`.
bool WriteSpans(const std::string& path, const std::string& level,
                const std::vector<Span>& spans, Clock::time_point epoch);

// ---------------------------------------------------------------- levels

/// A task handle as a level knows it; `sys` picks the facade instance.
struct Handle {
  size_t sys = 0;
  uint64_t id = 0;
};

class Level {
 public:
  virtual ~Level() = default;
  virtual itag::Status Provision(const World& world) = 0;
  virtual bool Query(size_t project, bool feed) = 0;
  virtual bool Accept(size_t tagger, size_t project, size_t count,
                      std::vector<Handle>* out) = 0;
  virtual bool Submit(size_t tagger, const std::vector<Handle>& handles,
                      const std::vector<std::vector<std::string>>& tags) = 0;
  virtual bool Decide(const std::vector<Handle>& handles) = 0;
  virtual bool Step() = 0;
  virtual bool Checkpoint() = 0;
};

/// Wire level: a fresh Service + Server, reached through one sync Client.
std::unique_ptr<Level> MakeWireLevel(const std::string& dir);
/// Service level: a fresh Service, reached through Service::Dispatch.
/// When `codec_samples` is set, the first requests and replies of each
/// kind are copied there (the real messages the codec is timed on).
struct CodecSample {
  itag::api::AnyRequest request;
  itag::api::AnyResponse response;
};
std::unique_ptr<Level> MakeServiceLevel(
    const std::string& dir, std::vector<CodecSample>* codec_samples);
/// Sharded-core level: a fresh ShardedSystem with the pinned options.
/// Thread-safe (the core is), so it can be driven from several threads.
class ShardedLevel;
std::unique_ptr<ShardedLevel> MakeShardedLevel(const std::string& dir);
/// Facade level: one core::ITagSystem per shard with the shard's options
/// and seed, projects placed round-robin as the sharded core places them,
/// called one after another (Step steps every instance).
std::unique_ptr<Level> MakeFacadeLevel(const std::string& dir);

class ShardedLevel : public Level {
 public:
  explicit ShardedLevel(itag::core::ShardedSystemOptions options)
      : system_(std::move(options)) {}
  itag::Status Init() { return system_.Init(); }
  itag::Status Provision(const World& world) override;
  bool Query(size_t project, bool feed) override;
  bool Accept(size_t tagger, size_t project, size_t count,
              std::vector<Handle>* out) override;
  bool Submit(size_t tagger, const std::vector<Handle>& handles,
              const std::vector<std::vector<std::string>>& tags) override;
  bool Decide(const std::vector<Handle>& handles) override;
  bool Step() override;
  bool Checkpoint() override;
  /// The lock-free monitoring read (QualitySnapshot) of one project.
  bool Peek(size_t project);
  size_t num_projects() const { return ids_.projects.size(); }

 private:
  itag::core::ShardedSystem system_;
  WorldIds ids_;
};

// ---------------------------------------------------------------- replay

/// Per-call times (µs) of one replay, by call kind.
struct CallTimes {
  std::vector<double> query, accept, submit, decide, step, checkpoint;
  std::vector<double> cycle;  ///< accept → submit → peek → decide
  FailTally fails;
  void Merge(const CallTimes& other);
};

/// Executes `ops` in order on `level`, timing every call; records one span
/// per call (under one root span per op) in `spans`, with request ids
/// counting up from `first_request` + 1.
CallTimes Replay(Level& level, const std::vector<Op>& ops, SpanLog* spans,
                 uint64_t first_request = 0);

}  // namespace stackbench

#endif  // STACKBENCH_LEVELS_H_
