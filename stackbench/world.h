// Seeded inputs of the stack benchmark: the world each workload provisions
// and the operation streams its clients send. The server only ever sees
// requests built from these.
#ifndef STACKBENCH_WORLD_H_
#define STACKBENCH_WORLD_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "api/requests.h"
#include "common/result.h"
#include "common/status.h"
#include "itag/sharded_system.h"

namespace stackbench {

enum class Workload { kDashboardRead, kAudienceIngest, kPlatformTick };

const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& name, Workload* out);

struct ProjectDef {
  itag::core::ProjectSpec spec;
  std::vector<itag::api::UploadResourceItem> resources;
};

/// One provider owns every project; taggers are registered up front.
struct World {
  size_t taggers = 0;
  std::vector<ProjectDef> projects;
};

World MakeWorld(Workload workload, uint64_t seed);

/// Ids the server handed back while provisioning, by world index.
struct WorldIds {
  itag::core::ProviderId provider = 0;
  std::vector<itag::core::UserTaggerId> taggers;
  std::vector<itag::core::ProjectId> projects;
};

/// Sends one request somewhere (a wire client, an in-process Service).
using CallFn = std::function<itag::Result<itag::api::AnyResponse>(
    const itag::api::AnyRequest&)>;

/// Registers the provider and taggers, creates and uploads every project,
/// and starts it. Fails on the first non-OK reply.
itag::Status ProvisionViaApi(const World& world, const CallFn& call,
                             WorldIds* ids);

// --------------------------------------------------------------- streams

struct QueryOp {
  size_t project = 0;
  bool feed = false;
};
/// accept `count` tasks → submit tags[i] for task i, pipelined with a
/// ProjectQuery peek → approve every task.
struct CycleOp {
  size_t tagger = 0;
  size_t project = 0;
  size_t count = 0;
  std::vector<std::vector<std::string>> tags;
};
struct StepOp {};
struct CheckpointOp {};
using Op = std::variant<QueryOp, CycleOp, StepOp, CheckpointOp>;

/// Per-workload sizes and the seeded streams drawn from them.
class Streams {
 public:
  Streams(Workload workload, uint64_t seed, const World& world);

  /// dashboard_read: the reads of reader `r` (a quarter set include_feed).
  std::vector<QueryOp> Reads(size_t r, size_t count);
  /// Tagging cycles of tagger `t` (audience_ingest) or of the dashboard
  /// writer; Zipf-picked projects, two Zipf-ranked tags per task.
  std::vector<CycleOp> Cycles(size_t t, size_t tagger, size_t count,
                              size_t tasks_per_cycle);

 private:
  Workload workload_;
  uint64_t seed_;
  size_t num_projects_;
};

}  // namespace stackbench

#endif  // STACKBENCH_WORLD_H_
