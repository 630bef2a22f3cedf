#include "world.h"

#include <utility>

#include "common/random.h"
#include "stats.h"

namespace stackbench {

namespace core = itag::core;
namespace api = itag::api;
using itag::Rng;
using itag::Status;
using itag::ZipfSampler;

namespace {

// Tag vocabulary ranks are Zipf-skewed, as tagging studies report for
// self-organising folksonomies (Liu et al.; PAPERS.md).
constexpr uint32_t kVocabulary = 400;
constexpr double kTagZipf = 1.05;

struct Shape {
  size_t projects;
  size_t resources;
  size_t taggers;
  double project_zipf;  ///< popularity skew of the projects clients pick
  uint32_t budget;
};

Shape ShapeOf(Workload w) {
  switch (w) {
    case Workload::kDashboardRead:
      return {64, 16, 1, 1.1, 20000};
    case Workload::kAudienceIngest:
      return {16, 32, 4, 0.8, 1000000};
    case Workload::kPlatformTick:
      return {64, 32, 0, 0.0, 50000};
  }
  return {};
}

// platform_tick: the first 16 projects (four per shard under round-robin
// placement) run on the simulated MTurk platform with the paper's
// strategies; the other 48 are started audience projects nobody tags.
constexpr size_t kRunningPlatformProjects = 16;

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kDashboardRead:
      return "dashboard_read";
    case Workload::kAudienceIngest:
      return "audience_ingest";
    case Workload::kPlatformTick:
      return "platform_tick";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kDashboardRead, Workload::kAudienceIngest,
                     Workload::kPlatformTick}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

World MakeWorld(Workload workload, uint64_t seed) {
  using itag::strategy::StrategyKind;
  static constexpr StrategyKind kPaperStrategies[] = {
      StrategyKind::kFewestPostsFirst, StrategyKind::kMostUnstableFirst,
      StrategyKind::kHybridFpMu, StrategyKind::kEstimatedGain};
  Shape shape = ShapeOf(workload);
  Rng rng(seed, /*stream=*/101);
  ZipfSampler tag_pick(kVocabulary, kTagZipf);
  World world;
  world.taggers = shape.taggers;
  for (size_t p = 0; p < shape.projects; ++p) {
    ProjectDef def;
    def.spec.name = "project-" + std::to_string(p);
    def.spec.budget = shape.budget;
    def.spec.pay_cents = 5;
    def.spec.platform = core::PlatformChoice::kAudience;
    def.spec.strategy = StrategyKind::kHybridFpMu;
    if (workload == Workload::kPlatformTick && p < kRunningPlatformProjects) {
      def.spec.platform = core::PlatformChoice::kMTurk;
      def.spec.strategy = kPaperStrategies[p % 4];
    }
    for (size_t r = 0; r < shape.resources; ++r) {
      api::UploadResourceItem item;
      item.uri = "https://example.org/p" + std::to_string(p) + "/r" +
                 std::to_string(r);
      size_t tags = 3 + rng.Uniform(6);
      for (size_t t = 0; t < tags; ++t) {
        item.initial_tags.push_back("tag-" +
                                    std::to_string(tag_pick.Sample(&rng)));
      }
      def.resources.push_back(std::move(item));
    }
    world.projects.push_back(std::move(def));
  }
  return world;
}

namespace {

Status ReplyStatus(const itag::Result<api::AnyResponse>& r) {
  return r.ok() ? FirstError(r.value()) : r.status();
}

}  // namespace

Status ProvisionViaApi(const World& world, const CallFn& call,
                       WorldIds* ids) {
  itag::Result<api::AnyResponse> r =
      call(api::RegisterProviderRequest{"provider"});
  ITAG_RETURN_IF_ERROR(ReplyStatus(r));
  ids->provider = std::get<api::RegisterProviderResponse>(r.value()).provider;
  for (size_t t = 0; t < world.taggers; ++t) {
    r = call(api::RegisterTaggerRequest{"tagger-" + std::to_string(t)});
    ITAG_RETURN_IF_ERROR(ReplyStatus(r));
    ids->taggers.push_back(
        std::get<api::RegisterTaggerResponse>(r.value()).tagger);
  }
  for (const ProjectDef& def : world.projects) {
    r = call(api::CreateProjectRequest{ids->provider, def.spec});
    ITAG_RETURN_IF_ERROR(ReplyStatus(r));
    core::ProjectId project =
        std::get<api::CreateProjectResponse>(r.value()).project;
    ITAG_RETURN_IF_ERROR(
        ReplyStatus(call(api::BatchUploadResourcesRequest{project,
                                                          def.resources})));
    api::BatchControlRequest start;
    start.project = project;
    start.items.push_back({api::ControlAction::kStart, 0, 0, {}});
    ITAG_RETURN_IF_ERROR(ReplyStatus(call(start)));
    ids->projects.push_back(project);
  }
  return Status::OK();
}

Streams::Streams(Workload workload, uint64_t seed, const World& world)
    : workload_(workload), seed_(seed), num_projects_(world.projects.size()) {}

std::vector<QueryOp> Streams::Reads(size_t r, size_t count) {
  Rng rng(seed_, 1000 + r);
  ZipfSampler pick(static_cast<uint32_t>(num_projects_),
                   ShapeOf(workload_).project_zipf);
  std::vector<QueryOp> ops(count);
  for (size_t i = 0; i < count; ++i) {
    ops[i].project = pick.Sample(&rng);
    ops[i].feed = i % 4 == 0;
  }
  return ops;
}

std::vector<CycleOp> Streams::Cycles(size_t t, size_t tagger, size_t count,
                                     size_t tasks_per_cycle) {
  Rng rng(seed_, 2000 + t);
  ZipfSampler pick(static_cast<uint32_t>(num_projects_),
                   ShapeOf(workload_).project_zipf);
  ZipfSampler tag_pick(kVocabulary, kTagZipf);
  std::vector<CycleOp> ops(count);
  for (CycleOp& op : ops) {
    op.tagger = tagger;
    op.project = pick.Sample(&rng);
    op.count = tasks_per_cycle;
    op.tags.resize(tasks_per_cycle);
    for (std::vector<std::string>& tags : op.tags) {
      tags = {"tag-" + std::to_string(tag_pick.Sample(&rng)),
              "tag-" + std::to_string(tag_pick.Sample(&rng))};
    }
  }
  return ops;
}

}  // namespace stackbench
