#include "levels.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "net/client.h"

namespace stackbench {

namespace core = itag::core;
namespace api = itag::api;
namespace net = itag::net;
using itag::Result;
using itag::Status;

core::ShardedSystemOptions PinnedSharded(const std::string& dir,
                                         bool read_only) {
  core::ShardedSystemOptions opts;
  opts.num_shards = kShards;
  opts.pool_threads = kPoolThreads;
  opts.rebalance_interval_ms = 0;
  opts.read_only = read_only;
  opts.shard.db.directory = dir;
  opts.shard.db.retain_wal = !dir.empty();
  return opts;
}

net::ServerOptions PinnedServer() {
  net::ServerOptions opts;
  opts.reactors = kReactors;
  opts.workers = kWorkers;
  opts.max_in_flight = kMaxInFlight;
  return opts;
}

// ----------------------------------------------------------------- spans

void SpanLog::Append(const SpanLog& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

bool WriteSpans(const std::string& path, const std::string& level,
                const std::vector<Span>& spans, Clock::time_point epoch) {
  std::ofstream out(path, std::ios::app);
  for (const Span& s : spans) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"level\":\"%s\",\"name\":\"%s\",\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%llu,\"start_us\":%.3f,"
                  "\"end_us\":%.3f}\n",
                  level.c_str(), s.name,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  MicrosBetween(epoch, s.start), MicrosBetween(epoch, s.end));
    out << line;
  }
  return static_cast<bool>(out);
}

namespace {

// ----------------------------------------------------- wire and service

/// A project's resources as the core's upload batch takes them.
std::vector<core::ResourceUpload> UploadsOf(const ProjectDef& def) {
  std::vector<core::ResourceUpload> uploads;
  for (const api::UploadResourceItem& item : def.resources) {
    uploads.push_back(
        {item.kind, item.uri, item.description, item.initial_tags});
  }
  return uploads;
}

bool ReplyOk(const Result<api::AnyResponse>& r) {
  FailTally scratch;
  return scratch.Check(r) && scratch.CheckReply(r.value());
}

/// The two request-level surfaces share everything but the call itself.
class ApiLevel : public Level {
 public:
  ApiLevel(CallFn call, std::vector<CodecSample>* codec_samples)
      : call_(std::move(call)), codec_samples_(codec_samples) {}
  ~ApiLevel() override {
    if (server != nullptr) server->Stop();
  }

  Status Provision(const World& world) override {
    return ProvisionViaApi(world, call_, &ids_);
  }
  bool Query(size_t project, bool feed) override {
    api::ProjectQueryRequest req;
    req.project = ids_.projects[project];
    req.include_feed = feed;
    return ReplyOk(Call(req));
  }
  bool Accept(size_t tagger, size_t project, size_t count,
              std::vector<Handle>* out) override {
    Result<api::AnyResponse> r = Call(api::BatchAcceptTasksRequest{
        ids_.taggers[tagger], ids_.projects[project], count});
    if (!r.ok()) return false;
    const auto& resp = std::get<api::BatchAcceptTasksResponse>(r.value());
    out->clear();
    for (const core::AcceptedTask& task : resp.tasks) {
      out->push_back({0, task.handle});
    }
    return resp.status.ok() && resp.tasks.size() == count;
  }
  bool Submit(size_t tagger, const std::vector<Handle>& handles,
              const std::vector<std::vector<std::string>>& tags) override {
    api::BatchSubmitTagsRequest req;
    for (size_t i = 0; i < handles.size(); ++i) {
      req.items.push_back({ids_.taggers[tagger], handles[i].id, tags[i]});
    }
    return ReplyOk(Call(req));
  }
  bool Decide(const std::vector<Handle>& handles) override {
    api::BatchDecideRequest req;
    req.provider = ids_.provider;
    for (const Handle& h : handles) req.items.push_back({h.id, true});
    return ReplyOk(Call(req));
  }
  bool Step() override { return ReplyOk(Call(api::StepRequest{1})); }
  bool Checkpoint() override {
    return ReplyOk(Call(api::CheckpointRequest{}));
  }

  // Owned stack, torn down client → server → service.
  std::unique_ptr<api::Service> service;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::Client> client;

 private:
  static constexpr size_t kSamplesPerKind = 4;

  Result<api::AnyResponse> Call(const api::AnyRequest& req) {
    Result<api::AnyResponse> r = call_(req);
    if (codec_samples_ != nullptr && r.ok() &&
        sampled_[req.index()] < kSamplesPerKind) {
      ++sampled_[req.index()];
      codec_samples_->push_back({req, r.value()});
    }
    return r;
  }

  CallFn call_;
  std::vector<CodecSample>* codec_samples_;
  size_t sampled_[api::kRequestTypeCount] = {};
  WorldIds ids_;
};

std::unique_ptr<api::Service> MakeService(const std::string& dir) {
  auto service = std::make_unique<api::Service>(PinnedSharded(dir));
  if (!service->Init().ok()) return nullptr;
  return service;
}

// ---------------------------------------------------------------- facade

class FacadeLevel : public Level {
 public:
  explicit FacadeLevel(const std::string& dir) {
    core::ShardedSystemOptions sharded = PinnedSharded(dir);
    for (size_t s = 0; s < kShards; ++s) {
      core::ITagSystemOptions opts = sharded.shard;
      if (!dir.empty()) opts.db.directory = dir + "/shard-" + std::to_string(s);
      opts.seed = sharded.shard.seed + s;
      systems_.push_back(std::make_unique<core::ITagSystem>(std::move(opts)));
    }
  }

  Status Init() {
    for (auto& sys : systems_) ITAG_RETURN_IF_ERROR(sys->Init());
    return Status::OK();
  }

  Status Provision(const World& world) override {
    for (auto& sys : systems_) {
      Result<core::ProviderId> p = sys->RegisterProvider("provider");
      if (!p.ok()) return p.status();
      provider_ = p.value();
      taggers_.clear();
      for (size_t t = 0; t < world.taggers; ++t) {
        Result<core::UserTaggerId> id =
            sys->RegisterTagger("tagger-" + std::to_string(t));
        if (!id.ok()) return id.status();
        taggers_.push_back(id.value());
      }
    }
    for (size_t k = 0; k < world.projects.size(); ++k) {
      const ProjectDef& def = world.projects[k];
      core::ITagSystem& sys = *systems_[k % systems_.size()];
      Result<core::ProjectId> id = sys.CreateProject(provider_, def.spec);
      if (!id.ok()) return id.status();
      std::vector<itag::tagging::ResourceId> rids;
      for (const Status& s :
           sys.UploadResourceBatch(id.value(), UploadsOf(def), &rids)) {
        ITAG_RETURN_IF_ERROR(s);
      }
      ITAG_RETURN_IF_ERROR(sys.StartProject(id.value()));
      projects_.push_back(id.value());
    }
    return Status::OK();
  }
  bool Query(size_t project, bool feed) override {
    core::ITagSystem& sys = SysOf(project);
    if (!sys.GetProjectInfo(projects_[project]).ok()) return false;
    if (feed) (void)sys.QualityFeed(projects_[project]).size();
    return true;
  }
  bool Accept(size_t tagger, size_t project, size_t count,
              std::vector<Handle>* out) override {
    Result<std::vector<core::AcceptedTask>> r =
        SysOf(project).AcceptTasks(taggers_[tagger], projects_[project],
                                   count);
    out->clear();
    if (!r.ok()) return false;
    for (const core::AcceptedTask& task : r.value()) {
      out->push_back({project % systems_.size(), task.handle});
    }
    return out->size() == count;
  }
  bool Submit(size_t tagger, const std::vector<Handle>& handles,
              const std::vector<std::vector<std::string>>& tags) override {
    if (handles.empty()) return true;
    std::vector<core::TagSubmission> items;
    for (size_t i = 0; i < handles.size(); ++i) {
      items.push_back({taggers_[tagger], handles[i].id, tags[i]});
    }
    return AllOk(systems_[handles[0].sys]->SubmitTagsBatch(items));
  }
  bool Decide(const std::vector<Handle>& handles) override {
    if (handles.empty()) return true;
    std::vector<std::pair<core::TaskHandle, bool>> decisions;
    for (const Handle& h : handles) decisions.emplace_back(h.id, true);
    return AllOk(systems_[handles[0].sys]->DecideBatch(provider_, decisions));
  }
  bool Step() override {
    bool ok = true;
    for (auto& sys : systems_) ok = sys->Step(1).ok() && ok;
    return ok;
  }
  bool Checkpoint() override {
    bool ok = true;
    for (auto& sys : systems_) ok = sys->Checkpoint().ok() && ok;
    return ok;
  }

 private:
  static bool AllOk(const std::vector<Status>& statuses) {
    for (const Status& s : statuses) {
      if (!s.ok()) return false;
    }
    return true;
  }
  core::ITagSystem& SysOf(size_t project) {
    return *systems_[project % systems_.size()];
  }

  std::vector<std::unique_ptr<core::ITagSystem>> systems_;
  core::ProviderId provider_ = 0;
  std::vector<core::UserTaggerId> taggers_;
  std::vector<core::ProjectId> projects_;  ///< local ids, by world index
};

}  // namespace

std::unique_ptr<Level> MakeWireLevel(const std::string& dir) {
  std::unique_ptr<api::Service> service = MakeService(dir);
  if (service == nullptr) return nullptr;
  auto server = std::make_unique<net::Server>(service.get(), PinnedServer());
  if (!server->Start().ok()) return nullptr;
  auto client = std::make_unique<net::Client>();
  if (!client->Connect("127.0.0.1", server->port()).ok()) return nullptr;
  net::Client* raw = client.get();
  auto level = std::make_unique<ApiLevel>(
      [raw](const api::AnyRequest& req) { return raw->Dispatch(req); },
      nullptr);
  level->service = std::move(service);
  level->server = std::move(server);
  level->client = std::move(client);
  return level;
}

std::unique_ptr<Level> MakeServiceLevel(
    const std::string& dir, std::vector<CodecSample>* codec_samples) {
  std::unique_ptr<api::Service> service = MakeService(dir);
  if (service == nullptr) return nullptr;
  api::Service* raw = service.get();
  auto level = std::make_unique<ApiLevel>(
      [raw](const api::AnyRequest& req) -> Result<api::AnyResponse> {
        return raw->Dispatch(req);
      },
      codec_samples);
  level->service = std::move(service);
  return level;
}

std::unique_ptr<ShardedLevel> MakeShardedLevel(const std::string& dir) {
  auto level = std::make_unique<ShardedLevel>(PinnedSharded(dir));
  if (!level->Init().ok()) return nullptr;
  return level;
}

std::unique_ptr<Level> MakeFacadeLevel(const std::string& dir) {
  auto level = std::make_unique<FacadeLevel>(dir);
  if (!level->Init().ok()) return nullptr;
  return level;
}

// ------------------------------------------------------------ sharded core

Status ShardedLevel::Provision(const World& world) {
  Result<core::ProviderId> p = system_.RegisterProvider("provider");
  if (!p.ok()) return p.status();
  ids_.provider = p.value();
  for (size_t t = 0; t < world.taggers; ++t) {
    Result<core::UserTaggerId> id =
        system_.RegisterTagger("tagger-" + std::to_string(t));
    if (!id.ok()) return id.status();
    ids_.taggers.push_back(id.value());
  }
  for (const ProjectDef& def : world.projects) {
    Result<core::ProjectId> id = system_.CreateProject(ids_.provider, def.spec);
    if (!id.ok()) return id.status();
    std::vector<itag::tagging::ResourceId> rids;
    for (const Status& s :
         system_.UploadResourceBatch(id.value(), UploadsOf(def), &rids)) {
      ITAG_RETURN_IF_ERROR(s);
    }
    ITAG_RETURN_IF_ERROR(system_.StartProject(id.value()));
    ids_.projects.push_back(id.value());
  }
  return Status::OK();
}

bool ShardedLevel::Query(size_t project, bool feed) {
  if (!system_.GetProjectInfo(ids_.projects[project]).ok()) return false;
  if (feed) (void)system_.QualityFeed(ids_.projects[project]).size();
  return true;
}

bool ShardedLevel::Accept(size_t tagger, size_t project, size_t count,
                          std::vector<Handle>* out) {
  Result<std::vector<core::AcceptedTask>> r = system_.AcceptTasks(
      ids_.taggers[tagger], ids_.projects[project], count);
  out->clear();
  if (!r.ok()) return false;
  for (const core::AcceptedTask& task : r.value()) {
    out->push_back({0, task.handle});
  }
  return out->size() == count;
}

bool ShardedLevel::Submit(size_t tagger, const std::vector<Handle>& handles,
                          const std::vector<std::vector<std::string>>& tags) {
  std::vector<core::TagSubmission> items;
  for (size_t i = 0; i < handles.size(); ++i) {
    items.push_back({ids_.taggers[tagger], handles[i].id, tags[i]});
  }
  for (const Status& s : system_.SubmitTagsBatch(items)) {
    if (!s.ok()) return false;
  }
  return true;
}

bool ShardedLevel::Decide(const std::vector<Handle>& handles) {
  std::vector<std::pair<core::TaskHandle, bool>> decisions;
  for (const Handle& h : handles) decisions.emplace_back(h.id, true);
  for (const Status& s : system_.DecideBatch(ids_.provider, decisions)) {
    if (!s.ok()) return false;
  }
  return true;
}

bool ShardedLevel::Step() { return system_.Step(1).ok(); }

bool ShardedLevel::Checkpoint() { return system_.Checkpoint().ok(); }

bool ShardedLevel::Peek(size_t project) {
  return system_.PeekQuality(ids_.projects[project]).ok();
}

// ---------------------------------------------------------------- replay

void CallTimes::Merge(const CallTimes& other) {
  auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  cat(&query, other.query);
  cat(&accept, other.accept);
  cat(&submit, other.submit);
  cat(&decide, other.decide);
  cat(&step, other.step);
  cat(&checkpoint, other.checkpoint);
  cat(&cycle, other.cycle);
  fails.Merge(other.fails);
}

namespace {

/// Times one call, records its span, and counts it as attempted (and
/// failed when it returns false).
template <typename Fn>
bool Timed(const char* name, uint64_t parent, uint64_t request,
           std::vector<double>* times, SpanLog* spans, FailTally* fails,
           Fn&& fn) {
  Span span{name, spans->NewId(), parent, request, Clock::now(), {}};
  bool ok = fn();
  span.end = Clock::now();
  times->push_back(MicrosBetween(span.start, span.end));
  spans->Add(span);
  fails->Attempt();
  if (!ok) fails->Fail(FailKind::kItemStatus);
  return ok;
}

}  // namespace

CallTimes Replay(Level& level, const std::vector<Op>& ops, SpanLog* spans,
                 uint64_t first_request) {
  CallTimes t;
  std::vector<Handle> handles;
  uint64_t request = first_request;
  for (const Op& op : ops) {
    ++request;
    if (const auto* q = std::get_if<QueryOp>(&op)) {
      Timed("query", 0, request, &t.query, spans, &t.fails,
            [&] { return level.Query(q->project, q->feed); });
    } else if (const auto* c = std::get_if<CycleOp>(&op)) {
      Span root{"cycle", spans->NewId(), 0, request, Clock::now(), {}};
      bool ok = Timed("accept", root.id, request, &t.accept, spans, &t.fails,
                      [&] {
                        return level.Accept(c->tagger, c->project, c->count,
                                            &handles);
                      });
      if (ok) {
        Timed("submit", root.id, request, &t.submit, spans, &t.fails, [&] {
          return level.Submit(c->tagger, handles, c->tags);
        });
        Timed("query", root.id, request, &t.query, spans, &t.fails,
              [&] { return level.Query(c->project, false); });
        Timed("decide", root.id, request, &t.decide, spans, &t.fails,
              [&] { return level.Decide(handles); });
      }
      root.end = Clock::now();
      t.cycle.push_back(MicrosBetween(root.start, root.end));
      spans->Add(root);
    } else if (std::holds_alternative<StepOp>(op)) {
      Timed("step", 0, request, &t.step, spans, &t.fails,
            [&] { return level.Step(); });
    } else {
      Timed("checkpoint", 0, request, &t.checkpoint, spans, &t.fails,
            [&] { return level.Checkpoint(); });
    }
  }
  return t;
}

}  // namespace stackbench
