#ifndef ITAG_TESTS_DERIVED_ORACLE_H_
#define ITAG_TESTS_DERIVED_ORACLE_H_

// The uncached oracle for derived project state. QualityManager caches
// each project's quality and projected gain per corpus version and budget,
// and the sharded core serves ProjectInfo from a per-shard snapshot. What
// either serves must equal, bit for bit, a ProjectInfo rebuilt from the
// owning system's records with both derived values computed from scratch.
// The byte-equality replays cannot catch a stale cache key or a missed
// snapshot refresh (both sides of those comparisons run the same cache);
// this oracle can.
//
// The helpers read shard state through ShardedSystem::shard_system(), so
// they must run while no other thread uses the system.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "api/service.h"
#include "itag/itag_system.h"
#include "itag/sharded_system.h"
#include "quality/quality_model.h"

namespace itag::oracle {

/// The info of shard-local project `local` of `sys`, rebuilt from its
/// record and corpus with quality and projected gain computed uncached;
/// `id` is reported as `global`.
inline Result<core::ProjectInfo> UncachedInfo(core::ITagSystem& sys,
                                              core::ProjectId local,
                                              core::ProjectId global) {
  const core::QualityManager::ProjectRec* rec =
      sys.quality_manager().GetRec(local);
  const tagging::Corpus* corpus = sys.resource_manager().GetCorpus(local);
  if (rec == nullptr || corpus == nullptr) {
    return Status::NotFound("project " + std::to_string(global));
  }
  core::ProjectInfo info;
  info.id = global;
  info.provider = rec->provider;
  info.spec = rec->spec;
  info.state = rec->state;
  info.tasks_completed = rec->tasks_completed;
  info.budget_remaining = rec->engine != nullptr
                              ? rec->engine->budget_remaining()
                              : rec->spec.budget;
  info.num_resources = corpus->size();
  info.quality = quality::StabilityQuality().CorpusQuality(*corpus);
  info.projected_gain = core::QualityManager::ComputeProjectedGain(
      *corpus, info.budget_remaining);
  return info;
}

/// Field-by-field, bit-for-bit comparison (doubles by representation).
inline ::testing::AssertionResult SameInfo(const core::ProjectInfo& served,
                                           const core::ProjectInfo& expect) {
  std::ostringstream diff;
  auto field = [&](const char* name, auto a, auto b) {
    if (!(a == b)) diff << " " << name << ": served " << a << " want " << b;
  };
  auto bits = [&](const char* name, double a, double b) {
    if (std::memcmp(&a, &b, sizeof a) != 0) {
      diff.precision(17);
      diff << " " << name << ": served " << a << " want " << b;
    }
  };
  field("id", served.id, expect.id);
  field("provider", served.provider, expect.provider);
  field("name", served.spec.name, expect.spec.name);
  field("kind", static_cast<int>(served.spec.kind),
        static_cast<int>(expect.spec.kind));
  field("description", served.spec.description, expect.spec.description);
  field("budget", served.spec.budget, expect.spec.budget);
  field("pay_cents", served.spec.pay_cents, expect.spec.pay_cents);
  field("platform", static_cast<int>(served.spec.platform),
        static_cast<int>(expect.spec.platform));
  field("strategy", static_cast<int>(served.spec.strategy),
        static_cast<int>(expect.spec.strategy));
  field("state", static_cast<int>(served.state),
        static_cast<int>(expect.state));
  field("budget_remaining", served.budget_remaining, expect.budget_remaining);
  field("tasks_completed", served.tasks_completed, expect.tasks_completed);
  field("num_resources", served.num_resources, expect.num_resources);
  bits("quality", served.quality, expect.quality);
  bits("projected_gain", served.projected_gain, expect.projected_gain);
  if (diff.str().empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "project " << expect.id << ":" << diff.str();
}

/// Every project of a single system: GetProjectInfo against the oracle.
inline ::testing::AssertionResult ServedMatchesUncached(
    core::ITagSystem& sys) {
  for (core::ProjectId id : sys.quality_manager().ProjectIds()) {
    Result<core::ProjectInfo> served = sys.GetProjectInfo(id);
    if (!served.ok()) {
      return ::testing::AssertionFailure()
             << "project " << id << ": " << served.status().ToString();
    }
    ::testing::AssertionResult same =
        SameInfo(served.value(), UncachedInfo(sys, id, id).value());
    if (!same) return same;
  }
  return ::testing::AssertionSuccess();
}

/// Every project of a sharded system: the lock-free GetProjectInfo and the
/// ListProjects row both against the oracle, and exactly one listed row
/// per project the shards hold.
inline ::testing::AssertionResult ServedMatchesUncached(
    core::ShardedSystem& sys) {
  size_t held = 0;
  for (size_t s = 0; s < sys.num_shards(); ++s) {
    held += sys.shard_system(s).quality_manager().ProjectCount();
  }
  std::vector<core::ProjectInfo> listed =
      sys.ListProjects(static_cast<core::ProviderId>(-1));
  if (listed.size() != held) {
    return ::testing::AssertionFailure()
           << listed.size() << " projects listed, shards hold " << held;
  }
  for (const core::ProjectInfo& row : listed) {
    Result<std::pair<size_t, core::ProjectId>> at = sys.Locate(row.id);
    if (!at.ok()) {
      return ::testing::AssertionFailure()
             << "project " << row.id << ": " << at.status().ToString();
    }
    Result<core::ProjectInfo> expect = UncachedInfo(
        sys.shard_system(at.value().first), at.value().second, row.id);
    if (!expect.ok()) {
      return ::testing::AssertionFailure()
             << "listed project " << row.id << " is not where it routes";
    }
    Result<core::ProjectInfo> served = sys.GetProjectInfo(row.id);
    if (!served.ok()) {
      return ::testing::AssertionFailure()
             << "project " << row.id << ": " << served.status().ToString();
    }
    ::testing::AssertionResult same = SameInfo(served.value(), expect.value());
    if (!same) return same;
    same = SameInfo(row, expect.value());
    if (!same) return same << " (listed)";
  }
  return ::testing::AssertionSuccess();
}

/// Whichever backend `service` wraps.
inline ::testing::AssertionResult ServedMatchesUncached(
    api::Service& service) {
  if (service.sharded() != nullptr) {
    return ServedMatchesUncached(*service.sharded());
  }
  return ServedMatchesUncached(service.system());
}

}  // namespace itag::oracle

#endif  // ITAG_TESTS_DERIVED_ORACLE_H_
