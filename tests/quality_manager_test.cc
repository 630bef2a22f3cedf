// Direct tests of the Quality Manager (Fig. 2's central box) below the
// facade: project records, projected gains, recommendations, and the
// notification inbox.

#include "itag/quality_manager.h"

#include <gtest/gtest.h>

#include "itag/itag_system.h"

namespace itag::core {
namespace {

using strategy::StrategyKind;
using tagging::ResourceKind;

class QualityManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Open(storage::DatabaseOptions{}).ok());
    users_ = std::make_unique<UserManager>(&db_);
    ASSERT_TRUE(users_->Attach().ok());
    resources_ = std::make_unique<ResourceManager>(&db_);
    ASSERT_TRUE(resources_->Attach().ok());
    tags_ = std::make_unique<TagManager>(&db_);
    ASSERT_TRUE(tags_->Attach().ok());
    qm_ = std::make_unique<QualityManager>(resources_.get(), tags_.get(),
                                           users_.get(), &clock_);
    provider_ = users_->RegisterProvider("p").value();
  }

  ProjectId NewProject(uint32_t budget = 50, size_t n_resources = 4) {
    ProjectSpec spec;
    spec.name = "t";
    spec.budget = budget;
    ProjectId p = qm_->CreateProject(provider_, spec).value();
    for (size_t i = 0; i < n_resources; ++i) {
      EXPECT_TRUE(resources_
                      ->UploadResource(p, ResourceKind::kWebUrl,
                                       "u" + std::to_string(i), "")
                      .ok());
    }
    return p;
  }

  tagging::Post MakePost(ProjectId p, const std::string& tag) {
    tagging::Post post;
    post.tags = {resources_->GetCorpus(p)->dict().Intern(tag)};
    return post;
  }

  storage::Database db_;
  SimClock clock_;
  std::unique_ptr<UserManager> users_;
  std::unique_ptr<ResourceManager> resources_;
  std::unique_ptr<TagManager> tags_;
  std::unique_ptr<QualityManager> qm_;
  ProviderId provider_;
};

TEST_F(QualityManagerTest, CreateValidatesProviderAndBudget) {
  ProjectSpec spec;
  spec.name = "x";
  spec.budget = 10;
  EXPECT_TRUE(qm_->CreateProject(12345, spec).status().IsNotFound());
  spec.budget = 0;
  EXPECT_TRUE(
      qm_->CreateProject(provider_, spec).status().IsInvalidArgument());
}

TEST_F(QualityManagerTest, InfoReflectsLifecycle) {
  ProjectId p = NewProject(30, 5);
  ProjectInfo info = qm_->GetInfo(p).value();
  EXPECT_EQ(info.state, ProjectState::kDraft);
  EXPECT_EQ(info.budget_remaining, 30u);
  EXPECT_EQ(info.num_resources, 5u);
  ASSERT_TRUE(qm_->Start(p).ok());
  EXPECT_EQ(qm_->GetInfo(p).value().state, ProjectState::kRunning);
}

TEST_F(QualityManagerTest, ChooseCompleteLoopUpdatesEverything) {
  ProjectId p = NewProject(10, 2);
  ASSERT_TRUE(qm_->Start(p).ok());
  for (int i = 0; i < 6; ++i) {
    auto r = qm_->ChooseNextTask(p);
    ASSERT_TRUE(r.ok());
    clock_.Advance(5);
    ASSERT_TRUE(qm_->CompletePost(p, r.value(), MakePost(p, "tag-a")).ok());
  }
  ProjectInfo info = qm_->GetInfo(p).value();
  EXPECT_EQ(info.tasks_completed, 6u);
  EXPECT_EQ(info.budget_remaining, 4u);
  // FP default levels the two resources 3/3.
  EXPECT_EQ(resources_->GetCorpus(p)->PostCount(0), 3u);
  EXPECT_EQ(resources_->GetCorpus(p)->PostCount(1), 3u);
  // Feed timestamps come from the injected clock.
  const auto& feed = qm_->QualityFeed(p);
  ASSERT_GE(feed.size(), 2u);
  EXPECT_GT(feed.back().time, 0);
}

TEST_F(QualityManagerTest, ChooseFailsWhenNotRunning) {
  ProjectId p = NewProject();
  EXPECT_TRUE(qm_->ChooseNextTask(p).status().IsFailedPrecondition());
  ASSERT_TRUE(qm_->Start(p).ok());
  ASSERT_TRUE(qm_->Pause(p).ok());
  EXPECT_TRUE(qm_->ChooseNextTask(p).status().IsFailedPrecondition());
}

TEST_F(QualityManagerTest, BudgetExhaustionNotifiesOnce) {
  ProjectId p = NewProject(1, 1);
  ASSERT_TRUE(qm_->Start(p).ok());
  ASSERT_TRUE(qm_->ChooseNextTask(p).ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(qm_->ChooseNextTask(p).status().IsResourceExhausted());
  }
  size_t exhausted = 0;
  for (const auto& n : qm_->Notifications(provider_).Latest(100)) {
    exhausted += n.kind == NotificationKind::kBudgetExhausted;
  }
  EXPECT_EQ(exhausted, 1u);
  // Top-up re-arms the alert.
  ASSERT_TRUE(qm_->AddBudget(p, 1).ok());
  ASSERT_TRUE(qm_->ChooseNextTask(p).ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(qm_->ChooseNextTask(p).status().IsResourceExhausted());
  }
  exhausted = 0;
  for (const auto& n : qm_->Notifications(provider_).Latest(100)) {
    exhausted += n.kind == NotificationKind::kBudgetExhausted;
  }
  EXPECT_EQ(exhausted, 2u);
}

TEST_F(QualityManagerTest, ProjectedGainPositiveAndShrinks) {
  ProjectId p = NewProject(100, 3);
  double before = qm_->GetInfo(p).value().projected_gain;
  EXPECT_GT(before, 0.0);
  // Feed lots of stable posts: the remaining-budget projection shrinks.
  ASSERT_TRUE(qm_->Start(p).ok());
  for (int i = 0; i < 60; ++i) {
    auto r = qm_->ChooseNextTask(p);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(qm_->CompletePost(p, r.value(), MakePost(p, "same")).ok());
  }
  ProjectInfo info = qm_->GetInfo(p).value();
  EXPECT_LT(info.projected_gain, before);
  // The cached value is the one a from-scratch split gives.
  EXPECT_EQ(info.projected_gain,
            QualityManager::ComputeProjectedGain(*resources_->GetCorpus(p),
                                                 info.budget_remaining));
}

TEST_F(QualityManagerTest, ProjectedGainZeroWithoutBudget) {
  ProjectId p = NewProject(2, 1);
  ASSERT_TRUE(qm_->Start(p).ok());
  ASSERT_TRUE(qm_->ChooseNextTask(p).ok());
  ASSERT_TRUE(qm_->ChooseNextTask(p).ok());
  EXPECT_EQ(qm_->GetInfo(p).value().projected_gain, 0.0);
}

TEST_F(QualityManagerTest, RecommendStrategyFollowsCoverage) {
  ProjectId p = NewProject(10, 2);
  // Fresh project: under-posted => FP-MU.
  EXPECT_EQ(qm_->RecommendStrategy(p).value(), StrategyKind::kHybridFpMu);
  // Saturate both resources past the coverage bar => MU.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        resources_->GetCorpus(p)->AddPost(0, MakePost(p, "a")).ok());
    ASSERT_TRUE(
        resources_->GetCorpus(p)->AddPost(1, MakePost(p, "b")).ok());
  }
  EXPECT_EQ(qm_->RecommendStrategy(p).value(),
            StrategyKind::kMostUnstableFirst);
}

TEST_F(QualityManagerTest, RecommendPlatformByResourceKind) {
  EXPECT_EQ(QualityManager::RecommendPlatform(
                ResourceKind::kScientificPaper),
            PlatformChoice::kSocialNetwork);
  EXPECT_EQ(QualityManager::RecommendPlatform(ResourceKind::kWebUrl),
            PlatformChoice::kMTurk);
  EXPECT_EQ(QualityManager::RecommendPlatform(ResourceKind::kImage),
            PlatformChoice::kMTurk);
}

TEST_F(QualityManagerTest, ResourceDetailReportsStops) {
  ProjectId p = NewProject(10, 2);
  ASSERT_TRUE(qm_->Start(p).ok());
  ASSERT_TRUE(qm_->StopResource(p, 1).ok());
  EXPECT_TRUE(qm_->GetResourceDetail(p, 1).value().stopped);
  EXPECT_FALSE(qm_->GetResourceDetail(p, 0).value().stopped);
  ASSERT_TRUE(qm_->ResumeResource(p, 1).ok());
  EXPECT_FALSE(qm_->GetResourceDetail(p, 1).value().stopped);
  EXPECT_TRUE(qm_->GetResourceDetail(p, 99).status().IsNotFound());
}

TEST_F(QualityManagerTest, ListProjectsFiltersByProvider) {
  ProviderId other = users_->RegisterProvider("q").value();
  ProjectId mine = NewProject();
  ProjectSpec spec;
  spec.name = "other";
  spec.budget = 5;
  ProjectId theirs = qm_->CreateProject(other, spec).value();
  auto mine_list = qm_->ListProjects(provider_);
  ASSERT_EQ(mine_list.size(), 1u);
  EXPECT_EQ(mine_list[0].id, mine);
  auto all = qm_->ListProjects(static_cast<ProviderId>(-1));
  EXPECT_EQ(all.size(), 2u);
  (void)theirs;
}

// ------------------------------------------------------- notifications

TEST(NotificationQueueTest, EvictsBeyondCapacity) {
  NotificationQueue q(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    q.Push({NotificationKind::kNewTagging, i, 1, "m" + std::to_string(i)});
  }
  EXPECT_EQ(q.size(), 3u);
  auto latest = q.Latest(10);
  ASSERT_EQ(latest.size(), 3u);
  EXPECT_EQ(latest[0].message, "m4");  // newest first
  EXPECT_EQ(latest[2].message, "m2");
}

TEST(NotificationQueueTest, LatestLimits) {
  NotificationQueue q;
  for (int i = 0; i < 10; ++i) {
    q.Push({NotificationKind::kNewTagging, i, 1, std::to_string(i)});
  }
  EXPECT_EQ(q.Latest(4).size(), 4u);
  EXPECT_EQ(q.Latest(0).size(), 0u);
  EXPECT_EQ(q.Latest(99).size(), 10u);
}

TEST(ProjectEnumsTest, Names) {
  EXPECT_STREQ(ProjectStateName(ProjectState::kDraft), "draft");
  EXPECT_STREQ(ProjectStateName(ProjectState::kRunning), "running");
  EXPECT_STREQ(ProjectStateName(ProjectState::kPaused), "paused");
  EXPECT_STREQ(ProjectStateName(ProjectState::kStopped), "stopped");
  EXPECT_STREQ(PlatformChoiceName(PlatformChoice::kMTurk), "mturk");
  EXPECT_STREQ(PlatformChoiceName(PlatformChoice::kSocialNetwork), "social");
  EXPECT_STREQ(PlatformChoiceName(PlatformChoice::kAudience), "audience");
}

}  // namespace
}  // namespace itag::core
