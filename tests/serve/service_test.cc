// Service semantics over a real (test-scale) snapshot: publish/versioning,
// the epoch-cached read path, response correctness against the predictor
// and optimizer the snapshot wraps, subset/full equivalence, and reload.

#include "serve/service.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "serve/snapshot.h"

namespace anyopt::serve {
namespace {

/// One shared test-scale snapshot: building takes ~100 ms, so the suite
/// builds it once.  Tests must treat it as immutable (it is).
class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SnapshotOptions options;
    options.test_scale = true;
    Result<std::shared_ptr<Snapshot>> built = Snapshot::build(options);
    ASSERT_TRUE(built.ok()) << built.error().message;
    snapshot_ = std::move(built).value();
  }
  static void TearDownTestSuite() { snapshot_.reset(); }

  static std::shared_ptr<Snapshot> snapshot_;
};

std::shared_ptr<Snapshot> ServiceTest::snapshot_;

Request parse_ok(const std::string& line) {
  Result<Request> request = parse_request(line);
  EXPECT_TRUE(request.ok()) << line;
  return std::move(request).value();
}

TEST_F(ServiceTest, QueriesBeforeFirstPublishFailCleanly) {
  Service service;
  EXPECT_EQ(service.version(), 0u);
  EXPECT_EQ(service.current(), nullptr);
  const std::string response = service.handle_line("{\"op\":\"info\"}");
  EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u) << response;
}

TEST_F(ServiceTest, PublishAssignsMonotoneVersions) {
  Service service;
  service.publish(snapshot_);
  EXPECT_EQ(service.version(), 1u);
  EXPECT_EQ(service.current()->version(), 1u);
  // The epoch cache must hand back the same snapshot without re-reading
  // the atomic slot (same pointer, same version).
  EXPECT_EQ(service.current().get(), snapshot_.get());
}

TEST_F(ServiceTest, InfoReportsTheSnapshotShape) {
  Service service;
  service.publish(snapshot_);
  const std::string response = service.handle_line("{\"op\":\"info\"}");
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(response.find("\"scale\":\"test\""), std::string::npos);
  EXPECT_NE(response.find("\"sites\":" +
                          std::to_string(snapshot_->site_count())),
            std::string::npos);
  EXPECT_NE(response.find("\"targets\":" +
                          std::to_string(snapshot_->target_count())),
            std::string::npos);
  // The byte estimate counts the optimizer's tables with the predictor's.
  EXPECT_GT(snapshot_->optimizer().retained_bytes(), 0u);
  EXPECT_GT(snapshot_->retained_bytes(),
            snapshot_->optimizer().retained_bytes());
  EXPECT_NE(response.find("\"retained_bytes\":" +
                          std::to_string(snapshot_->retained_bytes())),
            std::string::npos);
}

TEST_F(ServiceTest, InfoReportsSiteLoadCapacityAndSloState) {
  Service service;
  service.publish(snapshot_);
  const std::string response = service.handle_line("{\"op\":\"info\"}");
  EXPECT_NE(response.find("\"site_load\":["), std::string::npos) << response;
  EXPECT_NE(response.find("\"site_capacity\":["), std::string::npos)
      << response;
  // The modeled capacities carry headroom over the baseline, so the quiet
  // deployment is compliant by construction.
  EXPECT_NE(response.find("\"slo_ok\":true"), std::string::npos) << response;
  ASSERT_EQ(snapshot_->site_load().size(), snapshot_->site_count());
  ASSERT_EQ(snapshot_->site_capacity().size(), snapshot_->site_count());
  double total = 0;
  for (std::size_t s = 0; s < snapshot_->site_count(); ++s) {
    EXPECT_GE(snapshot_->site_capacity()[s], snapshot_->site_load()[s]);
    total += snapshot_->site_load()[s];
  }
  // The all-sites baseline serves (almost) the whole population.
  EXPECT_GT(total, 0.0);
  EXPECT_LE(total, static_cast<double>(snapshot_->target_count()));
}

TEST_F(ServiceTest, MitigateSearchesPlaybooksAndIsDeterministic) {
  Service service;
  service.publish(snapshot_);
  // A strong attack on a mid-size deployment: the response must carry the
  // full mitigation block and repeat bit for bit.
  const std::string line =
      "{\"op\":\"mitigate\",\"sites\":[0,1,2,3,4,5,6,7],\"intensity\":8}";
  const std::string first = service.handle_line(line);
  ASSERT_EQ(first.rfind("{\"ok\":true", 0), 0u) << first;
  for (const char* field :
       {"\"intensity\":8", "\"attacked_site\":", "\"attacked_clients\":",
        "\"slo_violated\":", "\"overloaded_sites\":[", "\"mitigated\":",
        "\"time_to_mitigate_s\":", "\"post_mean_rtt_ms\":", "\"playbook\":\"",
        "\"steps\":", "\"candidates\":", "\"pruned\":", "\"sim_events\":"}) {
    EXPECT_NE(first.find(field), std::string::npos) << field;
  }
  EXPECT_EQ(service.handle_line(line), first);

  // Sites defaults to the full deployment; intensity to 2.
  const std::string bare = service.handle_line("{\"op\":\"mitigate\"}");
  EXPECT_EQ(bare.rfind("{\"ok\":true", 0), 0u) << bare;
  EXPECT_NE(bare.find("\"intensity\":2"), std::string::npos) << bare;

  // Out-of-range sites are query errors, not crashes.
  const std::string err =
      service.handle_line("{\"op\":\"mitigate\",\"sites\":[999999]}");
  EXPECT_EQ(err.rfind("{\"ok\":false", 0), 0u) << err;
}

TEST_F(ServiceTest, PredictMatchesThePredictorBitForBit) {
  // The response's detail arrays must restate Predictor::predict exactly:
  // same catchment site per client, same RTT rendered through the one
  // deterministic formatter.
  const Request request =
      parse_ok("{\"op\":\"predict\",\"sites\":[2,0,5],\"detail\":true}");
  const std::string response = Service::execute(*snapshot_, request);
  ASSERT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;

  const core::Prediction prediction = snapshot_->predictor().predict(
      anycast::AnycastConfig::of_sites({SiteId{2}, SiteId{0}, SiteId{5}}));
  std::string catchment = "\"catchment\":[";
  std::string rtts = "\"rtt_ms\":[";
  for (std::size_t t = 0; t < snapshot_->target_count(); ++t) {
    if (t > 0) {
      catchment += ",";
      rtts += ",";
    }
    const SiteId site = prediction.site_of_target[t];
    catchment += site.valid() ? std::to_string(site.value()) : "-1";
    append_double(rtts, prediction.rtt_ms[t]);
  }
  catchment += "]";
  rtts += "]";
  EXPECT_NE(response.find(catchment), std::string::npos);
  EXPECT_NE(response.find(rtts), std::string::npos);
}

TEST_F(ServiceTest, SubsetPredictEqualsMaskedFullPredict) {
  // Listing every client explicitly routes through predict_subset; leaving
  // clients absent routes through the full predict.  Same clients, same
  // bytes — the subset walk must be bit-identical to the full walk.
  std::string all_clients = "[";
  for (std::size_t t = 0; t < snapshot_->target_count(); ++t) {
    if (t > 0) all_clients += ",";
    all_clients += std::to_string(t);
  }
  all_clients += "]";
  const std::string full = Service::execute(
      *snapshot_,
      parse_ok("{\"op\":\"predict\",\"sites\":[1,4],\"detail\":true}"));
  const std::string subset = Service::execute(
      *snapshot_, parse_ok("{\"op\":\"predict\",\"sites\":[1,4],\"clients\":" +
                           all_clients + ",\"detail\":true}"));
  EXPECT_EQ(full, subset);
}

TEST_F(ServiceTest, ScoreMatchesTheUncachedEvaluator) {
  const std::string response = Service::execute(
      *snapshot_, parse_ok("{\"op\":\"score\",\"sites\":[3,1,0]}"));
  ASSERT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;
  const core::EvaluatedConfig scored = snapshot_->optimizer().evaluate_uncached(
      anycast::AnycastConfig::of_sites({SiteId{3}, SiteId{1}, SiteId{0}}));
  std::string expected = "\"predicted_mean_rtt_ms\":";
  append_double(expected, scored.predicted_mean_rtt);
  EXPECT_NE(response.find(expected), std::string::npos) << response;
}

TEST_F(ServiceTest, RepeatedQueriesAreBitIdentical) {
  Service service;
  service.publish(snapshot_);
  const std::string line =
      "{\"op\":\"predict\",\"sites\":[4,2],\"clients\":[1,3,5,7]}";
  const std::string first = service.handle_line(line);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(service.handle_line(line), first);
  }
}

TEST_F(ServiceTest, OutOfRangeIdsAreQueryErrorsNotCrashes) {
  Service service;
  service.publish(snapshot_);
  const std::string site_err = service.handle_line(
      "{\"op\":\"predict\",\"sites\":[999999]}");
  EXPECT_EQ(site_err.rfind("{\"ok\":false", 0), 0u) << site_err;
  const std::string client_err = service.handle_line(
      "{\"op\":\"predict\",\"sites\":[0],\"clients\":[999999]}");
  EXPECT_EQ(client_err.rfind("{\"ok\":false", 0), 0u) << client_err;
  // The service must still answer after an error.
  EXPECT_EQ(service.handle_line("{\"op\":\"info\"}").rfind("{\"ok\":true", 0),
            0u);
}

TEST_F(ServiceTest, ReloadSwapsInAFreshSnapshotAtTheNextVersion) {
  Service service;
  service.publish(snapshot_);
  int rebuilds = 0;
  service.set_reloader([&rebuilds]() -> Result<std::shared_ptr<Snapshot>> {
    ++rebuilds;
    SnapshotOptions options;
    options.test_scale = true;
    return Snapshot::build(options);
  });
  const std::string response = service.handle_line("{\"op\":\"reload\"}");
  EXPECT_EQ(response, "{\"ok\":true,\"snapshot\":2,\"op\":\"reload\"}");
  EXPECT_EQ(rebuilds, 1);
  EXPECT_EQ(service.version(), 2u);
  EXPECT_NE(service.current().get(), snapshot_.get());

  // Without a reloader installed, reload is a clean error.
  Service fixed;
  fixed.publish(snapshot_);
  const std::string refused = fixed.handle_line("{\"op\":\"reload\"}");
  EXPECT_EQ(refused.rfind("{\"ok\":false", 0), 0u) << refused;
}

TEST_F(ServiceTest, RebuildFromTheSameSeedAnswersIdentically) {
  // Determinism across builds: two snapshots built from the same options
  // must answer every query with the same bytes (only the version differs,
  // so compare via Service instances that both assign version 1).
  SnapshotOptions options;
  options.test_scale = true;
  Result<std::shared_ptr<Snapshot>> rebuilt = Snapshot::build(options);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.error().message;
  Service a;
  Service b;
  a.publish(snapshot_);
  b.publish(std::move(rebuilt).value());
  for (const char* line :
       {"{\"op\":\"info\"}", "{\"op\":\"predict\",\"sites\":[5,3,1]}",
        "{\"op\":\"predict\",\"sites\":[2],\"clients\":[0,9,42],"
        "\"detail\":true}",
        "{\"op\":\"score\",\"sites\":[0,1,2,3]}"}) {
    EXPECT_EQ(a.handle_line(line), b.handle_line(line)) << line;
  }
}

}  // namespace
}  // namespace anyopt::serve
