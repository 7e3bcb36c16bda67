// Metrics collector: ground-truth classification and isolation tracking,
// fed the obs events the protocol layers emit.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "attack/modes.h"
#include "scenario/runner.h"
#include "stats/metrics.h"
#include "topology/field.h"

namespace lw::stats {
namespace {

using obs::EventKind;

class MetricsTest : public ::testing::Test {
 protected:
  // Line 0-1-2-3-4 (spacing 20, range 25): consecutive nodes adjacent.
  MetricsTest()
      : graph_(topo::place_line(5, 20.0), 25.0), metrics_(graph_, {2}) {}

  void emit(EventKind kind, NodeId node, NodeId peer, Time t = 0.0,
            double value = 0.0, std::uint8_t detail = 0,
            const pkt::Packet* packet = nullptr) {
    metrics_.on_event({.t = t,
                       .kind = kind,
                       .node = node,
                       .peer = peer,
                       .value = value,
                       .detail = detail,
                       .packet = packet});
  }
  void route_established(pkt::NodeList path) {
    pkt::Packet rep;
    rep.route = std::move(path);
    emit(EventKind::kRouteEstablished, rep.route.front(), rep.route.back(),
         0.0, 0.0, 0, &rep);
  }
  void local_detection(NodeId guard, NodeId suspect, Time t = 0.0) {
    emit(EventKind::kMonDetection, guard, suspect, t);
  }
  void isolation(NodeId node, NodeId suspect, Time t = 0.0) {
    emit(EventKind::kMonIsolation, node, suspect, t, /*alerts=*/3.0);
  }
  /// A delivery at `t` of a packet created at 10.0.
  void delivered(Time t) {
    emit(EventKind::kRouteDeliver, 4, 0, t, /*latency=*/t - 10.0);
  }

  topo::DiscGraph graph_;
  MetricsCollector metrics_;
};

TEST_F(MetricsTest, PhysicalRouteIsClean) {
  route_established({0, 1, 2, 3});
  EXPECT_EQ(metrics_.routes_established, 1u);
  EXPECT_EQ(metrics_.wormhole_routes, 0u);
  EXPECT_EQ(metrics_.routes_via_malicious, 1u) << "node 2 is malicious";
  EXPECT_EQ(metrics_.routes_via_malicious_transit, 1u);
}

TEST_F(MetricsTest, FakeLinkClassifiedAsWormhole) {
  // 1 -> 4 is not a physical link (60 m apart).
  route_established({0, 1, 4});
  EXPECT_EQ(metrics_.wormhole_routes, 1u);
  EXPECT_EQ(metrics_.wormhole_route_times.size(), 1u);
}

TEST_F(MetricsTest, MaliciousEndpointIsNotTransit) {
  route_established({2, 3, 4});
  EXPECT_EQ(metrics_.routes_via_malicious, 1u);
  EXPECT_EQ(metrics_.routes_via_malicious_transit, 0u)
      << "the malicious node's own traffic is not a captured route";
}

TEST_F(MetricsTest, IsolationRequiresAllHonestNeighbors) {
  // Malicious node 2 has honest neighbors {1, 3}.
  const auto& record = metrics_.isolation().at(2);
  EXPECT_EQ(record.required, (std::set<NodeId>{1, 3}));

  local_detection(1, 2);
  EXPECT_FALSE(metrics_.all_malicious_isolated());
  isolation(3, 2);
  EXPECT_TRUE(metrics_.all_malicious_isolated());
  EXPECT_EQ(metrics_.malicious_isolated_count(), 1u);
}

TEST_F(MetricsTest, IsolationLatencyIsMaxOverMalicious) {
  local_detection(1, 2, 10.0);
  isolation(3, 2, 25.0);
  auto latency = metrics_.isolation_latency(/*attack_start=*/5.0);
  ASSERT_TRUE(latency.has_value());
  EXPECT_DOUBLE_EQ(*latency, 20.0);
}

TEST_F(MetricsTest, IncompleteIsolationHasNoLatency) {
  local_detection(1, 2);
  EXPECT_FALSE(metrics_.isolation_latency(0.0).has_value());
}

TEST_F(MetricsTest, FalseAccusationsTracked) {
  local_detection(0, 3);  // node 3 is honest
  EXPECT_EQ(metrics_.false_local_detections, 1u);
  EXPECT_EQ(metrics_.false_isolations, 0u)
      << "a lone guard's conviction is not a network isolation";
  isolation(4, 3);  // gamma-confirmed: THE false alarm
  EXPECT_EQ(metrics_.false_isolations, 1u);
}

TEST_F(MetricsTest, SuspicionClassification) {
  emit(EventKind::kMonSuspicion, 0, 2, 0.0, 0.0, obs::kSuspicionFabrication);
  emit(EventKind::kMonSuspicion, 0, 3, 0.0, 0.0, obs::kSuspicionDrop);
  EXPECT_EQ(metrics_.suspicions_fabrication, 1u);
  EXPECT_EQ(metrics_.suspicions_drop, 1u);
  EXPECT_EQ(metrics_.false_suspicions, 1u) << "only the one against node 3";
}

TEST_F(MetricsTest, DropAccountingWithTimestamps) {
  pkt::Packet p;
  emit(EventKind::kAtkDrop, 2, 0, 3.0, 0.0, 0, &p);
  EXPECT_EQ(metrics_.data_dropped_malicious, 1u);
  ASSERT_EQ(metrics_.drop_times.size(), 1u);
  EXPECT_DOUBLE_EQ(metrics_.drop_times[0], 3.0);
}

TEST_F(MetricsTest, DeliveryLatencyStatistics) {
  for (double latency : {1.0, 2.0, 3.0, 4.0}) delivered(10.0 + latency);
  ASSERT_EQ(metrics_.delivery_latencies.size(), 4u);
  EXPECT_NEAR(metrics_.mean_delivery_latency(), 2.5, 1e-9);
  EXPECT_NEAR(metrics_.latency_percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(metrics_.latency_percentile(100.0), 4.0, 1e-9);
  EXPECT_NEAR(metrics_.latency_percentile(50.0), 2.5, 1e-9);
}

TEST_F(MetricsTest, LatencyOnEmptyRunIsZero) {
  EXPECT_DOUBLE_EQ(metrics_.mean_delivery_latency(), 0.0);
  EXPECT_DOUBLE_EQ(metrics_.latency_percentile(95.0), 0.0);
}

TEST_F(MetricsTest, ExtremePercentilesOnEmptyRunAreZero) {
  EXPECT_DOUBLE_EQ(metrics_.latency_percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(metrics_.latency_percentile(100.0), 0.0);
}

TEST_F(MetricsTest, SingleSampleIsEveryPercentile) {
  delivered(12.5);
  ASSERT_EQ(metrics_.delivery_latencies.size(), 1u);
  EXPECT_DOUBLE_EQ(metrics_.mean_delivery_latency(), 2.5);
  EXPECT_DOUBLE_EQ(metrics_.latency_percentile(0.0), 2.5);
  EXPECT_DOUBLE_EQ(metrics_.latency_percentile(50.0), 2.5);
  EXPECT_DOUBLE_EQ(metrics_.latency_percentile(100.0), 2.5);
}

TEST_F(MetricsTest, PercentileInterpolatesBetweenSamples) {
  for (double latency : {1.0, 2.0, 3.0, 4.0}) delivered(10.0 + latency);
  // rank = 0.25 * 3 = 0.75: three quarters of the way from 1.0 to 2.0.
  EXPECT_NEAR(metrics_.latency_percentile(25.0), 1.75, 1e-12);
  EXPECT_NEAR(metrics_.latency_percentile(95.0), 3.85, 1e-12);
}

TEST(MetricsCumulative, CumulativeAtCountsSortedTimes) {
  std::vector<Time> times{1.0, 2.0, 2.0, 5.0};
  EXPECT_EQ(MetricsCollector::cumulative_at(times, 0.5), 0u);
  EXPECT_EQ(MetricsCollector::cumulative_at(times, 2.0), 3u);
  EXPECT_EQ(MetricsCollector::cumulative_at(times, 10.0), 4u);
}

// The collector folds the same events the registry counts, so in a live
// run every collector counter equals its registry counter, in every attack
// mode and under both detection backends.
class MetricsMatchEvents
    : public ::testing::TestWithParam<
          std::tuple<attack::WormholeMode, std::string>> {};

TEST_P(MetricsMatchEvents, CollectorCountersEqualRegistryCounters) {
  const auto [mode, backend] = GetParam();
  auto config = scenario::ExperimentConfig::table2_defaults();
  config.node_count = 60;
  config.seed = 21;
  config.duration = 300.0;
  config.malicious_count = attack::needs_colluders(mode) ? 2 : 1;
  config.attack.mode = mode;
  config.attack.start_time = 50.0;
  config.defense.name = backend;
  config.obs.counters = true;
  const scenario::RunResult r = scenario::run_experiment(config);

  const auto count = [&r](const std::string& name) -> std::uint64_t {
    const auto it = r.registry.counters.find(name);
    return it == r.registry.counters.end() ? 0 : it->second;
  };
  if (mode != attack::WormholeMode::kRushing) {
    EXPECT_GT(r.wormhole_replays, 0u) << "the attack must replay frames";
  }
  EXPECT_EQ(count("atk.replay"), r.wormhole_replays);
  EXPECT_EQ(count("atk.drop"), r.data_dropped_malicious);
  EXPECT_EQ(count("route.discovery"), r.discoveries);
  EXPECT_EQ(count("route.deliver"), r.data_delivered);
  EXPECT_EQ(count("mon.detection"), r.local_detections);
  EXPECT_EQ(count("mon.isolation"), r.isolation_events);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndBackends, MetricsMatchEvents,
    ::testing::Combine(::testing::Values(attack::WormholeMode::kEncapsulation,
                                         attack::WormholeMode::kOutOfBand,
                                         attack::WormholeMode::kHighPower,
                                         attack::WormholeMode::kRelay,
                                         attack::WormholeMode::kRushing),
                       ::testing::Values("liteworp", "zscore")),
    [](const auto& info) {
      std::string name = attack::to_string(std::get<0>(info.param));
      name += '_';
      name += std::get<1>(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace lw::stats
