// Scenario wiring: topology constraints, determinism, config handling.
#include <gtest/gtest.h>

#include <thread>

#include "scenario/runner.h"
#include "util/arena.h"

namespace lw::scenario {
namespace {

/// Pool memory carved while building the 2000-node network below: the
/// first six arena chunks (64 KiB doubling to 2 MiB). Recorded; the value
/// is deterministic for a given standard library.
constexpr std::size_t kLargeNetworkArenaCeiling = 4'128'768;

TEST(Config, TableTwoDefaults) {
  auto config = ExperimentConfig::table2_defaults();
  EXPECT_EQ(config.node_count, 100u);
  EXPECT_DOUBLE_EQ(config.radio_range, 30.0);
  EXPECT_DOUBLE_EQ(config.target_neighbors, 8.0);
  EXPECT_DOUBLE_EQ(config.phy.bandwidth_bps, 40000.0);
  EXPECT_DOUBLE_EQ(config.routing.route_timeout, 50.0);
  EXPECT_DOUBLE_EQ(config.traffic.destination_change_rate, 1.0 / 200.0);
  EXPECT_DOUBLE_EQ(config.attack.start_time, 50.0);
  EXPECT_DOUBLE_EQ(config.duration, 2000.0);
  EXPECT_EQ(config.defense.name, "liteworp");
}

TEST(Config, FinalizeOrdersPhases) {
  auto config = ExperimentConfig::table2_defaults();
  config.traffic.start_time = 0.0;  // silly value
  config.attack.start_time = 1.0;
  config.finalize();
  EXPECT_GE(config.traffic.start_time, config.phy.collision_free_until);
  EXPECT_GE(config.attack.start_time, config.traffic.start_time);
}

TEST(Config, SummaryMentionsKeyParameters) {
  auto config = ExperimentConfig::table2_defaults();
  std::string text = config.summary();
  EXPECT_NE(text.find("30 m"), std::string::npos);
  EXPECT_NE(text.find("40 kbps"), std::string::npos);
  EXPECT_NE(text.find("out-of-band"), std::string::npos);
}

TEST(Network, TopologyIsConnectedWithSeparatedAttackers) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 50;
  config.seed = 17;
  config.duration = 1.0;
  config.malicious_count = 2;
  config.finalize();
  Network net(config);
  EXPECT_TRUE(net.graph().connected());
  ASSERT_EQ(net.malicious_ids().size(), 2u);
  auto hops = net.graph().hop_distance(net.malicious_ids()[0],
                                       net.malicious_ids()[1]);
  ASSERT_TRUE(hops.has_value());
  EXPECT_GE(*hops, 3u) << "paper: colluders more than 2 hops apart";
}

TEST(Network, DensityNearTarget) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 100;
  config.seed = 1;
  config.duration = 1.0;
  config.finalize();
  Network net(config);
  EXPECT_GT(net.average_degree(), 5.0);
  EXPECT_LT(net.average_degree(), 11.0);
}

TEST(Network, LargeNetworkStaysUnderArenaCeiling) {
  // Per-node protocol state must scale with degree, not with N: building a
  // 2000-node LITEWORP network (oracle discovery fills every neighbor
  // table and second-hop list) carves a recorded, deterministic amount of
  // pool memory. O(N) state per node would carve hundreds of MiB here.
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 2000;
  config.seed = 1;
  config.duration = 1.0;
  config.oracle_discovery = true;
  config.finalize();
  std::size_t chunk_bytes = 0;
  std::size_t neighbor_entries = 0;
  std::thread([&] {  // a fresh thread: its arena starts empty
    Network net(config);
    for (NodeId id = 0; id < config.node_count; ++id) {
      neighbor_entries += net.node(id).table().neighbor_count();
    }
    chunk_bytes = util::thread_arena().stats().chunk_bytes;
  }).join();
  EXPECT_GT(neighbor_entries, 5u * config.node_count) << "tables filled";
  EXPECT_LE(chunk_bytes, kLargeNetworkArenaCeiling) << chunk_bytes;
}

TEST(Network, ZeroMaliciousIsClean) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 30;
  config.seed = 4;
  config.duration = 120.0;
  config.malicious_count = 0;
  config.finalize();
  RunResult result = run_experiment(config);
  EXPECT_EQ(result.malicious_count, 0u);
  EXPECT_EQ(result.data_dropped_malicious, 0u);
  EXPECT_EQ(result.wormhole_routes, 0u);
  EXPECT_TRUE(result.all_isolated) << "vacuously true";
}

TEST(Network, DeterministicForSameSeed) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 40;
  config.seed = 12;
  config.duration = 200.0;
  config.finalize();
  RunResult a = run_experiment(config);
  RunResult b = run_experiment(config);
  EXPECT_EQ(a.data_originated, b.data_originated);
  EXPECT_EQ(a.data_delivered, b.data_delivered);
  EXPECT_EQ(a.data_dropped_malicious, b.data_dropped_malicious);
  EXPECT_EQ(a.routes_established, b.routes_established);
  EXPECT_EQ(a.frames_transmitted, b.frames_transmitted);
  EXPECT_EQ(a.local_detections, b.local_detections);
}

TEST(Network, DifferentSeedsDiffer) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 40;
  config.duration = 200.0;
  config.seed = 12;
  config.finalize();
  RunResult a = run_experiment(config);
  config.seed = 13;
  RunResult b = run_experiment(config);
  EXPECT_NE(a.frames_transmitted, b.frames_transmitted);
}

TEST(Runner, CumulativeSeriesShape) {
  std::vector<Time> times{10.0, 20.0, 20.0, 90.0};
  auto series = cumulative_series(times, 100.0, 25.0);
  ASSERT_EQ(series.size(), 5u);  // t = 0, 25, 50, 75, 100
  EXPECT_DOUBLE_EQ(series[0].value, 0.0);
  EXPECT_DOUBLE_EQ(series[1].value, 3.0);
  EXPECT_DOUBLE_EQ(series[4].value, 4.0);
}

TEST(Runner, AverageRunsAggregates) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 30;
  config.duration = 150.0;
  config.malicious_count = 0;
  config.finalize();
  Aggregate agg = average_runs(config, 2, 100);
  EXPECT_EQ(agg.runs, 2);
  EXPECT_GT(agg.data_originated, 0.0);
  EXPECT_DOUBLE_EQ(agg.detection_probability, 1.0) << "nothing to miss";
  EXPECT_DOUBLE_EQ(agg.fraction_dropped, 0.0);
}

TEST(Network, ExplicitPositionsHonored) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 4;
  config.positions = std::vector<topo::Position>{
      {0, 0}, {20, 0}, {40, 0}, {60, 0}};
  config.malicious_count = 0;
  config.traffic.data_rate = 0.0;
  config.duration = 1.0;
  config.finalize();
  Network net(config);
  EXPECT_DOUBLE_EQ(net.graph().position(2).x, 40.0);
  EXPECT_TRUE(net.graph().is_neighbor(0, 1));
  EXPECT_FALSE(net.graph().is_neighbor(0, 2));
}

TEST(Network, ExplicitPositionsSizeMismatchThrows) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 5;
  config.positions = std::vector<topo::Position>{{0, 0}, {20, 0}};
  config.malicious_count = 0;
  config.finalize();
  EXPECT_THROW(Network net(config), std::invalid_argument);
}

TEST(Network, ExplicitMaliciousNodesHonored) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 6;
  config.positions = std::vector<topo::Position>{
      {0, 0}, {20, 0}, {40, 0}, {60, 0}, {10, 20}, {50, 20}};
  config.malicious_count = 2;
  config.malicious_nodes = {4, 5};
  config.traffic.data_rate = 0.0;
  config.duration = 1.0;
  config.finalize();
  Network net(config);
  EXPECT_EQ(net.malicious_ids(), (std::vector<NodeId>{4, 5}));
}

TEST(Network, ExplicitMaliciousOutOfBoundsThrows) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 4;
  config.positions = std::vector<topo::Position>{
      {0, 0}, {20, 0}, {40, 0}, {60, 0}};
  config.malicious_count = 1;
  config.malicious_nodes = {9};
  config.finalize();
  EXPECT_THROW(Network net(config), std::invalid_argument);
}

TEST(Network, RunUntilIsMonotonic) {
  auto config = ExperimentConfig::table2_defaults();
  config.node_count = 20;
  config.seed = 6;
  config.duration = 100.0;
  config.finalize();
  Network net(config);
  net.run_until(30.0);
  const auto mid = RunResult::from_metrics(net).data_originated;
  net.run_until(100.0);
  EXPECT_GE(RunResult::from_metrics(net).data_originated, mid);
}

}  // namespace
}  // namespace lw::scenario
