// Placement tests: annealed Graphine layout quality, radius selection, and
// discretization invariants (min separation, distinct sites, footprint).
#include <gtest/gtest.h>

#include <bit>
#include <algorithm>
#include <cmath>
#include <cstring>

#include "circuit/circuit.hpp"
#include "circuit/interaction_graph.hpp"
#include "hardware/config.hpp"
#include "placement/discretize.hpp"
#include "placement/graphine.hpp"
#include "placement/objective.hpp"
#include "util/rng.hpp"

namespace pc = parallax::circuit;
namespace pp = parallax::placement;
namespace ph = parallax::hardware;
namespace pg = parallax::geom;

namespace {
pp::GraphineOptions fast_options() {
  pp::GraphineOptions options;
  options.anneal_iterations = 200;
  options.local_search_evaluations = 200;
  options.seed = 7;
  return options;
}
}  // namespace

TEST(Graphine, BottleneckRadiusLine) {
  // Three collinear points spaced 1 and 3 apart: the connectivity radius is
  // the larger gap.
  const std::vector<pg::Point> points{{0, 0}, {1, 0}, {4, 0}};
  EXPECT_DOUBLE_EQ(pp::bottleneck_connect_radius(points), 3.0);
}

TEST(Graphine, BottleneckRadiusDegenerate) {
  EXPECT_DOUBLE_EQ(pp::bottleneck_connect_radius({}), 0.0);
  EXPECT_DOUBLE_EQ(pp::bottleneck_connect_radius({{1, 1}}), 0.0);
}

TEST(Graphine, HeavyEdgesPlaceCloser) {
  // q0-q1 interact 20x, q2-q3 interact 20x, cross pairs once. The annealer
  // should place the heavy pairs closer than the average cross distance.
  pc::Circuit c(4);
  for (int i = 0; i < 20; ++i) {
    c.cz(0, 1);
    c.cz(2, 3);
  }
  c.cz(1, 2);
  const pc::InteractionGraph graph(c);
  const auto topology = pp::graphine_place(graph, fast_options());
  ASSERT_EQ(topology.positions.size(), 4u);
  const double d01 =
      pg::distance(topology.positions[0], topology.positions[1]);
  const double d23 =
      pg::distance(topology.positions[2], topology.positions[3]);
  const double d02 =
      pg::distance(topology.positions[0], topology.positions[2]);
  const double d13 =
      pg::distance(topology.positions[1], topology.positions[3]);
  EXPECT_LT(d01, (d02 + d13) / 2);
  EXPECT_LT(d23, (d02 + d13) / 2);
}

TEST(Graphine, CrowdingPreventsCollapse) {
  // All qubits interact with all: without the crowding term everything
  // would collapse to a point; the layout must keep pairwise distances up.
  pc::Circuit c(6);
  for (int a = 0; a < 6; ++a) {
    for (int b = a + 1; b < 6; ++b) c.cz(a, b);
  }
  const pc::InteractionGraph graph(c);
  const auto topology = pp::graphine_place(graph, fast_options());
  double min_d = 1e9;
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      min_d = std::min(
          min_d, pg::distance(topology.positions[i], topology.positions[j]));
    }
  }
  EXPECT_GT(min_d, 0.01);
}

TEST(Graphine, RadiusConnectsAllQubits) {
  pc::Circuit c(8);
  for (int q = 0; q + 1 < 8; ++q) c.cz(q, q + 1);
  const pc::InteractionGraph graph(c);
  const auto topology = pp::graphine_place(graph, fast_options());
  // By construction the radius is the MST bottleneck: every point must have
  // at least one neighbour within the radius (plus epsilon slack).
  for (std::size_t i = 0; i < topology.positions.size(); ++i) {
    double nearest = 1e9;
    for (std::size_t j = 0; j < topology.positions.size(); ++j) {
      if (i == j) continue;
      nearest = std::min(nearest, pg::distance(topology.positions[i],
                                               topology.positions[j]));
    }
    EXPECT_LE(nearest, topology.interaction_radius + 1e-9);
  }
}

TEST(Graphine, DeterministicForSeed) {
  pc::Circuit c(5);
  c.cz(0, 1);
  c.cz(1, 2);
  c.cz(3, 4);
  c.cz(2, 3);
  const pc::InteractionGraph graph(c);
  const auto a = pp::graphine_place(graph, fast_options());
  const auto b = pp::graphine_place(graph, fast_options());
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i], b.positions[i]);
  }
}

TEST(Graphine, ObjectivePenalizesDistance) {
  pc::Circuit c(2);
  c.cz(0, 1);
  const pc::InteractionGraph graph(c);
  pp::GraphineOptions options;
  // Both layouts are beyond the crowding distance (0.5/sqrt(2) ~ 0.354), so
  // the comparison isolates the weighted-distance term.
  const double near = pp::placement_objective({0.2, 0.2, 0.6, 0.6}, graph,
                                              options);
  const double far =
      pp::placement_objective({0.0, 0.0, 1.0, 1.0}, graph, options);
  EXPECT_LT(near, far);
}

// --- discretization -----------------------------------------------------------

namespace {
pp::Topology grid_topology(std::size_t n) {
  // Deterministic spread-out normalized layout (no annealing needed).
  pp::Topology topology;
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  for (std::size_t q = 0; q < n; ++q) {
    topology.positions.push_back(
        {static_cast<double>(q % side) / static_cast<double>(side),
         static_cast<double>(q / side) / static_cast<double>(side)});
  }
  topology.interaction_radius = 0.5;
  return topology;
}
}  // namespace

TEST(Discretize, SitesAreDistinctAndInBounds) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto physical = pp::discretize(grid_topology(30), config);
  ASSERT_EQ(physical.sites.size(), 30u);
  std::set<std::pair<int, int>> seen;
  for (const auto& cell : physical.sites) {
    EXPECT_TRUE(physical.grid.in_bounds(cell));
    EXPECT_TRUE(seen.insert({cell.col, cell.row}).second)
        << "duplicate site " << cell.col << "," << cell.row;
  }
}

TEST(Discretize, PitchGuaranteesMinSeparation) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  EXPECT_DOUBLE_EQ(config.pitch_um(),
                   2 * config.min_separation_um +
                       config.discretization_padding_um);
  const auto physical = pp::discretize(grid_topology(64), config);
  for (std::size_t a = 0; a < 64; ++a) {
    for (std::size_t b = a + 1; b < 64; ++b) {
      const double d =
          pg::distance(physical.grid.position(physical.sites[a]),
                       physical.grid.position(physical.sites[b]));
      EXPECT_GE(d, config.min_separation_um);
    }
  }
}

TEST(Discretize, RadiusKeepsConnectivity) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto physical = pp::discretize(grid_topology(20), config);
  EXPECT_GE(physical.interaction_radius_um,
            physical.grid.pitch() * std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(physical.blockade_radius_um,
                   2.5 * physical.interaction_radius_um);
}

TEST(Discretize, SmallCircuitKeepsCompactFootprint) {
  const auto config = ph::HardwareConfig::atom_computing_1225();
  const auto physical = pp::discretize(grid_topology(9), config);
  std::int32_t max_col = 0, max_row = 0;
  for (const auto& cell : physical.sites) {
    max_col = std::max(max_col, cell.col);
    max_row = std::max(max_row, cell.row);
  }
  // spread_factor 2 -> 9 qubits in at most a ~7-cell-wide region, far less
  // than the 35-site machine (leaving room for parallel shot copies).
  EXPECT_LT(max_col, 10);
  EXPECT_LT(max_row, 10);
}

TEST(Discretize, RejectsOversizedCircuit) {
  ph::HardwareConfig config = ph::HardwareConfig::quera_aquila_256();
  EXPECT_THROW((void)pp::discretize(grid_topology(300), config),
               std::runtime_error);
}

TEST(Discretize, FullMachineStillFits) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto physical = pp::discretize(grid_topology(256), config);
  EXPECT_EQ(physical.sites.size(), 256u);
}

// --- Delta-cost objective: the bit-identity contract ----------------------

namespace {

/// Random interaction graph: n qubits, random CZ pairs (duplicates merge
/// into edge weights).
pc::Circuit random_circuit(std::uint64_t seed, std::int32_t n,
                           int n_gates) {
  parallax::util::Rng rng(seed);
  pc::Circuit c(n, "fuzz" + std::to_string(seed));
  for (int g = 0; g < n_gates; ++g) {
    const auto a = static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
    auto b = static_cast<std::int32_t>(rng.uniform_int(0, n - 2));
    if (b >= a) ++b;
    c.cz(a, b);
  }
  return c;
}

std::vector<double> random_state(parallax::util::Rng& rng, std::int32_t n) {
  std::vector<double> coords(2 * static_cast<std::size_t>(n));
  for (double& c : coords) c = rng.next_double();
  return coords;
}

}  // namespace

TEST(DeltaObjective, BitIdenticalToFullRescoreUnderFuzzedMoves) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    parallax::util::Rng rng(seed * 1000 + 17);
    const std::int32_t n = static_cast<std::int32_t>(rng.uniform_int(2, 40));
    const auto circuit = random_circuit(seed, n, 3 * n);
    const pc::InteractionGraph graph(circuit);
    pp::GraphineOptions options;
    pp::DeltaPlacementObjective objective(graph, options);
    ASSERT_EQ(objective.sites(), static_cast<std::size_t>(n));

    const double initial = objective.reset(random_state(rng, n));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(initial),
              std::bit_cast<std::uint64_t>(objective.value()));

    std::vector<double> coords;
    for (int move = 0; move < 400; ++move) {
      const auto q = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      // Mix local jitter (the annealer's common case, including slightly
      // out-of-box targets that wrap/clamp upstream) with global jumps.
      double x, y;
      objective.snapshot(coords);
      if (move % 3 == 0) {
        x = rng.uniform(-0.1, 1.1);
        y = rng.uniform(-0.1, 1.1);
      } else {
        x = coords[2 * q] + rng.uniform(-0.05, 0.05);
        y = coords[2 * q + 1] + rng.uniform(-0.05, 0.05);
      }
      const double proposed = objective.propose(q, x, y);
      if (move % 4 != 0) {  // leave some proposals uncommitted
        objective.commit();
        ASSERT_EQ(std::bit_cast<std::uint64_t>(objective.value()),
                  std::bit_cast<std::uint64_t>(proposed));
      }
      objective.snapshot(coords);
      const double rescored = objective.full(coords);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(objective.value()),
                std::bit_cast<std::uint64_t>(rescored))
          << "seed " << seed << " move " << move;
    }
  }
}

TEST(DeltaObjective, AgreesWithLegacyObjectiveNumerically) {
  // Same cost function, different term arithmetic (sqrt vs hypot, exact vs
  // left-to-right accumulation) — values agree to rounding noise, not bits.
  parallax::util::Rng rng(404);
  const auto circuit = random_circuit(8, 24, 80);
  const pc::InteractionGraph graph(circuit);
  pp::GraphineOptions options;
  pp::DeltaPlacementObjective objective(graph, options);
  for (int trial = 0; trial < 20; ++trial) {
    const auto coords = random_state(rng, 24);
    const double delta_value = objective.full(coords);
    const double legacy_value =
        pp::placement_objective(coords, graph, options);
    EXPECT_NEAR(delta_value, legacy_value,
                1e-9 * std::max(1.0, std::abs(legacy_value)));
  }
}

namespace {

/// The plain O(n^2) pair loop the grid-filtered objective must reproduce bit
/// for bit: edge terms in graph order, then every pair (i < j) in ascending
/// order.
double brute_force_objective(const std::vector<double>& coords,
                             const pc::InteractionGraph& graph,
                             const pp::GraphineOptions& options) {
  const auto n = static_cast<std::size_t>(graph.n_qubits());
  auto point = [&](std::size_t q) {
    return pg::Point{coords[2 * q], coords[2 * q + 1]};
  };
  double cost = 0.0;
  for (const auto& e : graph.edges()) {
    cost += static_cast<double>(e.weight) *
            pg::distance(point(static_cast<std::size_t>(e.a)),
                         point(static_cast<std::size_t>(e.b)));
  }
  if (n > 1) {
    const double d_min =
        options.crowding_distance / std::sqrt(static_cast<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double d = pg::distance(point(i), point(j));
        if (d < d_min) {
          const double v = d_min - d;
          cost += options.crowding_weight * v * v / (d_min * d_min);
        }
      }
    }
  }
  return cost;
}

enum class Layout { kUniform, kClustered, kDuplicates, kCellEdges, kOutside };

std::vector<double> fuzz_layout(parallax::util::Rng& rng, std::size_t n,
                                Layout layout, double d_min) {
  std::vector<double> coords(2 * n);
  switch (layout) {
    case Layout::kUniform:
      for (double& c : coords) c = rng.next_double();
      break;
    case Layout::kClustered: {
      // Three tight clusters: most pairs inside a cluster pay a penalty.
      const double centers[3][2] = {{0.2, 0.3}, {0.7, 0.7}, {0.5, 0.05}};
      for (std::size_t q = 0; q < n; ++q) {
        const auto* center = centers[rng.uniform_int(0, 2)];
        coords[2 * q] = center[0] + rng.uniform(-0.03, 0.03);
        coords[2 * q + 1] = center[1] + rng.uniform(-0.03, 0.03);
      }
      break;
    }
    case Layout::kDuplicates: {
      // Few distinct points, each shared by several qubits (distance 0).
      const std::size_t distinct = std::max<std::size_t>(1, n / 4);
      std::vector<double> pool(2 * distinct);
      for (double& c : pool) c = rng.next_double();
      for (std::size_t q = 0; q < n; ++q) {
        const auto k = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(distinct) - 1));
        coords[2 * q] = pool[2 * k];
        coords[2 * q + 1] = pool[2 * k + 1];
      }
      break;
    }
    case Layout::kCellEdges: {
      // Points exactly on the lines k/m for grid sides m around the
      // 1/d_min scale, some nudged by d_min across a line.
      const double scale = d_min > 0.0 ? std::min(1.0 / d_min, 4096.0) : 16.0;
      for (std::size_t q = 0; q < n; ++q) {
        for (int axis = 0; axis < 2; ++axis) {
          const auto m = static_cast<std::int64_t>(std::max(
              1.0, std::floor(scale) + static_cast<double>(
                                           rng.uniform_int(-3, 1))));
          double v = static_cast<double>(rng.uniform_int(0, m)) /
                     static_cast<double>(m);
          if (rng.uniform_int(0, 3) == 0) v += rng.uniform(-d_min, d_min);
          coords[2 * q + static_cast<std::size_t>(axis)] = v;
        }
      }
      break;
    }
    case Layout::kOutside:
      // Out-of-square coordinates, near the square and far from it.
      for (double& c : coords) {
        c = rng.uniform_int(0, 7) == 0 ? rng.uniform(-1e3, 1e3)
                                       : rng.uniform(-0.5, 1.5);
      }
      break;
  }
  return coords;
}

}  // namespace

TEST(Graphine, ObjectiveIsBitEqualToBruteForcePairLoop) {
  const Layout layouts[] = {Layout::kUniform, Layout::kClustered,
                            Layout::kDuplicates, Layout::kCellEdges,
                            Layout::kOutside};
  struct Crowding {
    double distance;
    double weight;
  };
  // 5 makes d_min wider than half the square: the grid is one cell.
  const Crowding crowdings[] = {{0.0, 10.0}, {0.5, 10.0}, {5.0, 10.0},
                                {0.5, 0.0}};
  parallax::util::Rng rng(0xC0FFEE);
  int compared = 0;
  for (const std::int32_t n : {2, 3, 10, 64, 128, 256}) {
    const pc::InteractionGraph graph(
        random_circuit(static_cast<std::uint64_t>(n), n, 2 * n));
    for (const Crowding& crowding : crowdings) {
      pp::GraphineOptions options;
      options.crowding_distance = crowding.distance;
      options.crowding_weight = crowding.weight;
      const double d_min =
          crowding.distance / std::sqrt(static_cast<double>(n));
      for (const Layout layout : layouts) {
        for (int trial = 0; trial < 3; ++trial) {
          const auto coords = fuzz_layout(
              rng, static_cast<std::size_t>(n), layout, d_min);
          const double grid = pp::placement_objective(coords, graph, options);
          const double brute = brute_force_objective(coords, graph, options);
          ASSERT_EQ(std::memcmp(&grid, &brute, sizeof(double)), 0)
              << "n=" << n << " crowding=" << crowding.distance
              << " weight=" << crowding.weight
              << " layout=" << static_cast<int>(layout) << " trial=" << trial
              << ": " << grid << " vs " << brute;
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 6 * 4 * 5 * 3);
}

TEST(DeltaObjective, SingleQubitGraphHasNoCrowding) {
  const auto circuit = pc::Circuit(1, "solo");
  const pc::InteractionGraph graph(circuit);
  pp::GraphineOptions options;
  pp::DeltaPlacementObjective objective(graph, options);
  EXPECT_EQ(objective.reset({0.5, 0.5}), 0.0);
  EXPECT_EQ(objective.propose(0, 0.9, 0.1), 0.0);
}

// --- graphine_place fast modes --------------------------------------------

TEST(Graphine, PerQubitModeDeterministicWithStats) {
  const auto circuit = random_circuit(5, 20, 60);
  const pc::InteractionGraph graph(circuit);
  auto options = fast_options();
  options.proposal = pp::ProposalMode::kPerQubit;
  options.anneal_iterations = 80;
  pp::PlacementStats stats_a, stats_b;
  const auto a = pp::graphine_place(graph, options, &stats_a);
  const auto b = pp::graphine_place(graph, options, &stats_b);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t q = 0; q < a.positions.size(); ++q) {
    EXPECT_EQ(a.positions[q].x, b.positions[q].x);
    EXPECT_EQ(a.positions[q].y, b.positions[q].y);
  }
  EXPECT_EQ(a.interaction_radius, b.interaction_radius);
  EXPECT_GT(stats_a.delta_evaluations, 0);
  EXPECT_GT(stats_a.anneal_seconds, 0.0);
  EXPECT_EQ(stats_a.chains, 1);
  for (const auto& p : a.positions) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 1.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 1.0);
  }
}

TEST(Graphine, MultiChainModeReportsChainsAndStaysDeterministic) {
  const auto circuit = random_circuit(6, 16, 48);
  const pc::InteractionGraph graph(circuit);
  auto options = fast_options();
  options.proposal = pp::ProposalMode::kPerQubit;
  options.anneal_iterations = 60;
  options.chains = 3;
  pp::PlacementStats stats;
  const auto a = pp::graphine_place(graph, options, &stats);
  const auto b = pp::graphine_place(graph, options);
  EXPECT_EQ(stats.chains, 3);
  EXPECT_GT(stats.delta_evaluations, 0);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t q = 0; q < a.positions.size(); ++q) {
    EXPECT_EQ(a.positions[q].x, b.positions[q].x);
    EXPECT_EQ(a.positions[q].y, b.positions[q].y);
  }
}
