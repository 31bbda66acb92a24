#include "placement/graphine.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <thread>

#include "anneal/multi_chain.hpp"
#include "anneal/portfolio.hpp"
#include "placement/objective.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace parallax::placement {

namespace {

/// The full-vector objective with the scratch of its crowding grid, built
/// once per anneal. Only pairs closer than d_min pay a crowding penalty, so
/// each qubit is tested against the qubits in its own and the 8 adjacent
/// cells of a grid whose cells are wider than d_min. The terms are added in
/// the order of a plain (i < j) pair loop, which keeps every sum bit-equal.
class FullPlacementObjective {
 public:
  FullPlacementObjective(const circuit::InteractionGraph& graph,
                         const GraphineOptions& options)
      : graph_(graph),
        n_(static_cast<std::size_t>(graph.n_qubits())),
        d_min_(options.crowding_distance /
               std::sqrt(static_cast<double>(n_))),
        weight_(options.crowding_weight) {
    // One cell of slack keeps the cell side above d_min after rounding; the
    // sqrt(n) cap keeps the per-evaluation grid build O(n).
    const auto sites = static_cast<double>(std::max<std::size_t>(n_, 1));
    const double side_cap = 2.0 * std::ceil(std::sqrt(sites));
    const double side = d_min_ > 0.0 ? std::floor(1.0 / d_min_) - 1.0 : 1.0;
    side_ = static_cast<std::size_t>(std::clamp(side, 1.0, side_cap));
    cell_of_.resize(n_);
    by_cell_.resize(n_);
    cell_start_.resize(side_ * side_ + 1);
  }

  double operator()(const std::vector<double>& coords) {
    assert(coords.size() == 2 * n_);
    auto point = [&](std::size_t q) {
      return geom::Point{coords[2 * q], coords[2 * q + 1]};
    };

    double cost = 0.0;
    for (const auto& e : graph_.edges()) {
      cost += static_cast<double>(e.weight) *
              geom::distance(point(static_cast<std::size_t>(e.a)),
                             point(static_cast<std::size_t>(e.b)));
    }

    // Crowding penalty: soft minimum distance scaled by density so that the
    // layout spreads out. Quadratic in the violation. No pair is closer than
    // a non-positive (or NaN) d_min.
    if (n_ < 2 || !(d_min_ > 0.0)) return cost;
    bin(coords);
    for (std::size_t i = 0; i < n_; ++i) {
      const std::size_t cx = cell_of_[i] % side_;
      const std::size_t cy = cell_of_[i] / side_;
      candidates_.clear();
      for (std::size_t y = cy > 0 ? cy - 1 : 0; y <= cy + 1 && y < side_;
           ++y) {
        for (std::size_t x = cx > 0 ? cx - 1 : 0; x <= cx + 1 && x < side_;
             ++x) {
          const std::size_t cell = y * side_ + x;
          for (std::uint32_t k = cell_start_[cell]; k < cell_start_[cell + 1];
               ++k) {
            if (by_cell_[k] > i) candidates_.push_back(by_cell_[k]);
          }
        }
      }
      std::sort(candidates_.begin(), candidates_.end());
      for (const std::uint32_t j : candidates_) {
        const double d = geom::distance(point(i), point(j));
        if (d < d_min_) {
          const double v = d_min_ - d;
          cost += weight_ * v * v / (d_min_ * d_min_);
        }
      }
    }
    return cost;
  }

 private:
  /// Cell of one coordinate; out-of-square (and NaN) values clamp to the
  /// border cells, so binning never decides a distance test.
  [[nodiscard]] std::size_t axis_cell(double v) const noexcept {
    const double scaled = v * static_cast<double>(side_);
    if (!(scaled > 0.0)) return 0;
    if (scaled >= static_cast<double>(side_ - 1)) return side_ - 1;
    return static_cast<std::size_t>(scaled);
  }

  /// Counting sort of the qubits by cell; each cell lists its qubits in
  /// ascending order.
  void bin(const std::vector<double>& coords) {
    const std::size_t cells = cell_start_.size() - 1;
    std::fill(cell_start_.begin(), cell_start_.end(), 0U);
    for (std::size_t q = 0; q < n_; ++q) {
      const auto cell = static_cast<std::uint32_t>(
          axis_cell(coords[2 * q + 1]) * side_ + axis_cell(coords[2 * q]));
      cell_of_[q] = cell;
      ++cell_start_[cell];
    }
    for (std::size_t c = 1; c < cells; ++c) {
      cell_start_[c] += cell_start_[c - 1];
    }
    cell_start_[cells] = static_cast<std::uint32_t>(n_);
    // Filling each cell from its end, highest qubit first, leaves every
    // cell_start_[c] at the cell's first slot.
    for (std::size_t q = n_; q-- > 0;) {
      by_cell_[--cell_start_[cell_of_[q]]] = static_cast<std::uint32_t>(q);
    }
  }

  const circuit::InteractionGraph& graph_;
  std::size_t n_;
  double d_min_;
  double weight_;
  std::size_t side_ = 1;                  // cells per axis
  std::vector<std::uint32_t> cell_of_;    // per qubit
  std::vector<std::uint32_t> cell_start_; // per cell, first slot in by_cell_
  std::vector<std::uint32_t> by_cell_;    // qubits grouped by cell
  std::vector<std::uint32_t> candidates_; // one qubit's j > i neighbours
};

}  // namespace

double placement_objective(const std::vector<double>& coords,
                           const circuit::InteractionGraph& graph,
                           const GraphineOptions& options) {
  return FullPlacementObjective(graph, options)(coords);
}

double bottleneck_connect_radius(const std::vector<geom::Point>& points) {
  const std::size_t n = points.size();
  if (n <= 1) return 0.0;
  // Prim's algorithm on the complete Euclidean graph; the answer is the
  // largest edge used, i.e. the bottleneck of the MST.
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<char> used(n, 0);
  best[0] = 0.0;
  double bottleneck = 0.0;
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t pick = n;
    double pick_d = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (!used[i] && best[i] < pick_d) {
        pick_d = best[i];
        pick = i;
      }
    }
    assert(pick < n);
    used[pick] = 1;
    bottleneck = std::max(bottleneck, pick_d);
    for (std::size_t i = 0; i < n; ++i) {
      if (!used[i]) {
        best[i] = std::min(best[i], geom::distance(points[pick], points[i]));
      }
    }
  }
  return bottleneck;
}

namespace {

/// Warm-start layout: BFS over the interaction graph from a low-degree
/// vertex (a chain endpoint, when there is one), laid out along a
/// serpentine curve over a sqrt(n) x sqrt(n) virtual grid. For structured
/// circuits (TFIM's chain, QEC's comb) this is already near-optimal; for
/// dense circuits it is merely a sane start the annealer improves on.
std::vector<double> serpentine_seed(const circuit::InteractionGraph& graph) {
  const auto n = static_cast<std::size_t>(graph.n_qubits());
  // Adjacency sorted by edge weight (heavy edges first in BFS expansion).
  std::vector<std::vector<std::pair<std::int64_t, std::int32_t>>> adj(n);
  for (const auto& e : graph.edges()) {
    adj[static_cast<std::size_t>(e.a)].push_back({e.weight, e.b});
    adj[static_cast<std::size_t>(e.b)].push_back({e.weight, e.a});
  }
  for (auto& list : adj) {
    std::sort(list.rbegin(), list.rend());
  }

  std::vector<std::int32_t> order;
  order.reserve(n);
  std::vector<char> seen(n, 0);
  // Visit components, each from its minimum-positive-degree vertex.
  for (;;) {
    std::int32_t start = -1;
    for (std::int32_t q = 0; q < graph.n_qubits(); ++q) {
      if (seen[static_cast<std::size_t>(q)]) continue;
      if (start < 0 || graph.partner_count(q) < graph.partner_count(start)) {
        start = q;
      }
    }
    if (start < 0) break;
    std::deque<std::int32_t> queue{start};
    seen[static_cast<std::size_t>(start)] = 1;
    while (!queue.empty()) {
      const std::int32_t q = queue.front();
      queue.pop_front();
      order.push_back(q);
      for (const auto& [w, next] : adj[static_cast<std::size_t>(q)]) {
        if (!seen[static_cast<std::size_t>(next)]) {
          seen[static_cast<std::size_t>(next)] = 1;
          queue.push_back(next);
        }
      }
    }
  }

  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<double> coords(2 * n, 0.5);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::size_t row = rank / side;
    std::size_t col = rank % side;
    if (row % 2 == 1) col = side - 1 - col;  // serpentine
    const auto q = static_cast<std::size_t>(order[rank]);
    const double denom = static_cast<double>(std::max<std::size_t>(side - 1, 1));
    coords[2 * q] = static_cast<double>(col) / denom;
    coords[2 * q + 1] = static_cast<double>(row) / denom;
  }
  return coords;
}

/// Fixed portfolio roster, truncated to `entrants`: the anneal iteration
/// budget splits evenly across the annealing entrants (the mc entrant
/// further splits its share over its chains), and the polish entrant spends
/// only the local-search evaluation budget — so a full race costs about one
/// configured anneal.
std::vector<anneal::PortfolioEntrant> portfolio_roster(
    const anneal::DualAnnealingOptions& base, int entrants) {
  std::vector<anneal::PortfolioEntrant> roster;
  const int annealing_entrants = std::min(entrants, 4) - (entrants >= 3 ? 1 : 0);
  const int share =
      std::max(1, base.max_iterations / std::max(1, annealing_entrants));

  anneal::PortfolioEntrant delta;
  delta.name = "delta";
  delta.anneal = base;
  delta.anneal.max_iterations = share;
  roster.push_back(std::move(delta));

  if (entrants >= 2) {
    anneal::PortfolioEntrant mc;
    mc.name = "mc4";
    mc.anneal = base;
    mc.chains = 4;
    mc.anneal.max_iterations = std::max(1, share / mc.chains);
    roster.push_back(std::move(mc));
  }
  if (entrants >= 3) {
    anneal::PortfolioEntrant nm;
    nm.name = "nm";
    nm.anneal = base;
    nm.polish_only = true;
    roster.push_back(std::move(nm));
  }
  if (entrants >= 4) {
    anneal::PortfolioEntrant restart;
    restart.name = "restart";
    restart.anneal = base;
    restart.anneal.max_iterations = share;
    restart.fresh_start = true;
    roster.push_back(std::move(restart));
  }
  return roster;
}

}  // namespace

namespace {
std::atomic<std::uint64_t> g_annealing_invocations{0};
std::atomic<std::uint64_t> g_objective_evaluations{0};
std::atomic<std::uint64_t> g_delta_evaluations{0};
}  // namespace

std::uint64_t annealing_invocations() noexcept {
  return g_annealing_invocations.load(std::memory_order_relaxed);
}

std::uint64_t objective_evaluations() noexcept {
  return g_objective_evaluations.load(std::memory_order_relaxed);
}

std::uint64_t delta_evaluations() noexcept {
  return g_delta_evaluations.load(std::memory_order_relaxed);
}

Topology graphine_place(const circuit::InteractionGraph& graph,
                        const GraphineOptions& options) {
  return graphine_place(graph, options, nullptr);
}

Topology graphine_place(const circuit::InteractionGraph& graph,
                        const GraphineOptions& options,
                        PlacementStats* stats) {
  g_annealing_invocations.fetch_add(1, std::memory_order_relaxed);
  const auto n = static_cast<std::size_t>(graph.n_qubits());
  Topology topology;
  topology.positions.resize(n);
  if (stats != nullptr) *stats = {};
  if (n == 0) return topology;
  if (n == 1) {
    topology.positions[0] = {0.5, 0.5};
    return topology;
  }

  const std::vector<double> lower(2 * n, 0.0);
  const std::vector<double> upper(2 * n, 1.0);

  anneal::DualAnnealingOptions anneal_options;
  anneal_options.max_iterations = options.anneal_iterations;
  anneal_options.local_options.max_evaluations =
      options.local_search_evaluations;
  anneal_options.seed = options.seed;
  anneal_options.batched_proposals =
      options.proposal == ProposalMode::kBatched;
  if (options.warm_start) {
    anneal_options.initial = serpentine_seed(graph);
  }

  const bool incremental = options.proposal != ProposalMode::kFullVector ||
                           options.chains > 1 ||
                           options.portfolio_entrants > 0;
  anneal::AnnealResult result;
  int chains_used = 1;
  const util::Stopwatch anneal_watch;
  if (!incremental) {
    // Legacy reference path — kept bit-for-bit so existing cache entries
    // and goldens replay unchanged.
    FullPlacementObjective full(graph, options);
    const auto objective = [&](const std::vector<double>& coords) {
      return full(coords);
    };
    result = anneal::dual_annealing(objective, lower, upper, anneal_options);
  } else if (options.portfolio_entrants > 0) {
    // Raced portfolio: the configured anneal budget is split across the
    // roster so one race costs about one single-optimizer anneal; the
    // deterministic reduction keeps the lowest final value (ties: lowest
    // entrant index).
    anneal::PortfolioOptions race_options;
    race_options.entrants =
        portfolio_roster(anneal_options, options.portfolio_entrants);
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    util::ThreadPool pool(std::min<std::size_t>(
        race_options.entrants.size(), hw));
    race_options.pool = &pool;
    result = anneal::race(
        [&]() -> std::unique_ptr<anneal::IncrementalObjective> {
          return std::make_unique<DeltaPlacementObjective>(graph, options);
        },
        lower, upper, race_options);
    // Counters report the whole race's spend, not just the winner's.
    result.evaluations = 0;
    result.delta_evaluations = 0;
    for (const anneal::EntrantAccount& account : result.entrants) {
      result.evaluations += account.evaluations;
      result.delta_evaluations += account.delta_evaluations;
    }
  } else if (options.chains <= 1) {
    DeltaPlacementObjective objective(graph, options);
    result = anneal::dual_annealing(objective, lower, upper, anneal_options);
  } else {
    anneal::MultiChainOptions mc;
    mc.chains = options.chains;
    mc.anneal = anneal_options;
    // A transient pool, never the caller's: graphine_place runs on sweep
    // worker threads, and nesting parallel_for on the same pool would
    // deadlock. Pool size does not affect the (deterministic) winner.
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    util::ThreadPool pool(
        std::min<std::size_t>(static_cast<std::size_t>(options.chains), hw));
    mc.pool = &pool;
    const anneal::MultiChainResult reduced = anneal::multi_chain(
        [&]() -> std::unique_ptr<anneal::IncrementalObjective> {
          return std::make_unique<DeltaPlacementObjective>(graph, options);
        },
        lower, upper, mc);
    result = reduced.best;
    result.evaluations = reduced.evaluations;
    result.delta_evaluations = reduced.delta_evaluations;
    result.restarts = reduced.restarts;
    result.local_searches = reduced.local_searches;
    chains_used = reduced.chains;
  }
  const double anneal_seconds = anneal_watch.seconds();

  g_objective_evaluations.fetch_add(
      static_cast<std::uint64_t>(result.evaluations),
      std::memory_order_relaxed);
  g_delta_evaluations.fetch_add(
      static_cast<std::uint64_t>(result.delta_evaluations),
      std::memory_order_relaxed);
  if (stats != nullptr) {
    stats->anneal_seconds = anneal_seconds;
    stats->evaluations = result.evaluations;
    stats->delta_evaluations = result.delta_evaluations;
    stats->restarts = result.restarts;
    stats->local_searches = result.local_searches;
    stats->iterations = result.iterations;
    stats->chains = chains_used;
    stats->portfolio_winner = result.winner;
    stats->entrants = result.entrants;
  }

  for (std::size_t q = 0; q < n; ++q) {
    topology.positions[q] = {result.x[2 * q], result.x[2 * q + 1]};
  }
  topology.interaction_radius = bottleneck_connect_radius(topology.positions);
  return topology;
}

}  // namespace parallax::placement
