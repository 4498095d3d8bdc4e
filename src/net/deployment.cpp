#include "net/deployment.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/assertx.hpp"

namespace mhp {

namespace {

/// Flat spatial grid over the sensor bounding box with cell size >=
/// sensor_range.  Any pair within sensor_range differs by at most one
/// cell per axis, so neighbor candidates come from the 3×3 cell block
/// around each sensor — O(n) expected work for bounded-density
/// deployments instead of the O(n²) all-pairs scan.  Cells live in one
/// CSR layout (starts_/ids_), so a gather is direct indexing over
/// contiguous runs, no hashing.  The cell count is capped at ~4n by
/// enlarging the cell size: cells larger than sensor_range only widen the
/// candidate set, never miss a neighbor, so sparse or spread-out layouts
/// cost memory O(n) instead of O(area).
class CellGrid {
 public:
  CellGrid(const Deployment& d, double cell) {
    const std::size_t n = d.num_sensors();
    if (n == 0) return;
    double max_x = d.sensor_pos(0).x, max_y = d.sensor_pos(0).y;
    min_x_ = max_x;
    min_y_ = max_y;
    for (NodeId s = 1; s < n; ++s) {
      const Vec2 p = d.sensor_pos(s);
      min_x_ = std::min(min_x_, p.x);
      min_y_ = std::min(min_y_, p.y);
      max_x = std::max(max_x, p.x);
      max_y = std::max(max_y, p.y);
    }
    const double per_axis =
        std::ceil(std::sqrt(static_cast<double>(4 * n))) + 1.0;
    cell_ = std::max({cell, (max_x - min_x_) / per_axis,
                      (max_y - min_y_) / per_axis});
    nx_ = col_of(max_x) + 1;
    ny_ = row_of(max_y) + 1;
    starts_.assign(nx_ * ny_ + 1, 0);
    for (NodeId s = 0; s < n; ++s)
      ++starts_[cell_index(d.sensor_pos(s)) + 1];
    for (std::size_t c = 1; c < starts_.size(); ++c)
      starts_[c] += starts_[c - 1];
    ids_.resize(n);
    pos_.resize(n);
    std::vector<std::size_t> cursor(starts_.begin(), starts_.end() - 1);
    // Filling in id order keeps each cell's run ascending.  Positions are
    // copied beside the ids so the pair scan reads contiguous memory.
    for (NodeId s = 0; s < n; ++s) {
      const std::size_t at = cursor[cell_index(d.sensor_pos(s))]++;
      ids_[at] = s;
      pos_[at] = d.sensor_pos(s);
    }
  }

  /// Every sensor pair within `range`, each exactly once, unsorted.  The
  /// forward half-stencil (within-cell pairs, then each of the four
  /// "ahead" neighbor cells) visits every unordered cell pair once, so
  /// every candidate pair costs exactly one distance evaluation — half
  /// the work of a symmetric 3×3 gather per node.
  void collect_edges(double range,
                     std::vector<std::pair<NodeId, NodeId>>& out) const {
    out.clear();
    if (ids_.empty()) return;
    // Squared distances away from the boundary, distance() inside it:
    // the verdict equals `distance(a, b) <= range` on every pair.
    const RangeBand band(range);
    for (std::size_t gy = 0; gy < ny_; ++gy)
      for (std::size_t gx = 0; gx < nx_; ++gx) {
        const std::size_t c = gy * nx_ + gx;
        const std::size_t cb = starts_[c];
        const std::size_t ce = starts_[c + 1];
        if (cb == ce) continue;
        for (std::size_t i = cb; i != ce; ++i) {
          const Vec2 pa = pos_[i];
          // Runs ascend, so within-cell pairs are already (low, high).
          for (std::size_t j = i + 1; j != ce; ++j)
            if (band.within(pa, pos_[j])) out.emplace_back(ids_[i], ids_[j]);
        }
        // Forward neighbors: E, SW, S, SE.  Cross-cell ids are unordered,
        // so emit (min, max).
        static constexpr std::ptrdiff_t kFwd[4][2] = {
            {1, 0}, {-1, 1}, {0, 1}, {1, 1}};
        for (const auto& [dx, dy] : kFwd) {
          const std::ptrdiff_t fx = static_cast<std::ptrdiff_t>(gx) + dx;
          const std::ptrdiff_t fy = static_cast<std::ptrdiff_t>(gy) + dy;
          if (fx < 0 || fy < 0 || fx >= static_cast<std::ptrdiff_t>(nx_) ||
              fy >= static_cast<std::ptrdiff_t>(ny_))
            continue;
          const std::size_t f =
              static_cast<std::size_t>(fy) * nx_ + static_cast<std::size_t>(fx);
          const std::size_t fb = starts_[f];
          const std::size_t fe = starts_[f + 1];
          for (std::size_t i = cb; i != ce; ++i) {
            const Vec2 pa = pos_[i];
            const NodeId a = ids_[i];
            for (std::size_t j = fb; j != fe; ++j)
              if (band.within(pa, pos_[j])) {
                const NodeId b = ids_[j];
                out.emplace_back(std::min(a, b), std::max(a, b));
              }
          }
        }
      }
  }

 private:
  std::size_t col_of(double x) const {
    const double f = std::floor((x - min_x_) / cell_);
    return f > 0.0 ? static_cast<std::size_t>(f) : 0;
  }
  std::size_t row_of(double y) const {
    const double f = std::floor((y - min_y_) / cell_);
    return f > 0.0 ? static_cast<std::size_t>(f) : 0;
  }
  std::size_t cell_index(Vec2 p) const {
    return row_of(p.y) * nx_ + col_of(p.x);
  }

  double cell_ = 1.0;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  std::size_t nx_ = 1;
  std::size_t ny_ = 1;
  std::vector<std::size_t> starts_;
  std::vector<NodeId> ids_;
  std::vector<Vec2> pos_;
};

}  // namespace

Deployment deploy_uniform_square(std::size_t n, double side, Rng& rng) {
  MHP_REQUIRE(side > 0.0, "square side must be positive");
  Deployment d;
  d.positions.reserve(n + 1);
  const double half = side / 2.0;
  for (std::size_t i = 0; i < n; ++i)
    d.positions.push_back({rng.uniform(-half, half), rng.uniform(-half, half)});
  d.positions.push_back({0.0, 0.0});  // head at the centre
  return d;
}

Deployment deploy_grid(std::size_t n, double side) {
  MHP_REQUIRE(side > 0.0, "square side must be positive");
  Deployment d;
  d.positions.reserve(n + 1);
  const auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  const std::size_t rows = (n + cols - 1) / cols;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = i / cols;
    const std::size_t c = i % cols;
    const double x =
        -side / 2.0 + side * (static_cast<double>(c) + 0.5) /
                          static_cast<double>(cols);
    const double y =
        -side / 2.0 + side * (static_cast<double>(r) + 0.5) /
                          static_cast<double>(rows);
    d.positions.push_back({x, y});
  }
  d.positions.push_back({0.0, 0.0});
  return d;
}

Deployment deploy_rings(std::size_t rings, std::size_t per_ring,
                        double spacing) {
  MHP_REQUIRE(spacing > 0.0, "ring spacing must be positive");
  Deployment d;
  d.positions.reserve(rings * per_ring + 1);
  for (std::size_t r = 1; r <= rings; ++r) {
    const double radius = spacing * static_cast<double>(r);
    for (std::size_t k = 0; k < per_ring; ++k) {
      const double theta = 2.0 * std::numbers::pi *
                           (static_cast<double>(k) +
                            0.5 * static_cast<double>(r % 2)) /
                           static_cast<double>(per_ring);
      d.positions.push_back({radius * std::cos(theta),
                             radius * std::sin(theta)});
    }
  }
  d.positions.push_back({0.0, 0.0});
  return d;
}

ClusterTopology disc_topology(const Deployment& d, double sensor_range,
                              double uplink_range) {
  MHP_REQUIRE(sensor_range > 0.0, "sensor range must be positive");
  if (uplink_range <= 0.0) uplink_range = sensor_range;
  const std::size_t n = d.num_sensors();
  Graph g(n);
  const CellGrid grid(d, sensor_range);
  std::vector<std::pair<NodeId, NodeId>> edges;
  grid.collect_edges(sensor_range, edges);
  // The brute-force scan inserts edges in lexicographic (a, b) order and
  // downstream tie-breaks iterate neighbor lists, so restore that order to
  // make the grid's Graph byte-identical, not just an equal edge set.
  // Counting sort by source + tiny per-source sorts beats one comparison
  // sort over the whole edge list.
  std::vector<std::size_t> offset(n + 1, 0);
  for (const auto& [a, b] : edges) ++offset[a + 1];
  for (std::size_t i = 1; i <= n; ++i) offset[i] += offset[i - 1];
  std::vector<std::pair<NodeId, NodeId>> sorted(edges.size());
  {
    std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
    for (const auto& e : edges) sorted[cursor[e.first]++] = e;
  }
  for (std::size_t a = 0; a < n; ++a)
    std::sort(sorted.begin() + static_cast<std::ptrdiff_t>(offset[a]),
              sorted.begin() + static_cast<std::ptrdiff_t>(offset[a + 1]));
  for (const auto& [a, b] : sorted) g.add_edge(a, b);
  std::vector<bool> head_hears(n);
  for (NodeId s = 0; s < n; ++s)
    head_hears[s] = distance(d.sensor_pos(s), d.head_pos()) <= uplink_range;
  return ClusterTopology(std::move(g), std::move(head_hears));
}

ClusterTopology disc_topology_brute_force(const Deployment& d,
                                          double sensor_range,
                                          double uplink_range) {
  MHP_REQUIRE(sensor_range > 0.0, "sensor range must be positive");
  if (uplink_range <= 0.0) uplink_range = sensor_range;
  const std::size_t n = d.num_sensors();
  Graph g(n);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = a + 1; b < n; ++b)
      if (distance(d.sensor_pos(a), d.sensor_pos(b)) <= sensor_range)
        g.add_edge(a, b);
  std::vector<bool> head_hears(n);
  for (NodeId s = 0; s < n; ++s)
    head_hears[s] = distance(d.sensor_pos(s), d.head_pos()) <= uplink_range;
  return ClusterTopology(std::move(g), std::move(head_hears));
}

ClusterTopology topology_from_predicate(
    std::size_t n, const std::function<bool(NodeId, NodeId)>& hears) {
  const auto head = static_cast<NodeId>(n);
  Graph g(n);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = a + 1; b < n; ++b)
      if (hears(a, b) && hears(b, a)) g.add_edge(a, b);
  std::vector<bool> head_hears(n);
  for (NodeId s = 0; s < n; ++s) head_hears[s] = hears(s, head);
  return ClusterTopology(std::move(g), std::move(head_hears));
}

Deployment deploy_connected_uniform_square(std::size_t n, double side,
                                           double sensor_range, Rng& rng,
                                           int max_tries) {
  for (int t = 0; t < max_tries; ++t) {
    Deployment d = deploy_uniform_square(n, side, rng);
    if (disc_topology(d, sensor_range).fully_connected()) return d;
  }
  throw ContractViolation(
      "deploy_connected_uniform_square: no connected deployment found; "
      "sensor_range too small for this density");
}

}  // namespace mhp
