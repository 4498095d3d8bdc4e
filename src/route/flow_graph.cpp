#include "route/flow_graph.hpp"

#include <algorithm>

#include "util/assertx.hpp"

namespace mhp::route {

void FlowGraph::reset(int num_nodes) {
  MHP_REQUIRE(num_nodes >= 0, "negative node count");
  num_nodes_ = num_nodes;
  from_.clear();
  to_.clear();
  csr_built_ = false;
  cap_.clear();
  cap_init_.clear();
}

int FlowGraph::add_arc(int u, int v, Cap cap) {
  MHP_REQUIRE(u >= 0 && u < num_nodes_ && v >= 0 && v < num_nodes_,
              "arc endpoint out of range");
  MHP_REQUIRE(cap >= 0, "negative capacity");
  MHP_REQUIRE(!csr_built_, "arc added after build_csr");
  const int e = num_arcs();
  from_.push_back(u);
  to_.push_back(v);
  cap_.push_back(cap);
  cap_init_.push_back(cap);
  // Residual twin.
  from_.push_back(v);
  to_.push_back(u);
  cap_.push_back(0);
  cap_init_.push_back(0);
  return e;
}

void FlowGraph::build_csr() {
  MHP_REQUIRE(!csr_built_, "build_csr called twice");
  const std::size_t m = to_.size();
  csr_begin_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  for (std::size_t e = 0; e < m; ++e) ++csr_begin_[from_[e] + 1];
  for (int v = 0; v < num_nodes_; ++v) csr_begin_[v + 1] += csr_begin_[v];
  // Counting sort by tail node, ascending arc id within each node: the
  // per-node sequence matches push_back insertion order exactly.
  csr_arcs_.resize(m);
  csr_cursor_.assign(csr_begin_.begin(), csr_begin_.end());
  for (std::size_t e = 0; e < m; ++e)
    csr_arcs_[static_cast<std::size_t>(csr_cursor_[from_[e]]++)] =
        static_cast<std::int32_t>(e);
  csr_built_ = true;
}

void FlowGraph::push(int e, Cap amount) {
  MHP_REQUIRE(e >= 0 && e < num_arcs(), "arc out of range");
  MHP_REQUIRE(amount >= 0 && amount <= cap_[static_cast<std::size_t>(e)],
              "push exceeds residual");
  cap_[static_cast<std::size_t>(e)] -= amount;
  cap_[static_cast<std::size_t>(e ^ 1)] += amount;
}

void FlowGraph::set_capacity(int e, Cap cap) {
  MHP_REQUIRE(e >= 0 && e < num_arcs() && (e % 2) == 0,
              "capacity only settable on forward arcs");
  MHP_REQUIRE(cap >= 0, "negative capacity");
  cap_init_[static_cast<std::size_t>(e)] = cap;
}

void FlowGraph::install_flow(std::span<const Cap> fwd) {
  MHP_REQUIRE(fwd.size() * 2 == to_.size(), "flow snapshot size mismatch");
  for (std::size_t k = 0; k < fwd.size(); ++k) {
    const Cap f = fwd[k];
    MHP_REQUIRE(f >= 0 && f <= cap_init_[2 * k],
                "installed flow exceeds capacity");
    cap_[2 * k] = cap_init_[2 * k] - f;
    cap_[2 * k + 1] = f;
  }
}

void FlowGraph::save_flow(std::vector<Cap>& fwd) const {
  fwd.resize(to_.size() / 2);
  for (std::size_t k = 0; k < fwd.size(); ++k)
    fwd[k] = cap_init_[2 * k] - cap_[2 * k];
}

// ---------------------------------------------------------------------
// Max flow

FlowGraph::Cap MaxFlow::augment(FlowGraph& g, int s, int t, MaxFlowAlgo algo) {
  MHP_REQUIRE(s >= 0 && s < g.num_nodes() && t >= 0 && t < g.num_nodes() &&
                  s != t,
              "max-flow terminals out of range");
  return algo == MaxFlowAlgo::kEdmondsKarp ? augment_edmonds_karp(g, s, t)
                                           : augment_dinic(g, s, t);
}

FlowGraph::Cap MaxFlow::augment_edmonds_karp(FlowGraph& g, int s, int t) {
  Cap total = 0;
  auto& pred_arc = level_;  // -1 unvisited, -2 source, else arc into node
  for (;;) {
    // BFS for a shortest augmenting path in the residual graph.
    pred_arc.assign(static_cast<std::size_t>(g.num_nodes()), -1);
    queue_.clear();
    queue_.push_back(s);
    pred_arc[s] = -2;
    bool found = false;
    for (std::size_t head = 0; head < queue_.size() && !found; ++head) {
      const int v = queue_[head];
      for (const int e : g.arcs_out(v)) {
        const int w = g.arc_to(e);
        if (pred_arc[w] == -1 && g.residual(e) > 0) {
          pred_arc[w] = e;
          if (w == t) {
            found = true;
            break;
          }
          queue_.push_back(w);
        }
      }
    }
    if (!found) return total;
    Cap bottleneck = FlowGraph::kInfinite;
    for (int v = t; v != s;) {
      const int e = pred_arc[v];
      bottleneck = std::min(bottleneck, g.residual(e));
      v = g.arc_from(e);
    }
    for (int v = t; v != s;) {
      const int e = pred_arc[v];
      g.push(e, bottleneck);
      v = g.arc_from(e);
    }
    total += bottleneck;
  }
}

bool MaxFlow::dinic_bfs(FlowGraph& g, int s, int t) {
  level_.assign(static_cast<std::size_t>(g.num_nodes()), -1);
  queue_.clear();
  level_[s] = 0;
  queue_.push_back(s);
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const int v = queue_[head];
    for (const int e : g.arcs_out(v)) {
      const int w = g.arc_to(e);
      if (level_[w] < 0 && g.residual(e) > 0) {
        level_[w] = level_[v] + 1;
        queue_.push_back(w);
      }
    }
  }
  return level_[t] >= 0;
}

FlowGraph::Cap MaxFlow::dinic_dfs(FlowGraph& g, int s, int t) {
  // One blocking-flow path search, iterative: path_ holds the nodes from
  // s down to the current tip, and iter_[v] is v's cursor.  A node on the
  // path keeps its cursor on the arc that led to the next node, so an
  // augmenting path reads back as arcs_out(v)[iter_[v]] along path_.  A
  // dead end advances its parent's cursor; a found path leaves every
  // cursor where it is.  That is exactly the arc order and cursor
  // discipline of the textbook recursive DFS.
  path_.assign(1, s);
  limit_.assign(1, FlowGraph::kInfinite);
  while (!path_.empty()) {
    const int v = path_.back();
    if (v == t) {
      const Cap pushed = limit_.back();
      for (std::size_t d = 0; d + 1 < path_.size(); ++d) {
        const int u = path_[d];
        g.push(g.arcs_out(u)[iter_[static_cast<std::size_t>(u)]], pushed);
      }
      return pushed;
    }
    const auto arcs = g.arcs_out(v);
    auto& i = iter_[static_cast<std::size_t>(v)];
    for (; i < arcs.size(); ++i) {
      const int e = arcs[i];
      if (g.residual(e) > 0 && level_[g.arc_to(e)] == level_[v] + 1) break;
    }
    if (i < arcs.size()) {
      const int e = arcs[i];
      limit_.push_back(std::min(limit_.back(), g.residual(e)));
      path_.push_back(g.arc_to(e));
    } else {
      path_.pop_back();
      limit_.pop_back();
      if (!path_.empty()) ++iter_[static_cast<std::size_t>(path_.back())];
    }
  }
  return 0;
}

FlowGraph::Cap MaxFlow::augment_dinic(FlowGraph& g, int s, int t) {
  Cap total = 0;
  while (dinic_bfs(g, s, t)) {
    iter_.assign(static_cast<std::size_t>(g.num_nodes()), 0);
    for (;;) {
      const Cap pushed = dinic_dfs(g, s, t);
      if (pushed == 0) break;
      total += pushed;
    }
  }
  return total;
}

}  // namespace mhp::route
