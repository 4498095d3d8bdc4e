#include "route/flow_graph.hpp"

#include <algorithm>

#include "util/assertx.hpp"

namespace mhp::route {

void FlowGraph::reset(int num_nodes, int expected_arcs) {
  MHP_REQUIRE(num_nodes >= 0, "negative node count");
  num_nodes_ = num_nodes;
  head_.clear();
  twin_.clear();
  cap_.clear();
  res_.clear();
  pos_.clear();
  const auto m = static_cast<std::size_t>(std::max(expected_arcs, 0));
  head_.reserve(m);
  cap_.reserve(m);
  res_.reserve(m);
  csr_built_ = false;
}

int FlowGraph::add_arc(int u, int v, Cap cap) {
  MHP_REQUIRE(u >= 0 && u < num_nodes_ && v >= 0 && v < num_nodes_,
              "arc endpoint out of range");
  MHP_REQUIRE(cap >= 0, "negative capacity");
  MHP_REQUIRE(!csr_built_, "arc added after build_csr");
  const int e = num_arcs();
  head_.push_back(v);
  cap_.push_back(cap);
  res_.push_back(cap);
  // Residual twin.  Its head is the tail of e.
  head_.push_back(u);
  cap_.push_back(0);
  res_.push_back(0);
  return e;
}

void FlowGraph::build_csr() {
  MHP_REQUIRE(!csr_built_, "build_csr called twice");
  const std::size_t m = head_.size();
  // The tail of arc e is the head of its twin e ^ 1.
  csr_begin_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  for (std::size_t e = 0; e < m; ++e) ++csr_begin_[head_[e ^ 1] + 1];
  for (int v = 0; v < num_nodes_; ++v) csr_begin_[v + 1] += csr_begin_[v];
  // Counting sort by tail node, ascending arc id within each node: the
  // per-node sequence matches add_arc insertion order exactly.  One pass
  // over the arc pairs places both arcs, links them as twins and moves
  // their capacities (into res_, free until clear_flow refills it).
  csr_cursor_.assign(csr_begin_.begin(), csr_begin_.end());
  pos_.resize(m);
  twin_.resize(m);
  std::vector<std::int32_t> placed_head(m);
  for (std::size_t e = 0; e < m; e += 2) {
    const std::int32_t v = head_[e];
    const std::int32_t u = head_[e + 1];
    const std::int32_t pe = csr_cursor_[u]++;
    const std::int32_t pf = csr_cursor_[v]++;
    pos_[e] = pe;
    pos_[e + 1] = pf;
    placed_head[pe] = v;
    placed_head[pf] = u;
    twin_[pe] = pf;
    twin_[pf] = pe;
    res_[pe] = cap_[e];
    res_[pf] = cap_[e + 1];
  }
  head_.swap(placed_head);
  cap_.swap(res_);
  clear_flow();
  csr_built_ = true;
}

void FlowGraph::push(int e, Cap amount) {
  MHP_REQUIRE(e >= 0 && e < num_arcs(), "arc out of range");
  const auto p = static_cast<std::size_t>(pos(e));
  MHP_REQUIRE(amount >= 0 && amount <= res_[p], "push exceeds residual");
  res_[p] -= amount;
  res_[static_cast<std::size_t>(pos(e ^ 1))] += amount;
}

void FlowGraph::set_capacity(int e, Cap cap) {
  MHP_REQUIRE(e >= 0 && e < num_arcs() && (e % 2) == 0,
              "capacity only settable on forward arcs");
  MHP_REQUIRE(cap >= 0, "negative capacity");
  cap_[static_cast<std::size_t>(pos(e))] = cap;
}

void FlowGraph::install_flow(std::span<const Cap> fwd) {
  MHP_REQUIRE(fwd.size() * 2 == head_.size(), "flow snapshot size mismatch");
  for (std::size_t k = 0; k < fwd.size(); ++k) {
    const Cap f = fwd[k];
    const auto p = static_cast<std::size_t>(pos(static_cast<int>(2 * k)));
    MHP_REQUIRE(f >= 0 && f <= cap_[p], "installed flow exceeds capacity");
    res_[p] = cap_[p] - f;
    res_[static_cast<std::size_t>(pos(static_cast<int>(2 * k + 1)))] = f;
  }
}

void FlowGraph::save_flow(std::vector<Cap>& fwd) const {
  fwd.resize(head_.size() / 2);
  for (std::size_t k = 0; k < fwd.size(); ++k)
    fwd[k] = flow(static_cast<int>(2 * k));
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
  auto& pred = level_;  // -1 unvisited, -2 source, else position into node
  for (;;) {
    // BFS for a shortest augmenting path in the residual graph.
    pred.assign(static_cast<std::size_t>(g.num_nodes()), -1);
    queue_.clear();
    queue_.push_back(s);
    pred[s] = -2;
    bool found = false;
    for (std::size_t head = 0; head < queue_.size() && !found; ++head) {
      const int v = queue_[head];
      for (int p = g.first_pos(v), end = g.end_pos(v); p < end; ++p) {
        const int w = g.head(p);
        if (pred[w] == -1 && g.res_[p] > 0) {
          pred[w] = p;
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
      const int p = pred[v];
      bottleneck = std::min(bottleneck, g.res_[p]);
      v = g.head(g.twin_[p]);
    }
    for (int v = t; v != s;) {
      const int p = pred[v];
      g.res_[p] -= bottleneck;
      g.res_[g.twin_[p]] += bottleneck;
      v = g.head(g.twin_[p]);
    }
    total += bottleneck;
  }
}

bool MaxFlow::dinic_bfs(const FlowGraph& g, int s, int t) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  level_.assign(n, -1);
  queue_.resize(n);  // every node is queued at most once
  const std::int32_t* begin = g.csr_begin_.data();
  const std::int32_t* head = g.head_.data();
  const Cap* res = g.res_.data();
  std::int32_t* level = level_.data();
  std::int32_t* queue = queue_.data();
  std::size_t tail = 0;
  level[s] = 0;
  queue[tail++] = s;
  for (std::size_t next_in = 0; next_in < tail; ++next_in) {
    const int v = queue[next_in];
    const int next = level[v] + 1;
    for (int p = begin[v], end = begin[v + 1]; p < end; ++p) {
      if (res[p] <= 0) continue;
      const int w = head[p];
      if (level[w] < 0) {
        level[w] = next;
        queue[tail++] = w;
      }
    }
  }
  return level[t] >= 0;
}

FlowGraph::Cap MaxFlow::dinic_dfs(FlowGraph& g, int t) {
  // One blocking-flow path search, iterative: path_ holds the nodes from
  // s down to the current tip, and iter_[v] is v's cursor position.  A
  // node on the path keeps its cursor on the arc that led to the next
  // node.  A dead end advances its parent's cursor; a found path leaves
  // every cursor where it is.  That is exactly the arc order and cursor
  // discipline of the textbook recursive DFS.  After a push the search
  // resumes at the first node whose path arc saturated: a restart from s
  // would walk the prefix up to it again, because every cursor on that
  // prefix still points at an arc with residual left.
  const std::int32_t* begin = g.csr_begin_.data();
  const std::int32_t* head = g.head_.data();
  const std::int32_t* twin = g.twin_.data();
  Cap* res = g.res_.data();
  const std::int32_t* level = level_.data();
  std::int32_t* iter = iter_.data();
  while (!path_.empty()) {
    const int v = path_.back();
    if (v == t) {
      const Cap pushed = limit_.back();
      // Every prefix bottleneck drops by exactly `pushed`.
      std::size_t keep = path_.size() - 1;
      for (std::size_t d = 0; d + 1 < path_.size(); ++d) {
        const int p = iter[path_[d]];
        res[p] -= pushed;
        res[twin[p]] += pushed;
        limit_[d + 1] -= pushed;
        if (res[p] == 0 && keep > d) keep = d;
      }
      path_.resize(keep + 1);
      limit_.resize(keep + 1);
      return pushed;
    }
    const int end = begin[v + 1];
    const int next = level[v] + 1;
    int p = iter[v];
    while (p < end && !(res[p] > 0 && level[head[p]] == next)) ++p;
    iter[v] = p;
    if (p < end) {
      limit_.push_back(std::min(limit_.back(), res[p]));
      path_.push_back(head[p]);
    } else {
      path_.pop_back();
      limit_.pop_back();
      if (!path_.empty()) ++iter[path_.back()];
    }
  }
  return 0;
}

FlowGraph::Cap MaxFlow::augment_dinic(FlowGraph& g, int s, int t) {
  Cap total = 0;
  iter_.resize(static_cast<std::size_t>(g.num_nodes()));
  while (dinic_bfs(g, s, t)) {
    for (int v = 0; v < g.num_nodes(); ++v)
      iter_[static_cast<std::size_t>(v)] = g.first_pos(v);
    path_.assign(1, s);
    limit_.assign(1, FlowGraph::kInfinite);
    for (;;) {
      const Cap pushed = dinic_dfs(g, t);
      if (pushed == 0) break;
      total += pushed;
    }
  }
  return total;
}

}  // namespace mhp::route
