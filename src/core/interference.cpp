#include "core/interference.hpp"

#include <algorithm>

#include "util/assertx.hpp"

namespace mhp {

TxGroup normalize(std::span<const Tx> txs) {
  TxGroup g(txs.begin(), txs.end());
  std::sort(g.begin(), g.end());
  g.erase(std::unique(g.begin(), g.end()), g.end());
  return g;
}

bool structurally_valid(std::span<const Tx> txs) {
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (txs[i].from == txs[i].to) return false;
    for (std::size_t j = 0; j < txs.size(); ++j) {
      if (i == j) continue;
      if (txs[i].from == txs[j].from) return false;  // duplicate sender
      if (txs[i].from == txs[j].to) return false;    // half-duplex
      if (txs[i].to == txs[j].to) return false;      // receiver contention
    }
  }
  return true;
}

bool CompatibilityOracle::compatible(std::span<const Tx> txs) const {
  // Normalize first: a group listing the same transmission twice is the
  // same *set* of transmissions, not a duplicate-sender violation — the
  // structural screen runs on the deduped group.  (Callers that must
  // forbid double-booking a sender in one slot, like the greedy
  // scheduler, enforce that themselves.)
  const TxGroup g = normalize(txs);
  if (g.size() <= 1) return g.empty() || g[0].from != g[0].to;
  if (static_cast<int>(g.size()) > order()) return false;
  if (!structurally_valid(g)) return false;
  return compatible_impl(g);
}

void ExplicitOracle::allow_pair(Tx a, Tx b) {
  pairs_.insert(normalize(std::vector<Tx>{a, b}));
}

void ExplicitOracle::allow_group(std::span<const Tx> txs) {
  const TxGroup g = normalize(txs);
  MHP_REQUIRE(static_cast<int>(g.size()) <= order_,
              "group larger than oracle order");
  for (std::size_t i = 0; i < g.size(); ++i)
    for (std::size_t j = i + 1; j < g.size(); ++j)
      allow_pair(g[i], g[j]);
  if (g.size() > 2) groups_.insert(g);
}

void ExplicitOracle::forbid_group(std::span<const Tx> txs) {
  forbidden_.insert(normalize(txs));
}

bool ExplicitOracle::compatible_impl(const TxGroup& group) const {
  if (forbidden_.contains(group)) return false;
  if (group.size() == 2) return pairs_.contains(group);
  // Larger groups: explicitly listed, or all pairs allowed and nothing
  // forbidden (pairwise screen — exactly what a pair-only table knows).
  if (groups_.contains(group)) return true;
  for (std::size_t i = 0; i < group.size(); ++i)
    for (std::size_t j = i + 1; j < group.size(); ++j)
      if (!pairs_.contains(normalize(std::vector<Tx>{group[i], group[j]})))
        return false;
  return true;
}

bool ChannelOracle::compatible_impl(const TxGroup& group) const {
  std::vector<Channel::TxRx> txs;
  txs.reserve(group.size());
  for (const Tx& t : group) txs.push_back({t.from, t.to});
  const auto outcome = channel_.concurrent_outcome(txs);
  return std::all_of(outcome.begin(), outcome.end(),
                     [](bool ok) { return ok; });
}

MeasuredOracle::MeasuredOracle(const CompatibilityOracle& truth,
                               std::span<const Tx> universe, int order)
    : truth_(truth), order_(order), universe_(normalize(universe)) {
  MHP_REQUIRE(order >= 1, "order must be at least 1");
}

bool MeasuredOracle::compatible_impl(const TxGroup& group) const {
  for (const Tx& t : group)
    if (!std::binary_search(universe_.begin(), universe_.end(), t))
      return false;  // never tested
  ++probes_;
  return truth_.compatible(group);
}

bool DiscModelOracle::compatible_impl(const TxGroup& group) const {
  for (std::size_t i = 0; i < group.size(); ++i)
    for (std::size_t j = 0; j < group.size(); ++j) {
      if (i == j) continue;
      if (distance(positions_.at(group[i].to),
                   positions_.at(group[j].from)) <= range_)
        return false;  // receiver i hears sender j: collision
    }
  return true;
}

bool CachedOracle::compatible(std::span<const Tx> txs) const {
  // Mirror the base class's trivial-group handling so cached and uncached
  // answers agree on every input; only non-trivial groups hit the memo.
  // The scheduler asks about a group per hop per candidate per slot, so
  // normalization runs in a reusable scratch buffer: the memo key is
  // copied out only on a miss.
  TxGroup& g = norm_scratch_;
  g.assign(txs.begin(), txs.end());
  std::sort(g.begin(), g.end());
  g.erase(std::unique(g.begin(), g.end()), g.end());
  if (g.size() <= 1) return g.empty() || g[0].from != g[0].to;
  if (static_cast<int>(g.size()) > order()) return false;
  if (screen_ == PairScreen::kOn && g.size() > 2) {
    // A pair already known incompatible dooms every group containing it
    // (monotone oracles only; see the header).  `g` is sorted/unique, so
    // each {g[i], g[j]} with i<j is itself a normalized group.
    pair_scratch_.resize(2);
    for (std::size_t i = 0; i + 1 < g.size(); ++i) {
      pair_scratch_[0] = g[i];
      for (std::size_t j = i + 1; j < g.size(); ++j) {
        pair_scratch_[1] = g[j];
        const auto it = cache_.find(pair_scratch_);
        if (it != cache_.end() && !it->second) {
          ++hits_;
          ++screened_;
          if (hit_counter_) hit_counter_->add();
          return false;
        }
      }
    }
  }
  if (const auto it = cache_.find(g); it != cache_.end()) {
    ++hits_;
    if (hit_counter_) hit_counter_->add();
    return it->second;
  }
  ++misses_;
  if (miss_counter_) miss_counter_->add();
  const bool ok = inner_.compatible(g);
  cache_.emplace(g, ok);
  if (screen_ == PairScreen::kOn && ok && g.size() > 2) {
    // Subset closure (monotone oracles only, like the screen): a
    // compatible group proves every pair inside it compatible, so seed
    // those pairs now — the scheduler's first planning pass asks about
    // pairs before it grows them into triples, and this turns such
    // queries into hits without an inner-oracle probe.
    pair_scratch_.resize(2);
    for (std::size_t i = 0; i + 1 < g.size(); ++i) {
      pair_scratch_[0] = g[i];
      for (std::size_t j = i + 1; j < g.size(); ++j) {
        pair_scratch_[1] = g[j];
        cache_.try_emplace(pair_scratch_, true);
      }
    }
  }
  return ok;
}

bool CachedOracle::compatible_impl(const TxGroup& group) const {
  return inner_.compatible(group);
}

std::uint64_t MeasuredOracle::probe_count(std::size_t universe_size,
                                          int order) {
  std::uint64_t total = 0;
  for (int k = 2; k <= order; ++k) {
    if (static_cast<std::size_t>(k) > universe_size) break;
    // C(u, k), computed with exact intermediate divisibility.
    std::uint64_t c = 1;
    for (int i = 0; i < k; ++i)
      c = c * (universe_size - static_cast<std::size_t>(i)) /
          static_cast<std::uint64_t>(i + 1);
    total += c;
  }
  return total;
}

std::vector<Tx> transmissions_of_paths(
    const std::vector<std::vector<NodeId>>& paths) {
  std::vector<Tx> txs;
  for (const auto& path : paths)
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
      txs.push_back(Tx{path[i], path[i + 1]});
  return normalize(txs);
}

}  // namespace mhp
