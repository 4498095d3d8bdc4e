#include "core/interference.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

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

namespace {

/// Hash of a normalized group: each member packed into one word and
/// folded in with a multiply–xorshift round, then a splitmix64 finalizer
/// so the low bits the table masks with depend on every endpoint.
std::uint64_t group_hash(std::span<const Tx> g) {
  std::uint64_t h = g.size();
  for (const Tx& t : g) {
    h ^= (static_cast<std::uint64_t>(t.from) << 32) | t.to;
    h *= 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace

std::size_t CachedOracle::find_slot(std::span<const Tx> g,
                                    std::uint64_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  const auto length = static_cast<std::uint32_t>(g.size());
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.meta == 0) return i;
    if (s.hash == hash && s.meta >> 1 == length &&
        std::equal(g.begin(), g.end(), keys_.begin() + s.offset))
      return i;
  }
}

void CachedOracle::insert_at(std::size_t at, std::span<const Tx> g,
                             std::uint64_t hash, bool verdict) const {
  MHP_ENSURE(keys_.size() + g.size() <= UINT32_MAX,
             "oracle memo key arena exceeds 32-bit offsets");
  slots_[at] = Slot{hash, static_cast<std::uint32_t>(keys_.size()),
                    static_cast<std::uint32_t>(g.size()) << 1 |
                        static_cast<std::uint32_t>(verdict)};
  keys_.insert(keys_.end(), g.begin(), g.end());
  if (++size_ * 2 > slots_.size()) grow();
}

void CachedOracle::grow() const {
  const std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.meta == 0) continue;
    std::size_t i = s.hash & mask;
    while (slots_[i].meta != 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

bool CachedOracle::compatible(std::span<const Tx> txs) const {
  // Mirror the base class's trivial-group handling so cached and uncached
  // answers agree on every input; only non-trivial groups hit the memo.
  // The scheduler asks about a group per hop per candidate per slot, so
  // normalization runs in a reusable scratch buffer: the memo key is
  // copied into the arena only on a miss.
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
    for (std::size_t i = 0; i + 1 < g.size(); ++i)
      for (std::size_t j = i + 1; j < g.size(); ++j) {
        const Tx pair[2] = {g[i], g[j]};
        const Slot& s = slots_[find_slot(pair, group_hash(pair))];
        if (s.meta != 0 && (s.meta & 1) == 0) {
          ++hits_;
          ++screened_;
          if (hit_counter_) hit_counter_->add();
          return false;
        }
      }
  }
  const std::uint64_t hash = group_hash(g);
  const std::size_t at = find_slot(g, hash);
  if (slots_[at].meta != 0) {
    ++hits_;
    if (hit_counter_) hit_counter_->add();
    return (slots_[at].meta & 1) != 0;
  }
  ++misses_;
  if (miss_counter_) miss_counter_->add();
  const bool ok = inner_.compatible(g);
  insert_at(at, g, hash, ok);
  if (screen_ == PairScreen::kOn && ok && g.size() > 2) {
    // Subset closure (monotone oracles only, like the screen): a
    // compatible group proves every pair inside it compatible, so seed
    // those pairs now — the scheduler's first planning pass asks about
    // pairs before it grows them into triples, and this turns such
    // queries into hits without an inner-oracle probe.  A pair already
    // memoized keeps its verdict.
    for (std::size_t i = 0; i + 1 < g.size(); ++i)
      for (std::size_t j = i + 1; j < g.size(); ++j) {
        const Tx pair[2] = {g[i], g[j]};
        const std::uint64_t pair_hash = group_hash(pair);
        const std::size_t slot = find_slot(pair, pair_hash);
        if (slots_[slot].meta == 0) insert_at(slot, pair, pair_hash, true);
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
