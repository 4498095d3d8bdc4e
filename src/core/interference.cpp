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
  return compatible_normalized(normalize(txs));
}

bool CompatibilityOracle::compatible_normalized(const TxGroup& g) const {
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
  return truth_.compatible_normalized(group);
}

bool DiscModelOracle::compatible_impl(const TxGroup& group) const {
  for (std::size_t i = 0; i < group.size(); ++i)
    for (std::size_t j = 0; j < group.size(); ++j) {
      if (i == j) continue;
      if (band_.within(positions_.at(group[i].to),
                       positions_.at(group[j].from)))
        return false;  // receiver i hears sender j: collision
    }
  return true;
}

namespace {

/// A transmission as one word; packed order is Tx order (from, then to).
std::uint64_t pack(Tx t) {
  return static_cast<std::uint64_t>(t.from) << 32 | t.to;
}

Tx unpack(std::uint64_t w) {
  return Tx{static_cast<NodeId>(w >> 32), static_cast<NodeId>(w)};
}

/// Hash of a normalized, packed group: each member folded in with a
/// multiply–xorshift round, then a splitmix64 finalizer so the high half
/// the table takes its tags from depends on every endpoint.
std::uint64_t group_hash(std::span<const std::uint64_t> g) {
  std::uint64_t h = g.size();
  for (const std::uint64_t w : g) {
    h ^= w;
    h *= 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

std::uint32_t tag_of(std::span<const std::uint64_t> g) {
  return static_cast<std::uint32_t>(group_hash(g) >> 32);
}

}  // namespace

std::size_t CachedOracle::find_slot(Words g, std::uint32_t tag) const {
  ++lookups_;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
    const std::uint64_t s = slots_[i];
    if (s == 0) return i;
    if (static_cast<std::uint32_t>(s >> 32) != tag) continue;
    const std::uint64_t* entry =
        arena_.data() + (static_cast<std::uint32_t>(s) - 1);
    if (entry[0] >> 1 == g.size() && std::equal(g.begin(), g.end(), entry + 1))
      return i;
  }
}

void CachedOracle::insert_at(std::size_t at, Words g, std::uint32_t tag,
                             bool verdict) const {
  MHP_ENSURE(arena_.size() + 1 + g.size() <= UINT32_MAX,
             "oracle memo arena exceeds 32-bit offsets");
  slots_[at] = static_cast<std::uint64_t>(tag) << 32 | (arena_.size() + 1);
  arena_.push_back(g.size() << 1 | static_cast<std::uint64_t>(verdict));
  arena_.insert(arena_.end(), g.begin(), g.end());
  if (++size_ * 2 > slots_.size()) grow();
}

void CachedOracle::grow() const {
  // Home slots come from the 32-bit tag, so the table can index at most
  // 2^32 of them.
  MHP_ENSURE(slots_.size() * 2 <= std::uint64_t{1} << 32,
             "oracle memo table outgrows its 32-bit probe tags");
  const std::vector<std::uint64_t> old =
      std::exchange(slots_, std::vector<std::uint64_t>(slots_.size() * 2));
  const std::size_t mask = slots_.size() - 1;
  for (const std::uint64_t s : old) {
    if (s == 0) continue;
    std::size_t i = (s >> 32) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void CachedOracle::count_hit() const {
  ++hits_;
  if (hit_counter_) hit_counter_->add();
}

bool CachedOracle::screened_out(Words g) const {
  if (screen_ == PairScreen::kOff || g.size() <= 2) return false;
  // A pair already known incompatible dooms every group containing it
  // (monotone oracles only; see the header).  `g` is sorted/unique, so
  // each {g[i], g[j]} with i<j is itself a normalized group.
  for (std::size_t i = 0; i + 1 < g.size(); ++i)
    for (std::size_t j = i + 1; j < g.size(); ++j) {
      const std::uint64_t pair[2] = {g[i], g[j]};
      const std::uint64_t s = slots_[find_slot(pair, tag_of(pair))];
      if (s != 0 && (arena_[static_cast<std::uint32_t>(s) - 1] & 1) == 0) {
        count_hit();
        ++screened_;
        return true;
      }
    }
  return false;
}

bool CachedOracle::compatible(std::span<const Tx> txs) const {
  // The scheduler asks about a group per hop per candidate per slot, so
  // normalization is an insertion sort into the reused packed buffer,
  // dropping repeats: no allocation, no std::sort.
  std::vector<std::uint64_t>& g = words_;
  g.clear();
  for (const Tx& t : txs) {
    const std::uint64_t w = pack(t);
    auto at = g.end();
    while (at != g.begin() && *(at - 1) > w) --at;
    if (at != g.begin() && *(at - 1) == w) continue;
    g.insert(at, w);
  }
  return lookup();
}

bool CachedOracle::compatible_normalized(const TxGroup& group) const {
  words_.clear();
  for (const Tx& t : group) words_.push_back(pack(t));
  return lookup();
}

bool CachedOracle::lookup() const {
  // Mirror the base class's trivial-group handling so cached and uncached
  // answers agree on every input; only non-trivial groups hit the memo.
  const Words g(words_);
  if (g.size() <= 1) return g.empty() || (g[0] >> 32) != (g[0] & UINT32_MAX);
  if (g.size() > static_cast<std::size_t>(order_)) return false;
  const std::uint32_t tag = tag_of(g);
  const std::size_t at = find_slot(g, tag);
  if (slots_[at] != 0) {
    // Group first: a memoized-compatible group passed the screen when it
    // was stored and nothing since can make the screen reject it (see the
    // header), so only an incompatible one is screened.
    const bool verdict =
        (arena_[static_cast<std::uint32_t>(slots_[at]) - 1] & 1) != 0;
    if (!verdict && screened_out(g)) return false;
    count_hit();
    return verdict;
  }
  if (screened_out(g)) return false;
  ++misses_;
  if (miss_counter_) miss_counter_->add();
  miss_group_.clear();
  for (const std::uint64_t w : g) miss_group_.push_back(unpack(w));
  const bool ok = inner_.compatible_normalized(miss_group_);
  insert_at(at, g, tag, ok);
  if (screen_ == PairScreen::kOn && ok && g.size() > 2) {
    // Subset closure (monotone oracles only, like the screen): a
    // compatible group proves every pair inside it compatible, so seed
    // those pairs now — the scheduler's first planning pass asks about
    // pairs before it grows them into triples, and this turns such
    // queries into hits without an inner-oracle probe.  A pair already
    // memoized keeps its verdict.
    for (std::size_t i = 0; i + 1 < g.size(); ++i)
      for (std::size_t j = i + 1; j < g.size(); ++j) {
        const std::uint64_t pair[2] = {g[i], g[j]};
        const std::uint32_t pair_tag = tag_of(pair);
        const std::size_t slot = find_slot(pair, pair_tag);
        if (slots_[slot] == 0) insert_at(slot, pair, pair_tag, true);
      }
  }
  return ok;
}

bool CachedOracle::compatible_impl(const TxGroup& group) const {
  return inner_.compatible_normalized(group);
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
