// Interference knowledge: which groups of transmissions are compatible
// (contention-free when concurrent).
//
// Per §III-B the paper refuses both the protocol (disc) model and the
// power-law physical model: coverage and interference are *arbitrary*, and
// the cluster head learns them by testing groups of at most M transmissions
// (M = 2 or 3).  The scheduler therefore never asks about groups larger
// than M and treats unknown groups as incompatible.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "metrics/registry.hpp"
#include "net/cluster.hpp"
#include "net/ids.hpp"
#include "radio/channel.hpp"
#include "util/geometry.hpp"

namespace mhp {

/// One single-hop transmission from→to.
struct Tx {
  NodeId from = kNoNode;
  NodeId to = kNoNode;

  friend auto operator<=>(const Tx&, const Tx&) = default;
};

/// Canonical key for a transmission group (sorted, duplicate-free).
using TxGroup = std::vector<Tx>;
TxGroup normalize(std::span<const Tx> txs);

/// Structural feasibility every oracle enforces before its own answer:
/// distinct senders, no node both sending and receiving (half-duplex),
/// no receiver hearing two group members addressed to it.
bool structurally_valid(std::span<const Tx> txs);

class CompatibilityOracle {
 public:
  virtual ~CompatibilityOracle() = default;

  /// Largest group size the oracle has knowledge of.
  virtual int order() const = 0;

  /// True iff the group can run concurrently with every transmission
  /// received.  Groups larger than order() are conservatively incompatible.
  /// Normalizes, then answers through compatible_normalized(); virtual so
  /// a decorator (CachedOracle) can normalize without allocating.
  virtual bool compatible(std::span<const Tx> txs) const;

  /// compatible() for a group that is already normalized (sorted,
  /// duplicate-free), as a memo's miss path or a measuring oracle holds
  /// it: trivial and oversized groups, structural validity, then
  /// compatible_impl().  Virtual so a decorator (CachedOracle) answers
  /// from its memo here too.
  virtual bool compatible_normalized(const TxGroup& group) const;

 protected:
  /// Answer for a structurally valid, normalized group of size in
  /// [2, order()].  (Singletons are compatible by definition; the empty
  /// group trivially so.)
  virtual bool compatible_impl(const TxGroup& group) const = 0;
};

/// Table-driven oracle for tests and the NP-hardness reductions: compatible
/// pairs (and optionally larger groups) are listed explicitly; a group is
/// compatible iff every subset of size <= `subset_order` that must be
/// checked is present.  By default the table lists *pairs* and a group is
/// compatible iff all its pairs are (exactly the pairwise knowledge the
/// reductions in §III-C construct).
class ExplicitOracle : public CompatibilityOracle {
 public:
  explicit ExplicitOracle(int order = 2) : order_(order) {}

  int order() const override { return order_; }

  /// Declare an unordered pair of transmissions compatible.
  void allow_pair(Tx a, Tx b);

  /// Declare a whole group compatible (adds all its pairs too, so pairwise
  /// screening passes).
  void allow_group(std::span<const Tx> txs);

  /// Mark a specific group incompatible even though its pairs are allowed
  /// (models accumulated interference, Fig. 3).
  void forbid_group(std::span<const Tx> txs);

 protected:
  bool compatible_impl(const TxGroup& group) const override;

 private:
  int order_;
  std::set<TxGroup> pairs_;
  std::set<TxGroup> groups_;
  std::set<TxGroup> forbidden_;
};

/// Ground-truth oracle backed by the channel's SINR model: a group is
/// compatible iff every transmission in it decodes under the others'
/// summed interference.  Used as the "reality" the measured oracle probes.
class ChannelOracle : public CompatibilityOracle {
 public:
  ChannelOracle(const Channel& channel, int order)
      : channel_(channel), order_(order) {}

  int order() const override { return order_; }

 protected:
  bool compatible_impl(const TxGroup& group) const override;

 private:
  const Channel& channel_;
  int order_;
};

/// The head's measured knowledge (§V-E): the outcome of testing groups of
/// at most M transmissions drawn from a candidate universe (the
/// transmissions the relaying paths actually use).  Groups with a member
/// outside the universe were never tested and are incompatible.
///
/// Probing is on demand: a query for an in-universe group of size 2..M
/// probes `truth` when it is asked.  The truth oracle is deterministic, so
/// every verdict equals that of a full up-front probe, at O(u) memory
/// instead of O(u^M).  No memo is kept here — wrap the oracle in a
/// CachedOracle, as both simulation stacks do.  The set-up airtime the
/// paper charges for a full probe (what sectoring reduces, §IV) is
/// probe_count().
class MeasuredOracle : public CompatibilityOracle {
 public:
  /// Tests groups drawn from `universe` against `truth`, which must
  /// outlive this oracle.
  MeasuredOracle(const CompatibilityOracle& truth,
                 std::span<const Tx> universe, int order);

  int order() const override { return order_; }

  /// Number of probes actually performed: queries that reached `truth`
  /// (structurally valid in-universe groups of size 2..M), repeats
  /// included.
  std::uint64_t probes() const { return probes_; }

  /// Distinct transmissions in the probe universe.
  std::size_t universe_size() const { return universe_.size(); }

  /// The number of groups a full probe of a universe of `u` transmissions
  /// at order M would need (the paper's 1320-vs-85320 argument).
  static std::uint64_t probe_count(std::size_t universe_size, int order);

 protected:
  bool compatible_impl(const TxGroup& group) const override;

 private:
  const CompatibilityOracle& truth_;
  int order_;
  TxGroup universe_;  // normalized: sorted, duplicate-free
  mutable std::uint64_t probes_ = 0;
};

/// Protocol-model (disc) ground truth: a group is compatible iff every
/// receiver is strictly farther than `interference_range` from every other
/// group member's sender.  The paper refuses this model for the *protocol*
/// (§III-B) — it exists as a cheap geometric stand-in for benches and
/// property tests that need an O(k²) oracle at deployments far larger than
/// SINR evaluation can afford.  `positions[id]` must cover every node a
/// query names (a Deployment's positions vector works as-is).
class DiscModelOracle : public CompatibilityOracle {
 public:
  DiscModelOracle(std::vector<Vec2> positions, double interference_range,
                  int order)
      : positions_(std::move(positions)),
        band_(interference_range),
        order_(order) {}

  int order() const override { return order_; }

 protected:
  /// "Within range" is `distance() <= range`, tested through the same
  /// RangeBand as disc_topology: squared distances away from the
  /// boundary, std::hypot only inside its ±1e-9 band.
  bool compatible_impl(const TxGroup& group) const override;

 private:
  std::vector<Vec2> positions_;
  RangeBand band_;
  int order_;
};

/// Memoizing decorator: caches normalized-group → verdict so repeated
/// queries (the greedy scheduler asks about the same slot groups every
/// planning pass) cost one table probe instead of the inner oracle's
/// probe or SINR evaluation.  It is the only memo in front of a
/// MeasuredOracle.  Verdicts are identical to the inner
/// oracle's by construction — wrapping an oracle never changes behaviour,
/// only speed.  Not thread-safe; one instance per simulation, like every
/// other oracle.  The inner oracle must outlive the cache.
///
/// The memo is a flat open-addressed table: a power-of-two array of
/// 8-byte slots, each holding a 32-bit tag (the high half of the group's
/// 64-bit hash) and the group's arena offset + 1 (0 = empty).  The arena
/// holds, per group, a header word (length << 1 | verdict) followed by
/// the members packed as `from << 32 | to`.  The probe index comes from
/// the tag, so the table doubles at load ½ and re-slots from the tags
/// alone, never reading a key.  A query is normalized by insertion into
/// a reused packed-word buffer (packed order is Tx order), so a lookup
/// allocates nothing; the inner oracle is asked through
/// compatible_normalized() on a miss, without normalizing again.
class CachedOracle : public CompatibilityOracle {
 public:
  /// Opt-in pair screening and subset closure: before consulting the
  /// inner oracle for a group of three or more, check every pair of the
  /// group against the cache — a cached-incompatible pair proves the
  /// whole group incompatible without a new inner query.  Symmetrically,
  /// when the inner oracle declares a larger group compatible, every pair
  /// inside it is seeded into the memo as compatible (subset closure), so
  /// first-plan pair queries hit.  Both directions are sound only for
  /// monotone oracles (a subset of a compatible group is compatible; a
  /// conflicting pair conflicts in every superset), which holds for
  /// SINR-style oracles and structural validity but NOT for, e.g., an
  /// ExplicitOracle that forbids a pair outright while allowing its
  /// supersets — hence opt-in.  Screen rejections count as hits (they are
  /// answered from cached data alone).
  ///
  /// The group itself is looked up first, and a memoized-compatible
  /// group returns at once.  That skips no rejection the screen could
  /// make: a compatible group of three or more is stored only after the
  /// screen passed it, closure then holds each of its pairs as
  /// compatible, and entries are never overwritten.  A memoized-
  /// incompatible group still runs the screen, so screened() counts
  /// exactly what a screen-first lookup would.
  enum class PairScreen { kOff, kOn };

  explicit CachedOracle(const CompatibilityOracle& inner,
                        PairScreen screen = PairScreen::kOff)
      : inner_(inner),
        screen_(screen),
        order_(inner.order()),
        slots_(16) {}

  /// Not copyable: `CachedOracle outer(inner_cache)` would otherwise copy
  /// the inner cache instead of wrapping it.  To stack two caches, pass
  /// the inner one as a `const CompatibilityOracle&`.
  CachedOracle(const CachedOracle&) = delete;
  CachedOracle& operator=(const CachedOracle&) = delete;

  int order() const override { return order_; }

  bool compatible(std::span<const Tx> txs) const override;
  bool compatible_normalized(const TxGroup& group) const override;

  /// Additionally tally every hit/miss into registry counters (the sims
  /// bind metric::kOracleCacheHit / kOracleCacheMiss).  nullptr unbinds.
  void bind_counters(Counter* hits, Counter* misses) {
    hit_counter_ = hits;
    miss_counter_ = misses;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  /// Hits answered by the pair screen (subset of hits()).
  std::uint64_t screened() const { return screened_; }
  /// Hits / total queries (0.0 before the first query).
  double hit_rate() const {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) /
                            static_cast<double>(total);
  }
  std::size_t size() const { return size_; }
  /// Table lookups made so far: one per memo query of a non-trivial
  /// group, one per pair the screen examines, one per pair closure seeds.
  std::uint64_t lookups() const { return lookups_; }

 protected:
  /// Unreached (both public entry points are overridden); delegates for
  /// safety.
  bool compatible_impl(const TxGroup& group) const override;

 private:
  using Words = std::span<const std::uint64_t>;

  /// The memo query for the normalized group packed in words_.
  bool lookup() const;
  /// True (and counted as a screened hit) iff the pair screen is on, `g`
  /// has three or more members and one of its pairs is memoized false.
  bool screened_out(Words g) const;
  /// Index of the slot holding `g` (a normalized group of size >= 2), or
  /// of the empty slot where it would go.
  std::size_t find_slot(Words g, std::uint32_t tag) const;
  /// Store `g` → `verdict` in the empty slot `at`; grows at load ½.
  void insert_at(std::size_t at, Words g, std::uint32_t tag,
                 bool verdict) const;
  void grow() const;
  void count_hit() const;

  const CompatibilityOracle& inner_;
  PairScreen screen_ = PairScreen::kOff;
  int order_;
  /// tag << 32 | (arena offset + 1); 0 = empty.  Power-of-two size.
  mutable std::vector<std::uint64_t> slots_;
  /// Every memoized group, back to back: header, then packed members.
  mutable std::vector<std::uint64_t> arena_;
  mutable std::size_t size_ = 0;
  mutable std::vector<std::uint64_t> words_;  // the query, packed
  mutable TxGroup miss_group_;  // the query unpacked, for the inner oracle
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  mutable std::uint64_t screened_ = 0;
  mutable std::uint64_t lookups_ = 0;
  Counter* hit_counter_ = nullptr;
  Counter* miss_counter_ = nullptr;
};

/// Cache-effectiveness roll-up reports carry: one CachedOracle's tallies,
/// or several summed — the live cache plus every wrapper retired across
/// fault replans (multi-cluster stacks additionally sum over clusters).
struct OracleCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t screened = 0;  // subset of hits: pair-screen rejections
  std::uint64_t entries = 0;   // distinct memoized groups
  void add(const CachedOracle& cache) {
    hits += cache.hits();
    misses += cache.misses();
    screened += cache.screened();
    entries += cache.size();
  }
  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

/// The set of single-hop transmissions used by a set of relaying paths —
/// the natural probe universe.
std::vector<Tx> transmissions_of_paths(
    const std::vector<std::vector<NodeId>>& paths);

}  // namespace mhp
