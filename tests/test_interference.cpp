#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <set>
#include <unordered_map>

#include "core/greedy_scheduler.hpp"
#include "core/interference.hpp"
#include "core/routing.hpp"
#include "net/deployment.hpp"
#include "radio/channel.hpp"
#include "route/routing_engine.hpp"
#include "sim/simulator.hpp"
#include "util/assertx.hpp"
#include "util/rng.hpp"

namespace mhp {
namespace {

// ---------- normalize / structural validity ----------

TEST(TxGroup, NormalizeSortsAndDedupes) {
  const Tx a{2, 3}, b{0, 1};
  const TxGroup g = normalize(std::vector<Tx>{a, b, a});
  ASSERT_EQ(g.size(), 2u);
  EXPECT_EQ(g[0], b);
  EXPECT_EQ(g[1], a);
}

TEST(StructuralValidity, AcceptsDisjointTransmissions) {
  EXPECT_TRUE(structurally_valid(std::vector<Tx>{{0, 1}, {2, 3}}));
}

TEST(StructuralValidity, RejectsHalfDuplexViolation) {
  // 1 receives in the first and sends in the second.
  EXPECT_FALSE(structurally_valid(std::vector<Tx>{{0, 1}, {1, 2}}));
}

TEST(StructuralValidity, RejectsDuplicateSender) {
  EXPECT_FALSE(structurally_valid(std::vector<Tx>{{0, 1}, {0, 2}}));
}

TEST(StructuralValidity, RejectsSharedReceiver) {
  EXPECT_FALSE(structurally_valid(std::vector<Tx>{{0, 2}, {1, 2}}));
}

TEST(StructuralValidity, RejectsSelfTransmission) {
  EXPECT_FALSE(structurally_valid(std::vector<Tx>{{1, 1}}));
}

// ---------- ExplicitOracle ----------

TEST(ExplicitOracle, SingletonsAlwaysCompatible) {
  ExplicitOracle oracle(2);
  EXPECT_TRUE(oracle.compatible(std::vector<Tx>{{0, 1}}));
  EXPECT_TRUE(oracle.compatible(std::vector<Tx>{}));
}

TEST(ExplicitOracle, PairsRequireDeclaration) {
  ExplicitOracle oracle(2);
  const Tx a{0, 1}, b{2, 3};
  EXPECT_FALSE(oracle.compatible(std::vector<Tx>{a, b}));
  oracle.allow_pair(a, b);
  EXPECT_TRUE(oracle.compatible(std::vector<Tx>{a, b}));
  // Order does not matter.
  EXPECT_TRUE(oracle.compatible(std::vector<Tx>{b, a}));
}

TEST(ExplicitOracle, GroupsBeyondOrderIncompatible) {
  ExplicitOracle oracle(2);
  const Tx a{0, 1}, b{2, 3}, c{4, 5};
  oracle.allow_pair(a, b);
  oracle.allow_pair(a, c);
  oracle.allow_pair(b, c);
  // Pairwise fine but the oracle only knows pairs (order 2).
  EXPECT_FALSE(oracle.compatible(std::vector<Tx>{a, b, c}));
}

TEST(ExplicitOracle, TriplesPassPairwiseScreenAtOrder3) {
  ExplicitOracle oracle(3);
  const Tx a{0, 1}, b{2, 3}, c{4, 5};
  oracle.allow_pair(a, b);
  oracle.allow_pair(a, c);
  oracle.allow_pair(b, c);
  EXPECT_TRUE(oracle.compatible(std::vector<Tx>{a, b, c}));
}

TEST(ExplicitOracle, ForbidGroupModelsAccumulatedInterference) {
  // The Fig 3 situation: pairwise compatible, jointly forbidden.
  ExplicitOracle oracle(3);
  const Tx a{0, 1}, b{2, 3}, c{4, 5};
  oracle.allow_group(std::vector<Tx>{a, b});
  oracle.allow_group(std::vector<Tx>{a, c});
  oracle.allow_group(std::vector<Tx>{b, c});
  oracle.forbid_group(std::vector<Tx>{a, b, c});
  EXPECT_TRUE(oracle.compatible(std::vector<Tx>{a, b}));
  EXPECT_FALSE(oracle.compatible(std::vector<Tx>{a, b, c}));
}

TEST(ExplicitOracle, StructuralViolationsOverrideTable) {
  ExplicitOracle oracle(2);
  const Tx a{0, 1}, bad{1, 2};
  oracle.allow_pair(a, bad);
  EXPECT_FALSE(oracle.compatible(std::vector<Tx>{a, bad}));
}

// ---------- ChannelOracle / MeasuredOracle ----------

class OracleChannelTest : public ::testing::Test {
 protected:
  OracleChannelTest() {
    // Line: n0 (30,0), n1 (60,0), n2 (90,0); head id 3 at origin.  Two
    // far-off pairs n4/n5 and n6/n7 can transmit alongside the line, so
    // multi-member groups can be compatible.
    std::vector<Vec2> pos = {{30, 0},  {60, 0},  {90, 0},  {0, 0},
                             {400, 0}, {430, 0}, {800, 0}, {830, 0}};
    std::vector<double> pw(pos.size(), RadioParams::kSensorTxPowerW);
    pw[3] = RadioParams::kHeadTxPowerW;
    channel_ = std::make_unique<Channel>(sim_, prop_, RadioParams{}, pos, pw);
  }
  Simulator sim_;
  TwoRayGround prop_;
  std::unique_ptr<Channel> channel_;
};

TEST_F(OracleChannelTest, ChannelOracleMatchesConcurrentOutcome) {
  ChannelOracle oracle(*channel_, 2);
  // n2→n1 alone fine; together with n0→head the SINR at n1 collapses.
  EXPECT_TRUE(oracle.compatible(std::vector<Tx>{{2, 1}}));
  EXPECT_FALSE(oracle.compatible(std::vector<Tx>{{2, 1}, {0, 3}}));
}

TEST_F(OracleChannelTest, MeasuredOracleAgreesWithTruthOnUniverse) {
  ChannelOracle truth(*channel_, 2);
  const std::vector<Tx> universe = {{2, 1}, {1, 0}, {0, 3}};
  MeasuredOracle measured(truth, universe, 2);
  for (std::size_t i = 0; i < universe.size(); ++i)
    for (std::size_t j = i + 1; j < universe.size(); ++j) {
      const std::vector<Tx> g{universe[i], universe[j]};
      EXPECT_EQ(measured.compatible(g), truth.compatible(g));
    }
}

TEST_F(OracleChannelTest, MeasuredOracleUnknownGroupIncompatible) {
  ChannelOracle truth(*channel_, 2);
  MeasuredOracle measured(truth, std::vector<Tx>{{1, 0}}, 2);
  // {2,1} was never probed.
  EXPECT_FALSE(measured.compatible(std::vector<Tx>{{2, 1}, {1, 0}}));
  // Singletons never need probing.
  EXPECT_TRUE(measured.compatible(std::vector<Tx>{{2, 1}}));
}

TEST(MeasuredOracle, ProbeCountFormula) {
  // C(10,2) = 45; C(10,2)+C(10,3) = 45+120 = 165.
  EXPECT_EQ(MeasuredOracle::probe_count(10, 2), 45u);
  EXPECT_EQ(MeasuredOracle::probe_count(10, 3), 165u);
  // The paper's sectoring example: probing costs collapse with sector
  // size — an 80-transmission universe needs C(80,2)+C(80,3) = 85'320
  // groups, while 8 sectors of 10 need 8 × 165 = 1'320 (§IV).
  EXPECT_EQ(MeasuredOracle::probe_count(80, 3), 85'320u);
  EXPECT_EQ(8 * MeasuredOracle::probe_count(10, 3), 1'320u);
}

// Every size-k subset of `items`, in lexicographic index order.
std::vector<TxGroup> subsets_of_size(const std::vector<Tx>& items,
                                     std::size_t k) {
  std::vector<TxGroup> out;
  std::vector<std::size_t> idx;
  auto rec = [&](auto&& self, std::size_t start) -> void {
    if (idx.size() == k) {
      TxGroup g;
      for (std::size_t i : idx) g.push_back(items[i]);
      out.push_back(std::move(g));
      return;
    }
    for (std::size_t i = start; i + (k - idx.size()) <= items.size(); ++i) {
      idx.push_back(i);
      self(self, i + 1);
      idx.pop_back();
    }
  };
  rec(rec, 0);
  return out;
}

TEST_F(OracleChannelTest, ProbesCounterMatchesFormula) {
  ChannelOracle truth(*channel_, 3);
  const std::vector<Tx> universe = {{2, 1}, {1, 0}, {0, 3}, {1, 3}};
  MeasuredOracle measured(truth, universe, 3);
  EXPECT_EQ(measured.universe_size(), 4u);
  EXPECT_EQ(measured.probes(), 0u);  // nothing is tested up front
  // A full probe queries every size-2..M subset once: probe_count() of
  // them.  The ones the structural screen rejects never reach the truth
  // oracle, so the counter tallies exactly the rest.
  std::uint64_t subsets = 0, reached_truth = 0;
  for (std::size_t k = 2; k <= 3; ++k)
    for (const TxGroup& g : subsets_of_size(universe, k)) {
      ++subsets;
      if (structurally_valid(g)) ++reached_truth;
      measured.compatible(g);
    }
  EXPECT_EQ(subsets, MeasuredOracle::probe_count(4, 3));
  EXPECT_GT(reached_truth, 0u);
  EXPECT_EQ(measured.probes(), reached_truth);
}

// The eager §V-E probe this oracle used to run in its constructor: test
// every size-2..M subset of the universe up front and table the
// compatible ones.  Kept as the reference the on-demand oracle must match.
class EagerReferenceOracle : public CompatibilityOracle {
 public:
  EagerReferenceOracle(const CompatibilityOracle& truth,
                       const std::vector<Tx>& universe, int order)
      : order_(order) {
    const TxGroup all = normalize(universe);
    for (int k = 2; k <= order; ++k)
      for (TxGroup& g : subsets_of_size(all, static_cast<std::size_t>(k)))
        if (truth.compatible(g)) compatible_.insert(std::move(g));
  }
  int order() const override { return order_; }

 protected:
  bool compatible_impl(const TxGroup& group) const override {
    return compatible_.contains(group);
  }

 private:
  int order_;
  std::set<TxGroup> compatible_;
};

TEST_F(OracleChannelTest, LazyProbingMatchesEagerEnumeration) {
  const std::vector<Tx> universe = {{2, 1}, {1, 0}, {0, 3},
                                    {1, 3}, {4, 5}, {6, 7}};
  const std::vector<Tx> outside = {{2, 3}, {7, 6}};
  std::vector<Tx> pool = universe;
  pool.insert(pool.end(), outside.begin(), outside.end());
  for (int order = 2; order <= 3; ++order) {
    SCOPED_TRACE(order);
    ChannelOracle truth(*channel_, order);
    const MeasuredOracle lazy(truth, universe, order);
    const EagerReferenceOracle eager(truth, universe, order);
    std::size_t compatible_groups = 0;
    // Every group of size 1..M+1 over the universe plus two transmissions
    // outside it, including the structurally invalid ones.
    for (std::size_t k = 1; k <= static_cast<std::size_t>(order) + 1; ++k)
      for (const TxGroup& g : subsets_of_size(pool, k)) {
        EXPECT_EQ(lazy.compatible(g), eager.compatible(g));
        if (eager.compatible(g)) ++compatible_groups;
      }
    // The comparison is not vacuous: some multi-member groups pass, e.g.
    // {1→0, 4→5, 6→7} at M = 3.
    EXPECT_GT(compatible_groups, pool.size());
    EXPECT_EQ(lazy.compatible(std::vector<Tx>{{1, 0}, {4, 5}, {6, 7}}),
              order == 3);
    // Duplicated members name the same set of transmissions.
    for (const Tx& a : pool)
      for (const Tx& b : pool) {
        const std::vector<Tx> dup{a, b, a};
        EXPECT_EQ(lazy.compatible(dup), eager.compatible(dup));
      }
    // Structurally invalid groups: self-loop, duplicate sender,
    // half-duplex, shared receiver.
    const std::vector<std::vector<Tx>> invalid = {
        {{1, 1}}, {{1, 0}, {1, 3}}, {{2, 1}, {1, 0}}, {{1, 3}, {0, 3}}};
    for (const auto& g : invalid) {
      EXPECT_FALSE(eager.compatible(g));
      EXPECT_EQ(lazy.compatible(g), eager.compatible(g));
    }
  }
}

TEST_F(OracleChannelTest, ProbesCountOnlyInUniverseQueriesUpToOrder) {
  ChannelOracle truth(*channel_, 2);
  const std::vector<Tx> universe = {{2, 1}, {4, 5}, {6, 7}, {1, 3}};
  const MeasuredOracle measured(truth, universe, 2);
  EXPECT_EQ(measured.probes(), 0u);

  const std::vector<Tx> pair{{2, 1}, {4, 5}};
  EXPECT_TRUE(measured.compatible(pair));
  EXPECT_EQ(measured.probes(), 1u);
  // No memo of its own: a repeat probes again.
  EXPECT_TRUE(measured.compatible(pair));
  EXPECT_EQ(measured.probes(), 2u);

  // None of these reach the truth oracle.
  measured.compatible(std::vector<Tx>{{2, 1}});                  // single
  measured.compatible(std::vector<Tx>{{2, 1}, {0, 3}});          // outside
  measured.compatible(std::vector<Tx>{{2, 1}, {1, 3}});          // invalid
  measured.compatible(std::vector<Tx>{{2, 1}, {4, 5}, {6, 7}});  // > M
  EXPECT_EQ(measured.probes(), 2u);

  // A CachedOracle in front is the memo: one probe per distinct group.
  CachedOracle cached(measured);
  cached.compatible(pair);
  cached.compatible(pair);
  EXPECT_EQ(measured.probes(), 3u);
}

TEST(TransmissionsOfPaths, ExtractsHops) {
  // {1,5} appears in both paths and is deduplicated.
  const std::vector<std::vector<NodeId>> paths = {{2, 1, 5}, {1, 5}};
  const auto txs = transmissions_of_paths(paths);
  ASSERT_EQ(txs.size(), 2u);
  EXPECT_TRUE(std::find(txs.begin(), txs.end(), Tx{2, 1}) != txs.end());
  EXPECT_TRUE(std::find(txs.begin(), txs.end(), Tx{1, 5}) != txs.end());
}

TEST(Oracle, DuplicateEntriesCollapseToTheSet) {
  // compatible() judges the *set* of concurrent transmissions: duplicate
  // entries normalize away before the structural checks, so a group with
  // a repeated Tx is judged as its deduplicated form.  (Structural
  // violations between *distinct* entries still reject.)
  ExplicitOracle oracle(2);
  const Tx a{0, 1};
  EXPECT_TRUE(oracle.compatible(std::vector<Tx>{a, a}));  // = {a}
  const Tx b{2, 3};
  oracle.allow_pair(a, b);
  EXPECT_TRUE(oracle.compatible(std::vector<Tx>{a, b, a}));  // = {a,b}
  // Same sender toward two receivers is still structurally invalid.
  EXPECT_FALSE(oracle.compatible(std::vector<Tx>{a, Tx{0, 2}}));
}

// ---------- DiscModelOracle ----------

TEST(DiscModelOracle, CollisionIffReceiverInsideInterferenceRange) {
  // Four nodes on a line at 0, 10, 200, 210.  Tx 0→1 and 2→3 are far
  // apart (compatible); 0→1 and 3→2 put receiver 2 at 190 m from sender
  // 0 — still fine — but with range 250 everything collides.
  const std::vector<Vec2> pos = {{0, 0}, {10, 0}, {200, 0}, {210, 0}};
  const DiscModelOracle far(pos, 60.0, 3);
  EXPECT_TRUE(far.compatible(std::vector<Tx>{{0, 1}, {2, 3}}));
  const DiscModelOracle wide(pos, 250.0, 3);
  EXPECT_FALSE(wide.compatible(std::vector<Tx>{{0, 1}, {2, 3}}));
}

// Sender of tx 0→1 at the origin, receiver of tx 2→3 at `p`, the other
// two nodes 10 km apart and far from both: the pair collides iff
// distance(p, origin) <= range.
std::vector<Vec2> boundary_layout(Vec2 p) {
  return {{0, 0}, {-5000, 0}, {5000, 0}, p};
}

TEST(DiscModelOracle, VerdictsMatchTheDistanceFormAtTheBoundary) {
  // The oracle and disc_topology share one RangeBand: both must give the
  // `distance() <= range` verdict exactly at the range, one ulp either
  // side, for co-located nodes and on and near the circle, where the
  // squared-distance fast path cannot decide.
  constexpr double kRange = 60.0;
  const auto up = [](double v) { return std::nextafter(v, HUGE_VAL); };
  const auto down = [](double v) { return std::nextafter(v, -HUGE_VAL); };
  std::vector<Vec2> points = {
      {kRange, 0},       {down(kRange), 0}, {up(kRange), 0},
      {0, -kRange},      {0, down(-kRange)}, {0, up(-kRange)},
      {36, 48},          {down(36), 48},    {up(36), 48},
      {-36, up(-48)},    {-36, down(-48)},  {0, 0},  // co-located
      // On the circle to the last ulp, where a bare `dx² + dy² <= range²`
      // says "outside" but distance() says "within".
      {39.279277443203505, 45.35568722376329},
      {59.477255479558352, 7.902915956743187},
      {-35.540469886791733, 48.341234988631086},
      {-7.4973669118102739, 59.529736177726278},
  };
  Rng rng(23);
  for (int i = 0; i < 4000; ++i) {
    const double theta = rng.uniform(0.0, 2.0 * std::numbers::pi);
    // Half inside the ±1e-9 band around range², half just outside it.
    const double spread = i % 2 == 0 ? 1e-9 : 1e-7;
    const double r = kRange * (1.0 + rng.uniform(-spread, spread));
    points.push_back({r * std::cos(theta), r * std::sin(theta)});
  }
  const RangeBand band(kRange);
  std::size_t collide = 0;
  for (const Vec2 p : points) {
    const bool hears = distance(p, Vec2{0, 0}) <= kRange;
    collide += hears ? 1 : 0;
    const DiscModelOracle oracle(boundary_layout(p), kRange, 2);
    EXPECT_EQ(oracle.compatible(std::vector<Tx>{{0, 1}, {2, 3}}), !hears)
        << p.x << "," << p.y;
    EXPECT_EQ(band.within(p, Vec2{0, 0}), hears);
    // disc_topology over the same two points (plus a far head) links
    // them exactly when the oracle reports the collision.
    const Deployment dep{{{0, 0}, p, {1e6, 1e6}}};
    EXPECT_EQ(disc_topology(dep, kRange).sensors_linked(0, 1), hears);
  }
  EXPECT_GT(collide, 100u);
  EXPECT_LT(collide, points.size() - 100);
}

TEST(DiscModelOracle, VerdictsMatchTheDistanceFormOnARandomField) {
  constexpr NodeId kNodes = 300;
  constexpr double kRange = 70.0;
  Rng rng(29);
  std::vector<Vec2> pos;
  for (NodeId i = 0; i < kNodes; ++i)
    pos.push_back({rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0)});
  const DiscModelOracle oracle(pos, kRange, 3);
  for (int q = 0; q < 20000; ++q) {
    TxGroup g;
    const std::size_t size = 2 + rng.below(2);
    while (g.size() < size)
      g.push_back(Tx{static_cast<NodeId>(rng.below(kNodes)),
                     static_cast<NodeId>(rng.below(kNodes))});
    g = normalize(g);
    bool want = structurally_valid(g);
    for (std::size_t i = 0; want && i < g.size(); ++i)
      for (std::size_t j = 0; j < g.size(); ++j)
        if (i != j && distance(pos[g[i].to], pos[g[j].from]) <= kRange)
          want = false;
    ASSERT_EQ(oracle.compatible(g), want) << "query " << q;
  }
}

// ---------- CachedOracle ----------

TEST(CachedOracle, VerdictsMatchInnerOracleOnEveryQuery) {
  Rng rng(11);
  std::vector<Vec2> pos;
  for (int i = 0; i < 12; ++i)
    pos.push_back({rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
  const DiscModelOracle truth(pos, 80.0, 3);
  const CachedOracle cached(truth);
  EXPECT_EQ(cached.order(), truth.order());
  // Two passes over random groups: the second is answered from the memo
  // and must agree verbatim, including structurally invalid and
  // oversized groups.
  std::vector<TxGroup> groups;
  for (int g = 0; g < 60; ++g) {
    TxGroup group;
    const int size = static_cast<int>(rng.uniform(0.0, 4.99));
    for (int t = 0; t < size; ++t)
      group.push_back(Tx{static_cast<NodeId>(rng.uniform(0.0, 11.99)),
                         static_cast<NodeId>(rng.uniform(0.0, 11.99))});
    groups.push_back(std::move(group));
  }
  for (int pass = 0; pass < 2; ++pass)
    for (const TxGroup& g : groups)
      EXPECT_EQ(cached.compatible(g), truth.compatible(g));
}

TEST(CachedOracle, CountsHitsAndMisses) {
  ExplicitOracle inner(2);
  const Tx a{0, 1}, b{2, 3};
  inner.allow_pair(a, b);
  const CachedOracle cached(inner);
  EXPECT_TRUE(cached.compatible(std::vector<Tx>{a, b}));
  EXPECT_EQ(cached.misses(), 1u);
  EXPECT_EQ(cached.hits(), 0u);
  // Same set in a different listed order is the same normalized key.
  EXPECT_TRUE(cached.compatible(std::vector<Tx>{b, a}));
  EXPECT_EQ(cached.misses(), 1u);
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(cached.size(), 1u);
}

TEST(CachedOracle, TrivialGroupsBypassTheMemo) {
  ExplicitOracle inner(2);
  const CachedOracle cached(inner);
  EXPECT_TRUE(cached.compatible(std::vector<Tx>{}));          // empty
  EXPECT_TRUE(cached.compatible(std::vector<Tx>{{0, 1}}));    // singleton
  EXPECT_FALSE(cached.compatible(std::vector<Tx>{{2, 2}}));   // self loop
  EXPECT_FALSE(cached.compatible(                             // > order
      std::vector<Tx>{{0, 1}, {2, 3}, {4, 5}}));
  EXPECT_EQ(cached.size(), 0u);
  EXPECT_EQ(cached.hits() + cached.misses(), 0u);
}

TEST(CachedOracle, BindCountersTalliesIntoRegistry) {
  MetricsRegistry m;
  ExplicitOracle inner(2);
  const Tx a{0, 1}, b{2, 3};
  inner.allow_pair(a, b);
  CachedOracle cached(inner);
  cached.bind_counters(&m.counter("oracle.cache_hit"),
                       &m.counter("oracle.cache_miss"));
  cached.compatible(std::vector<Tx>{a, b});
  cached.compatible(std::vector<Tx>{a, b});
  cached.compatible(std::vector<Tx>{a, b});
  EXPECT_EQ(m.counter("oracle.cache_miss").value(), 1u);
  EXPECT_EQ(m.counter("oracle.cache_hit").value(), 2u);
}

// ---------- CachedOracle pair screen ----------

// Three link clusters on a line: 0→1 and 2→3 collide (20 m apart with an
// 50 m disc), while 4→5 and 6→7 are hundreds of meters clear of everyone.
std::vector<Vec2> screen_positions() {
  return {{0, 0},    {10, 0},   {20, 0},   {30, 0},
          {500, 0},  {510, 0},  {1000, 0}, {1010, 0}};
}

TEST(CachedOracle, PairScreenRejectsSupersetsOfCachedFalsePairs) {
  const DiscModelOracle truth(screen_positions(), 50.0, 3);
  const CachedOracle cached(truth, CachedOracle::PairScreen::kOn);
  const Tx bad_a{0, 1}, bad_b{2, 3}, clear_a{4, 5}, clear_b{6, 7};

  EXPECT_FALSE(cached.compatible(std::vector<Tx>{bad_a, bad_b}));
  EXPECT_EQ(cached.misses(), 1u);
  EXPECT_EQ(cached.screened(), 0u);  // pairs themselves are never screened

  // A triple containing the cached-false pair is rejected by the screen
  // alone: a hit with no inner call and no new memo entry.  The verdict
  // matches the inner oracle (disc interference is monotone in the
  // transmitter set).
  const std::vector<Tx> triple{bad_a, bad_b, clear_a};
  EXPECT_FALSE(truth.compatible(triple));
  EXPECT_FALSE(cached.compatible(triple));
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(cached.screened(), 1u);
  EXPECT_EQ(cached.misses(), 1u);
  EXPECT_EQ(cached.size(), 1u);

  // Screened groups are not memoized, so the screen answers every repeat.
  EXPECT_FALSE(cached.compatible(triple));
  EXPECT_EQ(cached.screened(), 2u);

  // A triple with no cached-false pair inside goes to the inner oracle.
  EXPECT_TRUE(cached.compatible(std::vector<Tx>{bad_a, clear_a, clear_b}));
  EXPECT_EQ(cached.misses(), 2u);
  EXPECT_EQ(cached.screened(), 2u);
}

TEST(CachedOracle, PairScreenDefaultsOffAndHitRateAccountsScreens) {
  const DiscModelOracle truth(screen_positions(), 50.0, 3);
  const CachedOracle plain(truth);  // screen off: triples always miss
  EXPECT_DOUBLE_EQ(plain.hit_rate(), 0.0);  // defined before any query
  const Tx bad_a{0, 1}, bad_b{2, 3}, clear_a{4, 5};
  const std::vector<Tx> triple{bad_a, bad_b, clear_a};
  EXPECT_FALSE(plain.compatible(std::vector<Tx>{bad_a, bad_b}));
  EXPECT_FALSE(plain.compatible(triple));
  EXPECT_EQ(plain.screened(), 0u);
  EXPECT_EQ(plain.misses(), 2u);
  EXPECT_DOUBLE_EQ(plain.hit_rate(), 0.0);

  const CachedOracle screened(truth, CachedOracle::PairScreen::kOn);
  EXPECT_FALSE(screened.compatible(std::vector<Tx>{bad_a, bad_b}));
  EXPECT_FALSE(screened.compatible(triple));  // screen hit
  EXPECT_DOUBLE_EQ(screened.hit_rate(), 0.5);  // 1 hit / (1 hit + 1 miss)
}

TEST(CachedOracle, PairScreenLiftsHitRateOnGreedyStyleWorkload) {
  // The greedy scheduler probes a growing group's prefixes before the
  // full group; replay that shape — pair first, then its triple — over
  // random links and require the screen to convert would-be misses into
  // hits without changing a single verdict.
  Rng rng(17);
  std::vector<Vec2> pos;
  for (int i = 0; i < 24; ++i)
    pos.push_back({rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)});
  const DiscModelOracle truth(pos, 80.0, 3);
  const CachedOracle plain(truth);
  const CachedOracle screened(truth, CachedOracle::PairScreen::kOn);

  const auto random_tx = [&rng] {
    const auto from = static_cast<NodeId>(rng.uniform(0.0, 23.99));
    const auto to =
        (from + 1 + static_cast<NodeId>(rng.uniform(0.0, 22.99))) % 24;
    return Tx{from, to};
  };
  for (int i = 0; i < 300; ++i) {
    const Tx a = random_tx(), b = random_tx(), c = random_tx();
    for (const TxGroup& g :
         {std::vector<Tx>{a, b}, std::vector<Tx>{a, b, c}}) {
      const bool want = truth.compatible(g);
      EXPECT_EQ(plain.compatible(g), want);
      EXPECT_EQ(screened.compatible(g), want);
    }
  }
  EXPECT_GT(screened.screened(), 0u);
  EXPECT_GT(screened.hit_rate(), plain.hit_rate());
}

// ---------- CachedOracle memo equivalence ----------

// The memo CachedOracle kept before its flat table: a node-based hash map
// from normalized group to verdict, driven with the same find / emplace /
// try_emplace sequence.  Verdicts and every counter must match it query
// for query.
class ReferenceMemo {
 public:
  ReferenceMemo(const CompatibilityOracle& inner, bool screen)
      : inner_(inner), screen_(screen) {}

  bool compatible(std::span<const Tx> txs) {
    const TxGroup g = normalize(txs);
    if (g.size() <= 1) return g.empty() || g[0].from != g[0].to;
    if (static_cast<int>(g.size()) > inner_.order()) return false;
    if (screen_ && g.size() > 2)
      for (std::size_t i = 0; i + 1 < g.size(); ++i)
        for (std::size_t j = i + 1; j < g.size(); ++j) {
          const auto it = memo_.find(TxGroup{g[i], g[j]});
          if (it != memo_.end() && !it->second) {
            ++hits;
            ++screened;
            return false;
          }
        }
    if (const auto it = memo_.find(g); it != memo_.end()) {
      ++hits;
      return it->second;
    }
    ++misses;
    const bool ok = inner_.compatible(g);
    memo_.emplace(g, ok);
    if (screen_ && ok && g.size() > 2)
      for (std::size_t i = 0; i + 1 < g.size(); ++i)
        for (std::size_t j = i + 1; j < g.size(); ++j)
          memo_.try_emplace(TxGroup{g[i], g[j]}, true);
    return ok;
  }

  std::size_t size() const { return memo_.size(); }
  std::uint64_t hits = 0, misses = 0, screened = 0;

 private:
  struct Hash {
    std::size_t operator()(const TxGroup& g) const {
      std::uint64_t h = 14695981039346656037ull;  // FNV-1a
      for (const Tx& t : g) {
        h = (h ^ t.from) * 1099511628211ull;
        h = (h ^ t.to) * 1099511628211ull;
      }
      return static_cast<std::size_t>(h);
    }
  };
  const CompatibilityOracle& inner_;
  bool screen_;
  std::unordered_map<TxGroup, bool, Hash> memo_;
};

TEST(CachedOracle, FlatMemoMatchesReferenceMap) {
  // Randomized query streams over a monotone disc oracle of order 5:
  // pairs, triples, order-5 and oversized groups, groups listing a member
  // twice, trivial groups (empty, singleton, self loop), and repeats of
  // earlier queries so hits, screens and closure-seeded pairs all occur.
  // Both screen modes, several seeds.  The last stream keeps asking new
  // groups until the table has doubled at least 15 times from its
  // initial 16 slots (load ½ → more than 8·2^14 entries), so the
  // sanitizer build checks arena offsets across every growth.
  constexpr NodeId kNodes = 600;
  constexpr std::size_t kGrowthEntries = 8u << 14;
  struct Stream {
    std::uint64_t seed;
    CachedOracle::PairScreen screen;
    std::size_t queries;
  };
  const Stream streams[] = {
      {1, CachedOracle::PairScreen::kOff, 40'000},
      {2, CachedOracle::PairScreen::kOn, 40'000},
      {3, CachedOracle::PairScreen::kOff, 40'000},
      {4, CachedOracle::PairScreen::kOn, 40'000},
      {5, CachedOracle::PairScreen::kOn, 0},  // until 15 growths
  };
  std::size_t total_queries = 0;
  std::size_t largest = 0;
  for (const Stream& stream : streams) {
    Rng rng(stream.seed);
    std::vector<Vec2> pos;
    for (NodeId i = 0; i < kNodes; ++i)
      pos.push_back({rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)});
    const DiscModelOracle truth(pos, 90.0, 5);
    const bool screen = stream.screen == CachedOracle::PairScreen::kOn;
    const CachedOracle cached(truth, stream.screen);
    ReferenceMemo reference(truth, screen);

    // A transmission to a nearby node, so pairs and larger groups mix
    // compatible and colliding verdicts.
    const auto random_tx = [&] {
      const auto from = static_cast<NodeId>(rng.below(kNodes));
      auto to = static_cast<NodeId>(rng.below(kNodes));
      for (int tries = 0; tries < 8 && distance(pos[from], pos[to]) > 120.0;
           ++tries)
        to = static_cast<NodeId>(rng.below(kNodes));
      return Tx{from, to};
    };
    std::vector<TxGroup> history;
    const auto next_group = [&]() -> TxGroup {
      const std::uint64_t kind = rng.below(100);
      if (kind < 25 && !history.empty()) {  // repeat, reshuffled
        TxGroup g = history[rng.below(history.size())];
        std::reverse(g.begin(), g.end());
        return g;
      }
      if (kind < 30) {  // trivial: empty, singleton, self loop
        switch (rng.below(3)) {
          case 0: return {};
          case 1: return {random_tx()};
          default: {
            const auto n = static_cast<NodeId>(rng.below(kNodes));
            return {Tx{n, n}};
          }
        }
      }
      std::size_t size = 2;
      if (kind >= 60) size = 3;
      if (kind >= 80) size = 5;
      if (kind >= 95) size = 6;  // beyond order(): never memoized
      // Half the larger groups grow an earlier query, the way the greedy
      // scheduler grows a slot group, so cached pairs get screened.
      TxGroup g;
      if (size > 2 && !history.empty() && rng.below(2) == 0) {
        const TxGroup& prior = history[rng.below(history.size())];
        g.assign(prior.begin(), prior.begin() + 2);
      }
      while (g.size() < size) g.push_back(random_tx());
      if (kind % 7 == 0) g.push_back(g[rng.below(g.size())]);  // duplicate
      history.push_back(g);
      return g;
    };

    for (std::size_t q = 0; stream.queries == 0
                                ? cached.size() <= kGrowthEntries
                                : q < stream.queries;
         ++q) {
      const TxGroup g = next_group();
      ASSERT_EQ(cached.compatible(g), reference.compatible(g))
          << "seed " << stream.seed << " query " << q;
      ASSERT_EQ(cached.hits(), reference.hits) << "query " << q;
      ASSERT_EQ(cached.misses(), reference.misses) << "query " << q;
      ASSERT_EQ(cached.screened(), reference.screened) << "query " << q;
      ASSERT_EQ(cached.size(), reference.size()) << "query " << q;
      ++total_queries;
    }
    if (screen) {
      EXPECT_GT(cached.screened(), 0u) << "seed " << stream.seed;
    }
    EXPECT_GT(cached.hits(), 0u) << "seed " << stream.seed;
    largest = std::max(largest, cached.size());
  }
  EXPECT_GE(total_queries, 200'000u);
  EXPECT_GT(largest, kGrowthEntries);
}

// ---------- CachedOracle lookup order ----------

TEST(CachedOracle, MemoizedCompatibleGroupAnsweredWithoutPairProbes) {
  const DiscModelOracle truth(screen_positions(), 50.0, 3);
  const CachedOracle cached(truth, CachedOracle::PairScreen::kOn);
  const std::vector<Tx> clear{{0, 1}, {4, 5}, {6, 7}};
  EXPECT_TRUE(cached.compatible(clear));  // miss; closure seeds 3 pairs
  EXPECT_EQ(cached.misses(), 1u);
  EXPECT_EQ(cached.size(), 4u);

  // The repeat is one lookup of the group itself: no pair is screened.
  std::uint64_t before = cached.lookups();
  EXPECT_TRUE(cached.compatible(clear));
  EXPECT_EQ(cached.lookups() - before, 1u);
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(cached.screened(), 0u);

  // A memoized-incompatible triple with no cached-false pair is looked
  // up, then screened pair by pair, and answered as a plain hit.
  const std::vector<Tx> bad{{0, 1}, {2, 3}, {4, 5}};
  EXPECT_FALSE(cached.compatible(bad));  // miss: no pair of it is false
  EXPECT_EQ(cached.misses(), 2u);
  before = cached.lookups();
  EXPECT_FALSE(cached.compatible(bad));
  EXPECT_EQ(cached.lookups() - before, 4u);  // the group, then 3 pairs
  EXPECT_EQ(cached.hits(), 2u);
  EXPECT_EQ(cached.screened(), 0u);
}

TEST(CachedOracle, MemoizedIncompatibleGroupStillCountsScreens) {
  // The triple is asked first, so it is stored false before its
  // colliding pair is known; once the pair is cached false, every repeat
  // of the triple is a screen hit, as a screen-first lookup counts it.
  const DiscModelOracle truth(screen_positions(), 50.0, 3);
  const CachedOracle cached(truth, CachedOracle::PairScreen::kOn);
  ReferenceMemo reference(truth, /*screen=*/true);
  const std::vector<Tx> triple{{0, 1}, {2, 3}, {4, 5}};
  const std::vector<Tx> pair{{2, 3}, {0, 1}};
  const auto ask = [&](const std::vector<Tx>& g) {
    const bool got = cached.compatible(g);
    EXPECT_EQ(got, reference.compatible(g));
    EXPECT_EQ(cached.hits(), reference.hits);
    EXPECT_EQ(cached.misses(), reference.misses);
    EXPECT_EQ(cached.screened(), reference.screened);
    EXPECT_EQ(cached.size(), reference.size());
    return got;
  };
  EXPECT_FALSE(ask(triple));
  EXPECT_EQ(cached.screened(), 0u);
  EXPECT_FALSE(ask(pair));
  EXPECT_FALSE(ask(triple));
  EXPECT_FALSE(ask(triple));
  EXPECT_EQ(cached.screened(), 2u);
  EXPECT_EQ(cached.misses(), 2u);
  EXPECT_EQ(cached.size(), 2u);
}

// Hands every query of a greedy run to a CachedOracle and to the
// reference map, alternating the two entry points of the cache, and
// checks verdicts and every counter after each query.
class LockstepOracle : public CompatibilityOracle {
 public:
  LockstepOracle(const CachedOracle& cached, ReferenceMemo& reference)
      : cached_(cached), reference_(reference) {}

  int order() const override { return cached_.order(); }

  bool compatible(std::span<const Tx> txs) const override {
    const bool got = ++queries_ % 2 == 0
                         ? cached_.compatible(txs)
                         : cached_.compatible_normalized(normalize(txs));
    EXPECT_EQ(got, reference_.compatible(txs)) << "query " << queries_;
    EXPECT_EQ(cached_.hits(), reference_.hits) << "query " << queries_;
    EXPECT_EQ(cached_.misses(), reference_.misses) << "query " << queries_;
    EXPECT_EQ(cached_.screened(), reference_.screened)
        << "query " << queries_;
    EXPECT_EQ(cached_.size(), reference_.size()) << "query " << queries_;
    return got;
  }

  std::uint64_t queries() const { return queries_; }

 protected:
  bool compatible_impl(const TxGroup& group) const override {
    return cached_.compatible_normalized(group);
  }

 private:
  const CachedOracle& cached_;
  ReferenceMemo& reference_;
  mutable std::uint64_t queries_ = 0;
};

TEST(CachedOracle, GreedyQueryStreamMatchesReferenceMemoQueryByQuery) {
  // A whole offline cycle at route_scale's density: memoized-compatible
  // triples, closure-seeded pairs and screened groups all recur.
  constexpr std::size_t kSensors = 300;
  constexpr double kRange = 60.0;
  Rng rng(41);
  const Deployment dep = deploy_connected_uniform_square(
      kSensors, std::sqrt(1000.0 * kSensors), kRange, rng);
  const ClusterTopology topo = disc_topology(dep, kRange);
  const RelayPlan plan(topo, route::RoutingEngine().solve_balanced(
                                 topo, std::vector<std::int64_t>(kSensors, 1)));
  std::vector<std::vector<NodeId>> paths;
  for (NodeId s = 0; s < kSensors; ++s)
    paths.push_back(plan.path_for_cycle(s, 0).hops);
  const DiscModelOracle truth(dep.positions, kRange, 3);
  for (const auto screen :
       {CachedOracle::PairScreen::kOff, CachedOracle::PairScreen::kOn}) {
    const CachedOracle cached(truth, screen);
    ReferenceMemo reference(truth, screen == CachedOracle::PairScreen::kOn);
    const LockstepOracle lockstep(cached, reference);
    const OfflineRunResult lockstep_run = run_offline(lockstep, paths);
    ASSERT_TRUE(lockstep_run.all_delivered);
    EXPECT_GT(lockstep.queries(), 1000u);
    EXPECT_GT(cached.hits(), 0u);
    if (screen == CachedOracle::PairScreen::kOn) {
      EXPECT_GT(cached.screened(), 0u);
    }
    // Answering through the lockstep wrapper changes no decision.
    const CachedOracle plain(truth, screen);
    EXPECT_EQ(run_offline(plain, paths).schedule.slots,
              lockstep_run.schedule.slots);
  }
}

TEST(CachedOracle, NestedCacheRoutesNormalizedMissesThroughInnerMemo) {
  const DiscModelOracle truth(screen_positions(), 50.0, 3);
  const CachedOracle inner(truth);
  const CompatibilityOracle& wrapped = inner;  // wrap, not copy
  const CachedOracle first(wrapped);
  const CachedOracle second(wrapped);
  const std::vector<Tx> g{{6, 7}, {0, 1}};
  EXPECT_TRUE(first.compatible(g));  // both memos miss
  EXPECT_EQ(first.misses(), 1u);
  EXPECT_EQ(inner.misses(), 1u);
  EXPECT_EQ(inner.hits(), 0u);
  // A second outer memo's miss reaches the inner memo through
  // compatible_normalized(), where it is a hit, not a truth query.
  EXPECT_TRUE(second.compatible(g));
  EXPECT_EQ(second.misses(), 1u);
  EXPECT_EQ(inner.misses(), 1u);
  EXPECT_EQ(inner.hits(), 1u);
  EXPECT_EQ(inner.size(), 1u);
  // And the normalized entry point of the outer memo is a memo query too.
  EXPECT_TRUE(second.compatible_normalized(normalize(g)));
  EXPECT_EQ(second.hits(), 1u);
  EXPECT_EQ(inner.hits(), 1u);
}

// ---------- CachedOracle offline accounting ----------

TEST(CachedOracle, OfflinePlanCountsArePinnedAtTwoThousandSensors) {
  // The hot-path scaling bench's polling point at n = 2000: one offline
  // greedy cycle over min-max-load paths, disc interference (M = 3)
  // behind a pair-screening cache.  The schedule and the memo's
  // accounting are pinned exactly, so a memo that drops, duplicates or
  // mis-keys an entry shows up here, not only as a drifted golden.
  constexpr std::size_t kSensors = 2000;
  constexpr double kRange = 60.0;
  Rng rng(0x9e1f + kSensors);
  const Deployment dep = deploy_connected_uniform_square(
      kSensors, std::sqrt(1000.0 * kSensors), kRange, rng);
  const ClusterTopology topo = disc_topology(dep, kRange);
  const std::vector<std::int64_t> demand(kSensors, 1);
  const RelayPlan plan(topo,
                       route::RoutingEngine().solve_balanced(topo, demand));
  std::vector<std::vector<NodeId>> paths;
  for (NodeId s = 0; s < kSensors; ++s)
    paths.push_back(plan.path_for_cycle(s, 0).hops);

  const DiscModelOracle truth(dep.positions, kRange, 3);
  const CachedOracle cached(truth, CachedOracle::PairScreen::kOn);
  const OfflineRunResult run = run_offline(cached, paths);
  ASSERT_TRUE(run.all_delivered);
  EXPECT_EQ(run.slots, 8714u);
  EXPECT_EQ(run.transmissions, 26124u);
  EXPECT_EQ(cached.hits(), 2553u);
  EXPECT_EQ(cached.misses(), 19798u);
  EXPECT_EQ(cached.screened(), 64u);
  EXPECT_EQ(cached.size(), 40021u);
}

}  // namespace
}  // namespace mhp
