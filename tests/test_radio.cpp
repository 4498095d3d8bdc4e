#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "util/assertx.hpp"
#include "util/rng.hpp"
#include "radio/channel.hpp"
#include "radio/energy.hpp"
#include "radio/propagation.hpp"
#include "sim/simulator.hpp"

namespace mhp {
namespace {

// ---------- Propagation ----------

TEST(FreeSpace, InverseSquareDecay) {
  FreeSpace fs;
  const double p1 = fs.rx_power_w(1.0, {0, 0}, {10, 0});
  const double p2 = fs.rx_power_w(1.0, {0, 0}, {20, 0});
  EXPECT_NEAR(p1 / p2, 4.0, 1e-9);
}

TEST(FreeSpace, ZeroDistanceReturnsTxPower) {
  FreeSpace fs;
  EXPECT_DOUBLE_EQ(fs.rx_power_w(0.7, {1, 1}, {1, 1}), 0.7);
}

TEST(TwoRayGround, MatchesFriisInsideCrossover) {
  TwoRayGround tr;
  FreeSpace fs;
  const double d = tr.crossover_distance_m() * 0.5;
  EXPECT_NEAR(tr.rx_power_w(1.0, {0, 0}, {d, 0}),
              fs.rx_power_w(1.0, {0, 0}, {d, 0}), 1e-15);
}

TEST(TwoRayGround, FourthPowerDecayBeyondCrossover) {
  TwoRayGround tr;
  const double d = tr.crossover_distance_m() * 2.0;
  const double p1 = tr.rx_power_w(1.0, {0, 0}, {d, 0});
  const double p2 = tr.rx_power_w(1.0, {0, 0}, {2 * d, 0});
  EXPECT_NEAR(p1 / p2, 16.0, 1e-9);
}

TEST(TwoRayGround, CrossoverDistanceFormula) {
  TwoRayGround tr(914e6, 1.5);
  const double lambda = 299792458.0 / 914e6;
  EXPECT_NEAR(tr.crossover_distance_m(),
              4.0 * M_PI * 1.5 * 1.5 / lambda, 1e-9);
}

TEST(LogDistanceShadowing, DeterministicPerPair) {
  LogDistanceShadowing ls(3.0, 6.0, 1.0, 914e6, 42);
  const double a = ls.rx_power_w(1.0, {0, 0}, {50, 20});
  const double b = ls.rx_power_w(1.0, {0, 0}, {50, 20});
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(LogDistanceShadowing, Symmetric) {
  LogDistanceShadowing ls(3.0, 6.0, 1.0, 914e6, 42);
  EXPECT_DOUBLE_EQ(ls.rx_power_w(1.0, {0, 0}, {50, 20}),
                   ls.rx_power_w(1.0, {50, 20}, {0, 0}));
}

TEST(LogDistanceShadowing, EnvironmentSeedChangesCoverage) {
  LogDistanceShadowing a(3.0, 6.0, 1.0, 914e6, 1);
  LogDistanceShadowing b(3.0, 6.0, 1.0, 914e6, 2);
  EXPECT_NE(a.rx_power_w(1.0, {0, 0}, {50, 20}),
            b.rx_power_w(1.0, {0, 0}, {50, 20}));
}

TEST(LogDistanceShadowing, NonDiscCoverage) {
  // With shadowing, equal distances can differ wildly in received power —
  // the paper's "coverage area may not be a disc" point.
  LogDistanceShadowing ls(3.0, 8.0, 1.0, 914e6, 7);
  double lo = 1e300, hi = 0.0;
  for (int k = 0; k < 32; ++k) {
    const double theta = 2.0 * M_PI * k / 32.0;
    const double p = ls.rx_power_w(
        1.0, {0, 0}, {60.0 * std::cos(theta), 60.0 * std::sin(theta)});
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  EXPECT_GT(hi / lo, 10.0);  // >10 dB spread around the circle
}

// ---------- Energy ----------

TEST(EnergyModel, TypicalOrdering) {
  const EnergyModel m = EnergyModel::typical_sensor();
  EXPECT_GT(m.tx_w, m.rx_w);
  EXPECT_GT(m.rx_w, m.idle_w * 0.99);
  EXPECT_GT(m.idle_w, 100.0 * m.sleep_w);  // idle listening dominates sleep
}

TEST(EnergyMeter, AccumulatesPerState) {
  EnergyMeter meter(EnergyModel{2.0, 1.0, 0.5, 0.1});
  meter.accumulate(RadioState::kTx, Time::sec(2));
  meter.accumulate(RadioState::kSleep, Time::sec(8));
  EXPECT_DOUBLE_EQ(meter.energy_in_j(RadioState::kTx), 4.0);
  EXPECT_DOUBLE_EQ(meter.energy_in_j(RadioState::kSleep), 0.8);
  EXPECT_DOUBLE_EQ(meter.total_energy_j(), 4.8);
  EXPECT_DOUBLE_EQ(meter.active_fraction(), 0.2);
  EXPECT_DOUBLE_EQ(meter.average_power_w(), 0.48);
}

TEST(RadioTracker, TransitionsChargeElapsedState) {
  RadioTracker t(EnergyModel{2.0, 1.0, 0.5, 0.1}, Time::zero(),
                 RadioState::kIdle);
  t.set_state(Time::sec(3), RadioState::kTx);
  t.set_state(Time::sec(4), RadioState::kSleep);
  t.settle(Time::sec(10));
  EXPECT_EQ(t.meter().time_in(RadioState::kIdle), Time::sec(3));
  EXPECT_EQ(t.meter().time_in(RadioState::kTx), Time::sec(1));
  EXPECT_EQ(t.meter().time_in(RadioState::kSleep), Time::sec(6));
}

TEST(RadioTracker, ResetClearsMeter) {
  RadioTracker t(EnergyModel::typical_sensor(), Time::zero(),
                 RadioState::kIdle);
  t.reset(Time::sec(5));
  EXPECT_EQ(t.meter().total_time(), Time::zero());
}

// ---------- Channel ----------

class ChannelTest : public ::testing::Test {
 protected:
  // Three sensors in a line plus a far node; head at origin.
  //   n0 at (30,0), n1 at (60,0), n2 at (90,0), head (id 3) at (0,0).
  ChannelTest() {
    positions_ = {{30, 0}, {60, 0}, {90, 0}, {0, 0}};
    powers_ = {RadioParams::kSensorTxPowerW, RadioParams::kSensorTxPowerW,
               RadioParams::kSensorTxPowerW, RadioParams::kHeadTxPowerW};
    channel_ =
        std::make_unique<Channel>(sim_, prop_, RadioParams{}, positions_,
                                  powers_);
  }

  Simulator sim_;
  TwoRayGround prop_;
  std::vector<Vec2> positions_;
  std::vector<double> powers_;
  std::unique_ptr<Channel> channel_;
};

TEST_F(ChannelTest, AirtimeMatchesBandwidth) {
  // 80 bytes at 200 kbps = 3.2 ms.
  EXPECT_EQ(channel_->airtime(80), Time::us(3200));
}

TEST_F(ChannelTest, SensorRangeIsBounded) {
  // Sensor Friis range at these powers is ≈61 m.
  EXPECT_TRUE(channel_->link_ok(0, 1));  // 30 m
  EXPECT_TRUE(channel_->link_ok(0, 2));  // 60 m: just inside
  EXPECT_TRUE(channel_->link_ok(1, 0));  // symmetric powers → symmetric
  // A 70 m sensor link is out of range.
  Simulator sim;
  TwoRayGround prop;
  Channel far(sim, prop, RadioParams{}, {{0, 0}, {70, 0}},
              {RadioParams::kSensorTxPowerW, RadioParams::kSensorTxPowerW});
  EXPECT_FALSE(far.link_ok(0, 1));
}

TEST_F(ChannelTest, HeadReachesEveryone) {
  for (NodeId s = 0; s < 3; ++s) EXPECT_TRUE(channel_->link_ok(3, s));
}

TEST_F(ChannelTest, ConcurrentOutcomeHalfDuplex) {
  // n1 sends to n0 while n0 sends to head: n0 cannot receive.
  const auto out = channel_->concurrent_outcome(
      {{1, 0}, {0, 3}});
  EXPECT_FALSE(out[0]);
}

TEST_F(ChannelTest, ConcurrentInterferenceBreaksWeakLink) {
  // Alone, n2→n1 works (30 m).  With n0 also transmitting (30 m from n1),
  // the SINR at n1 collapses.
  const auto alone = channel_->concurrent_outcome({{2, 1}});
  EXPECT_TRUE(alone[0]);
  const auto jammed = channel_->concurrent_outcome({{2, 1}, {0, 3}});
  EXPECT_FALSE(jammed[0]);
}

TEST_F(ChannelTest, DuplicateSenderRejected) {
  EXPECT_THROW(channel_->concurrent_outcome({{0, 1}, {0, 3}}),
               ContractViolation);
}

TEST(ChannelAccumulation, PairwiseCompatibleTripleCanFail) {
  // The paper's Fig 3: three transmissions, pairwise fine, jointly broken.
  // Three tight sender→receiver pairs placed far apart but with the middle
  // receiver seeing *accumulated* interference from both other senders.
  Simulator sim;
  TwoRayGround prop;
  RadioParams params;
  // Three 55 m sender→receiver pairs at 30× sensor power.  Each outside
  // sender is exactly 140 m from the middle receiver r1: a single
  // interferer leaves SINR ≈ 17 (fine); the two together halve it to
  // ≈ 8.5, below the 10× threshold.
  std::vector<Vec2> pos = {
      {195, 0}, {250, 0},   // s0 → r0
      {0, 0},   {55, 0},    // s1 → r1 (the victim)
      {55, 140}, {55, 195}, // s2 → r2
  };
  std::vector<double> pw(6, 30.0 * RadioParams::kSensorTxPowerW);
  Channel ch(sim, prop, params, pos, pw);

  std::vector<Channel::TxRx> pairs = {{0, 1}, {2, 3}, {4, 5}};
  // All three pairwise combinations fine:
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = i + 1; j < 3; ++j) {
      const auto out = ch.concurrent_outcome({pairs[i], pairs[j]});
      ASSERT_TRUE(out[0] && out[1])
          << "pair (" << i << "," << j << ") should be compatible";
    }
  // The triple fails at r1 (index 1 of the group): interference
  // accumulates even though every pair was compatible.
  const auto all = ch.concurrent_outcome(pairs);
  EXPECT_FALSE(all[1]);
}

TEST_F(ChannelTest, TransmitDeliversToListeners) {
  struct Sink : ChannelListener {
    int begins = 0;
    int ends = 0;
    bool ok = false;
    void on_frame_begin(const Frame&, NodeId, double, Time) override {
      ++begins;
    }
    void on_frame_end(const Frame&, NodeId, bool phy_ok) override {
      ++ends;
      ok = phy_ok;
    }
  };
  Sink sink;
  channel_->set_listener(0, &sink);
  Frame f;
  f.uid = 1;
  f.kind = FrameKind::kData;
  f.src = 1;
  f.dst = 0;
  f.size_bytes = 80;
  channel_->transmit(1, f);
  sim_.run();
  EXPECT_EQ(sink.begins, 1);
  EXPECT_EQ(sink.ends, 1);
  EXPECT_TRUE(sink.ok);
  EXPECT_EQ(channel_->frames_transmitted(), 1u);
}

TEST_F(ChannelTest, OverlappingTransmissionsCorrupt) {
  struct Sink : ChannelListener {
    int good = 0, bad = 0;
    void on_frame_end(const Frame&, NodeId, bool ok) override {
      (ok ? good : bad)++;
    }
  };
  Sink at1;
  channel_->set_listener(1, &at1);
  // n0 and n2 both 30 m from n1 transmit simultaneously to n1.
  Frame a, b;
  a.uid = 1, a.src = 0, a.dst = 1, a.size_bytes = 80;
  b.uid = 2, b.src = 2, b.dst = 1, b.size_bytes = 80;
  channel_->transmit(0, a);
  channel_->transmit(2, b);
  sim_.run();
  EXPECT_EQ(at1.good, 0);
  EXPECT_EQ(at1.bad, 2);
}

TEST_F(ChannelTest, CarrierSenseSeesActiveTransmission) {
  EXPECT_FALSE(channel_->carrier_sensed(1));
  Frame f;
  f.uid = 1, f.src = 0, f.dst = 3, f.size_bytes = 80;
  channel_->transmit(0, f);
  // While in flight the field at n1 (30 m away) exceeds the CS threshold.
  EXPECT_TRUE(channel_->carrier_sensed(1));
  sim_.run();
  EXPECT_FALSE(channel_->carrier_sensed(1));
}

TEST_F(ChannelTest, DoubleTransmitFromSameNodeThrows) {
  Frame f;
  f.uid = 1, f.src = 0, f.dst = 3, f.size_bytes = 80;
  channel_->transmit(0, f);
  Frame g = f;
  g.uid = 2;
  EXPECT_THROW(channel_->transmit(0, g), ContractViolation);
  sim_.run();
}

// ---------- Channel fan-out vs the dense reference ----------

// The channel's event path as it was before per-sender audible lists:
// every frame copies its sender's power row, notifies by scanning all n
// nodes, and refreshes the interference snapshot of every active frame at
// every node.  Kept only to pin Channel's fan-out bit for bit.
class DenseChannel {
 public:
  DenseChannel(Simulator& sim, const Propagation& prop, RadioParams params,
               std::vector<Vec2> positions, std::vector<double> tx_power_w)
      : sim_(sim), params_(params), n_(positions.size()) {
    listeners_.assign(n_, nullptr);
    field_.assign(n_, 0.0);
    rx_matrix_.assign(n_ * n_, 0.0);
    for (std::size_t a = 0; a < n_; ++a)
      for (std::size_t b = 0; b < n_; ++b)
        if (a != b)
          rx_matrix_[a * n_ + b] =
              prop.rx_power_w(tx_power_w[a], positions[a], positions[b]);
  }

  void set_listener(NodeId node, ChannelListener* l) { listeners_[node] = l; }
  double sensed_power_w(NodeId at) const { return params_.noise_w + field_[at]; }
  bool carrier_sensed(NodeId at) const {
    return field_[at] >= params_.cs_threshold_w;
  }

  void transmit(NodeId from, Frame frame) {
    for (const auto& tx : active_)
      MHP_REQUIRE(tx.from != from, "node already transmitting (half-duplex)");
    const Time end =
        sim_.now() + Time::seconds(static_cast<double>(frame.size_bytes) *
                                   8.0 / params_.bandwidth_bps);
    ActiveTx tx;
    tx.frame = frame;
    tx.from = from;
    tx.power_at.resize(n_);
    tx.max_other.assign(n_, 0.0);
    for (std::size_t r = 0; r < n_; ++r) {
      tx.power_at[r] = r == from ? 0.0 : rx_matrix_[from * n_ + r];
      field_[r] += tx.power_at[r];
    }
    for (std::size_t r = 0; r < n_; ++r) {
      if (r == from || listeners_[r] == nullptr) continue;
      if (tx.power_at[r] >= params_.sensitivity_w)
        listeners_[r]->on_frame_begin(frame, from, tx.power_at[r], end);
    }
    const std::uint64_t uid = frame.uid;
    active_.push_back(std::move(tx));
    refresh_max_other();
    sim_.at(end, [this, uid] { finish(uid); });
  }

 private:
  struct ActiveTx {
    Frame frame;
    NodeId from;
    std::vector<double> power_at;
    std::vector<double> max_other;
  };

  void refresh_max_other() {
    for (auto& tx : active_)
      for (std::size_t r = 0; r < n_; ++r)
        tx.max_other[r] = std::max(tx.max_other[r], field_[r] - tx.power_at[r]);
  }

  void finish(std::uint64_t uid) {
    auto it = std::find_if(active_.begin(), active_.end(),
                           [&](const ActiveTx& t) { return t.frame.uid == uid; });
    MHP_REQUIRE(it != active_.end(), "finishing unknown transmission");
    ActiveTx tx = std::move(*it);
    active_.erase(it);
    for (std::size_t r = 0; r < n_; ++r) field_[r] -= tx.power_at[r];
    for (auto& f : field_)
      if (f < 0.0) f = 0.0;
    for (std::size_t r = 0; r < n_; ++r) {
      if (r == tx.from || listeners_[r] == nullptr) continue;
      if (tx.power_at[r] < params_.sensitivity_w) continue;
      const double sinr = tx.power_at[r] / (params_.noise_w + tx.max_other[r]);
      listeners_[r]->on_frame_end(tx.frame, tx.from,
                                  sinr >= params_.sinr_threshold);
    }
  }

  Simulator& sim_;
  RadioParams params_;
  std::size_t n_;
  std::vector<double> rx_matrix_;
  std::vector<ChannelListener*> listeners_;
  std::vector<ActiveTx> active_;
  std::vector<double> field_;
};

std::uint64_t bits_of(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// One callback as a listener saw it; rx power is kept as its bit pattern.
struct Callback {
  bool begin;
  NodeId receiver;
  NodeId sender;
  std::uint64_t uid;
  std::uint64_t rx_bits;  // begin only
  Time when;              // frame end (begin) or the time it fired (end)
  bool phy_ok;            // end only
  bool operator==(const Callback&) const = default;
};

// A field of recording listeners over channel type `Ch`.  Some listeners
// act from inside callbacks, as MAC agents do: they transmit from
// on_frame_begin or on_frame_end (re-entrant transmit) and detach or
// re-attach a neighbour's listener (set_listener mid-run).
template <class Ch>
class FanoutHarness {
 public:
  static constexpr int kReentrantBudget = 150;

  FanoutHarness(const Propagation& prop, RadioParams params,
                const std::vector<Vec2>& pos, const std::vector<double>& pw)
      : channel_(sim_, prop, params, pos, pw),
        bandwidth_bps_(params.bandwidth_bps), attached_(pos.size(), true),
        busy_until_(pos.size(), Time::ns(-1)) {
    for (NodeId i = 0; i < pos.size(); ++i)
      nodes_.push_back(std::make_unique<Node>(*this, i));
    for (NodeId i = 0; i < pos.size(); ++i)
      channel_.set_listener(i, nodes_[i].get());
  }

  Simulator& sim() { return sim_; }
  Ch& channel() { return channel_; }
  const std::vector<Callback>& log() const { return log_; }
  int reentrant_sends() const { return kReentrantBudget - budget_; }
  int toggles() const { return toggles_; }

  /// Transmit unless `from` may still be on the air; returns whether sent.
  bool send(NodeId from, NodeId dst, std::uint32_t bytes) {
    if (sim_.now() <= busy_until_[from]) return false;
    Frame f;
    f.uid = ++last_uid_;
    f.src = from;
    f.dst = dst;
    f.size_bytes = bytes;
    busy_until_[from] =
        sim_.now() +
        Time::seconds(static_cast<double>(bytes) * 8.0 / bandwidth_bps_);
    channel_.transmit(from, std::move(f));
    return true;
  }

 private:
  struct Node : ChannelListener {
    Node(FanoutHarness& h, NodeId self) : h(h), self(self) {}
    void on_frame_begin(const Frame& f, NodeId from, double rx,
                        Time end) override {
      h.log_.push_back({true, self, from, f.uid, bits_of(rx), end, false});
      // Jam back from inside the begin notification.
      if (self % 11 == 5 && h.budget_ > 0 && h.send(self, from, 24))
        --h.budget_;
    }
    void on_frame_end(const Frame& f, NodeId from, bool ok) override {
      h.log_.push_back({false, self, from, f.uid, 0, h.sim_.now(), ok});
      // Answer frames addressed here, from inside the end notification.
      if (ok && f.dst == self && h.budget_ > 0 && h.send(self, from, 40))
        --h.budget_;
      // Detach / re-attach the next node's listener.
      if (self % 5 == 2) {
        const NodeId next = (self + 1) % h.nodes_.size();
        h.attached_[next] = !h.attached_[next];
        h.channel_.set_listener(
            next, h.attached_[next] ? h.nodes_[next].get() : nullptr);
        ++h.toggles_;
      }
    }
    FanoutHarness& h;
    NodeId self;
  };

  Simulator sim_;
  Ch channel_;
  double bandwidth_bps_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<bool> attached_;
  std::vector<Time> busy_until_;
  std::vector<Callback> log_;
  std::uint64_t last_uid_ = 0;
  int budget_ = kReentrantBudget;
  int toggles_ = 0;
};

TEST(ChannelFanout, MatchesDenseReference) {
  const TwoRayGround two_ray;
  const FreeSpace free_space;
  const LogDistanceShadowing shadowed(3.0, 6.0, 1.0, 914e6, 7);
  const Propagation* const models[] = {&two_ray, &free_space, &shadowed};
  Rng rng(20261018);
  std::size_t sinr_failures = 0, reentrant_sends = 0, toggles = 0;
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Propagation& prop = *models[trial % 3];
    const auto n = static_cast<std::size_t>(rng.range(20, 80));
    std::vector<Vec2> pos;
    std::vector<double> pw;
    for (std::size_t i = 0; i < n; ++i) {
      pos.push_back({rng.uniform(0.0, 250.0), rng.uniform(0.0, 250.0)});
      pw.push_back(rng.bernoulli(0.1)
                       ? RadioParams::kHeadTxPowerW
                       : RadioParams::kSensorTxPowerW * rng.uniform(0.5, 4.0));
    }

    // Put the sensitivity exactly on one link's received power, so one
    // receiver sits on the audible threshold.
    RadioParams params;
    NodeId edge_from = 0, edge_to = 1;
    {
      Simulator probe_sim;
      const Channel probe(probe_sim, prop, params, pos, pw);
      std::vector<std::pair<NodeId, NodeId>> near_threshold;
      for (NodeId a = 0; a < n; ++a)
        for (NodeId b = 0; b < n; ++b) {
          const double p = probe.rx_power_w(a, b);
          if (a != b && p > 0.25 * params.sensitivity_w &&
              p < 4.0 * params.sensitivity_w)
            near_threshold.push_back({a, b});
        }
      ASSERT_FALSE(near_threshold.empty());
      std::tie(edge_from, edge_to) =
          near_threshold[rng.below(near_threshold.size())];
      params.sensitivity_w = probe.rx_power_w(edge_from, edge_to);
    }

    FanoutHarness<Channel> fan(prop, params, pos, pw);
    FanoutHarness<DenseChannel> dense(prop, params, pos, pw);
    struct Scripted {
      Time at;
      NodeId from;
      NodeId dst;
      std::uint32_t bytes;
    };
    // The threshold link first, then four overlapping frames per node
    // within 60 ms (each lasts 0.8–4.8 ms).
    std::vector<Scripted> script = {{Time::zero(), edge_from, edge_to, 60}};
    for (std::size_t k = 0; k < 4 * n; ++k)
      script.push_back(
          {Time::us(rng.range(0, 60'000)), static_cast<NodeId>(rng.below(n)),
           rng.bernoulli(0.3) ? kBroadcast : static_cast<NodeId>(rng.below(n)),
           static_cast<std::uint32_t>(rng.range(20, 120))});
    for (const Scripted& t : script) {
      fan.sim().at(t.at, [&fan, t] { fan.send(t.from, t.dst, t.bytes); });
      dense.sim().at(t.at, [&dense, t] { dense.send(t.from, t.dst, t.bytes); });
    }

    // Step both in lockstep: identical callbacks and a bit-identical
    // interference field at every node after every event.
    std::size_t checked = 0;
    for (;;) {
      const bool stepped = fan.sim().step();
      ASSERT_EQ(stepped, dense.sim().step());
      if (!stepped) break;
      ASSERT_EQ(fan.sim().now(), dense.sim().now());
      ASSERT_EQ(fan.log().size(), dense.log().size());
      for (; checked < fan.log().size(); ++checked)
        ASSERT_TRUE(fan.log()[checked] == dense.log()[checked])
            << "callback " << checked << " at node "
            << fan.log()[checked].receiver << " from "
            << fan.log()[checked].sender;
      for (NodeId r = 0; r < n; ++r) {
        ASSERT_EQ(bits_of(fan.channel().sensed_power_w(r)),
                  bits_of(dense.channel().sensed_power_w(r)))
            << "node " << r;
        ASSERT_EQ(fan.channel().carrier_sensed(r),
                  dense.channel().carrier_sensed(r))
            << "node " << r;
      }
    }

    // The threshold receiver heard the threshold link (power == sensitivity).
    EXPECT_TRUE(std::any_of(fan.log().begin(), fan.log().end(),
                            [&](const Callback& c) {
                              return c.begin && c.receiver == edge_to &&
                                     c.sender == edge_from &&
                                     c.rx_bits == bits_of(params.sensitivity_w);
                            }));
    for (const Callback& c : fan.log())
      if (!c.begin && !c.phy_ok) ++sinr_failures;
    reentrant_sends += static_cast<std::size_t>(fan.reentrant_sends());
    toggles += static_cast<std::size_t>(fan.toggles());
  }
  // The fields exercised collisions, re-entrant transmits and listener
  // changes, not just clean receptions.
  EXPECT_GT(sinr_failures, 100u);
  EXPECT_GT(reentrant_sends, 100u);
  EXPECT_GT(toggles, 100u);
}
}  // namespace
}  // namespace mhp
