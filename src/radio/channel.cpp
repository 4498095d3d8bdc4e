#include "radio/channel.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/assertx.hpp"

namespace mhp {

Channel::Channel(Simulator& sim, const Propagation& prop, RadioParams params,
                 std::vector<Vec2> positions, std::vector<double> tx_power_w)
    : sim_(sim),
      params_(params),
      positions_(std::move(positions)),
      tx_power_(std::move(tx_power_w)) {
  MHP_REQUIRE(positions_.size() == tx_power_.size(),
              "positions/tx power size mismatch");
  MHP_REQUIRE(!positions_.empty(), "channel needs at least one node");
  MHP_REQUIRE(params_.bandwidth_bps > 0.0, "bandwidth must be positive");
  const std::size_t n = positions_.size();
  listeners_.assign(n, nullptr);
  field_.assign(n, 0.0);
  rx_matrix_.assign(n * n, 0.0);
  audible_begin_.reserve(n + 1);
  audible_begin_.push_back(0);
  for (std::size_t a = 0; a < n; ++a) {
    // Write every receiver and keep it only if audible, without a branch:
    // audibility is unpredictable along a row.
    std::size_t kept = audible_.size();
    audible_.resize(kept + n);
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      const double p =
          prop.rx_power_w(tx_power_[a], positions_[a], positions_[b]);
      rx_matrix_[a * n + b] = p;
      audible_[kept] = static_cast<NodeId>(b);
      kept += p >= params_.sensitivity_w ? 1 : 0;
    }
    audible_.resize(kept);
    audible_begin_.push_back(kept);
  }
}

void Channel::set_listener(NodeId node, ChannelListener* listener) {
  MHP_REQUIRE(node < num_nodes(), "node out of range");
  listeners_[node] = listener;
}

Time Channel::airtime(std::uint32_t bytes) const {
  const double seconds = static_cast<double>(bytes) * 8.0 /
                         params_.bandwidth_bps;
  return Time::seconds(seconds);
}

double Channel::rx_power_w(NodeId from, NodeId to) const {
  MHP_REQUIRE(from < num_nodes() && to < num_nodes(), "node out of range");
  return rx_matrix_[from * num_nodes() + to];
}

bool Channel::link_ok(NodeId from, NodeId to) const {
  if (from == to) return false;
  const double p = rx_power_w(from, to);
  return p >= params_.sensitivity_w &&
         p / params_.noise_w >= params_.sinr_threshold;
}

double Channel::sensed_power_w(NodeId at) const {
  MHP_REQUIRE(at < num_nodes(), "node out of range");
  return params_.noise_w + field_[at];
}

bool Channel::carrier_sensed(NodeId at) const {
  MHP_REQUIRE(at < num_nodes(), "node out of range");
  return field_[at] >= params_.cs_threshold_w;
}

void Channel::refresh_max_other() {
  // After any change to the active set, update every active transmission's
  // worst-case interference snapshot at each of its audible receivers —
  // the only nodes whose snapshot finish() reads.
  for (auto& tx : active_) {
    const std::span<const NodeId> heard = audible(tx.from);
    for (std::size_t i = 0; i < heard.size(); ++i) {
      const NodeId r = heard[i];
      const double other = field_[r] - tx.power_at[r];
      tx.max_other[i] = std::max(tx.max_other[i], other);
    }
  }
}

void Channel::transmit(NodeId from, Frame frame) {
  MHP_REQUIRE(from < num_nodes(), "sender out of range");
  MHP_REQUIRE(frame.size_bytes > 0, "empty frame");
  for (const auto& tx : active_)
    MHP_REQUIRE(tx.from != from, "node already transmitting (half-duplex)");

  ++frames_tx_;
  const Time start = sim_.now();
  const Time end = start + airtime(frame.size_bytes);
  if (trace_ != nullptr && trace_->enabled(TraceCat::kChannel))
    trace_->record(start, TraceCat::kChannel, "tx " + frame.describe());

  // The interference field covers every node (carrier sense and SINR read
  // it anywhere); the sender's own entry in its row is 0.
  const std::size_t n = num_nodes();
  const double* power_at = rx_matrix_.data() + from * n;
  for (std::size_t r = 0; r < n; ++r) field_[r] += power_at[r];

  // Frame-begin notifications to nodes that can hear it.
  const std::span<const NodeId> heard = audible(from);
  for (const NodeId r : heard)
    if (listeners_[r] != nullptr)
      listeners_[r]->on_frame_begin(frame, from, power_at[r], end);

  ActiveTx tx;
  tx.frame = std::move(frame);
  tx.from = from;
  tx.start = start;
  tx.end = end;
  tx.power_at = power_at;
  tx.max_other.assign(heard.size(), 0.0);
  const std::uint64_t uid = tx.frame.uid;
  active_.push_back(std::move(tx));
  refresh_max_other();

  sim_.at(end, [this, uid] { finish(uid); });
}

void Channel::finish(std::uint64_t uid) {
  auto it = std::find_if(active_.begin(), active_.end(), [&](const ActiveTx& t) {
    return t.frame.uid == uid;
  });
  MHP_ENSURE(it != active_.end(), "finishing unknown transmission");
  ActiveTx tx = std::move(*it);
  active_.erase(it);
  for (std::size_t r = 0; r < num_nodes(); ++r) {
    field_[r] -= tx.power_at[r];
    // Keep the field non-negative under floating-point cancellation.
    if (field_[r] < 0.0) field_[r] = 0.0;
  }

  const std::span<const NodeId> heard = audible(tx.from);
  for (std::size_t i = 0; i < heard.size(); ++i) {
    const NodeId r = heard[i];
    if (listeners_[r] == nullptr) continue;
    const double sinr =
        tx.power_at[r] / (params_.noise_w + tx.max_other[i]);
    const bool phy_ok = sinr >= params_.sinr_threshold;
    if (!phy_ok && trace_ != nullptr &&
        trace_->enabled(TraceCat::kChannel) &&
        (tx.frame.dst == kBroadcast || tx.frame.dst == r))
      trace_->record(sim_.now(), TraceCat::kChannel,
                     "sinr fail at " + std::to_string(r) + ": " +
                         tx.frame.describe());
    listeners_[r]->on_frame_end(tx.frame, tx.from, phy_ok);
  }
}

std::vector<bool> Channel::concurrent_outcome(
    const std::vector<TxRx>& txs) const {
  for (std::size_t i = 0; i < txs.size(); ++i) {
    MHP_REQUIRE(txs[i].sender < num_nodes() && txs[i].receiver < num_nodes(),
                "node out of range");
    MHP_REQUIRE(txs[i].sender != txs[i].receiver, "self transmission");
    for (std::size_t j = i + 1; j < txs.size(); ++j)
      MHP_REQUIRE(txs[i].sender != txs[j].sender, "duplicate sender");
  }
  std::vector<bool> ok(txs.size(), false);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const NodeId s = txs[i].sender;
    const NodeId r = txs[i].receiver;
    // Half-duplex: a receiver that is also sending cannot decode.
    bool rx_is_sender = false;
    for (const auto& t : txs)
      if (t.sender == r) rx_is_sender = true;
    if (rx_is_sender) continue;
    const double signal = rx_power_w(s, r);
    if (signal < params_.sensitivity_w) continue;
    double interference = 0.0;
    for (std::size_t j = 0; j < txs.size(); ++j)
      if (j != i) interference += rx_power_w(txs[j].sender, r);
    ok[i] = signal / (params_.noise_w + interference) >=
            params_.sinr_threshold;
  }
  return ok;
}

}  // namespace mhp
