// The on-line greedy polling scheduler (Table 1 of the paper).
//
// The head plans one slot at a time: scan the active requests in a fixed
// order and admit each one whose transmissions (consecutive slots, one per
// hop) stay compatible with everything already committed, stopping at M
// concurrent transmissions per slot.  After each slot the head knows which
// packets were due (start slot + hop count); a missing packet re-activates
// its request — this on-line loop is what absorbs wireless loss.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/interference.hpp"
#include "core/schedule.hpp"
#include "util/rng.hpp"

namespace mhp {

class GreedyPollingScheduler {
 public:
  explicit GreedyPollingScheduler(const CompatibilityOracle& oracle)
      : oracle_(oracle),
        slot_reserve_(std::min(static_cast<std::size_t>(oracle.order()),
                               kMaxSlotReserve)) {}

  /// Register a packet to collect; requests are scanned in insertion
  /// order (the paper's "arbitrary predetermined order").
  RequestId add_request(std::vector<NodeId> path);

  bool finished() const { return pending_active_ == 0 && in_flight_ == 0; }
  std::size_t current_slot() const { return slot_; }

  /// Plan the current slot: admit active requests, return every
  /// transmission running in it (newly started and relays).  The
  /// reference stays valid until complete_slot().
  const std::vector<ScheduledTx>& plan_slot();

  /// Requests whose packet is due at the head at the end of the current
  /// slot (last hop runs now), ascending id.  The reference stays valid
  /// until complete_slot().
  const std::vector<RequestId>& due_now() const;

  /// Report the outcome of the current slot and advance to the next one:
  /// due requests present in `delivered` complete, the rest re-activate.
  void complete_slot(std::span<const RequestId> delivered);

  /// Give up on an *active* (not in-flight) request — e.g. after too many
  /// re-polls.  No-op if it already completed.
  void abandon(RequestId id);

  /// Hold an *active* request out of planning for the next `slots` slots
  /// (fault-recovery backoff after an unanswered poll).  No-op on
  /// in-flight or completed requests.
  void defer(RequestId id, std::size_t slots);

  /// Any active request currently held back by defer()?  When true,
  /// plan_slot() may legitimately return an empty slot while !finished().
  bool has_deferred() const;

  /// Path of a request (for the head's per-node failure accounting).
  const std::vector<NodeId>& request_path(RequestId id) const;

  /// Slots holding at least one transmission so far (committed history).
  const Schedule& history() const { return history_; }

  /// Move the committed history out, leaving history() empty — for a
  /// driver that is done with the scheduler (run_offline).
  Schedule take_history() { return std::exchange(history_, {}); }

  std::size_t total_attempted_transmissions() const { return attempts_; }

  /// How many times requests were re-activated after a loss.
  std::size_t reactivations() const { return reactivations_; }

 private:
  struct Request {
    PollingRequest req;
    bool active = true;      // waiting to be admitted
    bool in_flight = false;  // admitted, not yet resolved
    std::size_t start_slot = 0;
    std::size_t eligible_slot = 0;  // earliest slot defer() allows
  };

  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Cap on a slot's up-front reservation: the schema accepts any
  /// oracle order >= 1, and a large one must not reserve memory that no
  /// slot fills.
  static constexpr std::size_t kMaxSlotReserve = 16;

  /// Transmissions already committed to `slot` (relays of in-flight
  /// requests and requests admitted earlier in this planning pass), for
  /// appending: the first append finds room for slot_reserve_ of them.
  std::vector<ScheduledTx>& occupancy(std::size_t slot);

  /// Requests whose last hop runs in slot `slot_ + k` (ascending id).
  std::vector<RequestId>& due_list(std::size_t k);

  bool admissible(const PollingRequest& r) const;

  // Intrusive doubly-linked list over requests with active == true, kept
  // in ascending id order (the paper's fixed scan order).  plan_slot()
  // walks only this list instead of every request ever registered.
  void active_push_back(std::uint32_t id);
  void active_unlink(std::uint32_t id);
  void active_insert_sorted(std::uint32_t id);

  const CompatibilityOracle& oracle_;
  std::size_t slot_reserve_;  // min(order(), kMaxSlotReserve)
  /// Group buffer admissible() refills per hop instead of allocating.
  mutable std::vector<Tx> scratch_;
  std::vector<Request> requests_;
  std::vector<std::uint32_t> active_next_, active_prev_;
  std::uint32_t active_head_ = kNil;
  std::uint32_t active_tail_ = kNil;
  std::deque<std::vector<ScheduledTx>> future_;  // future_[k] = slot_+k
  std::deque<std::vector<RequestId>> due_;       // due_[k]: last hop at slot_+k
  std::vector<RequestId> no_due_;                // (always empty)
  Schedule history_;
  std::size_t slot_ = 0;
  std::size_t pending_active_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t attempts_ = 0;
  std::size_t reactivations_ = 0;
  bool planned_ = false;
};

/// Per-hop loss model for offline runs: returns true when the hop's
/// transmission succeeds.  The default delivers everything.
using HopLossModel = std::function<bool(const ScheduledTx&, std::size_t slot)>;

struct OfflineRunResult {
  Schedule schedule;        // what actually ran, slot by slot
  std::size_t slots = 0;    // schedule length (including loss recovery)
  bool all_delivered = false;
  std::size_t transmissions = 0;
  std::size_t reactivations = 0;
};

/// Drive the scheduler to completion without a simulator: every planned
/// hop succeeds unless `loss` says otherwise; a request whose any hop
/// failed does not arrive and is re-polled.  `max_slots` guards against
/// pathological loss models.
OfflineRunResult run_offline(const CompatibilityOracle& oracle,
                             std::span<const std::vector<NodeId>> paths,
                             const HopLossModel& loss = {},
                             std::size_t max_slots = 1'000'000);

/// Bernoulli per-hop loss model with probability `loss_rate`.
HopLossModel bernoulli_loss(double loss_rate, Rng& rng);

/// The paper scans requests in an "arbitrary predetermined order"; the
/// order matters.  Run the greedy scheduler under `restarts` random
/// permutations (plus the given order) and keep the shortest schedule.
/// Offline-only: an on-line head cannot reshuffle mid-cycle, but it can
/// precompute a good order for the *expected* workload.
OfflineRunResult best_of_orders(const CompatibilityOracle& oracle,
                                std::span<const std::vector<NodeId>> paths,
                                std::size_t restarts, Rng& rng);

}  // namespace mhp
