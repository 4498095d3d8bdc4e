#include "core/greedy_scheduler.hpp"

#include <algorithm>

#include "obs/profiler.hpp"
#include "util/assertx.hpp"

namespace mhp {

RequestId GreedyPollingScheduler::add_request(std::vector<NodeId> path) {
  MHP_REQUIRE(path.size() >= 2, "request path needs at least one hop");
  const auto id = static_cast<RequestId>(requests_.size());
  Request r;
  r.req.id = id;
  r.req.path = std::move(path);
  requests_.push_back(std::move(r));
  active_next_.push_back(kNil);
  active_prev_.push_back(kNil);
  active_push_back(id);
  ++pending_active_;
  return id;
}

void GreedyPollingScheduler::active_push_back(std::uint32_t id) {
  active_prev_[id] = active_tail_;
  active_next_[id] = kNil;
  if (active_tail_ != kNil)
    active_next_[active_tail_] = id;
  else
    active_head_ = id;
  active_tail_ = id;
}

void GreedyPollingScheduler::active_unlink(std::uint32_t id) {
  const std::uint32_t prev = active_prev_[id];
  const std::uint32_t next = active_next_[id];
  if (prev != kNil)
    active_next_[prev] = next;
  else
    active_head_ = next;
  if (next != kNil)
    active_prev_[next] = prev;
  else
    active_tail_ = prev;
  active_prev_[id] = active_next_[id] = kNil;
}

void GreedyPollingScheduler::active_insert_sorted(std::uint32_t id) {
  // Re-activations (loss recovery) are rare; a forward walk to the first
  // larger id keeps the list in the paper's fixed scan order.
  std::uint32_t at = active_head_;
  while (at != kNil && at < id) at = active_next_[at];
  if (at == kNil) {
    active_push_back(id);
    return;
  }
  const std::uint32_t prev = active_prev_[at];
  active_prev_[id] = prev;
  active_next_[id] = at;
  active_prev_[at] = id;
  if (prev != kNil)
    active_next_[prev] = id;
  else
    active_head_ = id;
}

std::vector<ScheduledTx>& GreedyPollingScheduler::occupancy(std::size_t slot) {
  MHP_REQUIRE(slot >= slot_, "occupancy of a past slot");
  const std::size_t k = slot - slot_;
  while (future_.size() <= k) future_.emplace_back();
  // Callers append to the slot.  A slot never holds more than order()
  // transmissions (plan_slot stops there and admissible() rejects a hop
  // that would overfill a later slot), so reserving that much at the
  // first append is the slot's only allocation; slots that stay empty
  // allocate nothing.
  std::vector<ScheduledTx>& txs = future_[k];
  if (txs.capacity() == 0) txs.reserve(slot_reserve_);
  return txs;
}

std::vector<RequestId>& GreedyPollingScheduler::due_list(std::size_t k) {
  while (due_.size() <= k) due_.emplace_back();
  return due_[k];
}

bool GreedyPollingScheduler::admissible(const PollingRequest& r) const {
  const auto order = static_cast<std::size_t>(oracle_.order());
  // scratch_ is reused across hops and calls: this runs for every pending
  // request every slot, so a per-hop vector allocation dominates at scale.
  std::vector<Tx>& group = scratch_;
  for (std::size_t j = 0; j < r.hop_count(); ++j) {
    const std::size_t k = j;  // hop j runs in slot slot_ + j
    group.clear();
    if (k < future_.size()) {
      for (const auto& s : future_[k]) {
        // The oracle answers for *sets* of transmissions, so a hop that
        // is already committed to this slot would vanish under its
        // dedup — but one radio sends one frame per slot, so two
        // requests can never share a hop in the same slot.
        if (s.tx == r.hop(j)) return false;
        group.push_back(s.tx);
      }
    }
    if (group.size() + 1 > order) return false;
    group.push_back(r.hop(j));
    if (!oracle_.compatible(group)) return false;
  }
  return true;
}

const std::vector<ScheduledTx>& GreedyPollingScheduler::plan_slot() {
  MHP_REQUIRE(!planned_, "plan_slot called twice without complete_slot");
  planned_ = true;
  const auto order = static_cast<std::size_t>(oracle_.order());
  if (future_.empty()) future_.emplace_back();
  for (std::uint32_t id = active_head_; id != kNil;) {
    const std::uint32_t next = active_next_[id];  // survives the unlink
    if (future_[0].size() >= order) break;
    Request& r = requests_[id];
    if (slot_ >= r.eligible_slot && admissible(r.req)) {
      r.active = false;
      r.in_flight = true;
      r.start_slot = slot_;
      --pending_active_;
      ++in_flight_;
      active_unlink(id);
      for (std::size_t j = 0; j < r.req.hop_count(); ++j)
        occupancy(slot_ + j).push_back(ScheduledTx{r.req.hop(j), r.req.id, j});
      auto& due = due_list(r.req.hop_count() - 1);
      due.insert(std::upper_bound(due.begin(), due.end(), id), id);
    }
    id = next;
  }
  attempts_ += future_[0].size();
  return future_[0];
}

const std::vector<RequestId>& GreedyPollingScheduler::due_now() const {
  return due_.empty() ? no_due_ : due_[0];
}

void GreedyPollingScheduler::complete_slot(
    std::span<const RequestId> delivered) {
  MHP_REQUIRE(planned_, "complete_slot without plan_slot");
  planned_ = false;

  // Commit this slot to history.
  if (!future_.empty()) {
    history_.slots.push_back(std::move(future_.front()));
    future_.pop_front();
  } else {
    history_.slots.emplace_back();
  }

  // Only requests whose last hop ran in this slot resolve now; due_[0]
  // holds exactly those.  `delivered` may alias due_[0] (the caller often
  // passes due_now()'s buffer), so it is only read before the pop.
  if (!due_.empty()) {
    for (RequestId id : due_[0]) {
      Request& r = requests_[id];
      r.in_flight = false;
      --in_flight_;
      if (std::find(delivered.begin(), delivered.end(), id) ==
          delivered.end()) {
        r.active = true;
        ++pending_active_;
        ++reactivations_;
        active_insert_sorted(id);
      }
    }
    due_.pop_front();
  }
  ++slot_;
}

void GreedyPollingScheduler::abandon(RequestId id) {
  MHP_REQUIRE(id < requests_.size(), "unknown request");
  Request& r = requests_[id];
  MHP_REQUIRE(!r.in_flight, "cannot abandon an in-flight request");
  if (!r.active) return;  // already done
  r.active = false;
  --pending_active_;
  active_unlink(id);
}

void GreedyPollingScheduler::defer(RequestId id, std::size_t slots) {
  MHP_REQUIRE(id < requests_.size(), "unknown request");
  Request& r = requests_[id];
  if (!r.active || r.in_flight) return;
  r.eligible_slot = slot_ + slots;
}

bool GreedyPollingScheduler::has_deferred() const {
  for (std::uint32_t id = active_head_; id != kNil; id = active_next_[id])
    if (slot_ < requests_[id].eligible_slot) return true;
  return false;
}

const std::vector<NodeId>& GreedyPollingScheduler::request_path(
    RequestId id) const {
  MHP_REQUIRE(id < requests_.size(), "unknown request");
  return requests_[id].req.path;
}

OfflineRunResult run_offline(const CompatibilityOracle& oracle,
                             std::span<const std::vector<NodeId>> paths,
                             const HopLossModel& loss,
                             std::size_t max_slots) {
  MHP_SPAN("sched/run_offline");
  GreedyPollingScheduler sched(oracle);
  for (const auto& p : paths) sched.add_request(p);

  OfflineRunResult result;
  // A request's packet arrives iff no hop transmission was lost.
  std::vector<bool> hop_failed(paths.size(), false);
  std::vector<RequestId> delivered;  // reused across slots
  while (!sched.finished()) {
    if (sched.current_slot() >= max_slots) {
      result.slots = sched.current_slot();
      result.schedule = sched.take_history();
      result.transmissions = sched.total_attempted_transmissions();
      result.reactivations = sched.reactivations();
      return result;  // all_delivered stays false
    }
    const auto& txs = sched.plan_slot();
    for (const auto& s : txs) {
      if (s.hop == 0) hop_failed[s.request] = false;  // fresh attempt
      if (loss && !loss(s, sched.current_slot()))
        hop_failed[s.request] = true;
    }
    delivered.clear();
    for (RequestId id : sched.due_now())
      if (!hop_failed[id]) delivered.push_back(id);
    sched.complete_slot(delivered);
  }
  result.schedule = sched.take_history();
  result.slots = sched.current_slot();
  result.all_delivered = true;
  result.transmissions = sched.total_attempted_transmissions();
  result.reactivations = sched.reactivations();
  MHP_SPAN_COUNTER("slots", result.slots);
  MHP_SPAN_COUNTER("transmissions", result.transmissions);
  return result;
}

OfflineRunResult best_of_orders(const CompatibilityOracle& oracle,
                                std::span<const std::vector<NodeId>> paths,
                                std::size_t restarts, Rng& rng) {
  MHP_SPAN("sched/best_of_orders");
  OfflineRunResult best = run_offline(oracle, paths);
  std::vector<std::vector<NodeId>> order(paths.begin(), paths.end());
  for (std::size_t r = 0; r < restarts; ++r) {
    rng.shuffle(order);
    OfflineRunResult candidate = run_offline(oracle, order);
    if (candidate.all_delivered &&
        (!best.all_delivered || candidate.slots < best.slots))
      best = std::move(candidate);
  }
  return best;
}

HopLossModel bernoulli_loss(double loss_rate, Rng& rng) {
  MHP_REQUIRE(loss_rate >= 0.0 && loss_rate < 1.0,
              "loss rate must be in [0,1)");
  return [loss_rate, &rng](const ScheduledTx&, std::size_t) {
    return !rng.bernoulli(loss_rate);
  };
}

}  // namespace mhp
