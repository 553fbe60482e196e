// Count-based batched simulation backend.
//
// For a protocol whose state space Q is finite and enumerable, a population
// configuration is fully described by the vector of state counts
// (m_q)_{q in Q} — the scheduler of Section 2 is anonymous, so agent
// identities carry no information. This backend keeps exactly that vector:
// O(|Q|) memory instead of the O(n) agent array, and every step simulates
// draws of the ordered (initiator, responder) *state pair* from the count
// distribution,
//   P[(a, b)] = m_a (m_b - [a = b]) / (n (n - 1)),
// which is precisely the pushforward of the uniform ordered-agent-pair
// scheduler. The simulated interaction-count process therefore has the same
// distribution as Simulation<P>'s, projected onto counts (validated in
// tests/batch_simulation_test.cpp and tests/engine_equivalence_test.cpp).
//
// The engine is assembled from the sampling kernels in
// core/batch_kernels.h and advances with a runtime-selectable strategy
// (core/engine.h's BatchStrategy):
//
//  * kGeometricSkip — skip runs of provably-null draws in one geometric
//    jump, then simulate the next candidate interaction individually.
//    Which jumps are available depends on the protocol's declared
//    structure, checked in order:
//      - DiagonalActiveProtocol (non-null pairs have equal states, e.g.
//        Silent-n-state-SSR): W = sum_q active(q) m_q (m_q - 1), whole
//        Theta(n^2)-step null stretches cost O(1);
//      - KeyedPassiveProtocol (null iff both passive with distinct keys,
//        e.g. Optimal-Silent-SSR with passive = Settled, key = rank):
//        W = A(n-1) + SA + sum_k s_k (s_k - 1), maintained incrementally,
//        with exact 3-case conditional pair sampling;
//      - UnkeyedPassiveProtocol (both passive => null, no key, e.g.
//        ResetProcess with passive = computing, one-way epidemics with
//        passive = infected): W = A(n-1) + SA with 2-case sampling;
//      - otherwise (NullPairProtocol) runs of one identical null pair are
//        geometric in that pair's own probability.
//  * kMultinomial — the ppsim-style batch step (Berenbrink et al.; Doty &
//    Severson's ppsim): simulate a whole collision-free prefix of
//    ~sqrt(pi n / 8) interactions at once by sampling its sender/receiver
//    state multisets hypergeometrically from the counts and applying
//    transitions per ordered (s1, s2) pair in bulk through a cached delta
//    table, then replay the one colliding interaction exactly. Optimal in
//    timer-heavy regimes where nearly every interaction is effective and
//    the geometric skip degenerates to one-by-one simulation.
//  * kAuto — delegate per step to core/engine.h's StrategyController: the
//    exact active-weight density W / n(n-1) decides skip vs batch, and the
//    occupied pool's segment count guards batch amortization (protocols
//    with only the generic null-pair predicate stay on the geometric path;
//    protocols with no null knowledge always batch multinomially). Every
//    step's resolved arm is recorded in strategy_trace().
//
// While the multinomial kernel drives the run it never touches the
// geometric paths' Fenwick trees (the full-|Q| count tree is hundreds of MB
// for Optimal-Silent-SSR at n >= 10^6, so per-delta updates there would
// dominate); the engine instead keeps the active-weight *scalars* current,
// records which codes diverged, and replays them into the trees before the
// next geometric-skip step.
//
// BatchSimulation<P> satisfies the Engine, CountEngine and StrategyEngine
// concepts of core/engine.h; protocol event counters live engine-side
// (counters()).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/batch_kernels.h"
#include "core/engine.h"
#include "core/faults.h"
#include "core/protocol.h"
#include "core/rng.h"  // sample_geometric

namespace ppsim {

struct BatchStepStats {
  std::uint64_t effective = 0;  // interactions simulated individually
  std::uint64_t batched = 0;    // interactions accounted in bulk
  std::uint64_t multinomial_batches = 0;  // multinomial batch steps taken
};

template <EnumerableProtocol P>
class BatchSimulation : public CountEngineLoop<BatchSimulation<P>> {
 public:
  using State = typename P::State;
  using Counters = ProtocolCounters<P>;

  // Member-initialization order (declaration order) makes counts_of safe
  // here: protocol_ is fully constructed before counts_ is initialized.
  BatchSimulation(P protocol, const std::vector<State>& initial,
                  std::uint64_t seed,
                  BatchStrategy strategy = BatchStrategy::kGeometricSkip)
      : protocol_(std::move(protocol)),
        counts_(counts_of(protocol_, initial)),
        rng_(seed),
        strategy_(strategy) {
    init_samplers();
  }

  BatchSimulation(P protocol, std::vector<std::uint64_t> counts,
                  std::uint64_t seed,
                  BatchStrategy strategy = BatchStrategy::kGeometricSkip)
      : protocol_(std::move(protocol)),
        counts_(std::move(counts)),
        rng_(seed),
        strategy_(strategy) {
    init_samplers();
  }

  std::uint32_t population_size() const {
    return protocol_.population_size();
  }
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  // Engine-contract name for the same snapshot.
  const std::vector<std::uint64_t>& state_counts() const { return counts_; }
  const P& protocol() const { return protocol_; }
  P& protocol() { return protocol_; }
  Rng& rng() { return rng_; }

  // Engine-side observer: per-interaction events reported by observable
  // protocols (empty for plain protocols).
  const Counters& counters() const { return counters_; }

  std::uint64_t interactions() const { return interactions_; }
  double parallel_time() const {
    return static_cast<double>(interactions_) /
           static_cast<double>(population_size());
  }
  const BatchStepStats& stats() const { return stats_; }

  // Count changes applied by the most recent effective step (empty right
  // after construction and after a step() that returned 0). A multinomial
  // step reports the whole batch's net change per code.
  const std::vector<CountDelta>& last_deltas() const { return last_deltas_; }

  BatchStrategy strategy() const { return strategy_; }
  void set_strategy(BatchStrategy s) {
    reject_sharded(s);
    strategy_ = s;
  }

  // Fault injection (core/faults.h), compiled exactly into every count
  // path. Call before the first step. drop thins the changeful-slot
  // probability multiplicatively (a dropped pair is a null), oneway is
  // drawn per delivered interaction, and churn is materialized as a
  // geometric crash countdown over interaction slots: geometric waits and
  // multinomial batches are truncated at the countdown, which is exact by
  // memorylessness. An all-zero spec is a no-op: the engine consumes
  // exactly the fault-free randomness stream, bit for bit.
  void set_faults(const FaultSpec& faults) {
    faults_ = FaultClock(protocol_, faults, /*count_compiled=*/true);
    faults_.start(rng_);
  }

  // The strategy the next step will actually run: kAuto delegates to the
  // StrategyController with the measured per-round inputs (population,
  // exact active weight, occupied-segment count). Protocols with only the
  // generic null-pair predicate stay on the geometric path; protocols with
  // no null knowledge always batch multinomially. When the occupied pool
  // was never built (small populations under kAuto — see init_samplers),
  // the controller has no segment signal and the engine stays on the
  // cache-hot geometric path, which is what wins there anyway.
  BatchStrategy resolved_strategy() const {
    if (strategy_ != BatchStrategy::kAuto) return strategy_;
    if constexpr (NullStructuredProtocol<P>) {
      if (!multi_kernel_.built()) return BatchStrategy::kGeometricSkip;
      return StrategyController::step_strategy(
          population_size(), active_weight(),
          multi_kernel_.pool().segment_count());
    } else if constexpr (NullPairProtocol<P>) {
      return BatchStrategy::kGeometricSkip;
    } else {
      return BatchStrategy::kMultinomial;
    }
  }

  // The controller's decision trace: per-arm step and interaction totals
  // for every step this engine has taken (single-arm runs under a pinned
  // strategy; mixed under kAuto).
  const StrategyTrace& strategy_trace() const { return trace_; }

  // For diagonal and passive-structured protocols: true iff no future
  // interaction can change the configuration (the configuration is silent).
  bool silent() const
    requires NullStructuredProtocol<P>
  {
    return active_weight() == 0;
  }

  // Advances the simulation by at least one interaction (a whole batched
  // stretch counts as its true number of interactions). Returns the number
  // of interactions consumed, 0 iff the configuration is provably stuck:
  // zero active weight (structured protocols), or every agent in one null
  // self-pairing state (null-aware general protocols).
  std::uint64_t step() {
    last_deltas_.clear();
    if (resolved_strategy() == BatchStrategy::kMultinomial) {
      const std::uint64_t consumed = step_multinomial();
      if (consumed != 0) trace_.note(StrategyArm::kMultinomial, consumed);
      return consumed;
    }
    resync_fenwicks();
    std::uint64_t consumed;
    if constexpr (DiagonalActiveProtocol<P>) {
      consumed = step_diagonal();
    } else if constexpr (KeyedPassiveProtocol<P>) {
      consumed = step_keyed();
    } else if constexpr (UnkeyedPassiveProtocol<P>) {
      consumed = step_unkeyed();
    } else {
      consumed = step_general();
    }
    if (consumed != 0) trace_.note(StrategyArm::kGeometricSkip, consumed);
    return consumed;
  }

 private:
  // kSharded and kTauLeap are whole-engine choices, not per-step paths:
  // intra-run parallelism lives in ShardedSimulation
  // (core/sharded_simulation.h) and the approximate macro-leap tier in
  // TauLeapSimulation (core/tau_leap_simulation.h); each owns machinery
  // this exact single-threaded engine has no counterpart for.
  static void reject_sharded(BatchStrategy s) {
    if (s == BatchStrategy::kSharded)
      throw std::invalid_argument(
          "strategy 'sharded' runs on ShardedSimulation "
          "(core/sharded_simulation.h), not BatchSimulation");
    if (s == BatchStrategy::kTauLeap)
      throw std::invalid_argument(
          "strategy 'tau' runs on TauLeapSimulation "
          "(core/tau_leap_simulation.h), not BatchSimulation");
  }

  void init_samplers() {
    reject_sharded(strategy_);
    const std::uint32_t q = protocol_.num_states();
    if (counts_.size() != q)
      throw std::invalid_argument("counts size != num_states");
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < q; ++s) total += counts_[s];
    if (total != protocol_.population_size())
      throw std::invalid_argument("counts must sum to population size");
    count_sampler_.build(counts_);
    if constexpr (DiagonalActiveProtocol<P>) {
      diag_kernel_.build(protocol_, counts_);
    } else if constexpr (KeyedPassiveProtocol<P>) {
      keyed_kernel_.build(protocol_, counts_);
    } else if constexpr (UnkeyedPassiveProtocol<P>) {
      unkeyed_kernel_.build(protocol_, counts_);
    }
    // The occupied pool costs one O(|Q|) scan to build and O(log segments)
    // per count change to maintain; pay that at construction (like the
    // Fenwick builds above) only when some step can actually resolve to
    // the multinomial batch. Under kAuto with a structured protocol the
    // pool doubles as the controller's segment-count signal, so it is
    // built above the controller's pool floor and skipped below it (where
    // the cache-hot geometric path wins regardless and resolved_strategy
    // treats the missing pool as "skip"). An engine pinned to the
    // geometric path never batches and skips the pool entirely. (A later
    // set_strategy() is still safe: run_batch builds lazily.)
    constexpr bool structured = NullStructuredProtocol<P>;
    constexpr bool auto_can_batch = structured || !NullPairProtocol<P>;
    const bool may_batch =
        strategy_ == BatchStrategy::kMultinomial ||
        (strategy_ == BatchStrategy::kAuto && auto_can_batch &&
         (!structured ||
          population_size() >= StrategyController::kAutoPoolMinPopulation));
    if (may_batch) multi_kernel_.ensure_built(counts_);
  }

  static std::vector<std::uint64_t> counts_of(const P& protocol,
                                              const std::vector<State>& states) {
    if (states.size() != protocol.population_size())
      throw std::invalid_argument(
          "initial configuration size != population size");
    std::vector<std::uint64_t> counts(protocol.num_states(), 0);
    for (const State& s : states) {
      const std::uint32_t code = protocol.encode(s);
      if (code >= counts.size())
        throw std::invalid_argument("encode() out of range");
      ++counts[code];
    }
    return counts;
  }

  double ordered_pairs() const {
    const double n = static_cast<double>(population_size());
    return n * (n - 1.0);
  }

  std::uint64_t active_weight() const {
    if constexpr (DiagonalActiveProtocol<P>) {
      return diag_kernel_.total();
    } else if constexpr (KeyedPassiveProtocol<P>) {
      return keyed_kernel_.weights(population_size()).total;
    } else if constexpr (UnkeyedPassiveProtocol<P>) {
      return unkeyed_kernel_.weights(population_size()).total;
    } else {
      return 0;  // unreachable: callers are constrained to structured P
    }
  }

  // Eager count change: counts, the full-|Q| count tree, the structure
  // kernel's trees and scalars, and the multinomial pool all move together.
  // Used by every individually-simulated interaction.
  void apply_count_delta(std::uint32_t s, std::int64_t delta) {
    const std::uint64_t old_count = counts_[s];
    counts_[s] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(old_count) + delta);
    count_sampler_.add(s, delta);
    if constexpr (DiagonalActiveProtocol<P>) {
      diag_kernel_.on_count_change(s, old_count, counts_[s], /*lazy=*/false);
    } else if constexpr (KeyedPassiveProtocol<P>) {
      keyed_kernel_.on_count_change(protocol_, s, delta, /*lazy=*/false);
    } else if constexpr (UnkeyedPassiveProtocol<P>) {
      unkeyed_kernel_.on_count_change(protocol_, s, delta, /*lazy=*/false);
    }
    multi_kernel_.on_external_change(s, delta);
    last_deltas_.push_back(CountDelta{s, static_cast<std::int32_t>(delta)});
  }

  // Lazy count change: the multinomial kernel already updated counts_ and
  // its own pool; here the active-weight scalars are kept current and the
  // Fenwick divergence is recorded for resync_fenwicks().
  void note_lazy_delta(std::uint32_t code, std::int32_t delta) {
    fenwicks_dirty_ = true;
    const std::uint64_t now = counts_[code];
    const std::uint64_t old_count = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(now) - delta);
    dirty_codes_.find_or_insert(code, old_count);  // first old value wins
    if constexpr (DiagonalActiveProtocol<P>) {
      diag_kernel_.on_count_change(code, old_count, now, /*lazy=*/true);
    } else if constexpr (KeyedPassiveProtocol<P>) {
      keyed_kernel_.on_count_change(protocol_, code, delta, /*lazy=*/true);
    } else if constexpr (UnkeyedPassiveProtocol<P>) {
      unkeyed_kernel_.on_count_change(protocol_, code, delta, /*lazy=*/true);
    }
  }

  void resync_fenwicks() {
    if (!fenwicks_dirty_) return;
    for (std::uint32_t slot : dirty_codes_.entry_slots()) {
      const auto code = static_cast<std::uint32_t>(dirty_codes_.key_at(slot));
      const std::uint64_t old_count = dirty_codes_.value_at(slot);
      const std::uint64_t now = counts_[code];
      const std::int64_t d = static_cast<std::int64_t>(now) -
                             static_cast<std::int64_t>(old_count);
      if (d != 0) count_sampler_.add(code, d);
      if constexpr (DiagonalActiveProtocol<P>) {
        diag_kernel_.resync_code(code, old_count, now);
      } else if constexpr (KeyedPassiveProtocol<P>) {
        keyed_kernel_.resync_code(protocol_, code, old_count, now);
      } else if constexpr (UnkeyedPassiveProtocol<P>) {
        unkeyed_kernel_.resync_code(protocol_, code, old_count, now);
      }
    }
    if constexpr (KeyedPassiveProtocol<P>) keyed_kernel_.resync_keys();
    dirty_codes_.clear();
    fenwicks_dirty_ = false;
  }

  // Delivers one (a, b) state pair drawn by the scheduler (one-way drawn
  // here; drop is folded into the wait upstream) and folds the result
  // back into the counts.
  void apply_interaction(std::uint32_t a, std::uint32_t b) {
    const auto [na, nb] = faults_.deliver(protocol_, a, b, rng_, counters_);
    if (na != a) {
      apply_count_delta(a, -1);
      apply_count_delta(na, +1);
    }
    if (nb != b) {
      apply_count_delta(b, -1);
      apply_count_delta(nb, +1);
    }
  }

  // --- Multinomial batch step ----------------------------------------------

  std::uint64_t step_multinomial() {
    if constexpr (NullStructuredProtocol<P>) {
      if (active_weight() == 0 || faults_.spec().drop >= 1.0) {
        // Silent (or every interaction dropped): only churn can act.
        if (!faults_.churn_on()) return 0;
        const std::uint64_t consumed = faults_.fast_forward(rng_, crash());
        interactions_ += consumed;
        stats_.batched += consumed;
        return consumed;
      }
    } else if constexpr (NullPairProtocol<P>) {
      // The only stuck configuration a structureless protocol can certify:
      // every agent in one state whose self-pairing is null.
      multi_kernel_.ensure_built(counts_);
      std::uint32_t only;
      if (multi_kernel_.single_occupied_code(only)) {
        const State s = protocol_.decode(only);
        if (protocol_.is_null_pair(s, s)) return 0;
      }
    }
    // With churn on, the batch is capped at the crash countdown: the crash
    // must land at its exact slot, and it changes the counts the next
    // batch's prefix law is computed from.
    const std::uint64_t consumed =
        multi_kernel_.run_batch(protocol_, counts_, rng_, counters_,
                                last_deltas_, faults_.countdown(), faults_);
    for (const CountDelta& d : last_deltas_) note_lazy_delta(d.code, d.delta);
    interactions_ += consumed;
    stats_.batched += consumed - 1;
    ++stats_.effective;
    ++stats_.multinomial_batches;
    faults_.elapse(consumed, rng_, crash());
    return consumed;
  }

  // End-of-slot crash callback for the fault clock: reset one uniformly
  // random agent to the protocol's boot state. The eager count update
  // requires clean Fenwick trees (an eager delta on a lazily-dirty code
  // would be double-counted at the next resync), and it appends to
  // last_deltas_ so rank trackers observing the count stream see churn
  // like any other transition.
  auto crash() {
    return [this] {
      resync_fenwicks();
      const std::uint32_t victim =
          count_sampler_.find(rng_.below(population_size()));
      if (victim != faults_.churn_code()) {
        apply_count_delta(victim, -1);
        apply_count_delta(faults_.churn_code(), +1);
      }
    };
  }

  // --- Geometric-skip steps ------------------------------------------------

  // Shared geometric-skip core (FaultClock::skip): wait until the next
  // changeful slot at rate w / n(n-1), thinned by drop and cut at churn
  // crashes, then let `sample_apply` draw and apply the active pair.
  // Dropping is uniform thinning, so the sampler callback is fault-agnostic.
  template <class SampleApply>
  std::uint64_t geometric_step(std::uint64_t w, SampleApply&& sample_apply) {
    const auto [slots, delivered] =
        faults_.skip(rng_, w, ordered_pairs(), sample_apply, crash());
    interactions_ += slots;
    stats_.batched += slots - (delivered ? 1 : 0);
    if (delivered) ++stats_.effective;
    return slots;
  }

  // Diagonal fast path: every non-null pair has equal states, so the wait
  // until the next effective interaction is Geometric(W / n(n-1)) with
  // W = sum over active q of m_q (m_q - 1), and the colliding state is
  // drawn ∝ m_q (m_q - 1). Identical in distribution to stepping one
  // interaction at a time (compare SilentNStateFast).
  std::uint64_t step_diagonal() {
    return geometric_step(diag_kernel_.total(), [&] {
      const std::uint32_t q = diag_kernel_.sample(rng_);
      apply_interaction(q, q);
    });
  }

  // Keyed-passive fast path: the wait until the next active interaction is
  // Geometric(W / n(n-1)) and the active pair is drawn by case-splitting on
  // the kernel's three-term weight partition (see batch_kernels.h).
  std::uint64_t step_keyed() {
    const std::uint64_t n = population_size();
    const auto kw = keyed_kernel_.weights(n);
    return geometric_step(kw.total, [&] {
      const auto [a, b] = keyed_kernel_.sample_pair(rng_, protocol_,
                                                    count_sampler_, counts_,
                                                    n, kw);
      apply_interaction(a, b);
    });
  }

  // Unkeyed-passive fast path: both-passive pairs are null by the declared
  // structure, so candidate pairs (at least one restless agent) arrive at
  // rate W / n(n-1) and are simulated individually (they may still turn out
  // null — that costs one simulated interaction, not a missed skip).
  std::uint64_t step_unkeyed() {
    const std::uint64_t n = population_size();
    const auto kw = unkeyed_kernel_.weights(n);
    return geometric_step(kw.total, [&] {
      const auto [a, b] = unkeyed_kernel_.sample_pair(rng_, protocol_,
                                                      count_sampler_, n, kw);
      apply_interaction(a, b);
    });
  }

  // General path: draw the ordered state pair exactly; when the protocol
  // can certify the pair null, batch the whole run of consecutive
  // identical draws (Geometric in the pair's own probability) and then
  // redraw conditioned on "not that pair again" by rejection.
  std::uint64_t step_general() {
    const std::uint64_t n = population_size();
    const auto [a, b] = sample_ordered_state_pair(rng_, count_sampler_, n);

    if constexpr (NullPairProtocol<P>) {
      const State sa = protocol_.decode(a);
      const State sb = protocol_.decode(b);
      if (protocol_.is_null_pair(sa, sb)) {
        // Probability of drawing this exact ordered pair again.
        const double pq = static_cast<double>(counts_[a]) *
                          static_cast<double>(counts_[b] - (a == b ? 1 : 0)) /
                          ordered_pairs();
        if (pq >= 1.0) {
          // (a, b) is the only drawable pair (all agents share one state)
          // and it is null: the configuration can never change again.
          // Signal silence exactly like the diagonal path does.
          return 0;
        }
        // Run of consecutive (a, b) draws, first included: Geometric in
        // the probability of breaking the run.
        std::uint64_t run = 1;
        if (pq > 0.0)
          run = sample_geometric(rng_, 1.0 - pq);
        interactions_ += run;
        stats_.batched += run;
        // The next draw is conditioned != (a, b); rejection is exact and
        // terminates fast because P[reject] = pq < 1.
        for (;;) {
          const auto [a2, b2] =
              sample_ordered_state_pair(rng_, count_sampler_, n);
          if (a2 == a && b2 == b) continue;
          ++interactions_;
          ++stats_.effective;
          apply_interaction(a2, b2);
          return run + 1;
        }
      }
    }
    ++interactions_;
    ++stats_.effective;
    apply_interaction(a, b);
    return 1;
  }

  P protocol_;
  std::vector<std::uint64_t> counts_;
  WeightedSampler count_sampler_;           // weight m_q: scheduler draws
  DiagonalKernel<P> diag_kernel_;           // diagonal protocols only
  KeyedPassiveKernel<P> keyed_kernel_;      // keyed-passive protocols only
  UnkeyedPassiveKernel<P> unkeyed_kernel_;  // unkeyed-passive protocols only
  MultinomialKernel<P> multi_kernel_;       // built lazily on first use
  Rng rng_;
  BatchStrategy strategy_ = BatchStrategy::kGeometricSkip;
  std::uint64_t interactions_ = 0;
  BatchStepStats stats_;
  StrategyTrace trace_;
  std::vector<CountDelta> last_deltas_;
  FlatMap64 dirty_codes_;  // code -> count the Fenwick trees still reflect
  bool fenwicks_dirty_ = false;
  FaultClock faults_;  // fault-free (and bit-transparent) unless set_faults()
  [[no_unique_address]] Counters counters_{};
};

}  // namespace ppsim
