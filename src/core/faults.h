// Fault injection: the unreliable-network scheduler layer.
//
// The paper's self-stabilization guarantee covers arbitrary initial
// *states* under the uniform random scheduler; whether a protocol also
// survives an unreliable *network* — lost messages, one-way radio links,
// agents crashing and rebooting — is an empirical question (ROADMAP item
// 2). This header defines the fault model once, as three composable knobs
// on the interaction slot, so every engine implements the same law and
// cross-engine equivalence stays checkable:
//
//   drop    - each interaction is lost with probability `drop`,
//             independently: neither agent changes state, no counters are
//             recorded, the protocol's transition never runs. A dropped
//             pair is indistinguishable from a null pair.
//   oneway  - each non-dropped interaction is delivered one-way with
//             probability `oneway`: the full transition is computed, the
//             initiator applies its new state, the responder's reply is
//             lost in transit and it keeps its old state. Counters are
//             recorded in full (the *initiator* observed the interaction
//             happen; what failed is the reply delivery) — this is the
//             documented convention, chosen so observable detection
//             statistics stay comparable across fault rates.
//   churn   - agents crash at rate `churn` per unit of parallel time:
//             at the END of each interaction slot, independently with
//             probability q = churn / n, one uniformly random agent is
//             reset to the protocol's churn_state() (a freshly booted
//             agent). Under the anonymous fixed-n population model a
//             crash-reset is identical to crash-remove + join of a fresh
//             node, so the population size is always conserved exactly.
//
// All fault draws come from the engine's own seeded Rng stream — results
// stay a pure function of (seed, FaultSpec), and an all-zero FaultSpec
// consumes zero extra randomness, so the undecorated engine is reproduced
// bit for bit.
//
// Per-slot law (identical on every engine; FaultClock below is the one
// compilation of it that every exact engine calls):
//   1. an ordered pair is scheduled uniformly;
//   2. with prob `drop` the interaction is lost, else with prob `oneway`
//      it is delivered one-way, else it is delivered in full;
//   3. with prob q = churn / n one uniformly random agent crashes.
// The crash times are materialized as a geometric countdown over slots
// (memoryless, so truncating a count-engine wait or batch at the countdown
// and redrawing is exact — the same argument the sharded engine already
// uses for its per-round geometric waits).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/discrete_samplers.h"  // sample_binomial
#include "core/protocol.h"
#include "core/rng.h"  // sample_geometric

namespace ppsim {

// Protocols that can absorb churn: churn_state() is the state of a freshly
// booted (crashed-and-rejoined) agent. Kept separate from the Protocol
// concept so churn on a protocol without a boot state is a hard error
// instead of a silent guess.
template <class P>
concept ChurnableProtocol = Protocol<P> && requires(const P p) {
  { p.churn_state() } -> std::same_as<typename P::State>;
};

// The three fault knobs. Plumbed through ScenarioSpec as
// fault.drop= / fault.oneway= / fault.churn=; every ScenarioResult whose
// spec had any knob non-zero is stamped `faulted: true` in the BENCH
// envelope (the approximate/abstracted honesty pattern — but unlike those
// tiers, faulted records keep the full bit-determinism contract: seeded
// faults reproduce exactly, so they stay under bench_compare --strict).
struct FaultSpec {
  double drop = 0.0;    // P(interaction lost), in [0, 1]
  double oneway = 0.0;  // P(non-dropped interaction is one-way), in [0, 1]
  double churn = 0.0;   // crashes per unit parallel time, in [0, n]

  bool active() const { return drop > 0.0 || oneway > 0.0 || churn > 0.0; }

  // Range checks that do not need n (the churn <= n upper bound is
  // checked by the engines, which know the population).
  void validate() const {
    if (!(drop >= 0.0 && drop <= 1.0))
      throw std::invalid_argument("fault.drop must be in [0, 1]");
    if (!(oneway >= 0.0 && oneway <= 1.0))
      throw std::invalid_argument("fault.oneway must be in [0, 1]");
    if (!(churn >= 0.0))
      throw std::invalid_argument("fault.churn must be >= 0");
  }

  // Per-slot crash probability for a population of n agents.
  double crash_probability(std::uint32_t n) const {
    validate();
    const double q = churn / static_cast<double>(n);
    if (q > 1.0)
      throw std::invalid_argument(
          "fault.churn exceeds n (more than one crash per slot)");
    return q;
  }
};

// The fault law compiled once, for every exact engine. Built from a
// FaultSpec against the engine's protocol (which validates the pair); a
// default-constructed clock is fault-free, and every method on it then
// consumes zero randomness, so engines call it unconditionally.
//
// What it owns:
//   * the per-interaction law: drop as a Bernoulli (drops) or as thinning
//     of a changeful-slot probability (thin) or of k repetitions of one
//     pair (thin_count), and the one-way draw (one_way, inside deliver);
//   * churn as a geometric countdown over slots: start() draws the first
//     crash time, elapse() counts slots off and fires the engine's crash
//     callback at the countdown's own slot (then redraws), countdown()
//     caps a wait or batch so a crash lands exactly, fast_forward()
//     consumes a silent stretch up to and including the next crash;
//   * skip(): the geometric-skip step shared by the clique and ring count
//     engines, composed of all of the above.
// Crash callbacks are template parameters, so everything inlines.
class FaultClock {
 public:
  constexpr FaultClock() = default;

  // `count_compiled`: the engine folds drop into skip probabilities over
  // the protocol's declared null structure, so a faulted run on a protocol
  // without one is a hard error pointing at the array engine.
  template <Protocol P>
  FaultClock(const P& protocol, const FaultSpec& spec, bool count_compiled)
      : spec_(spec), active_(spec.active()) {
    spec_.validate();
    if (count_compiled && !NullStructuredProtocol<P> && active_)
      throw std::invalid_argument(
          "count-engine fault injection requires a protocol with declared "
          "null structure (diagonal / keyed / unkeyed passive); use "
          "engine=array");
    if (spec_.churn > 0.0) {
      if constexpr (!ChurnableProtocol<P>) {
        throw std::invalid_argument(
            "fault.churn needs a protocol with a churn_state()");
      } else {
        crash_q_ = spec_.crash_probability(protocol.population_size());
        if constexpr (EnumerableProtocol<P>)
          churn_code_ = protocol.encode(protocol.churn_state());
      }
    }
  }

  const FaultSpec& spec() const { return spec_; }
  bool active() const { return active_; }
  bool churn_on() const { return crash_q_ > 0.0; }
  double crash_probability() const { return crash_q_; }
  std::uint32_t churn_code() const { return churn_code_; }  // churn only

  // --- per-interaction law ---------------------------------------------

  // Bernoulli(drop): this slot's interaction is lost.
  bool drops(Rng& rng) const {
    return spec_.drop > 0.0 && rng.unit() < spec_.drop;
  }

  // Bernoulli(oneway): this delivered interaction loses its reply.
  bool one_way(Rng& rng) const {
    return spec_.oneway > 0.0 && rng.unit() < spec_.oneway;
  }

  // Drop as uniform thinning of a changeful-slot probability: a dropped
  // pair is a null pair, so the conditional active-pair law is untouched.
  // Exact when drop = 0 (p * 1.0 == p).
  double thin(double p) const { return p * (1.0 - spec_.drop); }

  // Drop and one-way over k repetitions of one ordered pair: drops are
  // i.i.d., so Binomial(k, 1 - drop) are delivered, and of those
  // Binomial(., oneway) one-way.
  struct Delivered {
    std::uint64_t delivered;
    std::uint64_t one_way;
  };
  Delivered thin_count(std::uint64_t k, Rng& rng) const {
    Delivered out{k, 0};
    if (spec_.drop > 0.0) out.delivered = sample_binomial(rng, k, 1.0 - spec_.drop);
    if (spec_.oneway > 0.0 && out.delivered > 0)
      out.one_way = sample_binomial(rng, out.delivered, spec_.oneway);
    return out;
  }

  // Delivers one scheduled interaction between the coded states a
  // (initiator) and b (responder): draws one-way, then decodes, runs the
  // transition (counters recorded in full, the FaultSpec convention) and
  // encodes. On a one-way delivery the responder keeps b. Returns the new
  // (initiator, responder) codes.
  template <EnumerableProtocol P>
  std::pair<std::uint32_t, std::uint32_t> deliver(
      const P& protocol, std::uint32_t a, std::uint32_t b, Rng& rng,
      ProtocolCounters<P>& counters) const {
    const bool reply_lost = one_way(rng);
    typename P::State sa = protocol.decode(a);
    typename P::State sb = protocol.decode(b);
    invoke_interact(protocol, sa, sb, rng, counters);
    return {protocol.encode(sa), reply_lost ? b : protocol.encode(sb)};
  }

  // --- churn countdown -------------------------------------------------

  // Draws the first crash time. Engines with a slot countdown call this
  // once, before their first step.
  void start(Rng& rng) {
    if (churn_on()) countdown_ = sample_geometric(rng, crash_q_);
  }

  // Slots until the next crash, counting the crash slot itself; 0 iff
  // churn is off. A wait or batch of at most countdown() slots never
  // skips past a crash.
  std::uint64_t countdown() const { return countdown_; }

  // Counts off `slots` (at most countdown()) elapsed slots; when the
  // countdown hits zero the crash lands at the end of this slot: `crash`
  // runs (it draws and resets the victim) and the next crash time is
  // drawn.
  template <class Crash>
  void elapse(std::uint64_t slots, Rng& rng, Crash&& crash) {
    if (countdown_ == 0) return;  // churn off
    countdown_ -= slots;
    if (countdown_ == 0) {
      crash();
      countdown_ = sample_geometric(rng, crash_q_);
    }
  }

  // No changeful slot can precede the next crash: consume the countdown's
  // null slots, crash at its own slot, redraw. Returns the slots consumed
  // (>= 1, so a churning engine never reports stuck). Churn only.
  template <class Crash>
  std::uint64_t fast_forward(Rng& rng, Crash&& crash) {
    const std::uint64_t slots = countdown_;
    elapse(slots, rng, crash);
    return slots;
  }

  // --- the geometric-skip step -----------------------------------------

  struct Skip {
    std::uint64_t slots;  // slots consumed; 0 iff stuck forever
    bool delivered;       // the last slot ran `interact` (else a crash)
  };

  // Advances to the next changeful slot of a count engine whose
  // fault-free changeful-slot probability is w / pairs (w = 0: silent).
  // The wait is Geometric(thin(w / pairs)); `interact` simulates the
  // changeful slot (drawing its own pair and one-way). With churn on, a
  // wait overshooting the countdown is cut at the crash instead (exact by
  // memorylessness: the crash changes w, and the residual wait is redrawn
  // from the fresh configuration on the next call), and a silent or
  // fully-dropped configuration fast-forwards to the next crash.
  //
  // sample_geometric returns 1 without touching the rng when p >= 1, so a
  // saturated weight costs no draw.
  template <class Interact, class Crash>
  Skip skip(Rng& rng, std::uint64_t w, double pairs, Interact&& interact,
            Crash&& crash) {
    const double p = thin(static_cast<double>(w) / pairs);
    if (w == 0 || p <= 0.0) {  // silent (or drop == 1): only churn can act
      if (!churn_on()) return {0, false};
      return {fast_forward(rng, crash), false};
    }
    const std::uint64_t wait = sample_geometric(rng, p);
    if (churn_on() && wait > countdown_)
      return {fast_forward(rng, crash), false};
    interact();
    elapse(wait, rng, crash);
    return {wait, true};
  }

 private:
  FaultSpec spec_{};
  bool active_ = false;           // any knob non-zero
  double crash_q_ = 0.0;          // per-slot crash probability churn / n
  std::uint64_t countdown_ = 0;   // slots until the next crash; 0 = never
  std::uint32_t churn_code_ = 0;  // encode(churn_state()), churn only
};

// The fault-free clock: the default for kernel and shard-worker calls made
// outside a faulted engine.
inline constexpr FaultClock kFaultFree{};

}  // namespace ppsim
