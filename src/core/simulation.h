// Generic agent-array simulation engine.
//
// A Protocol supplies a State type and a const interact(initiator,
// responder, rng[, counters]) transition; the engine owns the agent array,
// the scheduler, the RNG and the protocol's event counters, and accounts
// parallel time = interactions / n exactly as the paper defines it.
//
// Simulation<P> satisfies the Engine concept of core/engine.h (and
// AgentArrayEngine); it works for every protocol and is the ground truth
// the count-based backend is validated against — with or without fault
// injection (core/faults.h): an optional FaultSpec weaves the per-slot
// fault law into the pair step as plain Bernoulli draws, the independent
// reference the count engines' compiled fault laws are tested against.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/faults.h"
#include "core/protocol.h"
#include "core/rng.h"
#include "core/scheduler.h"
#include "core/topology.h"

namespace ppsim {

template <Protocol P>
class Simulation {
 public:
  using State = typename P::State;
  using Counters = ProtocolCounters<P>;

  Simulation(P protocol, std::vector<State> initial, std::uint64_t seed,
             Topology topology)
      : Simulation(std::move(protocol), std::move(initial), seed,
                   FaultSpec{}, std::move(topology)) {}

  // Interaction-graph variant (core/topology.h): pairs are scheduled
  // uniformly over the topology's directed edges. The default (and an
  // explicit complete topology) replays UniformScheduler's draws bit for
  // bit, so the classical engine is the special case, not a sibling. The
  // fault law composes unchanged — drop / oneway / churn act on the
  // scheduled slot whatever graph produced it — and an all-zero FaultSpec
  // draws nothing extra.
  Simulation(P protocol, std::vector<State> initial, std::uint64_t seed,
             const FaultSpec& faults = {}, Topology topology = Topology())
      : protocol_(std::move(protocol)),
        states_(std::move(initial)),
        topology_(topology.population_size() == 0
                      ? Topology::complete(protocol_.population_size())
                      : std::move(topology)),
        rng_(seed) {
    if (states_.size() != protocol_.population_size())
      throw std::invalid_argument(
          "initial configuration size != population size");
    if (topology_.population_size() != protocol_.population_size())
      throw std::invalid_argument(
          "topology population size != protocol population size");
    faults_ = FaultClock(protocol_, faults, /*count_compiled=*/false);
    faults_.start(rng_);
  }

  std::uint32_t population_size() const {
    return protocol_.population_size();
  }
  const std::vector<State>& states() const { return states_; }
  std::vector<State>& mutable_states() { return states_; }
  P& protocol() { return protocol_; }
  const P& protocol() const { return protocol_; }
  const Topology& topology() const { return topology_; }
  Rng& rng() { return rng_; }

  // Engine-side observer: per-interaction events reported by observable
  // protocols (empty for plain protocols).
  const Counters& counters() const { return counters_; }

  std::uint64_t interactions() const { return interactions_; }
  double parallel_time() const {
    return static_cast<double>(interactions_) /
           static_cast<double>(population_size());
  }

  // State-count snapshot in the enumerable protocol's coding — the bridge
  // to the count-based backend (O(n) scan; BatchSimulation keeps this
  // vector as its configuration).
  std::vector<std::uint64_t> state_counts() const
    requires EnumerableProtocol<P>
  {
    std::vector<std::uint64_t> counts(protocol_.num_states(), 0);
    for (const State& s : states_) ++counts[protocol_.encode(s)];
    return counts;
  }

  // Agent crashed by the last step's end-of-slot churn draw, or -1 (always
  // -1 with churn off). At most one agent crashes per slot. A crash touches
  // an agent outside the returned pair, so trackers re-read it too.
  std::int64_t last_crashed() const { return last_crashed_; }

  // Executes one interaction slot and returns the pair scheduled in it.
  // Under faults the slot follows the per-slot law of core/faults.h: the
  // interaction is lost with prob drop, else its reply is lost with prob
  // oneway (the full transition runs; only the initiator keeps its new
  // state), and the slot ends with the churn countdown.
  AgentPair step() {
    const AgentPair pair = topology_.sample(rng_);
    ++interactions_;
    if (!faults_.active()) {
      invoke_interact(protocol_, states_[pair.initiator],
                      states_[pair.responder], rng_, counters_);
      return pair;
    }
    if (!faults_.drops(rng_)) {
      if (faults_.one_way(rng_)) {
        State a = states_[pair.initiator];
        State b = states_[pair.responder];
        invoke_interact(protocol_, a, b, rng_, counters_);
        states_[pair.initiator] = a;  // the responder's reply is lost
      } else {
        invoke_interact(protocol_, states_[pair.initiator],
                        states_[pair.responder], rng_, counters_);
      }
    }
    last_crashed_ = -1;
    faults_.elapse(1, rng_, [&] {
      const auto victim =
          static_cast<std::uint32_t>(rng_.below(population_size()));
      if constexpr (ChurnableProtocol<P>)
        states_[victim] = protocol_.churn_state();
      last_crashed_ = victim;
    });
    return pair;
  }

  // Runs `count` interactions.
  void run(std::uint64_t count) {
    for (std::uint64_t k = 0; k < count; ++k) step();
  }

  // Runs until `done(simulation)` is true, checking after every interaction,
  // up to `max_interactions`. Returns true iff the predicate fired.
  template <class Done>
  bool run_until(Done&& done, std::uint64_t max_interactions) {
    while (interactions_ < max_interactions) {
      step();
      if (done(*this)) return true;
    }
    return false;
  }

 private:
  P protocol_;
  std::vector<State> states_;
  Topology topology_;
  Rng rng_;
  FaultClock faults_;
  std::int64_t last_crashed_ = -1;
  std::uint64_t interactions_ = 0;
  [[no_unique_address]] Counters counters_{};
};

}  // namespace ppsim
