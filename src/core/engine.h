// The backend-agnostic Engine contract.
//
// Both simulation backends — the agent-array Simulation<P> and the
// count-based BatchSimulation<P> — satisfy the same structural concept:
// run / run_until / interactions / parallel_time / state_counts snapshot /
// counters. Analysis code (analysis/convergence.h, analysis/experiments.h)
// is written against these concepts, so every harness, bench and example
// can pick a backend per protocol and per population size instead of being
// hard-wired to one engine.
//
// The refinements capture what each backend can do *beyond* the shared
// contract:
//   AgentArrayEngine - exposes the explicit agent array and per-step
//                      (initiator, responder) pairs; works for every
//                      protocol and is the ground truth.
//   CountEngine      - the configuration IS the state-count vector; exposes
//                      the per-step count deltas so trackers can stay
//                      incremental, and step() returns the number of
//                      interactions consumed (0 = provably stuck/silent).
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "core/scheduler.h"

namespace ppsim {

// How a count engine advances time between configuration changes:
//   kGeometricSkip - jump over provably-null stretches with one geometric
//                    draw, then simulate the next candidate interaction
//                    individually (optimal when effective interactions are
//                    rare: silent-heavy regimes, detection waits)
//   kMultinomial   - simulate a whole Theta(sqrt(n))-interaction
//                    collision-free batch at once by sampling its state
//                    multiset hypergeometrically (ppsim-style; optimal when
//                    nearly every interaction is effective: timer-driven
//                    countdowns)
//   kAuto          - pick per step from the measured effective-interaction
//                    density (the active-weight fraction W / n(n-1) when the
//                    protocol exposes an exact active weight)
//   kSharded       - intra-run parallelism: split the count vector across T
//                    worker shards per round (multivariate-hypergeometric
//                    partition), run each shard's batches concurrently, and
//                    merge (core/sharded_simulation.h's ShardedSimulation;
//                    BatchSimulation itself rejects this value)
//   kTauLeap       - APPROXIMATE: freeze the pair rates and advance a whole
//                    macro-leap at once by drawing Poisson interaction
//                    counts per (s1, s2) category
//                    (core/tau_leap_simulation.h's TauLeapSimulation;
//                    BatchSimulation itself rejects this value). Results
//                    are a pure function of (seed, tau_eps) but are NOT
//                    exact-in-distribution; every result that flows through
//                    the scenario API is stamped approximate.
enum class BatchStrategy : std::uint8_t {
  kGeometricSkip,
  kMultinomial,
  kAuto,
  kSharded,
  kTauLeap,
};

inline const char* to_string(BatchStrategy s) {
  switch (s) {
    case BatchStrategy::kGeometricSkip: return "geometric_skip";
    case BatchStrategy::kMultinomial: return "multinomial";
    case BatchStrategy::kAuto: return "auto";
    case BatchStrategy::kSharded: return "sharded";
    case BatchStrategy::kTauLeap: return "tau";
  }
  return "?";
}

// Parses the --strategy= spelling used by the bench binaries.
inline bool parse_strategy(const std::string& name, BatchStrategy& out) {
  if (name == "geometric_skip" || name == "geometric") {
    out = BatchStrategy::kGeometricSkip;
  } else if (name == "multinomial") {
    out = BatchStrategy::kMultinomial;
  } else if (name == "auto") {
    out = BatchStrategy::kAuto;
  } else if (name == "sharded") {
    out = BatchStrategy::kSharded;
  } else if (name == "tau" || name == "tau_leap") {
    out = BatchStrategy::kTauLeap;
  } else {
    return false;
  }
  return true;
}

// One executable arm of the occupancy-adaptive strategy controller: the
// full space of ways a scenario step can be driven, including the
// agent-array ground truth (which BatchStrategy cannot express — it is not
// a count-engine strategy at all).
enum class StrategyArm : std::uint8_t {
  kArray = 0,
  kGeometricSkip = 1,
  kMultinomial = 2,
  kSharded = 3,
  kTauLeap = 4,
};

inline constexpr std::size_t kStrategyArmCount = 5;

inline const char* to_string(StrategyArm a) {
  switch (a) {
    case StrategyArm::kArray: return "array";
    case StrategyArm::kGeometricSkip: return "geometric_skip";
    case StrategyArm::kMultinomial: return "multinomial";
    case StrategyArm::kSharded: return "sharded";
    case StrategyArm::kTauLeap: return "tau";
  }
  return "?";
}

// Per-run record of which arm drove each step and how many interactions it
// consumed — the controller's decision trace, surfaced through
// ScenarioResult so benches can report what `auto` actually ran.
struct StrategyTrace {
  std::array<std::uint64_t, kStrategyArmCount> steps{};
  std::array<std::uint64_t, kStrategyArmCount> interactions{};

  void note(StrategyArm arm, std::uint64_t consumed) {
    const auto i = static_cast<std::size_t>(arm);
    ++steps[i];
    interactions[i] += consumed;
  }

  void merge(const StrategyTrace& other) {
    for (std::size_t i = 0; i < kStrategyArmCount; ++i) {
      steps[i] += other.steps[i];
      interactions[i] += other.interactions[i];
    }
  }

  std::uint64_t total_steps() const {
    std::uint64_t s = 0;
    for (std::uint64_t v : steps) s += v;
    return s;
  }
};

// The measured strategy controller behind `auto`: maps the configuration's
// occupancy profile — population, occupied-state count, segment count and
// the exact active weight when the protocol declares structure — onto the
// arm that the measurements in README.md ("Occupancy regimes and strategy
// selection") show is fastest there. Every input is derived from the
// deterministic simulation state (never wall-clock), so decisions are a
// pure function of the seed and all bit-determinism contracts survive.
//
// The sharded arm is never auto-chosen: picking it from a machine property
// (core count) would make results machine-dependent, which the repo's
// determinism contract forbids. It runs only when requested explicitly.
//
// The tau-leap arm is likewise never auto-chosen, for a stronger reason:
// it is approximate, and `auto` promises an exact-in-distribution result.
// Approximation is opt-in only (strategy=tau), and everything it produces
// is stamped approximate downstream.
struct StrategyController {
  // Whole-run arm choice (engine_arm): dense starts — occupancy at least
  // n / kDenseOccupancyDivisor — defeat every count engine, because with
  // ~n occupied states each interaction pays hash/Fenwick traffic that the
  // agent array's two random array reads do not. Measured on the
  // uniform-random n = 10^6 worst case: array ~80 ns/interaction vs ~2 us
  // for the count engines. Below kDenseArrayMinPopulation the count
  // engines' batches stay cache-resident regardless of occupancy, so the
  // density signal alone decides.
  static constexpr std::uint64_t kDenseArrayMinPopulation = 4096;
  static constexpr std::uint64_t kDenseOccupancyDivisor = 8;

  // Count-engine effective-interaction density below which geometric skip
  // beats batching (most interactions are null: jump them).
  static constexpr double kSkipDensity = 1.0 / 16.0;

  // Below this population a structured protocol under `auto` never builds
  // the occupied pool (no segment signal, no batching): the geometric
  // path's Fenwick walks are cache-hot there and win even at density 1.
  // Measured crossover on the Optimal-Silent dormant countdown is
  // n ~ 1-2e4 (bench_table1's strategy head-to-head); the floor sits below
  // it so the controller — not the floor — decides the contested range.
  static constexpr std::uint64_t kAutoPoolMinPopulation = 4096;

  // Batch amortization guard: the multinomial batch spreads its O(segments)
  // split cost over E[L] ~ 0.63 sqrt(n) interactions, so batching needs
  // kBatchSegmentsPerPrefix * segments <= sqrt(n). This replaces the old
  // fixed n >= 16384 floor with the occupancy-adaptive equivalent (at the
  // old floor, sqrt(n) = 128: protocols with <= 32 segments batch exactly
  // as before; fragmented configurations now correctly fall back to skip).
  static constexpr std::uint64_t kBatchSegmentsPerPrefix = 4;

  // Whole-run decision from the initial configuration, taken before an
  // engine is constructed: dense starts go to the agent array, everything
  // else to a count engine refined per step by step_strategy().
  static StrategyArm engine_arm(std::uint64_t n, std::uint64_t occupancy) {
    if (n >= kDenseArrayMinPopulation &&
        occupancy * kDenseOccupancyDivisor >= n)
      return StrategyArm::kArray;
    return StrategyArm::kMultinomial;
  }

  // Per-step count-engine choice for protocols with an exact structured
  // active weight W (effective-interaction density W / n(n-1)).
  static BatchStrategy step_strategy(std::uint64_t n,
                                     std::uint64_t active_weight,
                                     std::uint32_t segments) {
    const double density =
        static_cast<double>(active_weight) /
        (static_cast<double>(n) * static_cast<double>(n - 1));
    if (density < kSkipDensity) return BatchStrategy::kGeometricSkip;
    const double prefix = std::sqrt(static_cast<double>(n));
    if (static_cast<double>(kBatchSegmentsPerPrefix) *
            static_cast<double>(segments) >
        prefix)
      return BatchStrategy::kGeometricSkip;
    return BatchStrategy::kMultinomial;
  }

  // Per-step choice inside a shard worker. The tradeoff differs from
  // step_strategy() because the geometric path's costs differ: the merged
  // engine draws its active pair through full-|Q| Fenwick walks (O(log |Q|)
  // per effective interaction), while a shard worker draws by linear scans
  // over its occupied pool — O(occupied) per *effective* interaction. So
  // inside a shard the skip path pays only while active arrivals are rare
  // enough that scans are amortized by the jumps; at higher density the
  // multinomial batch wins regardless of segment spread (the sparse
  // kernel's per-draw fallback is O(log segments + segment fill) per draw,
  // never O(occupied)). Without this a dense uniform-random pool pinned to
  // strategy=sharded paid ~n scans per interaction — quadratic rounds.
  static BatchStrategy shard_step_strategy(std::uint64_t m,
                                           std::uint64_t active_weight) {
    const double density =
        static_cast<double>(active_weight) /
        (static_cast<double>(m) * static_cast<double>(m - 1));
    return density < kSkipDensity ? BatchStrategy::kGeometricSkip
                                  : BatchStrategy::kMultinomial;
  }
};

// The run loop every count engine shares (CRTP: `Derived` supplies step(),
// returning the interactions it consumed with 0 = provably stuck, and
// interactions()). Whatever one step covers — a skipped null stretch, a
// multinomial batch, a sharded round, a tau leap — is real simulated time,
// so a final step may overshoot a target, and a predicate is observed at
// step ends (null stretches cannot flip a configuration predicate).
template <class Derived>
class CountEngineLoop {
 public:
  // Runs until at least `count` interactions have elapsed.
  void run(std::uint64_t count) {
    Derived& sim = static_cast<Derived&>(*this);
    const std::uint64_t target = sim.interactions() + count;
    while (sim.interactions() < target)
      if (sim.step() == 0) break;  // stuck: nothing will ever change again
  }

  // Runs until done(sim) is true, checked before the first step and after
  // every step. Returns true iff the predicate fired before
  // `max_interactions`.
  template <class Done>
  bool run_until(Done&& done, std::uint64_t max_interactions) {
    Derived& sim = static_cast<Derived&>(*this);
    if (done(sim)) return true;
    while (sim.interactions() < max_interactions) {
      if (sim.step() == 0) return done(sim);
      if (done(sim)) return true;
    }
    return false;
  }
};

// Concept-probe predicate (requires-expressions cannot contain lambdas).
struct NeverDone {
  template <class E>
  bool operator()(const E&) const {
    return false;
  }
};

template <class E>
concept Engine = requires(E e, const E ce, std::uint64_t k) {
  typename E::State;
  { ce.population_size() } -> std::convertible_to<std::uint32_t>;
  { ce.interactions() } -> std::convertible_to<std::uint64_t>;
  { ce.parallel_time() } -> std::convertible_to<double>;
  { ce.protocol() };
  { ce.counters() };
  { e.run(k) };
  { e.run_until(NeverDone{}, k) } -> std::convertible_to<bool>;
};

// Engines whose configuration snapshot is the state-count vector and that
// report which counts the last effective step changed.
template <class E>
concept CountEngine = Engine<E> && requires(E e, const E ce) {
  { ce.state_counts() } -> std::convertible_to<const std::vector<std::uint64_t>&>;
  { ce.last_deltas() };
  { e.step() } -> std::convertible_to<std::uint64_t>;
};

// Engines that own an explicit agent array and schedule one ordered agent
// pair per step. last_crashed() names the agent a churn crash reset at the
// end of the last step (-1 if none): it sits outside the returned pair, so
// trackers following the array re-read it too.
template <class E>
concept AgentArrayEngine = Engine<E> && requires(E e, const E ce) {
  { ce.states() };
  { e.step() } -> std::same_as<AgentPair>;
  { ce.last_crashed() } -> std::convertible_to<std::int64_t>;
};

// Count engines with a runtime-selectable batching strategy. strategy() is
// the requested strategy; resolved_strategy() is what the next step will
// actually run (they differ only under kAuto, which switches on the
// measured effective-interaction density).
template <class E>
concept StrategyEngine = CountEngine<E> && requires(E e, const E ce,
                                                    BatchStrategy s) {
  { ce.strategy() } -> std::same_as<BatchStrategy>;
  { ce.resolved_strategy() } -> std::same_as<BatchStrategy>;
  { e.set_strategy(s) };
};

}  // namespace ppsim
