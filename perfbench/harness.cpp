// perfbench harness: runs one benchmark workload in a closed loop and
// prints one JSON object per line (manifest, cells, verification legs,
// spans, end) for perfbench/run.py to turn into metrics.
//
// The harness is a client of the library: it includes the src/ headers and
// times calls into each layer's public functions from outside —
// InitialConditionSet::agents/counts (init), the engine constructors
// (build), run()/step() (run.<engine>), the stop-condition check (stop: the
// RankTracker update and StabilizationClock after each step), the invariant
// and fingerprint checks (verify) and report_scenario (report). Nothing
// inside src/ is instrumented.
//
// A cell is one verified result. Every cell of a run uses the run's seed,
// so all cells of a run do identical work and must produce identical
// fingerprints; only the machine's timing differs between them.
//
// Usage:
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--expect <interactions>,<metric>,<hash>]
//   perfbench_harness --list
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/bench_report.h"
#include "analysis/convergence.h"
#include "analysis/scenarios.h"
#include "common/host.h"
#include "core/batch_simulation.h"
#include "core/rank_tracker.h"
#include "core/ring_simulation.h"
#include "core/sharded_simulation.h"
#include "core/simulation.h"
#include "init/optimal_silent_init.h"
#include "init/ring_ssle_init.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace ppsim;
using Clock = std::chrono::steady_clock;

// --- Spans ------------------------------------------------------------------

// One span: [start, end] in ns since the tracer's origin. `busy` is the time
// the span stands for; it equals end - start except for a merged span,
// which stands for `count` disjoint intervals inside [start, end] (used for
// per-step stop checks, where one span per check would cost more than the
// check itself).
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = no parent
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t busy = 0;
  std::uint64_t count = 1;
};

// In-memory span recorder; a disabled tracer records nothing and never
// reads the clock. Spans are written out once, when the run ends.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }
  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  std::uint32_t open(const char* name) {
    if (!on_) return 0;
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.name = name;
    s.start = now();
    spans_.push_back(s);
    stack_.push_back(s.id);
    return s.id;
  }

  void close(std::uint32_t id) {
    if (!on_ || id == 0) return;
    Span& s = spans_[id - 1];
    s.end = now();
    s.busy = s.end - s.start;
    stack_.pop_back();
  }

  // Records a finished span under the innermost open span.
  std::uint32_t record(const char* name, std::int64_t start, std::int64_t end,
                       std::int64_t busy, std::uint64_t count,
                       std::uint32_t parent) {
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.name = name;
    s.start = start;
    s.end = end;
    s.busy = busy;
    s.count = count;
    spans_.push_back(s);
    return s.id;
  }

  std::uint32_t current() const { return stack_.empty() ? 0 : stack_.back(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Fingerprints -----------------------------------------------------------

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Order-independent digest of a configuration: sum over agents of
// mix64(state code), i.e. sum over codes of count * mix64(code). The agent
// array (one term per agent) and every count engine (one term per occupied
// code) therefore digest the same configuration identically.
struct Digest {
  std::uint64_t hash = 0;
  std::uint64_t agents = 0;

  void add(std::uint32_t code, std::uint64_t count) {
    hash += count * mix64(code);
    agents += count;
  }
};

Digest digest_counts(const std::vector<std::uint64_t>& counts) {
  Digest d;
  for (std::uint32_t q = 0; q < counts.size(); ++q)
    if (counts[q] != 0) d.add(q, counts[q]);
  return d;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

struct Fingerprint {
  std::uint64_t interactions = 0;
  std::string metric;  // terminal metric, %.17g
  std::string hash;    // hex digest of the final state-count vector(s)

  bool operator==(const Fingerprint&) const = default;
  std::string str() const {
    return std::to_string(interactions) + "," + metric + "," + hash;
  }
};

// --- Cells ------------------------------------------------------------------

// Deterministic per-cell work counts, read from the engines' public
// getters (interactions(), stats(), strategy_trace(), rounds()) and from
// the harness's own stop loop (checks). They repeat exactly for a seed.
struct Counts {
  std::uint64_t interactions = 0;
  std::uint64_t effective = 0;
  std::uint64_t batched = 0;
  std::uint64_t multinomial_batches = 0;
  std::uint64_t rounds = 0;
  std::uint64_t checks = 0;
  StrategyTrace trace;

  void add_batch(const BatchStepStats& s) {
    effective += s.effective;
    batched += s.batched;
    multinomial_batches += s.multinomial_batches;
  }
  bool operator==(const Counts& o) const {
    return interactions == o.interactions && effective == o.effective &&
           batched == o.batched &&
           multinomial_batches == o.multinomial_batches &&
           rounds == o.rounds && checks == o.checks &&
           trace.steps == o.trace.steps &&
           trace.interactions == o.trace.interactions;
  }
};

struct Cell {
  double wall_s = 0.0;
  double setup_s = 0.0;            // mean per set-up repetition
  std::uint32_t setup_reps = 1;    // set-ups timed per trial (last one runs)
  std::uint64_t init_bytes = 0;   // computed: size of the generated input
  std::uint64_t state_bytes = 0;  // computed: agent-array engine state
  Counts counts;
  Fingerprint fingerprint;
  std::vector<double> values;  // per-trial terminal metrics
  std::string record;  // JSON array of the report_scenario BENCH records
};

// Thrown by a failed check; the cell counts as failed.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

// Times `reps` set-ups of one engine and keeps the last: make_init() builds
// the initial condition (init layer), make_engine(engine, input) constructs
// the engine from it (build layer). Returns the mean seconds per set-up.
// Tearing down the previous repetition's engine is not timed.
template <class Engine, class MakeInit, class MakeEngine>
double set_up(Tracer& tracer, std::uint32_t reps, std::optional<Engine>& engine,
              std::uint64_t& init_bytes, MakeInit&& make_init,
              MakeEngine&& make_engine) {
  double total = 0.0;
  for (std::uint32_t r = 0; r < reps; ++r) {
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    auto input = [&] {
      ScopedSpan span(tracer, "init");
      return make_init();
    }();
    init_bytes = input.size() * sizeof(typename decltype(input)::value_type);
    {
      ScopedSpan span(tracer, "build");
      make_engine(engine, std::move(input));
    }
    total += seconds_since(t0);
  }
  return total / reps;
}

// Runs a fixed budget of interactions. Traced, the budget is split into
// kRunChunks `run_span` spans (run.<engine>) at absolute interaction
// targets, which replays exactly the steps of one run(budget) call on every
// engine.
constexpr std::uint64_t kRunChunks = 16;

template <class Engine>
void run_budget(Tracer& tracer, const char* run_span, Engine& sim,
                std::uint64_t budget) {
  if (!tracer.on()) {
    sim.run(budget);
    return;
  }
  const std::uint64_t base = sim.interactions();
  for (std::uint64_t k = 1; k <= kRunChunks; ++k) {
    const std::uint64_t target = base + budget * k / kRunChunks;
    ScopedSpan span(tracer, run_span);
    if (sim.interactions() < target) sim.run(target - sim.interactions());
  }
}

enum class StopOutcome { kFired, kStuck, kHorizon };

// The stop-rule loop, from outside: step() (false = provably stuck), then
// the stop check after every step (a count engine's batched null stretches
// cannot flip a configuration predicate). Traced, steps are grouped into
// `run_span` spans of kStepsPerChunk steps, and each chunk's stop checks
// are timed one by one (two clock reads per step) and recorded as one
// merged `stop` span under the chunk.
constexpr std::uint64_t kStepsPerChunk = 1 << 14;

template <bool kTraced, class Engine, class Step, class Stop>
StopOutcome step_until(Tracer& tracer, const char* run_span, Engine& sim,
                       std::uint64_t max_interactions, Step&& step,
                       Stop&& stop, std::uint64_t& checks) {
  std::int64_t chunk_start = 0, stop_first = 0, stop_last = 0, stop_busy = 0;
  std::uint64_t in_chunk = 0;
  auto flush = [&](std::int64_t end) {
    if constexpr (kTraced) {
      if (in_chunk == 0) return;
      const std::uint32_t run = tracer.record(
          run_span, chunk_start, end, end - chunk_start, 1, tracer.current());
      tracer.record("stop", stop_first, stop_last, stop_busy, in_chunk, run);
      chunk_start = end;
      in_chunk = 0;
      stop_busy = 0;
    }
  };
  if constexpr (kTraced) chunk_start = tracer.now();
  StopOutcome outcome = StopOutcome::kHorizon;
  while (sim.interactions() < max_interactions) {
    const bool progressed = step();
    std::int64_t t1 = 0;
    if constexpr (kTraced) t1 = tracer.now();
    if (!progressed) {
      outcome = StopOutcome::kStuck;
      break;
    }
    ++checks;
    const bool fired = stop();
    if constexpr (kTraced) {
      const std::int64_t t2 = tracer.now();
      if (in_chunk == 0) stop_first = t1;
      stop_last = t2;
      stop_busy += t2 - t1;
      if (++in_chunk == kStepsPerChunk) flush(t2);
    }
    if (fired) {
      outcome = StopOutcome::kFired;
      break;
    }
  }
  if constexpr (kTraced) flush(tracer.now());
  return outcome;
}

template <class Engine, class Step, class Stop>
StopOutcome step_until(Tracer& tracer, const char* run_span, Engine& sim,
                       std::uint64_t max_interactions, Step&& step,
                       Stop&& stop, std::uint64_t& checks) {
  return tracer.on() ? step_until<true>(tracer, run_span, sim,
                                        max_interactions, step, stop, checks)
                     : step_until<false>(tracer, run_span, sim,
                                         max_interactions, step, stop, checks);
}

// The identity half of a ScenarioResult, as drive() fills it.
ScenarioResult base_result(const char* metric, const std::string& backend,
                           const std::string& strategy, const char* init,
                           const char* until, std::uint32_t n,
                           std::vector<double> values) {
  ScenarioResult r;
  r.metric = metric;
  r.values = std::move(values);
  r.summary = summarize(r.values);
  r.backend = backend;
  r.strategy = strategy;
  r.topology = "complete";
  r.init = init;
  r.until = until;
  r.n = n;
  r.trials = r.values.size();
  return r;
}

std::string report(Tracer& tracer, const std::string& workload,
                   ScenarioResult result, const Counts& counts) {
  ScopedSpan span(tracer, "report");
  result.trace = counts.trace;
  result.interactions_mean = static_cast<double>(counts.interactions) /
                             static_cast<double>(result.trials);
  BenchReport bench("perfbench");
  return report_scenario(bench, "perfbench_" + workload, result).json();
}

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? ", " : "") + items[i];
  return out + "]";
}

// --- Workloads --------------------------------------------------------------

struct Config {
  std::uint64_t seed = 1;
  bool traced = false;
};

// One workload: its cell, and the per-run verification legs (checks that
// need more than one cell's state, run once per run after the timed cells).
// `layer` names the engine layer whose run time the cell measures.
struct Workload {
  const char* name;
  const char* layer;
  std::uint32_t threads;
  std::function<Cell(Tracer&, const Config&)> cell;
  std::vector<std::pair<const char*,
                        std::function<void(Tracer&, const Config&, const Cell&)>>>
      legs;
};

// Per-trial streams exactly as analysis/scenarios.h drive() derives them,
// so `ppsle_run --scenario ... seed=<seed>` reproduces a cell.
std::uint64_t init_seed(std::uint64_t seed, std::uint64_t trial) {
  return derive_seed(derive_seed(seed, trial), 1);
}
std::uint64_t engine_seed(std::uint64_t seed, std::uint64_t trial) {
  return derive_seed(derive_seed(seed, trial), 2);
}

// optimal-silent as the registry builds it (default timer factors).
OptimalSilentSSR optimal_silent(std::uint32_t n) {
  return OptimalSilentSSR(OptimalSilentParams::standard(n));
}

// rank-stabilize: optimal-silent, duplicate-rank, until=ranked — the
// paper's headline experiment — on both engines the library offers for it,
// kRankTrials trials each per cell: the count engine (engine=batch,
// strategy=auto, which runs the geometric skip) and the agent array
// (engine=array, core/simulation.h). The rank tracker is updated and
// checked after every step on both. The agent array is timed here rather
// than in a workload of its own: a dense agent-array run at 20-30
// ns/interaction moved with the shared host's load by more than the
// benchmark's bound (see README.md).
constexpr std::uint32_t kRankN = 256;
constexpr std::uint32_t kRankTrials = 16;
constexpr std::uint32_t kRankSetupReps = 4;

// ranked_options() with the registry's optimal-silent defaults; the default
// tail window is 0, so the first entry into a correct ranking stops a trial.
RunOptions rank_options() {
  RunOptions opts;
  opts.max_interactions =
      static_cast<std::uint64_t>(kRankN) * kRankN * 2000 + (1ull << 24);
  return opts;
}

// A rank tracker loaded from a whole state-count vector.
RankTracker ranks_of(const OptimalSilentSSR& proto,
                     const std::vector<std::uint64_t>& counts) {
  RankTracker tracker(proto.population_size());
  for (std::uint32_t q = 0; q < counts.size(); ++q)
    if (counts[q] > 0)
      tracker.apply_delta(proto.rank_of(proto.decode(q)),
                          static_cast<std::int64_t>(counts[q]));
  return tracker;
}

// One stabilization trial's stop state: run_engine_until_ranked's tracker
// and clock, from outside. `finish` turns the loop's outcome into the
// trial's stabilization time (-1 = not stabilized).
struct RankStop {
  RankTracker tracker{kRankN};
  RunResult result;
  detail::StabilizationClock clock;

  explicit RankStop(const RunOptions& opts) : clock(opts, kRankN, result) {}

  double finish(StopOutcome out) {
    result.stabilized = out == StopOutcome::kFired ||
                        (out == StopOutcome::kStuck && clock.was_correct());
    return result.stabilized ? clock.last_entry() : -1.0;
  }
};

// Count-engine trial t (run_engine_until_ranked's count-engine form).
// Returns the digest of the final counts.
std::uint64_t rank_count_trial(Tracer& tracer, const Config& cfg,
                               std::uint32_t t, Cell& cell) {
  using P = OptimalSilentSSR;
  const P proto = optimal_silent(kRankN);
  const RunOptions opts = rank_options();
  std::optional<BatchSimulation<P>> sim;
  cell.setup_s += set_up(
      tracer, kRankSetupReps, sim, cell.init_bytes,
      [&] {
        return optimal_silent_inits().counts(proto, "duplicate-rank",
                                             init_seed(cfg.seed, t));
      },
      [&](auto& e, std::vector<std::uint64_t> counts) {
        e.emplace(proto, std::move(counts), engine_seed(cfg.seed, t),
                  BatchStrategy::kAuto);
      });
  RankStop stop(opts);
  {
    ScopedSpan span(tracer, "stop");
    ++cell.counts.checks;
    stop.tracker = ranks_of(proto, sim->state_counts());
    stop.clock.init(stop.tracker.is_permutation());
  }
  auto ranked = [&] {
    for (const CountDelta& d : sim->last_deltas())
      stop.tracker.apply_delta(proto.rank_of(proto.decode(d.code)), d.delta);
    return stop.clock.on_state(stop.tracker.is_permutation(),
                               sim->parallel_time());
  };
  const StopOutcome out = step_until(
      tracer, "run.batch", *sim, opts.max_interactions,
      [&] { return sim->step() != 0; }, ranked, cell.counts.checks);
  cell.values.push_back(stop.finish(out));
  cell.counts.interactions += sim->interactions();
  cell.counts.add_batch(sim->stats());
  cell.counts.trace.merge(sim->strategy_trace());
  ScopedSpan span(tracer, "verify");
  check(stop.result.stabilized, "trial did not stabilize inside the horizon");
  const Digest d = digest_counts(sim->state_counts());
  check(d.agents == kRankN, "population size not conserved");
  check(ranks_of(proto, sim->state_counts()).is_permutation(),
        "stabilized configuration is not a correct ranking");
  return d.hash;
}

// Agent-array trial t (run_engine_until_ranked's agent-array form: shadow
// ranks refreshed for the two agents of each interaction). Returns the
// digest of the final agents.
std::uint64_t rank_array_trial(Tracer& tracer, const Config& cfg,
                               std::uint32_t t, Cell& cell) {
  using P = OptimalSilentSSR;
  const P proto = optimal_silent(kRankN);
  const RunOptions opts = rank_options();
  std::optional<Simulation<P>> sim;
  std::uint64_t init_bytes = 0;
  cell.setup_s += set_up(
      tracer, kRankSetupReps, sim, init_bytes,
      [&] {
        return optimal_silent_inits().agents(proto, "duplicate-rank",
                                             init_seed(cfg.seed, t));
      },
      [&](auto& e, std::vector<P::State> agents) {
        e.emplace(proto, std::move(agents), engine_seed(cfg.seed, t));
      });
  cell.state_bytes = kRankN * sizeof(P::State);
  RankStop stop(opts);
  std::vector<std::uint32_t> shadow(kRankN);
  {
    ScopedSpan span(tracer, "stop");
    ++cell.counts.checks;
    for (std::uint32_t i = 0; i < kRankN; ++i)
      shadow[i] = proto.rank_of(sim->states()[i]);
    stop.tracker.reset(sim->states(),
                       [&](const P::State& a) { return proto.rank_of(a); });
    stop.clock.init(stop.tracker.is_permutation());
  }
  AgentPair pair{};
  auto refresh = [&](std::uint32_t agent) {
    const std::uint32_t r = proto.rank_of(sim->states()[agent]);
    if (r != shadow[agent]) {
      stop.tracker.on_change(shadow[agent], r);
      shadow[agent] = r;
    }
  };
  auto ranked = [&] {
    refresh(pair.initiator);
    refresh(pair.responder);
    return stop.clock.on_state(stop.tracker.is_permutation(),
                               sim->parallel_time());
  };
  const StopOutcome out = step_until(
      tracer, "run.array", *sim, opts.max_interactions,
      [&] {
        pair = sim->step();
        return true;
      },
      ranked, cell.counts.checks);
  cell.values.push_back(stop.finish(out));
  cell.counts.interactions += sim->interactions();
  cell.counts.trace.note(StrategyArm::kArray, sim->interactions());
  ScopedSpan span(tracer, "verify");
  check(stop.result.stabilized, "trial did not stabilize inside the horizon");
  Digest d;
  for (const P::State& a : sim->states()) d.add(proto.encode(a), 1);
  check(d.agents == kRankN, "population size not conserved");
  RankTracker fresh(kRankN);
  fresh.reset(sim->states(), [&](const P::State& a) { return proto.rank_of(a); });
  check(fresh.is_permutation(),
        "stabilized configuration is not a correct ranking");
  return d.hash;
}

Cell rank_stabilize_cell(Tracer& tracer, const Config& cfg) {
  Cell cell;
  cell.setup_reps = kRankSetupReps;
  std::uint64_t hash = 0;
  for (std::uint32_t t = 0; t < kRankTrials; ++t)
    hash = mix64(hash ^ rank_count_trial(tracer, cfg, t, cell));
  for (std::uint32_t t = 0; t < kRankTrials; ++t)
    hash = mix64(hash ^ rank_array_trial(tracer, cfg, t, cell));
  double metric = 0.0;
  for (double v : cell.values) metric += v;
  cell.fingerprint = {cell.counts.interactions, format_double(metric),
                      hex64(hash)};
  const auto half = cell.values.begin() + kRankTrials;
  ScenarioResult batch =
      base_result("parallel_time", "batch", "auto", "duplicate-rank", "ranked",
                  kRankN, {cell.values.begin(), half});
  ScenarioResult array =
      base_result("parallel_time", "array", "", "duplicate-rank", "ranked",
                  kRankN, {half, cell.values.end()});
  // report() takes one engine's counts: the arm trace splits them.
  Counts batch_counts = cell.counts, array_counts;
  const auto arm = static_cast<std::size_t>(StrategyArm::kArray);
  batch_counts.trace.steps[arm] = batch_counts.trace.interactions[arm] = 0;
  batch_counts.interactions -= cell.counts.trace.interactions[arm];
  array_counts.interactions = cell.counts.trace.interactions[arm];
  array_counts.trace.note(StrategyArm::kArray, array_counts.interactions);
  cell.record = json_array(
      {report(tracer, "rank-stabilize", std::move(batch), batch_counts),
       report(tracer, "rank-stabilize", std::move(array), array_counts)});
  return cell;
}

// The harness loops must agree with the library's: run_scenario on the same
// spec, once per engine, reports the same per-trial stabilization times and
// the same interactions per arm.
void rank_stabilize_vs_run_scenario(Tracer& tracer, const Config& cfg,
                                    const Cell& cell) {
  ScopedSpan span(tracer, "leg.run_scenario");
  for (const char* engine : {"batch", "array"}) {
    ScenarioSpec spec;
    spec.protocol = "optimal-silent";
    spec.n = kRankN;
    spec.init = "duplicate-rank";
    spec.engine = engine;
    spec.strategy = "auto";
    spec.until = "ranked";
    spec.trials = kRankTrials;
    spec.seed = cfg.seed;
    spec.threads = 1;
    const ScenarioResult r = run_scenario(spec);
    const bool is_array = std::string(engine) == "array";
    const auto first = cell.values.begin() + (is_array ? kRankTrials : 0);
    check(r.failed == 0, std::string(engine) + ": run_scenario failed trials");
    check(r.values == std::vector<double>(first, first + kRankTrials),
          std::string(engine) +
              ": run_scenario stabilization times differ from the harness");
    for (std::size_t a = 0; a < kStrategyArmCount; ++a) {
      const bool array_arm = a == static_cast<std::size_t>(StrategyArm::kArray);
      const std::uint64_t want =
          array_arm == is_array ? cell.counts.trace.interactions[a] : 0;
      check(r.trace.interactions[a] == want,
            std::string(engine) +
                ": run_scenario interactions per arm differ from the harness");
    }
  }
}

// dormant-sharded: optimal-silent, dormant-mix, n = 10^6,
// strategy=sharded shards=4 on 2 workers, until=ptime.
constexpr std::uint32_t kShardN = 1000000;
constexpr double kShardPtime = 10.0;
constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kShardWorkers = 2;

struct ShardedRun {
  Counts counts;
  Fingerprint fingerprint;
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t init_bytes = 0;
};

ShardedRun run_sharded(Tracer& tracer, std::uint64_t seed,
                       std::uint32_t workers) {
  using P = OptimalSilentSSR;
  const P proto = optimal_silent(kShardN);
  const auto budget = static_cast<std::uint64_t>(kShardPtime * kShardN);
  ShardedRun out;
  std::optional<ShardedSimulation<P>> sim;
  out.setup_s = set_up(
      tracer, 1, sim, out.init_bytes,
      [&] {
        return optimal_silent_inits().counts(proto, "dormant-mix",
                                             init_seed(seed, 0));
      },
      [&](auto& e, std::vector<std::uint64_t> counts) {
        ShardedOptions options;
        options.shards = kShards;
        options.max_workers = workers;
        e.emplace(proto, std::move(counts), engine_seed(seed, 0), options);
      });
  const Clock::time_point run0 = Clock::now();
  run_budget(tracer, "run.sharded", *sim, budget);
  out.run_s = seconds_since(run0);
  out.counts.interactions = sim->interactions();
  out.counts.add_batch(sim->stats());
  out.counts.rounds = sim->rounds();
  out.counts.trace = sim->strategy_trace();
  ScopedSpan span(tracer, "verify");
  check(sim->shards() == kShards, "shard count was clamped");
  check(sim->interactions() >= budget, "interaction budget not met");
  const Digest d = digest_counts(sim->state_counts());
  check(d.agents == kShardN, "population size not conserved");
  out.fingerprint = {sim->interactions(), format_double(sim->parallel_time()),
                     hex64(d.hash)};
  return out;
}

Cell dormant_sharded_cell(Tracer& tracer, const Config& cfg) {
  const ShardedRun run = run_sharded(tracer, cfg.seed, kShardWorkers);
  Cell cell;
  cell.setup_s = run.setup_s;
  cell.init_bytes = run.init_bytes;
  cell.counts = run.counts;
  cell.fingerprint = run.fingerprint;
  ScenarioResult r =
      base_result("wall_seconds", "batch", "sharded", "dormant-mix", "ptime",
                  kShardN, {run.run_s});
  r.shards = kShards;
  cell.record =
      json_array({report(tracer, "dormant-sharded", std::move(r), cell.counts)});
  return cell;
}

// Results are a pure function of (seed, shards): the 1-worker leg must be
// bit-identical to the cell.
void dormant_sharded_one_worker(Tracer& tracer, const Config& cfg,
                                const Cell& cell) {
  ScopedSpan span(tracer, "leg.sharded_1w");
  const ShardedRun run = run_sharded(tracer, cfg.seed, 1);
  check(run.fingerprint == cell.fingerprint,
        "1-worker leg differs from the 2-worker cell: " +
            run.fingerprint.str() + " vs " + cell.fingerprint.str());
  check(run.counts == cell.counts,
        "1-worker leg's work counts differ from the 2-worker cell");
}

// ring-active: ring-ssle, uniform-random, topology=ring, until=ptime, on
// the run-length-compressed ring engine.
constexpr std::uint32_t kRingN = 1000000;
constexpr double kRingPtime = 0.5;

Cell ring_active_cell(Tracer& tracer, const Config& cfg) {
  using P = RingSSLE;
  const P proto(kRingN, 0);
  const auto budget = static_cast<std::uint64_t>(kRingPtime * kRingN);
  Cell cell;
  std::optional<RingSimulation<P>> sim;
  cell.setup_s = set_up(
      tracer, 1, sim, cell.init_bytes,
      [&] {
        return ring_ssle_inits().agents(proto, "uniform-random",
                                        init_seed(cfg.seed, 0));
      },
      [&](auto& e, std::vector<P::State> agents) {
        e.emplace(proto, std::move(agents), engine_seed(cfg.seed, 0),
                  FaultSpec{});
      });
  const Clock::time_point run0 = Clock::now();
  run_budget(tracer, "run.ring", *sim, budget);
  const double run_s = seconds_since(run0);
  cell.counts.interactions = sim->interactions();
  cell.counts.trace = sim->strategy_trace();
  {
    ScopedSpan span(tracer, "verify");
    check(sim->interactions() >= budget, "interaction budget not met");
    const auto& counts = sim->state_counts();
    const Digest d = digest_counts(counts);
    check(d.agents == kRingN, "population size not conserved");
    std::uint64_t leaders = 0;
    for (std::uint32_t q = 0; q < counts.size(); ++q)
      if (counts[q] != 0 && proto.is_leader(proto.decode(q)))
        leaders += counts[q];
    check(leaders == sim->leader_count(),
          "incremental leader census disagrees with the state counts");
    cell.fingerprint = {sim->interactions(),
                        format_double(sim->parallel_time()), hex64(d.hash)};
  }
  ScenarioResult r = base_result("wall_seconds", "batch", "ring_rle",
                                 "uniform-random", "ptime", kRingN, {run_s});
  r.topology = "ring";
  cell.record =
      json_array({report(tracer, "ring-active", std::move(r), cell.counts)});
  return cell;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"rank-stabilize", "batch", 1, rank_stabilize_cell,
       {{"run_scenario", rank_stabilize_vs_run_scenario}}},
      {"dormant-sharded", "sharded", kShardWorkers, dormant_sharded_cell,
       {{"sharded_1w", dormant_sharded_one_worker}}},
      {"ring-active", "ring", 1, ring_active_cell, {}},
  };
  return all;
}

// --- Output -----------------------------------------------------------------

std::string counts_json(const Counts& c) {
  std::string out = "{\"interactions\": " + std::to_string(c.interactions) +
                    ", \"effective\": " + std::to_string(c.effective) +
                    ", \"batched\": " + std::to_string(c.batched) +
                    ", \"multinomial_batches\": " +
                    std::to_string(c.multinomial_batches) +
                    ", \"rounds\": " + std::to_string(c.rounds) +
                    ", \"checks\": " + std::to_string(c.checks);
  for (std::size_t i = 0; i < kStrategyArmCount; ++i) {
    const std::string arm = to_string(static_cast<StrategyArm>(i));
    out += ", \"arm." + arm + ".steps\": " + std::to_string(c.trace.steps[i]);
    out += ", \"arm." + arm + ".interactions\": " +
           std::to_string(c.trace.interactions[i]);
  }
  return out + "}";
}

// Cost of one steady_clock read: the median gap between back-to-back
// reads. Traced stop-rule loops read the clock twice per step, so run.py
// subtracts this cost per timed check from the run and stop layers.
double clock_read_ns() {
  std::vector<std::int64_t> gaps(1001);
  for (auto& g : gaps) {
    const Clock::time_point a = Clock::now();
    g = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - a)
            .count();
  }
  std::nth_element(gaps.begin(), gaps.begin() + 500, gaps.end());
  return static_cast<double>(gaps[500]);
}

std::uint64_t llc_bytes() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::uint64_t v = 0;
  char unit = 0;
  if (!(in >> v)) return 0;
  if (in >> unit) {
    if (unit == 'K') v <<= 10;
    if (unit == 'M') v <<= 20;
  }
  return v;
}

void print_manifest(const Workload& w, const Config& cfg) {
  std::printf(
      "{\"kind\": \"manifest\", \"workload\": %s, \"layer\": %s, "
      "\"threads\": %u, \"seed\": %" PRIu64
      ", \"traced\": %s, \"compiler\": %s, \"flags\": %s, "
      "\"build_type\": %s, \"nproc\": %u, \"host\": %s, "
      "\"llc_bytes\": %" PRIu64 ", \"clock_ns\": %.17g}\n",
      json_quote(w.name).c_str(), json_quote(w.layer).c_str(), w.threads,
      cfg.seed, cfg.traced ? "true" : "false",
      json_quote(PERFBENCH_COMPILER).c_str(),
      json_quote(PERFBENCH_FLAGS).c_str(),
      json_quote(PERFBENCH_BUILD_TYPE).c_str(),
      std::thread::hardware_concurrency(),
      json_quote(host_fingerprint()).c_str(), llc_bytes(), clock_read_ns());
}

void print_cell(std::size_t index, bool traced, const Cell* cell,
                const std::string& error) {
  std::printf("{\"kind\": \"cell\", \"index\": %zu, \"traced\": %s, "
              "\"ok\": %s, \"error\": %s",
              index, traced ? "true" : "false",
              error.empty() ? "true" : "false", json_quote(error).c_str());
  if (cell != nullptr)
    std::printf(", \"wall_s\": %.17g, \"setup_s\": %.17g, \"setup_reps\": %u, "
                "\"init_bytes\": %" PRIu64 ", \"state_bytes\": %" PRIu64
                ", \"fingerprint\": {\"interactions\": %" PRIu64
                ", \"metric\": %s, \"hash\": %s}, \"counts\": %s, "
                "\"record\": %s",
                cell->wall_s, cell->setup_s, cell->setup_reps, cell->init_bytes,
                cell->state_bytes, cell->fingerprint.interactions,
                json_quote(cell->fingerprint.metric).c_str(),
                json_quote(cell->fingerprint.hash).c_str(),
                counts_json(cell->counts).c_str(), cell->record.c_str());
  std::printf("}\n");
  std::fflush(stdout);
}

void print_spans(const Tracer& tracer) {
  std::printf("{\"kind\": \"spans\", \"spans\": [");
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::printf("%s[%u, %u, %s, %" PRId64 ", %" PRId64 ", %" PRId64
                ", %" PRIu64 "]",
                i ? ", " : "", s.id, s.parent, json_quote(s.name).c_str(),
                s.start, s.end, s.busy, s.count);
  }
  std::printf("]}\n");
}

// --- Main loop --------------------------------------------------------------

// Runs one cell and its checks: the cell's own invariants (inside the
// cell), determinism against the run's first cell, and the recorded
// fingerprint when one is expected. Returns the error ("" = verified).
std::string run_cell(const Workload& w, Tracer& tracer, const Config& cfg,
                     const std::optional<Fingerprint>& expect,
                     std::optional<Cell>& first, std::optional<Cell>& cell) {
  const Clock::time_point t0 = Clock::now();
  std::string error;
  try {
    ScopedSpan span(tracer, "cell");
    cell = w.cell(tracer, cfg);
    if (!first) first = cell;
    ScopedSpan verify(tracer, "verify");
    check(cell->fingerprint == first->fingerprint,
          "cell differs from the run's first cell: " +
              cell->fingerprint.str() + " vs " + first->fingerprint.str());
    check(cell->counts == first->counts,
          "cell's work counts differ from the run's first cell");
    if (expect)
      check(cell->fingerprint == *expect,
            "fingerprint " + cell->fingerprint.str() + " != expected " +
                expect->str());
  } catch (const std::exception& e) {
    error = e.what();
  }
  if (cell) cell->wall_s = seconds_since(t0);
  return error;
}

int run(const Workload& w, const Config& cfg, double seconds,
        const std::optional<Fingerprint>& expect) {
  print_manifest(w, cfg);
  // Traced runs alternate untraced and traced cells, so both halves see the
  // same host conditions; the untraced half is the tracing-overhead base.
  Tracer off(false);
  Tracer on(cfg.traced);
  std::optional<Cell> first;
  const std::uint32_t root = on.open("workload");
  const Clock::time_point start = Clock::now();
  std::size_t index = 0;
  bool failed = false;
  do {
    const bool traced = cfg.traced && index % 2 == 1;
    Config cell_cfg = cfg;
    cell_cfg.traced = traced;
    std::optional<Cell> cell;
    const std::string error =
        run_cell(w, traced ? on : off, cell_cfg, expect, first, cell);
    print_cell(index, traced, cell ? &*cell : nullptr, error);
    failed = failed || !error.empty();
    ++index;
  } while (!failed &&
           (seconds_since(start) < seconds || (cfg.traced && index < 2)));
  for (const auto& [name, leg] : w.legs) {
    std::string error;
    const Clock::time_point t0 = Clock::now();
    try {
      if (!first) throw CheckFailure("no verified cell to compare against");
      leg(on, cfg, *first);
    } catch (const std::exception& e) {
      error = e.what();
    }
    std::printf("{\"kind\": \"leg\", \"name\": %s, \"ok\": %s, "
                "\"error\": %s, \"wall_s\": %.17g}\n",
                json_quote(name).c_str(), error.empty() ? "true" : "false",
                json_quote(error).c_str(), seconds_since(t0));
  }
  on.close(root);
  if (cfg.traced) print_spans(on);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("{\"kind\": \"end\", \"peak_rss_mb\": %.6f}\n",
              static_cast<double>(usage.ru_maxrss) / 1024.0);
  return 0;
}

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--expect <i>,<metric>,<hash>]\n"
               "       perfbench_harness --list\n",
               message.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s) {
  std::size_t pos = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(s, &pos);
  } catch (const std::exception&) {
    usage("not an unsigned integer: '" + s + "'");
  }
  if (pos != s.size() || s.empty() || s[0] == '-')
    usage("not an unsigned integer: '" + s + "'");
  return v;
}

Fingerprint parse_fingerprint(const std::string& s) {
  const auto a = s.find(',');
  const auto b = a == std::string::npos ? a : s.find(',', a + 1);
  if (b == std::string::npos) usage("--expect needs <i>,<metric>,<hash>");
  return {parse_u64(s.substr(0, a)), s.substr(a + 1, b - a - 1),
          s.substr(b + 1)};
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string name;
  Config cfg;
  double seconds = -1.0;
  bool have_seed = false, have_trace = false;
  std::optional<Fingerprint> expect;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      for (const Workload& w : workloads()) std::printf("%s\n", w.name);
      return 0;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      name = value;
    } else if (arg == "--seed") {
      cfg.seed = parse_u64(value);
      have_seed = true;
    } else if (arg == "--seconds") {
      seconds = static_cast<double>(parse_u64(value));
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      cfg.traced = value == "1";
      have_trace = true;
    } else if (arg == "--expect") {
      expect = parse_fingerprint(value);
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (name.empty() || !have_seed || seconds < 0 || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  for (const Workload& w : workloads())
    if (name == w.name) return run(w, cfg, seconds, expect);
  usage("unknown workload '" + name + "'");
}
