// Sharded single-run count engine: intra-run parallelism for one huge-n
// simulation (ISSUE 5 / ROADMAP open item 1).
//
// run_trials_parallel fans out whole trials, so a single run — the regime
// the paper's O(log n) stabilization bound actually targets — was still
// single-threaded. ShardedSimulation<P> splits the *count vector* across T
// worker shards instead, following the count-vector decomposition framing
// of Berenbrink et al.'s batched simulation line (PAPERS.md):
//
// Each step() simulates one *round* of G = round_ptime * n interactions:
//
//  1. Partition. The population is partitioned uniformly at random into T
//     fixed-size shards by a two-level chained hypergeometric draw over
//     the merged pool's occupied *segments* first and their member codes
//     second (the chain rule factors through the grouping, so the joint
//     law equals sample_shard_partition's flat chain; shards whose quota
//     is zero this round are integrated out, which leaves the law of the
//     drawn shards unchanged).
//  2. Quotas. The round's G interactions are attributed to shards by an
//     exact multinomial with weights m_t (m_t - 1) — precisely the uniform
//     scheduler's probability of an ordered pair falling inside shard t,
//     conditioned on the partition.
//  3. Shard phase (parallel). Shard t simulates its quota of interactions
//     of the uniform scheduler restricted to its own m_t agents, on sparse
//     shard-local kernels (OccupiedPool + the multinomial batch kernel in
//     sparse mode + a scalar-weight geometric skip) — no O(|Q|) dense
//     structures per shard, so rebuilding a shard costs O(occupied) per
//     round. A shard whose active weight hits zero fast-forwards the rest
//     of its quota for free (all its pairs are provably null).
//  4. Reconciliation (serial, deterministic order). Worker net-deltas are
//     merged back into the global count vector (merge_signed_deltas), the
//     scalar active weight, the occupied pool, the engine counters, and
//     last_deltas().
//
// Exactness: for any shard sizes, the expected meeting rate of every
// ordered agent pair is exactly the scheduler's 2G / n(n-1) per round
// (P[both in shard t] = m_t(m_t-1)/n(n-1) times the in-shard rate
// 2 E[E_t]/(m_t(m_t-1)) with E[E_t] = G m_t(m_t-1)/sum m(m-1), summed over
// t), and in the G = 1 limit the scheme IS the uniform scheduler (a random
// partition followed by a shard-conditional pair draw marginalizes to a
// uniform ordered pair). For G > 1 the approximation is operator-splitting
// style: pairs co-resident this round are slightly bunched relative to
// pairs split across shards. The repo's cross-engine discipline gates it
// statistically: tests/engine_equivalence_test.cpp holds sharded runs to
// the same family-controlled CI overlap (tests/stat_harness.h) as every
// other strategy, at n in {8, 64, 512} over 30 seeds.
//
// Determinism: results are a pure function of (seed, shard count). Worker
// RNG streams are derive_seed(derive_seed(seed_root, round), shard), the
// partition/quota stream is its own derived stream, and reconciliation
// folds shards in index order — so the output never depends on how many OS
// threads execute the shard phase (max_workers, --threads, PPSIM_THREADS),
// only on the spec'd shard count. Bit-stability for a fixed (seed, shards)
// across worker counts is asserted in the equivalence tests.
//
// ShardedSimulation<P> satisfies the Engine, CountEngine and StrategyEngine
// concepts (strategy() == BatchStrategy::kSharded); protocols must be
// enumerable, and observable protocols need ScalableCounters so worker
// counters can be merged.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_kernels.h"
#include "core/batch_simulation.h"  // BatchStepStats
#include "core/discrete_samplers.h"
#include "core/engine.h"
#include "core/faults.h"
#include "core/protocol.h"
#include "core/rng.h"

namespace ppsim {

// Protocols the sharded engine can run: enumerable (it is a count engine),
// with mergeable counters when observable.
template <class P>
concept ShardableProtocol =
    EnumerableProtocol<P> &&
    (!ObservableProtocol<P> || ScalableCounters<ProtocolCounters<P>>);

struct ShardedOptions {
  // Default shard count when shards == 0. A fixed constant on purpose:
  // the shard count is part of the experiment definition (results are a
  // pure function of (seed, shards)), so it must never be derived from
  // the worker/thread count or the machine — that would let --threads or
  // the host silently change results.
  static constexpr std::uint32_t kDefaultShards = 8;

  std::uint32_t shards = 0;       // 0 = kDefaultShards; the effective
                                  // count is clamped to n / 2 so every
                                  // shard holds >= 2 agents
  std::uint32_t max_workers = 0;  // worker threads for the shard phase
                                  // (0 = hardware concurrency); never
                                  // affects results, only wall clock
  double round_ptime = 0.125;     // global parallel time simulated per
                                  // round (G = max(1, round_ptime * n)
                                  // interactions). Shorter rounds re-draw
                                  // the partition more often — closer to
                                  // the exact G = 1 limit — at more split
                                  // overhead; 1/8 keeps the within-round
                                  // pair bunching statistically invisible
                                  // at n = 8 (where G = 1 makes the scheme
                                  // exact outright) while n >= 10^6 rounds
                                  // stay >> the thread-handoff cost
};

namespace detail {

// Persistent worker pool for the shard phase. run() executes job(i) for
// i in [0, jobs) across the workers and returns when all are done; the
// assignment is dynamic but jobs touch disjoint shard state, so execution
// order cannot affect results.
class ShardTaskPool {
 public:
  explicit ShardTaskPool(std::uint32_t workers) {
    threads_.reserve(workers);
    for (std::uint32_t i = 0; i < workers; ++i)
      threads_.emplace_back([this] { worker_loop(); });
  }

  ~ShardTaskPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void run(std::uint32_t jobs,
           const std::function<void(std::uint32_t)>& job) {
    std::unique_lock<std::mutex> lock(mutex_);
    job_ = &job;
    jobs_ = jobs;
    next_ = 0;
    remaining_ = jobs;
    error_ = nullptr;
    ++generation_;
    cv_.notify_all();
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
    job_ = nullptr;
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      while (next_ < jobs_) {
        const std::uint32_t i = next_++;
        lock.unlock();
        std::exception_ptr err;
        try {
          (*job_)(i);
        } catch (...) {
          err = std::current_exception();
        }
        lock.lock();
        if (err && !error_) error_ = err;
        if (--remaining_ == 0) done_cv_.notify_all();
      }
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::uint32_t)>* job_ = nullptr;
  std::uint32_t jobs_ = 0;
  std::uint32_t next_ = 0;
  std::uint32_t remaining_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
};

}  // namespace detail

// One shard's sparse simulation state: an occupied pool (inside the
// multinomial kernel), a scalar active weight, a net-delta map, and a
// private RNG stream. All state is rebuilt from the round's allocation in
// O(occupied); nothing is shared mutably across shards.
template <ShardableProtocol P>
class ShardWorker {
 public:
  using State = typename P::State;
  using Counters = ProtocolCounters<P>;

  static constexpr bool kStructured = ScalarActiveWeight<P>::kStructured;

  // Rebinds the worker to this round's allocation: alloc[i] agents of
  // codes[i], m agents total, a fresh derived RNG stream, and the engine's
  // fault clock (read-only, shared by all workers; it must outlive the
  // round). Drop and one-way are per-interaction draws, so they factor
  // cleanly through the shard decomposition: each worker applies them to
  // its own slice of the round from its own stream. Churn is handled
  // round-granularly by the engine (see ShardedSimulation::set_faults),
  // never inside a worker.
  void prepare(const P& protocol, const std::vector<std::uint32_t>& codes,
               const std::vector<std::uint64_t>& alloc, std::uint64_t m,
               std::uint64_t seed, const FaultClock& faults = kFaultFree) {
    faults_ = &faults;
    kernel_.reset_sparse();
    weight_.clear();
    net_.clear();
    counters_ = Counters{};
    stats_ = BatchStepStats{};
    m_ = m;
    rng_ = Rng(seed);
    for (std::size_t i = 0; i < codes.size(); ++i) {
      if (alloc[i] == 0) continue;
      kernel_.pool().apply_delta(codes[i], static_cast<std::int64_t>(alloc[i]));
      weight_.on_count_change(protocol, codes[i], 0, alloc[i]);
    }
  }

  // Simulates exactly `target` interactions of the uniform scheduler
  // restricted to this shard's m agents: the geometric path truncates its
  // waits at the remaining quota (memorylessness makes redrawing next
  // round exact) and the multinomial path runs its final batch in exact
  // truncated mode (run_batch_sparse's cap), so a shard never overshoots
  // its round quota. A shard with zero active weight fast-forwards the
  // remainder for free. Returns the interactions consumed (== target).
  std::uint64_t run(const P& protocol, std::uint64_t target) {
    std::uint64_t consumed = 0;
    while (consumed < target) {
      if constexpr (kStructured) {
        const std::uint64_t w = weight_.total(m_);
        if (w == 0) {  // every pair in this shard is null: silent shard
          stats_.batched += target - consumed;
          consumed = target;
          break;
        }
        if (StrategyController::shard_step_strategy(m_, w) ==
            BatchStrategy::kMultinomial) {
          consumed += step_multinomial(protocol, target - consumed);
        } else {
          consumed += step_geometric(protocol, w, target - consumed);
        }
      } else {
        if constexpr (NullPairProtocol<P>) {
          std::uint32_t only;
          if (kernel_.single_occupied_code(only)) {
            const State s = protocol.decode(only);
            if (protocol.is_null_pair(s, s)) {
              stats_.batched += target - consumed;
              consumed = target;
              break;
            }
          }
        }
        consumed += step_multinomial(protocol, target - consumed);
      }
    }
    return consumed;
  }

  // code -> net signed count delta of the last run (FlatMap64 int64-bits
  // convention), in deterministic insertion order.
  const FlatMap64& net_deltas() const { return net_; }
  const Counters& counters() const { return counters_; }
  const BatchStepStats& stats() const { return stats_; }

 private:
  // The skip-vs-batch choice is StrategyController::shard_step_strategy
  // at shard scale (population m); see its comment for why the shard rule
  // is density-only. `cap` bounds the batch at the shard's remaining quota
  // exactly.
  std::uint64_t step_multinomial(const P& protocol, std::uint64_t cap) {
    deltas_.clear();
    const std::uint64_t used = kernel_.run_batch_sparse(
        protocol, m_, rng_, counters_, deltas_, cap, *faults_);
    for (const CountDelta& d : deltas_) {
      const std::uint64_t now = kernel_.pool().weight_of(d.code);
      const std::uint64_t old = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(now) - d.delta);
      weight_.on_count_change(protocol, d.code, old, now);
      net_.add(d.code, d.delta);
    }
    ++stats_.effective;
    stats_.batched += used - 1;
    ++stats_.multinomial_batches;
    return used;
  }

  // Geometric skip, truncated at the shard's remaining quota. Unlike
  // BatchSimulation (whose run() owns the whole clock, so overshooting a
  // target is just more simulated time), a shard simulates a fixed *slice*
  // of the round: an arrival whose geometric wait lands beyond the slice
  // must NOT be executed here — the population is re-partitioned before it
  // would happen, and by memorylessness redrawing the wait next round is
  // exact. Executing it anyway would let rare cross-agent events (e.g. the
  // Observation 2.6 duplicate-rank meeting) fire at shard-local rates —
  // a measured ~10% stabilization-time bias before this truncation.
  std::uint64_t step_geometric(const P& protocol, std::uint64_t w,
                               std::uint64_t remaining) {
    const std::uint64_t pairs = m_ * (m_ - 1);
    // Dropping thins the changeful-slot rate (FaultClock::thin).
    // sample_geometric returns 1 without touching the rng when p >= 1, so
    // the unconditional call reproduces the old saturated-weight
    // `wait = 1` shortcut bit for bit.
    const double p =
        faults_->thin(static_cast<double>(w) / static_cast<double>(pairs));
    if (p <= 0.0) {  // drop == 1: every arrival in this slice is lost
      stats_.batched += remaining;
      return remaining;
    }
    const std::uint64_t wait = sample_geometric(rng_, p);
    if (wait > remaining) {  // no active arrival inside this slice
      stats_.batched += remaining;
      return remaining;
    }
    stats_.batched += wait - 1;
    ++stats_.effective;
    const auto [a, b] = sample_active_pair(protocol, w);
    apply_interaction(protocol, a, b);
    return wait;
  }

  // Linear-scan weighted draws over the occupied pool. The pool's slot
  // order is deterministic (insertion order, compacted deterministically),
  // so every draw is reproducible from the stream.
  template <class WeightOf>
  std::uint32_t pick_by(WeightOf&& weight_of, std::uint64_t target) const {
    const OccupiedPool& pool = kernel_.pool();
    for (std::uint32_t slot = 0; slot < pool.slots(); ++slot) {
      const std::uint64_t cw = pool.weight_at(slot);
      if (cw == 0) continue;
      const std::uint64_t w = weight_of(pool.code_at(slot), cw);
      if (target < w) return pool.code_at(slot);
      target -= w;
    }
    throw std::logic_error("shard pool weight exhausted in pair draw");
  }

  std::pair<std::uint32_t, std::uint32_t> sample_active_pair(
      const P& protocol, std::uint64_t w) {
    if constexpr (DiagonalActiveProtocol<P>) {
      // Colliding state ∝ m_q (m_q - 1) over active codes.
      const std::uint32_t q =
          pick_by(
              [&](std::uint32_t code, std::uint64_t cw) -> std::uint64_t {
                if (cw < 2) return 0;
                const State st = protocol.decode(code);
                return protocol.is_null_pair(st, st) ? 0 : cw * (cw - 1);
              },
              rng_.below(w));
      return {q, q};
    } else if constexpr (KeyedPassiveProtocol<P>) {
      const std::uint64_t a_cnt = weight_.restless();
      const std::uint64_t w1 = a_cnt * (m_ - 1);
      const std::uint64_t w2 = (m_ - a_cnt) * a_cnt;
      const std::uint64_t x = rng_.below(w);
      auto restless_weight = [&](std::uint32_t code,
                                 std::uint64_t cw) -> std::uint64_t {
        return protocol.is_passive(protocol.decode(code)) ? 0 : cw;
      };
      if (x < w1) {
        // (1) restless initiator; responder uniform over the other m - 1.
        const std::uint32_t a = pick_by(restless_weight, rng_.below(a_cnt));
        const std::uint32_t b = pick_by(
            [&](std::uint32_t code, std::uint64_t cw) -> std::uint64_t {
              return cw - (code == a ? 1 : 0);
            },
            rng_.below(m_ - 1));
        return {a, b};
      }
      if (x < w1 + w2) {
        // (2) passive initiator, restless responder.
        const std::uint32_t a = pick_by(
            [&](std::uint32_t code, std::uint64_t cw) -> std::uint64_t {
              return protocol.is_passive(protocol.decode(code)) ? cw : 0;
            },
            rng_.below(m_ - a_cnt));
        const std::uint32_t b = pick_by(restless_weight, rng_.below(a_cnt));
        return {a, b};
      }
      // (3) a same-key passive pair: key ∝ s_k (s_k - 1), then the ordered
      // pair inside the key's occupied fiber ∝ m_q (m_q' - [q = q']).
      std::uint64_t target = rng_.below(w - w1 - w2);
      std::uint32_t key = 0;
      std::uint64_t s_k = 0;
      for (std::uint32_t slot : weight_.key_counts().entry_slots()) {
        const std::uint64_t kc = weight_.key_counts().value_at(slot);
        const std::uint64_t kw = pair_weight(kc);
        if (target < kw) {
          key = static_cast<std::uint32_t>(weight_.key_counts().key_at(slot));
          s_k = kc;
          break;
        }
        target -= kw;
      }
      auto fiber_weight = [&](std::uint32_t code,
                              std::uint64_t cw) -> std::uint64_t {
        const State st = protocol.decode(code);
        return protocol.is_passive(st) && protocol.passive_key(st) == key
                   ? cw
                   : 0;
      };
      const std::uint32_t a = pick_by(fiber_weight, rng_.below(s_k));
      const std::uint32_t b = pick_by(
          [&](std::uint32_t code, std::uint64_t cw) -> std::uint64_t {
            const std::uint64_t fw = fiber_weight(code, cw);
            return fw - (code == a ? 1 : 0);
          },
          rng_.below(s_k - 1));
      return {a, b};
    } else if constexpr (UnkeyedPassiveProtocol<P>) {
      const std::uint64_t a_cnt = weight_.restless();
      const std::uint64_t w1 = a_cnt * (m_ - 1);
      const std::uint64_t x = rng_.below(w);
      auto restless_weight = [&](std::uint32_t code,
                                 std::uint64_t cw) -> std::uint64_t {
        return protocol.is_passive(protocol.decode(code)) ? 0 : cw;
      };
      if (x < w1) {
        const std::uint32_t a = pick_by(restless_weight, rng_.below(a_cnt));
        const std::uint32_t b = pick_by(
            [&](std::uint32_t code, std::uint64_t cw) -> std::uint64_t {
              return cw - (code == a ? 1 : 0);
            },
            rng_.below(m_ - 1));
        return {a, b};
      }
      const std::uint32_t a = pick_by(
          [&](std::uint32_t code, std::uint64_t cw) -> std::uint64_t {
            return protocol.is_passive(protocol.decode(code)) ? cw : 0;
          },
          rng_.below(m_ - a_cnt));
      const std::uint32_t b = pick_by(restless_weight, rng_.below(a_cnt));
      return {a, b};
    } else {
      (void)w;
      throw std::logic_error("sample_active_pair on unstructured protocol");
    }
  }

  void apply_interaction(const P& protocol, std::uint32_t a,
                         std::uint32_t b) {
    const auto [na, nb] = faults_->deliver(protocol, a, b, rng_, counters_);
    if (na != a) {
      bump(protocol, a, -1);
      bump(protocol, na, +1);
    }
    if (nb != b) {
      bump(protocol, b, -1);
      bump(protocol, nb, +1);
    }
  }

  void bump(const P& protocol, std::uint32_t code, std::int64_t d) {
    const std::uint64_t old = kernel_.pool().weight_of(code);
    kernel_.pool().apply_delta(code, d);
    weight_.on_count_change(
        protocol, code, old,
        static_cast<std::uint64_t>(static_cast<std::int64_t>(old) + d));
    net_.add(code, d);
  }

  MultinomialKernel<P> kernel_;    // owns the shard's occupied pool
  const FaultClock* faults_ = &kFaultFree;
  ScalarActiveWeight<P> weight_;
  FlatMap64 net_;                  // code -> net delta this round
  std::vector<CountDelta> deltas_;
  Rng rng_{0};
  std::uint64_t m_ = 0;
  BatchStepStats stats_;
  [[no_unique_address]] Counters counters_{};
};

template <ShardableProtocol P>
class ShardedSimulation : public CountEngineLoop<ShardedSimulation<P>> {
 public:
  using State = typename P::State;
  using Counters = ProtocolCounters<P>;

  ShardedSimulation(P protocol, std::vector<std::uint64_t> counts,
                    std::uint64_t seed, ShardedOptions options = {})
      : protocol_(std::move(protocol)),
        counts_(std::move(counts)),
        seed_(seed),
        alloc_rng_(derive_seed(seed, 0x5A1D)) {
    init(options);
  }

  ShardedSimulation(P protocol, const std::vector<State>& initial,
                    std::uint64_t seed, ShardedOptions options = {})
      : protocol_(std::move(protocol)),
        counts_(counts_of(protocol_, initial)),
        seed_(seed),
        alloc_rng_(derive_seed(seed, 0x5A1D)) {
    init(options);
  }

  std::uint32_t population_size() const {
    return protocol_.population_size();
  }
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  const std::vector<std::uint64_t>& state_counts() const { return counts_; }
  const P& protocol() const { return protocol_; }
  P& protocol() { return protocol_; }

  const Counters& counters() const { return counters_; }
  std::uint64_t interactions() const { return interactions_; }
  double parallel_time() const {
    return static_cast<double>(interactions_) /
           static_cast<double>(population_size());
  }
  const BatchStepStats& stats() const { return stats_; }
  const std::vector<CountDelta>& last_deltas() const { return last_deltas_; }

  std::uint32_t shards() const {
    return static_cast<std::uint32_t>(shard_sizes_.size());
  }
  std::uint32_t workers() const { return workers_; }
  std::uint64_t round_interactions() const { return g_round_; }
  std::uint64_t rounds() const { return rounds_; }

  BatchStrategy strategy() const { return BatchStrategy::kSharded; }
  BatchStrategy resolved_strategy() const { return BatchStrategy::kSharded; }
  void set_strategy(BatchStrategy s) {
    if (s != BatchStrategy::kSharded)
      throw std::invalid_argument(
          "ShardedSimulation runs only the sharded strategy; construct a "
          "BatchSimulation for " +
          std::string(to_string(s)));
  }

  // Fault injection (core/faults.h). Drop and one-way compile into the
  // workers exactly (each worker thins its own slice of the round from its
  // own stream). Churn is round-granular BY DESIGN on this engine: the
  // round's crashes are drawn as one Binomial(slots, churn / n) after
  // reconciliation and applied to the merged counts — within-round crash
  // timing is coarsened to the round boundary, the same operator-splitting
  // coarsening the sharded partition itself already accepts for G > 1.
  // An all-zero spec is bit-transparent.
  void set_faults(const FaultSpec& faults) {
    faults_ = FaultClock(protocol_, faults, /*count_compiled=*/true);
  }

  // For structured protocols: no future interaction can change anything.
  bool silent() const
    requires ScalarActiveWeight<P>::kStructured
  {
    return merged_weight_.total(population_size()) == 0;
  }

  // Advances by one round (>= 1 interaction; typically round_ptime * n).
  // Returns the interactions consumed, 0 iff the configuration is provably
  // stuck.
  std::uint64_t step() {
    last_deltas_.clear();
    const bool churn_on = faults_.churn_on();
    if (provably_stuck()) {
      if (!churn_on) return 0;
      // Churn-only round: every pair is provably null, but agents still
      // crash — consume a full round of null slots and apply its crashes.
      ++round_index_;
      apply_round_churn(g_round_);
      interactions_ += g_round_;
      stats_.batched += g_round_;
      ++rounds_;
      trace_.note(StrategyArm::kSharded, g_round_);
      return g_round_;
    }
    const std::uint64_t n = population_size();
    const std::uint32_t t_count = shards();
    ++round_index_;

    // 1. Exact multinomial quotas ∝ m_t (m_t - 1).
    sample_multinomial(alloc_rng_, g_round_, quota_probs_, quota_);

    // 2. Occupied snapshot + two-level chained MVH partition: each shard's
    //    allocation is drawn segment-by-segment over the merged pool's
    //    per-segment subtotals (one hypergeometric per segment, with early
    //    exit once the shard is full), then member-by-member only inside
    //    segments that actually received mass. Grouping the chain by
    //    segment leaves the joint law identical to the flat chain of
    //    sample_shard_partition (the law the chi-square tests in
    //    tests/discrete_samplers_test.cpp pin down) — the chain rule
    //    factors through any fixed grouping — while skipping exhausted and
    //    empty segments wholesale. The two exact shortcuts remain: quota-0
    //    shards are integrated out of the chain, and the last active shard
    //    takes the remainder without a draw.
    snapshot_occupied();
    remaining_ = occ_counts_;
    seg_remaining_ = seg_subtotal_;
    const std::uint64_t round_base =
        derive_seed(derive_seed(seed_, 0xB10C), round_index_);
    std::uint64_t unassigned = n;
    for (std::uint32_t t = 0; t < t_count; ++t) {
      if (quota_[t] == 0) continue;
      if (unassigned == shard_sizes_[t]) {
        alloc_[t] = remaining_;
      } else {
        sample_segmented_allocation(shard_sizes_[t], unassigned, alloc_[t]);
      }
      unassigned -= shard_sizes_[t];
      workers_state_[t].prepare(protocol_, occ_codes_, alloc_[t],
                                shard_sizes_[t], derive_seed(round_base, t),
                                faults_);
    }

    // 3. Shard phase: parallel when the round is big enough to amortize
    //    the pool handoff; inline otherwise. Either way, results are
    //    identical — shard streams and shard state are fixed above.
    auto run_shard = [&](std::uint32_t t) {
      consumed_[t] =
          quota_[t] == 0 ? 0 : workers_state_[t].run(protocol_, quota_[t]);
    };
    if (workers_ > 1 && g_round_ >= kMinThreadedRound) {
      if (!task_pool_)
        task_pool_ = std::make_unique<detail::ShardTaskPool>(workers_);
      const std::function<void(std::uint32_t)> job = run_shard;
      task_pool_->run(t_count, job);
    } else {
      for (std::uint32_t t = 0; t < t_count; ++t) run_shard(t);
    }

    // 4. Reconciliation, in shard index order.
    round_net_.clear();
    std::uint64_t consumed_total = 0;
    for (std::uint32_t t = 0; t < t_count; ++t) {
      if (quota_[t] == 0) continue;
      consumed_total += consumed_[t];
      merge_signed_deltas(round_net_, workers_state_[t].net_deltas());
      if constexpr (ObservableProtocol<P>)
        counters_.add_scaled(workers_state_[t].counters(), 1);
      const BatchStepStats& ws = workers_state_[t].stats();
      stats_.effective += ws.effective;
      stats_.batched += ws.batched;
      stats_.multinomial_batches += ws.multinomial_batches;
    }
    for (std::uint32_t slot : round_net_.entry_slots()) {
      const auto code = static_cast<std::uint32_t>(round_net_.key_at(slot));
      const auto d = static_cast<std::int64_t>(round_net_.value_at(slot));
      if (d == 0) continue;
      const std::uint64_t old = counts_[code];
      counts_[code] =
          static_cast<std::uint64_t>(static_cast<std::int64_t>(old) + d);
      merged_pool_.apply_delta(code, d);
      merged_weight_.on_count_change(protocol_, code, old, counts_[code]);
      last_deltas_.push_back(
          CountDelta{code, static_cast<std::int32_t>(d)});
    }
    interactions_ += consumed_total;
    if (churn_on) apply_round_churn(consumed_total);
    ++rounds_;
    trace_.note(StrategyArm::kSharded, consumed_total);
    return consumed_total;
  }

  // The controller's decision trace: every round of this engine runs the
  // sharded arm (the per-shard skip-vs-batch refinement happens inside the
  // workers and is not an arm switch).
  const StrategyTrace& strategy_trace() const { return trace_; }

 private:
  // Rounds below this many interactions run the shard phase inline: the
  // per-round thread handoff (~tens of microseconds) would otherwise rival
  // the simulated work itself at small n.
  static constexpr std::uint64_t kMinThreadedRound = 8192;

  static std::vector<std::uint64_t> counts_of(
      const P& protocol, const std::vector<State>& states) {
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

  void init(const ShardedOptions& options) {
    const std::uint64_t n = population_size();
    if (counts_.size() != protocol_.num_states())
      throw std::invalid_argument("counts size != num_states");
    std::uint64_t total = 0;
    for (std::uint64_t c : counts_) total += c;
    if (total != n)
      throw std::invalid_argument("counts must sum to population size");
    if (n < 2) throw std::invalid_argument("sharded engine needs n >= 2");
    if (options.round_ptime <= 0)
      throw std::invalid_argument("round_ptime must be positive");

    const unsigned hw = std::thread::hardware_concurrency();
    const std::uint32_t hw_default = hw > 0 ? hw : 1;
    const std::uint32_t worker_cap =
        options.max_workers > 0 ? options.max_workers : hw_default;
    std::uint64_t t_count = options.shards > 0
                                ? options.shards
                                : ShardedOptions::kDefaultShards;
    // Every shard needs >= 2 agents for an ordered pair to exist.
    t_count = std::min<std::uint64_t>(t_count, n / 2);
    t_count = std::max<std::uint64_t>(t_count, 1);

    shard_sizes_.resize(t_count);
    for (std::uint64_t t = 0; t < t_count; ++t)
      shard_sizes_[t] = n / t_count + (t < n % t_count ? 1 : 0);
    quota_probs_.resize(t_count);
    for (std::uint64_t t = 0; t < t_count; ++t)
      quota_probs_[t] = static_cast<double>(shard_sizes_[t]) *
                        static_cast<double>(shard_sizes_[t] - 1);
    g_round_ = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(options.round_ptime *
                                      static_cast<double>(n)));
    workers_ = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(worker_cap, t_count));

    workers_state_.resize(t_count);
    alloc_.resize(t_count);
    quota_.resize(t_count);
    consumed_.resize(t_count);

    merged_pool_.build(counts_);
    merged_weight_.clear();
    for (std::uint32_t slot = 0; slot < merged_pool_.slots(); ++slot) {
      const std::uint64_t w = merged_pool_.weight_at(slot);
      if (w > 0)
        merged_weight_.on_count_change(protocol_, merged_pool_.code_at(slot),
                                       0, w);
    }
  }

  // The round's churn: Binomial(slots, churn / n) crashes, each resetting
  // a uniformly random agent to the boot state, applied to the merged
  // counts (and last_deltas_, so downstream trackers see them).
  void apply_round_churn(std::uint64_t slots) {
    const std::uint32_t boot = faults_.churn_code();
    std::uint64_t crashes =
        sample_binomial(alloc_rng_, slots, faults_.crash_probability());
    for (; crashes > 0; --crashes) {
      const std::uint32_t victim = pick_uniform_agent_code();
      if (victim == boot) continue;
      apply_global_delta(victim, -1);
      apply_global_delta(boot, +1);
    }
  }

  // Uniform agent draw over the merged counts: linear scan of the occupied
  // pool (crashes per round are few; O(occupied) each is in the noise).
  std::uint32_t pick_uniform_agent_code() {
    std::uint64_t target = alloc_rng_.below(population_size());
    for (std::uint32_t slot = 0; slot < merged_pool_.slots(); ++slot) {
      const std::uint64_t w = merged_pool_.weight_at(slot);
      if (target < w) return merged_pool_.code_at(slot);
      target -= w;
    }
    throw std::logic_error("population exhausted in churn victim draw");
  }

  // One merged-count change, mirrored into every global structure the
  // reconciliation loop maintains.
  void apply_global_delta(std::uint32_t code, std::int64_t d) {
    const std::uint64_t old = counts_[code];
    counts_[code] =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(old) + d);
    merged_pool_.apply_delta(code, d);
    merged_weight_.on_count_change(protocol_, code, old, counts_[code]);
    last_deltas_.push_back(CountDelta{code, static_cast<std::int32_t>(d)});
  }

  bool provably_stuck() const {
    if constexpr (ScalarActiveWeight<P>::kStructured) {
      return merged_weight_.total(population_size()) == 0;
    } else if constexpr (NullPairProtocol<P>) {
      std::uint32_t only;
      if (!merged_pool_.single_occupied(only)) return false;
      const State s = protocol_.decode(only);
      return protocol_.is_null_pair(s, s);
    } else {
      return false;
    }
  }

  // Snapshot of the merged pool's occupied codes, grouped contiguously by
  // pool segment: occ_codes_/occ_counts_ entries [seg_begin_[s],
  // seg_begin_[s+1]) belong to segment s, whose live subtotal starts at
  // seg_subtotal_[s]. The grouping is what lets the per-shard chain draw
  // one hypergeometric per segment instead of one per occupied code.
  void snapshot_occupied() {
    occ_codes_.clear();
    occ_counts_.clear();
    seg_begin_.clear();
    seg_subtotal_.clear();
    const std::uint32_t segs = merged_pool_.segment_count();
    for (std::uint32_t seg = 0; seg < segs; ++seg) {
      seg_begin_.push_back(static_cast<std::uint32_t>(occ_codes_.size()));
      std::uint64_t subtotal = 0;
      for (std::uint32_t slot : merged_pool_.segment_slots(seg)) {
        const std::uint64_t w = merged_pool_.weight_at(slot);
        if (w == 0) continue;
        occ_codes_.push_back(merged_pool_.code_at(slot));
        occ_counts_.push_back(w);
        subtotal += w;
      }
      seg_subtotal_.push_back(subtotal);
    }
    seg_begin_.push_back(static_cast<std::uint32_t>(occ_codes_.size()));
  }

  // One shard's allocation (`want` agents out of the `available` not yet
  // assigned), drawn by the two-level chain over seg_remaining_ and
  // remaining_; both are decremented in place.
  void sample_segmented_allocation(std::uint64_t want, std::uint64_t available,
                                   std::vector<std::uint64_t>& out) {
    out.assign(occ_counts_.size(), 0);
    std::uint64_t remaining_total = available;
    std::uint64_t left = want;
    for (std::size_t seg = 0; seg < seg_subtotal_.size() && left > 0; ++seg) {
      const std::uint64_t sw = seg_remaining_[seg];
      const std::uint64_t k =
          sw == 0 ? 0
                  : sample_hypergeometric(alloc_rng_, sw, remaining_total - sw,
                                          left);
      remaining_total -= sw;
      left -= k;
      if (k == 0) continue;
      seg_remaining_[seg] = sw - k;
      std::uint64_t seg_rem = sw;
      std::uint64_t seg_left = k;
      for (std::uint32_t i = seg_begin_[seg];
           i < seg_begin_[seg + 1] && seg_left > 0; ++i) {
        const std::uint64_t w = remaining_[i];
        const std::uint64_t x =
            w == 0 ? 0
                   : sample_hypergeometric(alloc_rng_, w, seg_rem - w,
                                           seg_left);
        seg_rem -= w;
        seg_left -= x;
        if (x != 0) {
          out[i] = x;
          remaining_[i] -= x;
        }
      }
    }
  }

  P protocol_;
  std::vector<std::uint64_t> counts_;  // merged dense counts (the snapshot)
  std::uint64_t seed_;
  Rng alloc_rng_;                      // partition + quota stream
  OccupiedPool merged_pool_;           // occupied view for the split
  ScalarActiveWeight<P> merged_weight_;
  std::vector<std::uint64_t> shard_sizes_;
  std::vector<double> quota_probs_;    // m_t (m_t - 1)
  std::uint64_t g_round_ = 1;
  std::uint32_t workers_ = 1;
  std::uint64_t round_index_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t interactions_ = 0;
  std::vector<ShardWorker<P>> workers_state_;
  std::unique_ptr<detail::ShardTaskPool> task_pool_;
  std::vector<std::vector<std::uint64_t>> alloc_;  // per shard, per occ code
  std::vector<std::uint64_t> quota_;
  std::vector<std::uint64_t> consumed_;
  std::vector<std::uint64_t> remaining_;
  std::vector<std::uint32_t> occ_codes_;
  std::vector<std::uint64_t> occ_counts_;
  std::vector<std::uint32_t> seg_begin_;      // segment -> occ_* start index
  std::vector<std::uint64_t> seg_subtotal_;   // segment live subtotals
  std::vector<std::uint64_t> seg_remaining_;  // ...not yet assigned
  FlatMap64 round_net_;
  std::vector<CountDelta> last_deltas_;
  FaultClock faults_;  // fault-free (and bit-transparent) unless set_faults()
  BatchStepStats stats_;
  StrategyTrace trace_;
  [[no_unique_address]] Counters counters_{};
};

}  // namespace ppsim
