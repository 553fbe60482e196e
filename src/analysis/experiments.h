// Shared helpers for the benchmark harness: seeded trial loops (serial and
// multi-threaded), sweep tables, and scaling-exponent reports.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"  // BenchScale (shared bench flag parsing)
#include "core/engine.h"  // BatchStrategy, parse_strategy
#include "core/rng.h"
#include "core/stats.h"
#include "core/table.h"

namespace ppsim {

// Runs `trials` seeded executions of `one` (seed -> measurement).
template <class F>
std::vector<double> run_trials(std::uint32_t trials, std::uint64_t base_seed,
                               F&& one) {
  std::vector<double> xs;
  xs.reserve(trials);
  for (std::uint32_t t = 0; t < trials; ++t)
    xs.push_back(one(derive_seed(base_seed, t)));
  return xs;
}

// Thread count for run_trials_parallel: explicit argument, else the
// PPSIM_THREADS environment variable, else the hardware concurrency.
inline std::uint32_t resolve_thread_count(std::uint32_t requested = 0) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("PPSIM_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::uint32_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// Indexed multi-threaded trial fan-out: runs body(t) for every t in
// [0, trials) on up to `threads` workers (resolve_thread_count() when 0).
// Deterministic by construction when body(t) writes only slot t of its
// outputs: trial t's work is independent of which thread runs it. Fails
// fast: after the first exception no new trial starts, and that exception
// is rethrown once every worker has stopped.
template <class Body>
void for_each_trial(std::uint32_t trials, std::uint32_t threads, Body&& body) {
  threads = resolve_thread_count(threads);
  if (threads > trials) threads = trials;
  if (threads <= 1) {
    for (std::uint32_t t = 0; t < trials; ++t) body(t);
    return;
  }
  std::atomic<std::uint32_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto worker = [&] {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;  // fail fast
      const std::uint32_t t = next.fetch_add(1);
      if (t >= trials) return;
      try {
        body(t);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::uint32_t i = 0; i < threads; ++i) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

// Multi-threaded seed fan-out over for_each_trial: trial t always runs
// with derive_seed(base_seed, t) — an independent derived RNG stream — and
// lands in slot t of the result vector, so the measurements are
// bit-identical regardless of the thread count (validated in
// tests/engine_equivalence_test.cpp). `one` must be self-contained: each
// invocation constructs its own protocol and engine and shares no mutable
// state with other trials. Threads defaults to resolve_thread_count()
// (PPSIM_THREADS env var / hardware concurrency; benches plumb --threads).
template <class F>
std::vector<double> run_trials_parallel(std::uint32_t trials,
                                        std::uint64_t base_seed, F&& one,
                                        std::uint32_t threads = 0) {
  std::vector<double> xs(trials, 0.0);
  for_each_trial(trials, threads, [&](std::uint32_t t) {
    xs[t] = one(derive_seed(base_seed, t));
  });
  return xs;
}

// A (n, summary) sweep with a power-law fit over the means.
struct SweepPoint {
  double n = 0;
  Summary summary;
};

struct Sweep {
  std::vector<SweepPoint> points;

  LinearFit fit() const {
    std::vector<double> ns, ts;
    for (const auto& p : points) {
      ns.push_back(p.n);
      ts.push_back(p.summary.mean);
    }
    return fit_power_law(ns, ts);
  }

  // Growth factor of the mean per doubling of n between consecutive points
  // (assumes the sweep doubles n); length = points-1.
  std::vector<double> doubling_factors() const {
    std::vector<double> fs;
    for (std::size_t i = 1; i < points.size(); ++i)
      fs.push_back(points[i].summary.mean / points[i - 1].summary.mean);
    return fs;
  }
};

// Standard sweep printer: one row per n with mean +/- ci, p50/p95/p99.
inline void print_sweep(const std::string& title, const Sweep& sweep,
                        const std::string& metric = "parallel time") {
  std::cout << "\n== " << title << " ==\n";
  Table t({"n", metric + " mean", "ci95", "p50", "p95", "p99", "max"});
  for (const auto& p : sweep.points) {
    t.add_row({fmt(p.n, 0), fmt(p.summary.mean), fmt(p.summary.ci95),
               fmt(p.summary.p50), fmt(p.summary.p95), fmt(p.summary.p99),
               fmt(p.summary.max)});
  }
  t.print();
  if (sweep.points.size() >= 2) {
    const LinearFit f = sweep.fit();
    std::cout << "log-log fit: time ~ n^" << fmt(f.slope, 3)
              << "  (R^2 = " << fmt(f.r2, 4) << ")\n";
  }
}

// BenchScale (the shared --smoke/--quick/--full/--threads/--strategy flag
// bundle) lives in common/cli.h now, re-exported through the include above;
// unknown flags are a hard error there instead of being silently ignored.

}  // namespace ppsim
