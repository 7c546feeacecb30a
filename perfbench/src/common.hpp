// demotx:expert-file: benchmark: times the expert Tx::begin/commit/rollback
// protocol from outside, around each operation, by design
// Shared pieces of the repository benchmark: the result record every
// workload returns, span accumulators for the traced runs, the
// benchmark-side copy of the atomically() retry loop that the traced runs
// wrap around each operation, and small measurement helpers.
//
// Spans are recorded only here, around calls into each module's public
// API; nothing under src/ is patched.  Under the simulator a span reads
// vt::sim_now(), which charges no virtual cycles, so a traced sim run
// executes exactly the schedule of the untraced one.  On OS threads a
// span reads the TSC and reports ticks.
#pragma once

#include <x86intrin.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "stm/runtime.hpp"
#include "vt/context.hpp"

namespace perfbench {

namespace stm = demotx::stm;
namespace vt = demotx::vt;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::string why;  // first failed check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(const std::string& msg) {
    if (correct) why = msg;
    correct = false;
  }
  [[nodiscard]] const Metric* find(const std::string& name) const;
};

// True when both results report the same metrics with identical values.
bool same_metrics(const Result& a, const Result& b);

struct RunArgs {
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
};

// ---- measurement helpers -------------------------------------------------

double wall_s();         // steady clock, seconds
double process_cpu_s();  // CPU time of the whole process, seconds
double peak_rss_mb();    // ru_maxrss
double median(std::vector<double> v);
// Nearest-rank quantile, the rule harness::PercentileSink uses.
std::uint64_t quantile(std::vector<std::uint64_t>& v, double q);

// setup_s is the median of 2 x kSetupBatch samples: one batch before the
// measured work and one after it.  A sample is the mean of kSetupRepeat
// set-ups in a row.  A set-up takes microseconds to a few milliseconds,
// and this host's speed drifts in streaks of a few milliseconds to
// seconds, so averaged samples from two batches far apart give a steadier
// median than single set-ups in one burst.
inline constexpr int kSetupBatch = 12;
inline constexpr int kSetupRepeat = 8;

// Span clock: virtual cycles under the simulator, TSC ticks otherwise.
inline std::uint64_t span_now() {
  return vt::in_sim() ? vt::sim_now() : __rdtsc();
}

// ---- span accumulators ---------------------------------------------------

enum class Span : int { kBegin, kBody, kCommit, kRollback, kBackoff, kCount };

// One logical thread's spans; merged after the run.  Not shared between
// OS threads while a run is in progress.
struct LayerAcc {
  std::uint64_t sum[static_cast<int>(Span::kCount)] = {};
  std::uint64_t n[static_cast<int>(Span::kCount)] = {};
  // Per tier: whole attempts, begin through commit or rollback.
  std::uint64_t attempt_sum[stm::kNumSemantics] = {};
  std::uint64_t attempt_n[stm::kNumSemantics] = {};
  std::uint64_t wasted = 0;  // aborted attempts: begin..rollback + backoff
  std::uint64_t op_total = 0;
  std::uint64_t ops = 0;
  std::uint64_t last_op = 0;  // span of the most recent operation

  void add(Span s, std::uint64_t d) {
    sum[static_cast<int>(s)] += d;
    ++n[static_cast<int>(s)];
  }
  void add_attempt(stm::Semantics sem, std::uint64_t d) {
    attempt_sum[static_cast<int>(sem)] += d;
    ++attempt_n[static_cast<int>(sem)];
  }
  void merge(const LayerAcc& o);
  [[nodiscard]] double mean(Span s) const;
  [[nodiscard]] std::uint64_t total(Span s) const {
    return sum[static_cast<int>(s)];
  }
};

// Benchmark-side copy of stm::atomically's retry loop, split into spans.
// The caller opens the outer transaction with the operation's own tier;
// the data-structure call inside `fn` joins it through flat nesting, so
// the transaction that runs is the one the untraced call would run.  The
// whole call is one operation span; the first begin span includes the
// descriptor lookup, as atomically()'s own prologue does.  The benchmark's
// bodies never call stm::retry(), so its blocking branch is left out.
template <typename F>
auto traced_atomically(stm::Semantics sem, LayerAcc& acc, F&& fn)
    -> std::invoke_result_t<F&, stm::Tx&> {
  using R = std::invoke_result_t<F&, stm::Tx&>;
  static_assert(!std::is_void_v<R>, "traced bodies return their result");
  const std::uint64_t op0 = span_now();
  stm::Runtime& rt = stm::Runtime::instance();
  stm::Tx& tx = rt.tx_for_current_thread();
  stm::ContentionManager& cm = rt.cm_for_slot(tx.slot());
  for (unsigned attempt = 0;; ++attempt) {
    const std::uint64_t t0 = attempt == 0 ? op0 : span_now();
    tx.begin(sem, attempt);
    tx.depth_ = 1;
    const std::uint64_t t1 = span_now();
    acc.add(Span::kBegin, t1 - t0);
    std::uint64_t phase_start = t1;
    Span phase = Span::kBody;
    try {
      R result = fn(tx);
      const std::uint64_t t2 = span_now();
      acc.add(Span::kBody, t2 - t1);
      phase_start = t2;
      phase = Span::kCommit;
      tx.commit();
      tx.depth_ = 0;
      const std::uint64_t t3 = span_now();
      acc.add(Span::kCommit, t3 - t2);
      acc.add_attempt(sem, t3 - t0);
      acc.last_op = t3 - op0;
      acc.op_total += acc.last_op;
      ++acc.ops;
      return result;
    } catch (const stm::AbortTx& a) {
      tx.depth_ = 0;
      const std::uint64_t t3 = span_now();
      acc.add(phase, t3 - phase_start);
      tx.rollback(a.reason);
      const std::uint64_t t4 = span_now();
      acc.add(Span::kRollback, t4 - t3);
      acc.add_attempt(sem, t4 - t0);
      cm.on_abort(tx, attempt);
      const std::uint64_t t5 = span_now();
      acc.add(Span::kBackoff, t5 - t4);
      acc.wasted += t5 - t0;
    } catch (...) {
      tx.depth_ = 0;
      tx.rollback(stm::AbortReason::kUserException);
      throw;
    }
  }
}

// ---- configuration hygiene -----------------------------------------------

// Names of DEMOTX_* variables in the environment (empty = clean).
std::vector<std::string> demotx_env_vars();
// The effective runtime configuration as one JSON object, and whether it
// equals the built-in defaults (stm::Config{}) the benchmark is defined
// against.
std::string config_json(const stm::Config& c);
bool config_is_default(const stm::Config& c);

// ---- the metrics every workload reports ---------------------------------
//
// A "cycle" is a tick of the workload's own clock: a TSC tick on OS
// threads, a virtual cycle under the simulator.

// Latency counts by cycle value: exact below kExact cycles, the rare
// longer samples kept as they are.  The footprint does not grow with the
// number of operations, so neither does peak_rss_mb.
class LatencyHist {
 public:
  void add(std::uint64_t cycles);
  [[nodiscard]] double mean() const;
  // Nearest-rank quantile, the rule quantile() uses.
  [[nodiscard]] std::uint64_t quantile(double q);

 private:
  static constexpr std::size_t kExact = 1 << 16;
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kExact, 0);
  std::vector<std::uint64_t> long_;  // samples of kExact cycles or more
  std::uint64_t n_ = 0;
  std::uint64_t sum_ = 0;
};

// Operation latencies in cycles, by role: a point lookup (contains, get),
// a whole-structure read (size, scan) and a point update (add/remove, put).
struct Latencies {
  LatencyHist lookup, query, update;
};

// The clock-valued end-to-end metrics: throughput per kilocycle, mean
// latencies and tail latencies.  Means rather than medians: a median of
// integer cycle counts often reads the same for every seed.  Under the
// simulator these repeat exactly for a seed, so the checks compare them
// between units.
void add_clock_metrics(Result& r, double ops_per_kcycle, Latencies& lat);

// The host-measured end-to-end metrics: set-up time and peak footprint.
void add_host_metrics(Result& r, double setup_s);

// Every per-layer metric.  A layer a workload bypasses keeps its zeros:
// the collection workloads attach no commit logger and serve no requests,
// and the kv service calls into stm itself, so there only whole attempts
// (from a TxObserver) are timed and the contention manager never backs
// off.
struct Layers {
  LayerAcc acc;  // stm/cm spans, in cycles
  stm::TxStats stats;
  double ops = 0;  // completed operations, for attempts per op
  double drain_ns = 0;
  double vt_run_cpu_s = 0;
  bool ds_used = false;  // ds.self_cycles = op span minus stm/cm spans
  // dur, at the kv nominal point.
  double dur_append_cycles = 0, dur_ack_p50 = 0, dur_ack_p99 = 0;
  double dur_records_per_flush = 0, dur_flushes = 0, dur_checkpoints = 0;
  // svc, at the kv nominal point.
  double svc_attempts_scan = 0, svc_attempts_transfer = 0, svc_queue_share = 0;
  // trace.
  double overhead_ops_per_s = 0, span_coverage = 0;
};
void add_layer_metrics(Result& r, const Layers& l);

}  // namespace perfbench
