// demotx:expert-file: benchmark: the Collection workloads run the paper's
// per-operation tiers (elastic parse, snapshot or classic size) by design
// collection-real and list-mixed-sim64: the paper's Collection mix
// (80% contains, 5% add, 5% remove, 10% size) over 512 initial keys drawn
// from a range of 1024, through harness::OpGenerator so a seed gives the
// same operation stream the figure benches use.
#include <algorithm>
#include <memory>
#include <vector>

#include "ds/tx_hashset.hpp"
#include "ds/tx_list.hpp"
#include "harness/workload.hpp"
#include "mem/epoch.hpp"
#include "vt/scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace ds = demotx::ds;
namespace harness = demotx::harness;
namespace mem = demotx::mem;
using harness::OpKind;

harness::WorkloadConfig collection_config(std::uint64_t seed) {
  harness::WorkloadConfig cfg;  // 512 keys, range 1024, 80/5/5/10, uniform
  cfg.seed = seed;
  return cfg;
}

// What one logical thread observed; checked after the run.
struct Outcome {
  std::uint64_t ops = 0;
  long net_adds = 0;
  std::uint64_t illegal_sizes = 0;  // size() outside [0, key range]
};

long call_set(demotx::ISet& set, OpKind kind, long key) {
  switch (kind) {
    case OpKind::kContains:
      return set.contains(key) ? 1 : 0;
    case OpKind::kAdd:
      return set.add(key) ? 1 : 0;
    case OpKind::kRemove:
      return set.remove(key) ? 1 : 0;
    case OpKind::kSize:
      return set.size();
  }
  return 0;
}

// One operation, drawn exactly as harness::run_op draws it (kind, then a
// key for the three point operations).  Traced: the benchmark opens the
// outer transaction in the operation's own tier and times it.
struct OpRunner {
  demotx::ISet& set;
  stm::Semantics parse_sem;
  stm::Semantics size_sem;
  long key_range;

  // Returns the op kind; `latency` receives the op span (span clock).
  OpKind run(harness::OpGenerator& gen, Outcome& out, LayerAcc* acc,
             std::uint64_t& latency) const {
    const OpKind kind = gen.next_kind();
    const long key = kind == OpKind::kSize ? 0 : gen.next_key();
    long r = 0;
    if (acc == nullptr) {
      const std::uint64_t t0 = span_now();
      r = call_set(set, kind, key);
      latency = span_now() - t0;
    } else {
      const stm::Semantics sem =
          kind == OpKind::kSize ? size_sem : parse_sem;
      r = traced_atomically(sem, *acc,
                            [&](stm::Tx&) { return call_set(set, kind, key); });
      latency = acc->last_op;
    }
    switch (kind) {
      case OpKind::kAdd:
        out.net_adds += r;
        break;
      case OpKind::kRemove:
        out.net_adds -= r;
        break;
      case OpKind::kSize:
        if (r < 0 || r > key_range) ++out.illegal_sizes;
        break;
      case OpKind::kContains:
        break;
    }
    ++out.ops;
    return kind;
  }
};

// One batch of set-up samples, appended to `out`.  Each set is destroyed
// before the next is built, so after the first the allocator serves warm
// memory and the kernel's page-fault cost stays out of the figure.
template <typename Make>
void time_setups(const harness::WorkloadConfig& cfg, Make make,
                 std::vector<double>& out) {
  for (int i = 0; i < kSetupBatch; ++i) {
    const double t0 = wall_s();
    for (int k = 0; k < kSetupRepeat; ++k) {
      auto set = make();
      harness::prefill(*set, cfg);
    }
    out.push_back((wall_s() - t0) / kSetupRepeat);
  }
}

void check_collection(Result& r, demotx::ISet& set,
                      const harness::WorkloadConfig& cfg, long net_adds,
                      std::uint64_t illegal_sizes) {
  const long expect = cfg.initial_size + net_adds;
  if (set.unsafe_size() != expect)
    r.fail("final size " + std::to_string(set.unsafe_size()) +
           " != initial + net adds " + std::to_string(expect));
  if (illegal_sizes != 0)
    r.fail(std::to_string(illegal_sizes) + " size() results out of range");
}

// ---- collection-real -------------------------------------------------------

constexpr int kRealThreads = 2;
constexpr double kWindowS = 0.25;
constexpr std::uint64_t kClockEvery = 64;  // ops between clock reads

struct RealPhase {
  double ops_per_s = 0;  // median over windows after the first
  double cpu_s = 0;      // process CPU time inside run_threads
  long net_adds = 0;
  std::uint64_t illegal_sizes = 0;
  std::uint64_t ops = 0;
  LayerAcc acc;  // traced: spans in TSC ticks
};

RealPhase run_real_phase(ds::TxHashSet& set,
                         const harness::WorkloadConfig& cfg, double seconds,
                         bool traced) {
  const auto windows = static_cast<std::size_t>(
      std::max(2.0, seconds / kWindowS));
  std::vector<std::vector<std::uint64_t>> counts(kRealThreads);
  std::vector<Outcome> outs(kRealThreads);
  std::vector<LayerAcc> accs(kRealThreads);
  const OpRunner runner{set, stm::Semantics::kElastic,
                        stm::Semantics::kSnapshot, cfg.key_range};

  const double cpu0 = process_cpu_s();
  const double t0 = wall_s();
  demotx::vt::run_threads(kRealThreads, [&](int id) {
    // Thread-local until the end: the shared vectors' neighbouring
    // elements would otherwise false-share a line on every operation.
    const auto i = static_cast<std::size_t>(id);
    harness::OpGenerator gen(cfg, id);
    Outcome out;
    LayerAcc local;
    std::vector<std::uint64_t> count(windows, 0);
    std::uint64_t batch = 0, latency = 0;
    for (;;) {
      runner.run(gen, out, traced ? &local : nullptr, latency);
      if (++batch < kClockEvery) continue;
      const auto w = static_cast<std::size_t>((wall_s() - t0) / kWindowS);
      if (w >= windows) break;
      count[w] += batch;
      batch = 0;
    }
    outs[i] = out;
    accs[i] = local;
    counts[i] = std::move(count);
  });
  const double cpu1 = process_cpu_s();

  RealPhase p;
  std::vector<double> rates;
  for (std::size_t w = 1; w < windows; ++w) {  // window 0 is warm-up
    std::uint64_t n = 0;
    for (int t = 0; t < kRealThreads; ++t) n += counts[t][w];
    rates.push_back(static_cast<double>(n) / kWindowS);
  }
  p.ops_per_s = median(rates);
  p.cpu_s = cpu1 - cpu0;
  for (int t = 0; t < kRealThreads; ++t) {
    p.net_adds += outs[t].net_adds;
    p.illegal_sizes += outs[t].illegal_sizes;
    p.ops += outs[t].ops;
    p.acc.merge(accs[t]);
  }
  return p;
}

// ---- simulated Collection units --------------------------------------------

LatencyHist& role(Latencies& lat, OpKind kind) {
  switch (kind) {
    case OpKind::kContains:
      return lat.lookup;
    case OpKind::kSize:
      return lat.query;
    case OpKind::kAdd:
    case OpKind::kRemove:
      break;
  }
  return lat.update;
}

struct SimUnit {
  std::uint64_t cycles = 0;
  std::uint64_t ops = 0;
  double cpu_s = 0;   // inside Scheduler::run()
  double wall_s = 0;  // inside Scheduler::run()
  Latencies lat;  // virtual cycles, every operation
  long net_adds = 0;
  std::uint64_t illegal_sizes = 0;
  double drain_ns = 0;
  LayerAcc acc;
  stm::TxStats stats;

  [[nodiscard]] double ops_per_kcycle() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(ops) * 1000.0 /
                             static_cast<double>(cycles);
  }
};

std::unique_ptr<demotx::ISet> make_mixed_list() {
  return std::make_unique<ds::TxList>(
      ds::TxList::Options{stm::Semantics::kElastic, stm::Semantics::kClassic});
}

std::unique_ptr<demotx::ISet> make_hashset() {
  return std::make_unique<ds::TxHashSet>();
}

// A simulated Collection run: the structure, the tiers its operations run
// in (for the traced loop), fibers and virtual length.
struct SimSpec {
  std::unique_ptr<demotx::ISet> (*make)();
  stm::Semantics parse_sem, size_sem;
  int threads;
  std::uint64_t cycles;
};

SimSpec list_spec(const ListSimParams& p) {
  return {make_mixed_list, stm::Semantics::kElastic, stm::Semantics::kClassic,
          p.threads, p.cycles};
}

// collection-real's end-to-end metrics come from the same set and mix on
// kHashFibers fibers: on OS threads this host's speed drifts by up to a
// quarter between runs minutes apart, which would swamp any change a
// bound could catch.  kHashCyclesPerSecond fills most of a run on a
// 4-vCPU Xeon host.
constexpr int kHashFibers = 64;
constexpr double kHashCyclesPerSecond = 150'000;

SimSpec hashset_spec(double seconds) {
  return {make_hashset, stm::Semantics::kElastic, stm::Semantics::kSnapshot,
          kHashFibers,
          static_cast<std::uint64_t>(seconds * kHashCyclesPerSecond)};
}

// One measured unit: a fresh prefilled structure and `p.threads` fibers,
// each running the Collection loop until `p.cycles` — the loop of
// harness::run_sim_workload, with per-operation latencies read from
// vt::sim_now() (free of virtual cost).
SimUnit run_sim_unit(const harness::WorkloadConfig& cfg, const SimSpec& p,
                     bool traced, Result& r) {
  // A fresh world: no retired nodes or warm coherence lines left over
  // from whatever ran before in this process.
  mem::EpochManager::instance().drain();
  stm::Runtime& rt = stm::Runtime::instance();
  rt.sim_lines_reset();
  auto set = p.make();
  harness::prefill(*set, cfg);
  rt.reset_stats();

  demotx::vt::Scheduler::Options sopts;
  sopts.policy = demotx::vt::Scheduler::Policy::kRoundRobin;
  sopts.max_cycles = p.cycles * 64 + 10'000'000;  // as run_sim_workload
  demotx::vt::Scheduler sched(sopts);

  const auto n = static_cast<std::size_t>(p.threads);
  std::vector<Outcome> outs(n);
  std::vector<LayerAcc> accs(n);
  SimUnit u;
  const OpRunner runner{*set, p.parse_sem, p.size_sem, cfg.key_range};
  for (int t = 0; t < p.threads; ++t) {
    sched.spawn([&, t](int id) {
      harness::OpGenerator gen(cfg, id);
      const auto i = static_cast<std::size_t>(t);
      LayerAcc* acc = traced ? &accs[i] : nullptr;
      std::uint64_t cycles = 0;
      while (sched.cycles() < p.cycles) {
        const OpKind kind = runner.run(gen, outs[i], acc, cycles);
        role(u.lat, kind).add(cycles);
      }
    });
  }
  const double cpu0 = process_cpu_s();
  const double wall0 = wall_s();
  sched.run();
  u.cpu_s = process_cpu_s() - cpu0;
  u.wall_s = wall_s() - wall0;
  u.cycles = sched.cycles();
  if (sched.hit_cycle_limit()) r.fail("simulation hit its cycle brake");
  for (std::size_t i = 0; i < n; ++i) {
    u.ops += outs[i].ops;
    u.net_adds += outs[i].net_adds;
    u.illegal_sizes += outs[i].illegal_sizes;
    u.acc.merge(accs[i]);
  }
  u.stats = rt.aggregate_stats();
  check_collection(r, *set, cfg, u.net_adds, u.illegal_sizes);
  const double d0 = wall_s();
  mem::EpochManager::instance().drain();
  u.drain_ns = (wall_s() - d0) * 1e9;
  return u;
}

// A simulated unit's virtual end-to-end metrics.  Takes a copy:
// quantile() reorders the samples.
Result sim_virtual(SimUnit u) {
  Result v;
  add_clock_metrics(v, u.ops_per_kcycle(), u.lat);
  return v;
}

double ops_per_wall_s(const SimUnit& u) {
  return static_cast<double>(u.ops) / u.wall_s;
}

}  // namespace

Result run_collection_real(const RunArgs& args) {
  Result r;
  const harness::WorkloadConfig cfg = collection_config(args.seed);
  if (!args.trace) {
    std::vector<double> setups;
    time_setups(cfg, make_hashset, setups);
    SimUnit u = run_sim_unit(cfg, hashset_spec(args.seconds), false, r);
    r.attempted = u.ops;
    time_setups(cfg, make_hashset, setups);
    add_host_metrics(r, median(setups));
    add_clock_metrics(r, u.ops_per_kcycle(), u.lat);
    return r;
  }

  // Traced: the same set and mix on OS threads, timed by the TSC.  An
  // untraced half gives the overhead figure, then the traced half.
  ds::TxHashSet set;
  harness::prefill(set, cfg);
  long net_adds = 0;
  std::uint64_t illegal = 0;
  const auto absorb = [&](const RealPhase& p) {
    net_adds += p.net_adds;
    illegal += p.illegal_sizes;
    r.attempted += p.ops;
  };
  const RealPhase plain = run_real_phase(set, cfg, args.seconds / 2, false);
  absorb(plain);
  stm::Runtime::instance().reset_stats();
  RealPhase p = run_real_phase(set, cfg, args.seconds / 2, true);
  absorb(p);
  Layers l;
  l.stats = stm::Runtime::instance().aggregate_stats();
  const double d0 = wall_s();
  mem::EpochManager::instance().drain();
  l.drain_ns = (wall_s() - d0) * 1e9;
  check_collection(r, set, cfg, net_adds, illegal);

  const LayerAcc& a = p.acc;
  const std::uint64_t spans = a.total(Span::kBegin) + a.total(Span::kBody) +
                              a.total(Span::kCommit) +
                              a.total(Span::kRollback) +
                              a.total(Span::kBackoff);
  const double coverage =
      a.op_total == 0 ? 0.0
                      : static_cast<double>(spans) /
                            static_cast<double>(a.op_total);
  // On OS threads the spans share boundaries but the loop between them is
  // untimed: the spans must still cover nearly all of each op.
  if (coverage < 0.9 || coverage > 1.0 + 1e-9)
    r.fail("span coverage " + std::to_string(coverage) + " outside [0.9, 1]");

  l.acc = a;
  l.ops = static_cast<double>(p.ops);
  l.ds_used = true;
  l.vt_run_cpu_s = plain.cpu_s;
  l.overhead_ops_per_s = p.ops_per_s - plain.ops_per_s;
  l.span_coverage = coverage;
  add_layer_metrics(r, l);
  return r;
}

double list_sim_ops_per_kcycle(std::uint64_t seed, int threads,
                               std::uint64_t cycles) {
  Result checks;
  const SimUnit u =
      run_sim_unit(collection_config(seed),
                   list_spec(ListSimParams{threads, cycles}), false, checks);
  return checks.correct ? u.ops_per_kcycle() : -1.0;
}

Result run_list_sim(const RunArgs& args, const ListSimParams& p) {
  Result r;
  const harness::WorkloadConfig cfg = collection_config(args.seed);

  std::vector<double> setups;
  if (!args.trace) time_setups(cfg, make_mixed_list, setups);
  const double t_start = wall_s();
  SimUnit first = run_sim_unit(cfg, list_spec(p), false, r);
  r.attempted = first.ops;
  const Result virt = sim_virtual(first);

  if (!args.trace) {
    // Further identical units that fit in the remaining time (none when the
    // unit fills the run): each must repeat the first exactly.
    for (double unit_s = wall_s() - t_start;
         wall_s() - t_start + unit_s <= args.seconds && r.correct;) {
      const double u0 = wall_s();
      SimUnit u = run_sim_unit(cfg, list_spec(p), false, r);
      unit_s = wall_s() - u0;
      if (!same_metrics(virt, sim_virtual(u)))
        r.fail("a repeated unit changed the virtual metrics");
    }
    time_setups(cfg, make_mixed_list, setups);
    add_host_metrics(r, median(setups));
    for (const Metric& m : virt.metrics) r.metrics.push_back(m);
    return r;
  }

  SimUnit u = run_sim_unit(cfg, list_spec(p), true, r);
  if (!same_metrics(virt, sim_virtual(u)))
    r.fail("tracing changed the virtual end-to-end metrics");
  const LayerAcc& a = u.acc;
  const std::uint64_t spans =
      a.total(Span::kBegin) + a.total(Span::kBody) + a.total(Span::kCommit) +
      a.total(Span::kRollback) + a.total(Span::kBackoff);
  // In virtual time nothing between the spans costs a cycle.
  if (spans != a.op_total)
    r.fail("spans cover " + std::to_string(spans) + " of " +
           std::to_string(a.op_total) + " op cycles");

  Layers l;
  l.acc = a;
  l.stats = u.stats;
  l.ops = static_cast<double>(u.ops);
  l.drain_ns = u.drain_ns;
  l.ds_used = true;
  l.vt_run_cpu_s = first.cpu_s;
  l.overhead_ops_per_s = ops_per_wall_s(u) - ops_per_wall_s(first);
  l.span_coverage = a.op_total == 0 ? 0.0
                                    : static_cast<double>(spans) /
                                          static_cast<double>(a.op_total);
  add_layer_metrics(r, l);
  return r;
}

}  // namespace perfbench
