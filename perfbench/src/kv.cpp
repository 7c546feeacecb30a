// demotx:expert-file: benchmark: attaches a TxObserver and a forwarding
// CommitLogger to time the stm and dur layers from outside, by design
// kv-durable-sim: the transactional KV service with WAL group commit under
// open-loop arrivals.  One measured unit runs both rate points of the
// workload, each on a fresh service: the nominal rate, where latency is
// measured, and the saturation rate, where goodput is.  The queue has no
// cap, so past capacity it grows and the service runs flat out.  The only
// limit is a per-request deadline above any queueing delay of its point:
// a request that outlives it is stuck, is shed, and counts as a failed
// operation.
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "dur/wal.hpp"
#include "mem/epoch.hpp"
#include "stm/durability.hpp"
#include "stm/objstm.hpp"
#include "stm/observer.hpp"
#include "svc/kvservice.hpp"
#include "vt/scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace dur = demotx::dur;
namespace mem = demotx::mem;
namespace svc = demotx::svc;

constexpr std::uint64_t kNominalGap = 24;     // 41.7 arrivals per kcycle
constexpr std::uint64_t kSaturationGap = 16;  // 62.5 arrivals per kcycle
// Deadlines: replies at the nominal point take well under 4096 cycles;
// queueing at the saturation point peaks near 400k cycles for 200k
// arrivals.
constexpr std::uint64_t kNominalDeadline = 4096;
constexpr std::uint64_t kSaturationDeadline = 1'000'000;

svc::SvcConfig kv_config(std::uint64_t gap, std::uint64_t deadline,
                         std::uint64_t requests) {
  svc::SvcConfig cfg;  // default class mix: 30/25/25/18/2
  cfg.workers = 4;
  cfg.sessions = 16;
  cfg.queue_cap = std::numeric_limits<std::uint64_t>::max();
  cfg.deadline_cycles = deadline;
  cfg.mean_interarrival = gap;
  cfg.total_requests = requests;
  cfg.durable = true;
  return cfg;
}

int cls(svc::ReqClass c) { return static_cast<int>(c); }

// Fresh durable world, as svc::run_open_loop prepares it, so log ids and
// filter bits are allocation-order determined.
void fresh_world() {
  dur::WalManager::instance().reset();
  stm::cell_uid_reset();
  stm::obj_uid_reset();
  stm::Runtime::instance().sim_lines_reset();
}

// Traced runs: attempt spans from the observer hooks (on_begin to
// on_commit / on_abort), per logical thread.
class AttemptObserver final : public stm::TxObserver {
 public:
  std::uint64_t sum[stm::kNumSemantics] = {};
  std::uint64_t n[stm::kNumSemantics] = {};
  std::uint64_t aborted_sum = 0;

  void on_begin(int slot, std::uint64_t, stm::Semantics sem,
                std::uint64_t) override {
    start_[slot] = vt::sim_now();
    sem_[slot] = static_cast<int>(sem);
  }
  void on_commit(int slot, std::uint64_t) override { end(slot); }
  void on_abort(int slot, stm::AbortReason) override {
    aborted_sum += end(slot);
  }
  void on_read(int, const stm::Cell*, std::uint64_t, std::uint64_t,
               bool) override {}
  void on_elastic_cut(int, unsigned) override {}
  void on_strengthen(int, std::uint64_t) override {}
  void on_write(int, const stm::Cell*, std::uint64_t) override {}
  void on_release(int, const stm::Cell*) override {}
  void on_branch_rollback(int) override {}
  void on_commit_write(int, const stm::Cell*, std::uint64_t) override {}

 private:
  std::uint64_t end(int slot) {
    const std::uint64_t d = vt::sim_now() - start_[slot];
    sum[sem_[slot]] += d;
    ++n[sem_[slot]];
    return d;
  }
  std::uint64_t start_[vt::kMaxThreads] = {};
  int sem_[vt::kMaxThreads] = {};
};

// Traced runs: forwards to the WAL and times its two calls.
class TimingLogger final : public stm::CommitLogger {
 public:
  explicit TimingLogger(dur::WalManager& wal) : wal_(wal) {}

  std::uint64_t on_commit_log(int slot, std::uint64_t wv,
                              const stm::WriteEntry* wb, std::size_t nw,
                              const stm::ObjNetWrite* ob,
                              std::size_t no) override {
    const std::uint64_t t0 = vt::sim_now();
    const std::uint64_t lsn = wal_.on_commit_log(slot, wv, wb, nw, ob, no);
    append_sum += vt::sim_now() - t0;
    ++appends;
    return lsn;
  }
  void await_durable(int slot, std::uint64_t lsn) override {
    const std::uint64_t t0 = vt::sim_now();
    wal_.await_durable(slot, lsn);
    ack_wait.push_back(vt::sim_now() - t0);
  }

  std::uint64_t append_sum = 0;
  std::uint64_t appends = 0;
  std::vector<std::uint64_t> ack_wait;

 private:
  dur::WalManager& wal_;
};

struct KvPoint {
  std::uint64_t gap = 0;
  std::uint64_t cycles = 0;
  double cpu_s = 0, wall_s = 0;
  std::uint64_t arrived = 0, acked = 0, shed = 0;
  double mean[svc::kNumReqClasses] = {};
  std::uint64_t p99[svc::kNumReqClasses] = {};
  std::uint64_t attempts[svc::kNumReqClasses] = {};
  std::uint64_t acked_by[svc::kNumReqClasses] = {};
  std::uint64_t latency_sum = 0;
  stm::TxStats stats;
  dur::WalStats wal;
  double drain_ns = 0;
  // Traced only.
  std::uint64_t attempt_sum[stm::kNumSemantics] = {};
  std::uint64_t attempt_n[stm::kNumSemantics] = {};
  std::uint64_t aborted_sum = 0;
  std::uint64_t append_sum = 0, appends = 0;
  std::vector<std::uint64_t> ack_wait;
};

// One rate point on a fresh service: the loop of svc::run_open_loop, with
// the observer and the timing logger attached when traced.
KvPoint run_point(std::uint64_t seed, std::uint64_t gap,
                  std::uint64_t deadline, std::uint64_t requests, bool traced,
                  Result& r) {
  stm::Runtime& rt = stm::Runtime::instance();
  rt.reset_stats();
  fresh_world();
  dur::WalManager& wal = dur::WalManager::instance();
  svc::KvService s(kv_config(gap, deadline, requests), seed);
  s.setup();
  AttemptObserver obs;
  TimingLogger logger(wal);
  if (traced) {
    stm::set_commit_logger(&logger);
    stm::set_tx_observer(&obs);
  }

  demotx::vt::Scheduler::Options sopts;
  sopts.policy = demotx::vt::Scheduler::Policy::kRoundRobin;
  sopts.max_cycles = 50'000'000 + requests * gap * 8;
  demotx::vt::Scheduler sched(sopts);
  svc::KvService* sp = &s;
  for (int w = 0; w < s.service_config().workers; ++w)
    sched.spawn([sp](int id) { sp->worker_body(id); });
  sched.spawn([sp](int) { sp->injector_body(); });
  const double cpu0 = process_cpu_s();
  const double wall0 = wall_s();
  sched.run();

  KvPoint p;
  p.cpu_s = process_cpu_s() - cpu0;
  p.wall_s = wall_s() - wall0;
  p.gap = gap;
  p.cycles = sched.cycles();
  s.teardown();
  stm::set_tx_observer(nullptr);
  const std::string at = " at interarrival " + std::to_string(gap);
  if (sched.hit_cycle_limit()) r.fail("service never drained" + at);
  std::string why;
  if (!s.check_replies(&why)) r.fail(why + at);

  svc::SvcStats& st = s.stats();
  p.arrived = st.arrived;
  p.acked = st.acked_total();
  p.shed = st.shed_queue + st.shed_deadline;
  for (int c = 0; c < svc::kNumReqClasses; ++c) {
    p.mean[c] = st.lat[c].mean();
    p.p99[c] = st.lat[c].p99();
    p.attempts[c] = st.attempts[c];
    p.acked_by[c] = st.acked[c];
    p.latency_sum += st.lat[c].sum();
  }
  p.stats = rt.aggregate_stats();
  p.wal = wal.stats();
  for (int i = 0; i < stm::kNumSemantics; ++i) {
    p.attempt_sum[i] = obs.sum[i];
    p.attempt_n[i] = obs.n[i];
  }
  p.aborted_sum = obs.aborted_sum;
  p.append_sum = logger.append_sum;
  p.appends = logger.appends;
  p.ack_wait = std::move(logger.ack_wait);
  const double d0 = wall_s();
  mem::EpochManager::instance().drain();
  p.drain_ns = (wall_s() - d0) * 1e9;
  return p;
}

// Both rate points of one unit.
struct KvUnit {
  KvPoint nominal, saturation;

  [[nodiscard]] double ops() const {
    return static_cast<double>(nominal.acked + saturation.acked);
  }
  [[nodiscard]] double ops_per_s() const {
    return ops() / (nominal.wall_s + saturation.wall_s);
  }
};

KvUnit run_unit(std::uint64_t seed, const KvParams& kp, bool traced,
                Result& r) {
  KvUnit u;
  u.nominal =
      run_point(seed, kNominalGap, kNominalDeadline, kp.requests, traced, r);
  u.saturation = run_point(seed, kSaturationGap, kSaturationDeadline,
                           kp.requests, traced, r);
  return u;
}

// Goodput at saturation; get, scan and put latency at the nominal rate.
Result kv_virtual(const KvUnit& u) {
  const KvPoint& sat = u.saturation;
  const KvPoint& nom = u.nominal;
  // The service keeps its own latency samples (harness::PercentileSink),
  // so this reads its statistics rather than calling add_clock_metrics.
  Result v;
  v.add("ops_per_kcycle",
        static_cast<double>(sat.acked) * 1000.0 /
            static_cast<double>(sat.cycles),
        "1/kcycle");
  const auto mean = [&](const char* name, svc::ReqClass c) {
    v.add(name, nom.mean[cls(c)], "cycles");
  };
  const auto p99 = [&](const char* name, svc::ReqClass c) {
    v.add(name, static_cast<double>(nom.p99[cls(c)]), "cycles");
  };
  mean("lookup_mean_cycles", svc::ReqClass::kGet);
  mean("query_mean_cycles", svc::ReqClass::kScan);
  p99("query_p99_cycles", svc::ReqClass::kScan);
  mean("update_mean_cycles", svc::ReqClass::kPut);
  p99("update_p99_cycles", svc::ReqClass::kPut);
  return v;
}

// One batch of set-up samples, appended to `out`; each service is torn
// down and destroyed before the next, as in the collection workloads.
void time_setups(std::uint64_t seed, std::uint64_t requests,
                 std::vector<double>& out) {
  for (int i = 0; i < kSetupBatch; ++i) {
    const double t0 = wall_s();
    for (int k = 0; k < kSetupRepeat; ++k) {
      fresh_world();
      svc::KvService s(kv_config(kNominalGap, kNominalDeadline, requests),
                       seed);
      s.setup();
      s.teardown();
    }
    out.push_back((wall_s() - t0) / kSetupRepeat);
  }
}

}  // namespace

Result run_kv_sim(const RunArgs& args, const KvParams& kp) {
  Result r;
  std::vector<double> setups;
  if (!args.trace) time_setups(args.seed, kp.requests, setups);
  const double t_start = wall_s();
  const KvUnit first = run_unit(args.seed, kp, false, r);
  for (const KvPoint* p : {&first.nominal, &first.saturation}) {
    r.attempted += p->arrived;
    r.failed += p->shed;  // requests the watchdog found stuck
  }
  const Result virt = kv_virtual(first);

  if (!args.trace) {
    // Further identical units that fit in the remaining time: each must
    // repeat the first exactly.
    for (double unit_s = wall_s() - t_start;
         wall_s() - t_start + unit_s <= args.seconds && r.correct;) {
      const double u0 = wall_s();
      const KvUnit u = run_unit(args.seed, kp, false, r);
      unit_s = wall_s() - u0;
      if (!same_metrics(virt, kv_virtual(u)))
        r.fail("a repeated unit changed the virtual metrics");
    }
    time_setups(args.seed, kp.requests, setups);
    add_host_metrics(r, median(setups));
    for (const Metric& m : virt.metrics) r.metrics.push_back(m);
    return r;
  }

  const KvUnit u = run_unit(args.seed, kp, true, r);
  if (!same_metrics(virt, kv_virtual(u)))
    r.fail("tracing changed the virtual end-to-end metrics");

  KvPoint nom = u.nominal;  // a copy: quantile() sorts
  Layers l;
  for (int i = 0; i < stm::kNumSemantics; ++i) {
    l.acc.attempt_sum[i] = nom.attempt_sum[i];
    l.acc.attempt_n[i] = nom.attempt_n[i];
    l.acc.op_total += nom.attempt_sum[i];
  }
  l.acc.wasted = nom.aborted_sum;  // wasted share of attempt cycles
  l.stats = nom.stats;
  l.ops = static_cast<double>(nom.acked);
  l.drain_ns = nom.drain_ns;
  l.vt_run_cpu_s = first.nominal.cpu_s + first.saturation.cpu_s;
  l.dur_append_cycles = nom.appends == 0
                            ? 0.0
                            : static_cast<double>(nom.append_sum) /
                                  static_cast<double>(nom.appends);
  l.dur_ack_p50 = static_cast<double>(quantile(nom.ack_wait, 0.50));
  l.dur_ack_p99 = static_cast<double>(quantile(nom.ack_wait, 0.99));
  l.dur_records_per_flush =
      nom.wal.flushes == 0 ? 0.0
                           : static_cast<double>(nom.wal.records_forced) /
                                 static_cast<double>(nom.wal.flushes);
  l.dur_flushes = static_cast<double>(nom.wal.flushes);
  l.dur_checkpoints = static_cast<double>(nom.wal.checkpoints);
  const auto per_ack = [&](svc::ReqClass c) {
    return nom.acked_by[cls(c)] == 0
               ? 0.0
               : static_cast<double>(nom.attempts[cls(c)]) /
                     static_cast<double>(nom.acked_by[cls(c)]);
  };
  l.svc_attempts_scan = per_ack(svc::ReqClass::kScan);
  l.svc_attempts_transfer = per_ack(svc::ReqClass::kTransfer);
  // Cycles a request spends in observed work: STM attempts, WAL append
  // and ack wait.  The rest of its latency is queueing.
  std::uint64_t observed = nom.append_sum;
  for (const std::uint64_t w : nom.ack_wait) observed += w;
  for (const std::uint64_t a : nom.attempt_sum) observed += a;
  l.span_coverage = nom.latency_sum == 0
                        ? 0.0
                        : static_cast<double>(observed) /
                              static_cast<double>(nom.latency_sum);
  l.svc_queue_share = 1.0 - l.span_coverage;
  l.overhead_ops_per_s = u.ops_per_s() - first.ops_per_s();
  add_layer_metrics(r, l);
  return r;
}

}  // namespace perfbench
