// demotx:expert-file: benchmark: records every field of the runtime Config
// to prove the measured configuration is the default
#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

extern char** environ;

namespace perfbench {

const Metric* Result::find(const std::string& name) const {
  for (const Metric& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

bool same_metrics(const Result& a, const Result& b) {
  if (a.metrics.size() != b.metrics.size()) return false;
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    if (a.metrics[i].name != b.metrics[i].name ||
        a.metrics[i].value != b.metrics[i].value)
      return false;
  }
  return true;
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  // VmHWM, not ru_maxrss: Linux carries ru_maxrss across execve, so a
  // process started from a larger parent (python3 run.py) would report the
  // parent's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t quantile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

void LatencyHist::add(std::uint64_t cycles) {
  if (cycles < kExact) {
    ++counts_[cycles];
  } else {
    long_.push_back(cycles);
  }
  ++n_;
  sum_ += cycles;
}

double LatencyHist::mean() const {
  return n_ == 0 ? 0.0
                 : static_cast<double>(sum_) / static_cast<double>(n_);
}

std::uint64_t LatencyHist::quantile(double q) {
  if (n_ == 0) return 0;
  auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(n_ - 1) + 0.5);
  for (std::size_t v = 0; v < kExact; ++v) {
    if (rank < counts_[v]) return v;
    rank -= counts_[v];
  }
  auto nth = long_.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(long_.begin(), nth, long_.end());
  return *nth;
}

void LayerAcc::merge(const LayerAcc& o) {
  for (int i = 0; i < static_cast<int>(Span::kCount); ++i) {
    sum[i] += o.sum[i];
    n[i] += o.n[i];
  }
  for (int i = 0; i < stm::kNumSemantics; ++i) {
    attempt_sum[i] += o.attempt_sum[i];
    attempt_n[i] += o.attempt_n[i];
  }
  wasted += o.wasted;
  op_total += o.op_total;
  ops += o.ops;
}

double LayerAcc::mean(Span s) const {
  const int i = static_cast<int>(s);
  return n[i] == 0 ? 0.0
                   : static_cast<double>(sum[i]) / static_cast<double>(n[i]);
}

std::vector<std::string> demotx_env_vars() {
  std::vector<std::string> out;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "DEMOTX_", 7) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    out.emplace_back(*e, eq == nullptr ? std::strlen(*e)
                                       : static_cast<std::size_t>(eq - *e));
  }
  return out;
}

std::string config_json(const stm::Config& c) {
  std::ostringstream os;
  os << "{\"cm\": \"" << stm::to_string(c.cm) << "\""
     << ", \"clock_scheme\": " << static_cast<int>(c.clock_scheme)
     << ", \"gate_scheme\": " << static_cast<int>(c.gate_scheme)
     << ", \"validation_scheme\": " << static_cast<int>(c.validation_scheme)
     << ", \"enable_extension\": " << c.enable_extension
     << ", \"elastic_window\": " << c.elastic_window
     << ", \"maintain_old_versions\": " << c.maintain_old_versions
     << ", \"snapshot_depth\": " << c.snapshot_depth
     << ", \"eager_writes\": " << c.eager_writes
     << ", \"clock_epoch_quota\": " << c.clock_epoch_quota
     << ", \"numa_domains\": " << c.numa_domains
     << ", \"numa_remote_cost\": " << c.numa_remote_cost
     << ", \"readset_dedup\": " << c.readset_dedup
     << ", \"object_ops\": " << c.object_ops
     << ", \"group_commit_batch\": " << c.group_commit_batch
     << ", \"group_commit_interval\": " << c.group_commit_interval
     << ", \"checkpoint_every\": " << c.checkpoint_every
     << ", \"log_flush_cost\": " << c.log_flush_cost
     << ", \"htm_capacity\": " << c.htm_capacity
     << ", \"htm_retries\": " << c.htm_retries
     << ", \"injections\": "
     << (c.inject_gv4_skip || c.inject_late_summary || c.inject_stale_shard ||
         c.inject_obj_commute || c.inject_torn_write)
     << "}";
  return os.str();
}

bool config_is_default(const stm::Config& c) {
  return config_json(c) == config_json(stm::Config{});
}

void add_clock_metrics(Result& r, double ops_per_kcycle, Latencies& lat) {
  const auto p99 = [](LatencyHist& h) {
    return static_cast<double>(h.quantile(0.99));
  };
  r.add("ops_per_kcycle", ops_per_kcycle, "1/kcycle");
  r.add("lookup_mean_cycles", lat.lookup.mean(), "cycles");
  r.add("query_mean_cycles", lat.query.mean(), "cycles");
  r.add("query_p99_cycles", p99(lat.query), "cycles");
  r.add("update_mean_cycles", lat.update.mean(), "cycles");
  r.add("update_p99_cycles", p99(lat.update), "cycles");
}

void add_host_metrics(Result& r, double setup_s) {
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void add_layer_metrics(Result& r, const Layers& l) {
  const LayerAcc& a = l.acc;
  const auto share = [](double part, double whole) {
    return whole == 0 ? 0.0 : part / whole;
  };
  r.add("stm.begin_cycles", a.mean(Span::kBegin), "cycles");
  r.add("stm.body_cycles", a.mean(Span::kBody), "cycles");
  r.add("stm.commit_cycles", a.mean(Span::kCommit), "cycles");
  r.add("stm.rollback_cycles", a.mean(Span::kRollback), "cycles");
  const char* tiers[stm::kNumSemantics] = {"classic", "elastic", "snapshot"};
  for (int i = 0; i < stm::kNumSemantics; ++i) {
    r.add(std::string("stm.attempt_cycles.") + tiers[i],
          share(static_cast<double>(a.attempt_sum[i]),
                static_cast<double>(a.attempt_n[i])),
          "cycles");
  }
  r.add("stm.wasted_share",
        share(static_cast<double>(a.wasted), static_cast<double>(a.op_total)),
        "ratio");
  const stm::TxStats& st = l.stats;
  r.add("stm.abort_ratio", st.abort_ratio(), "ratio");
  r.add("stm.attempts_per_op",
        share(static_cast<double>(st.commits + st.aborts), l.ops), "count");
  const stm::AbortReason reasons[] = {
      stm::AbortReason::kReadValidation, stm::AbortReason::kLockedByOther,
      stm::AbortReason::kCommitValidation, stm::AbortReason::kSnapshotTooOld};
  for (const stm::AbortReason why : reasons) {
    r.add(std::string("stm.aborts.") + stm::to_string(why),
          static_cast<double>(st.aborts_by_reason[static_cast<int>(why)]),
          "count");
  }
  r.add("cm.backoff_cycles", a.mean(Span::kBackoff), "cycles");
  r.add("mem.drain_ns", l.drain_ns, "ns");
  const std::uint64_t framed = a.total(Span::kBegin) + a.total(Span::kCommit) +
                               a.total(Span::kRollback) +
                               a.total(Span::kBackoff);
  r.add("ds.self_cycles",
        l.ds_used ? share(static_cast<double>(a.op_total - framed),
                          static_cast<double>(a.ops))
                  : 0.0,
        "cycles");
  r.add("vt.run_cpu_s", l.vt_run_cpu_s, "s");
  r.add("dur.append_cycles", l.dur_append_cycles, "cycles");
  r.add("dur.ack_wait_p50_cycles", l.dur_ack_p50, "cycles");
  r.add("dur.ack_wait_p99_cycles", l.dur_ack_p99, "cycles");
  r.add("dur.records_per_flush", l.dur_records_per_flush, "count");
  r.add("dur.flushes", l.dur_flushes, "count");
  r.add("dur.checkpoints", l.dur_checkpoints, "count");
  r.add("svc.attempts_per_ack.scan", l.svc_attempts_scan, "count");
  r.add("svc.attempts_per_ack.transfer", l.svc_attempts_transfer, "count");
  r.add("svc.queue_share", l.svc_queue_share, "ratio");
  r.add("trace.overhead_ops_per_s", l.overhead_ops_per_s, "1/s");
  r.add("trace.span_coverage", l.span_coverage, "ratio");
}

}  // namespace perfbench
