// demotx:expert-file: benchmark test: rebuilds the fig7 elastic+classic
// series to compare against, by design
// Determinism test for the benchmark's virtual-time metrics.
//
//   1. Each workload, run twice at a short length, reports identical
//      virtual-time metrics (under the default seed and a held-out one);
//      for collection-real these come from its simulated hash-set unit.
//   2. A traced run reports no check failure: on the sim workloads it
//      reproduced the untraced virtual metrics, and its spans covered
//      every operation.
//   3. list-mixed-sim64 at 300k cycles equals the 64-thread
//      elastic+classic point of bench/fig7_elastic_mix, computed here by
//      the same figure harness (bench/fig_common.hpp) in the same order.
//
// Exits nonzero on the first failed check.
#include <cstdio>
#include <memory>
#include <string>

#include "bench/fig_common.hpp"
#include "ds/tx_list.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Result;
using perfbench::RunArgs;

constexpr std::uint64_t kDefaultSeed = 42;  // fig7's workload seed
constexpr std::uint64_t kHeldOutSeed = 1009;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

// Metrics measured in virtual cycles (or derived only from them).
bool is_virtual(const std::string& name) {
  return name != "setup_s" && name != "peak_rss_mb";
}

bool same_virtual(const Result& a, const Result& b) {
  std::size_t compared = 0;
  for (const perfbench::Metric& m : a.metrics) {
    if (!is_virtual(m.name)) continue;
    const perfbench::Metric* o = b.find(m.name);
    if (o == nullptr || o->value != m.value) return false;
    ++compared;
  }
  return compared > 0;
}

template <typename Run>
void check_repeatable(const char* name, double seconds, Run run) {
  for (const std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
    RunArgs args;
    args.seed = seed;
    args.seconds = seconds;
    const Result a = run(args);
    const Result b = run(args);
    const std::string tag = std::string(name) + " seed " + std::to_string(seed);
    expect(a.correct && b.correct, tag + ": output checks pass");
    expect(same_virtual(a, b), tag + ": two runs give identical virtual metrics");
    args.trace = true;
    const Result t = run(args);
    expect(t.correct, tag + ": traced run passes its checks" +
                          (t.correct ? "" : " (" + t.why + ")"));
  }
}

}  // namespace

int main() {
  using namespace demotx;
  // 0.5 s: a 75k-cycle hash-set unit; traced, two OS-thread halves of two
  // 0.25 s windows each.
  check_repeatable("collection-real", 0.5, perfbench::run_collection_real);
  // Short seconds: one unit each.
  check_repeatable("list-mixed-sim64", 1e-3, [](const RunArgs& a) {
    return perfbench::run_list_sim(a, perfbench::ListSimParams{64, 60'000});
  });
  check_repeatable("kv-durable-sim", 1e-3, [](const RunArgs& a) {
    return perfbench::run_kv_sim(a, perfbench::KvParams{2'000});
  });

  // fig7: the sequential baseline, then the elastic+classic series over
  // the default thread sweep, exactly as the figure binary runs them.
  const bench::FigureConfig cfg;
  const std::vector<bench::Series> series{
      {"elastic+classic", [] {
         return std::make_unique<ds::TxList>(ds::TxList::Options{
             stm::Semantics::kElastic, stm::Semantics::kClassic});
       }}};
  const double seq = bench::sequential_baseline(cfg);
  const auto fig = bench::run_sweep(cfg, series, seq);
  const double fig7_64 = fig[0].back().raw.throughput;
  const double ours = perfbench::list_sim_ops_per_kcycle(
      kDefaultSeed, cfg.threads.back(), cfg.duration_cycles);
  expect(cfg.threads.back() == 64 && ours == fig7_64,
         "list-mixed-sim64 at 300k cycles = fig7 elastic+classic @64 (" +
             std::to_string(ours) + " vs " + std::to_string(fig7_64) +
             " ops/kcycle)");

  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
