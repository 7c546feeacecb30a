// demotx:expert-file: benchmark: reads the runtime Config to refuse
// non-default configurations
// perfbench — the repository benchmark program.
//
//   perfbench --workload <collection-real|list-mixed-sim64|kv-durable-sim>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints the effective stm::Config as one JSON line, then, as the last
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  A failed
// output check prints correct=false with no metrics and exits 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Result;
using perfbench::RunArgs;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <collection-real|"
               "list-mixed-sim64|kv-durable-sim> --seed <n> --seconds <s> "
               "--trace <0|1>\n");
  return 2;
}

void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  if (r.correct) {
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      const perfbench::Metric& m = r.metrics[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(k, "--workload") == 0) {
      workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      args.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (std::strcmp(k, "--seconds") == 0) {
      args.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && args.seconds > 0;
    } else if (std::strcmp(k, "--trace") == 0) {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      args.trace = std::strcmp(v, "1") == 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace)
    return usage();

  // DEMOTX_* variables are folded into the runtime configuration when the
  // Runtime is constructed and would silently change what is measured.
  const auto env = perfbench::demotx_env_vars();
  if (!env.empty()) {
    std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                 env.front().c_str());
    return 2;
  }
  const demotx::stm::Config& cfg = demotx::stm::Runtime::instance().config;
  std::printf("{\"config\": %s}\n", perfbench::config_json(cfg).c_str());
  if (!perfbench::config_is_default(cfg)) {
    std::fprintf(stderr, "perfbench: runtime config is not the default\n");
    return 2;
  }

  Result r;
  if (workload == "collection-real") {
    r = perfbench::run_collection_real(args);
  } else if (workload == "list-mixed-sim64") {
    r = perfbench::run_list_sim(
        args, perfbench::ListSimParams{
                  64, static_cast<std::uint64_t>(
                          args.seconds * perfbench::kListCyclesPerSecond)});
  } else if (workload == "kv-durable-sim") {
    r = perfbench::run_kv_sim(args);
  } else {
    return usage();
  }
  if (!r.correct) std::fprintf(stderr, "perfbench: check failed: %s\n",
                               r.why.c_str());
  std::fflush(stderr);
  print_result(r);
  return r.correct ? 0 : 1;
}
