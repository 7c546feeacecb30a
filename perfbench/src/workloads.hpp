// The benchmark's three workloads (README.md in this directory explains
// why each exists and which layers it stresses).  Each returns every
// end-to-end metric of an untraced run, or every per-layer metric of a
// traced one, plus the outcome of its output checks.
#pragma once

#include <cstdint>

#include "common.hpp"

namespace perfbench {

// collection-real: the Collection mix over a default ds::TxHashSet on 64
// fibers; the traced run times the same mix on 2 OS threads.
Result run_collection_real(const RunArgs& args);

// list-mixed-sim64: 64 fibers on the vt simulator over
// ds::TxList{elastic, classic}.  `cycles` is the virtual length of the
// measured unit: kListCyclesPerSecond per second of the run, which is
// about one unit per run on a 4-vCPU Xeon host.
inline constexpr double kListCyclesPerSecond = 120'000;
struct ListSimParams {
  int threads;
  std::uint64_t cycles;
};
Result run_list_sim(const RunArgs& args, const ListSimParams& p);

// The fig7 point the list workload reproduces: elastic+classic list,
// `threads` fibers, `cycles` virtual cycles, workload seed `seed`.
// Returns ops per kilocycle of one fresh unit (untraced).
double list_sim_ops_per_kcycle(std::uint64_t seed, int threads,
                               std::uint64_t cycles);

// kv-durable-sim: svc::KvService with the WAL attached, open-loop
// arrivals at a nominal rate and at a saturating one, with no admission
// limit.  `requests` is the number of arrivals at each rate point.
struct KvParams {
  std::uint64_t requests = 200'000;
};
Result run_kv_sim(const RunArgs& args, const KvParams& p = {});

}  // namespace perfbench
