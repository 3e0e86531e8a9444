#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload/generator.h"

// The benchmark's workloads and its metric names. README.md gives the
// reason for each workload and the definition of each metric.

namespace servebench {

enum class Topology {
  kInProcess,  // serve::InferenceEngine in this process.
  kRouted,     // serve_router in front of two serve_server children.
};

struct WorkloadSpec {
  const char* name;
  Topology topology;
  // Load threads, one connection each on the network topologies.
  int load_threads;
  // Events of one flood slice, all threads: about 0.3 s of closed-loop
  // work on a quiet 4-core host.
  uint64_t flood_events;
  // Offered rate of the paced phase, events per wall second, all threads.
  double paced_rate;
  // A paced score answered OK within this many microseconds of its due
  // time counts towards score_within_limit.
  double score_limit_us;
  tpgnn::workload::WorkloadOptions (*profile)(uint64_t seed);
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// Generator lanes. Load thread i draws lane i; the set-up probe session and
// the in-process serve probe of the network workloads draw their own lanes,
// so no lane replays another lane's sessions. The set-up probe's lane is
// always drawn from seed kSetupSeed, so every run times the same first
// event.
constexpr uint64_t kSetupSeed = 0;
constexpr uint64_t kSetupLane = 100;
constexpr uint64_t kServeProbeLane = 200;

// The generator options of one lane: the workload's profile seeded from
// (seed, lane).
tpgnn::workload::WorkloadOptions LaneOptions(const WorkloadSpec& spec,
                                             uint64_t seed, uint64_t lane);

// Events per stream second of a lane's stream once its open sessions have
// ramped up: the count over stream time [10 s, 25 s) of a fresh generator.
double SteadyStreamRate(const tpgnn::workload::WorkloadOptions& options);

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported by runs with --trace 0.
const std::vector<MetricDef>& EndToEndMetrics();
// Reported by runs with --trace 1.
const std::vector<MetricDef>& PerLayerMetrics();

// The naming rule of metric names: starts with a letter or digit, at most
// 64 of [A-Za-z0-9_.-].
bool ValidMetricName(const std::string& name);
// At most 16 of [A-Za-z0-9_/%.-].
bool ValidUnit(const std::string& unit);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
