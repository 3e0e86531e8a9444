#include "workloads.h"

#include "util/rng.h"
#include "workload/profiles.h"

namespace servebench {

namespace {

namespace workload = tpgnn::workload;

bool NameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

}  // namespace

// Paced rates are about 10% (in process) and a third (routed) of the flood
// capacity each workload measured on a 4-core AVX2 host, and score limits
// about 4x the median slice's paced score p99 there. Both are absolute on
// purpose: a run never scales them by its own capacity. In process a higher
// rate puts the ingest p50 on the knee between events sent at once and
// events queued behind the producer, where it jumps by 10x.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"inproc_paper", Topology::kInProcess, 1, 80000, 20000.0, 3000.0,
       workload::PaperMixProfile},
      {"routed_churn", Topology::kRouted, 2, 28000, 25000.0, 10000.0,
       workload::EvictionChurnProfile},
  };
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

workload::WorkloadOptions LaneOptions(const WorkloadSpec& spec, uint64_t seed,
                                      uint64_t lane) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + lane;
  return spec.profile(tpgnn::SplitMix64(state));
}

double SteadyStreamRate(const workload::WorkloadOptions& options) {
  constexpr double kFrom = 10.0;
  constexpr double kTo = 25.0;
  workload::WorkloadGenerator gen(options);
  tpgnn::serve::Event event;
  uint64_t events = 0;
  while (gen.Next(&event) && event.time < kTo) {
    events += event.time >= kFrom ? 1 : 0;
  }
  return static_cast<double>(events) / (kTo - kFrom);
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> metrics = {
      {"events_per_s", "1/s"},   {"score_p50_us", "us"},
      {"ingest_p50_us", "us"},   {"score_within_limit", "ratio"},
      {"cpu_s_per_mevent", "s"}, {"rss_peak_mb", "MB"},
      {"setup_s", "s"},
  };
  return metrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> metrics = {
      {"score_p99_us", "us"},
      {"ingest_p99_us", "us"},
      {"failed_ratio", "ratio"},
      {"parity_mismatches", "count"},
      {"workload.next_ns", "ns"},
      {"workload.late_p99_us", "us"},
      {"workload.offered_per_s", "1/s"},
      {"workload.parity_checked", "count"},
      {"workload.parity_s", "s"},
      {"serve.ingest_edge_ns_p50", "ns"},
      {"serve.ingest_edge_ns_p99", "ns"},
      {"serve.edges", "count"},
      {"serve.ingest_begin_us", "us"},
      {"serve.ingest_end_ns", "ns"},
      {"serve.ingest_score_ns", "ns"},
      {"serve.pending_calls", "count"},
      {"serve.batch_mean", "count"},
      {"serve.queue_us_p50", "us"},
      {"serve.queue_us_p99", "us"},
      {"serve.finalize_us_p50", "us"},
      {"serve.finalize_us_p99", "us"},
      {"serve.overload_retries", "count"},
      {"serve.ingest_accept_ratio", "ratio"},
      {"serve.busy_share", "ratio"},
      {"serve.state_refolds", "count"},
      {"serve.state_rescales", "count"},
      {"serve.sessions_evicted", "count"},
      {"serve.resident_sessions", "count"},
      {"serve.mixed_version_scores", "count"},
      {"net.ingest_rtt_us_p50", "us"},
      {"net.ingest_rtt_us_p99", "us"},
      {"net.events_per_frame", "count"},
      {"net.bytes_per_event", "B"},
      {"net.server_e2e_mean_us", "us"},
      {"net.overloaded_frame_ratio", "ratio"},
      {"net.protocol_errors", "count"},
      {"cluster.hop_us", "us"},
      {"cluster.router_cpu_cores", "cores"},
      {"cluster.router_rss_growth_mb", "MB"},
      {"cluster.backend_rss_growth_mb", "MB"},
      {"cluster.router_resident_sessions", "count"},
      {"cluster.backend_skew", "ratio"},
      {"cluster.probes_missed", "count"},
      {"cluster.backend_failovers", "count"},
      {"cluster.overloads_shed", "count"},
      {"proc.cpu_cores.sut", "cores"},
      {"proc.cpu_cores.engine0", "cores"},
      {"proc.cpu_cores.engine1", "cores"},
      {"proc.cpu_cores.router", "cores"},
      {"proc.cpu_cores.client", "cores"},
      {"proc.rss_mb.engine0", "MB"},
      {"proc.rss_mb.engine1", "MB"},
      {"proc.rss_mb.router", "MB"},
      {"proc.rss_mb.client", "MB"},
      {"proc.kill_fallbacks", "count"},
      {"util.pool_bytes_peak", "B"},
      {"trace.overhead", "ratio"},
      {"trace.attributed_share", "ratio"},
      {"trace.self_share.workload", "ratio"},
      {"trace.self_share.serve", "ratio"},
      {"trace.self_share.cluster", "ratio"},
      {"trace.self_share.proc", "ratio"},
      {"trace.idle_share", "ratio"},
      {"trace.bench_share", "ratio"},
      {"trend.events_per_s", "ratio"},
      {"trend.score_p50", "ratio"},
  };
  return metrics;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 || name[0] == '_' || name[0] == '.' ||
      name[0] == '-') {
    return false;
  }
  for (char c : name) {
    if (!NameChar(c)) {
      return false;
    }
  }
  return true;
}

bool ValidUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) {
    return false;
  }
  for (char c : unit) {
    if (!NameChar(c) && c != '/' && c != '%') {
      return false;
    }
  }
  return true;
}

}  // namespace servebench
