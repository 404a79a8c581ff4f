// Per-layer metrics, derived from what src/obs already records: the
// Chrome trace-event JSON of obs::Tracer (spans) and the pedsim-metrics-v1
// JSON of obs::MetricsRegistry (counters, histograms). The benchmark adds
// no tracing inside the program; it only reads these exports, whether
// they come from its own process or from pedsim_server --trace /
// --metrics-json.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Totals of one span name across a trace.
struct SpanTotals {
    std::uint64_t count = 0;
    double total_us = 0.0;  ///< summed durations
    double self_us = 0.0;   ///< summed durations minus direct children
};

struct TraceSummary {
    std::map<std::string, SpanTotals> spans;
    /// pool/task and pool/queue_wait spans that lie inside a `step` span
    /// (engine-level parallelism; the server's long-lived executor loops
    /// are pool tasks too, and are excluded this way).
    std::uint64_t step_tasks = 0;
    double step_task_us = 0.0;
    double step_queue_wait_us = 0.0;

    [[nodiscard]] const SpanTotals& get(const std::string& name) const;
};

/// Parse obs::Tracer::chrome_trace_json() output.
TraceSummary summarize_trace(const std::string& chrome_json);

struct HistogramTotals {
    std::uint64_t count = 0;
    double sum = 0.0;
};

struct MetricSnapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, HistogramTotals> histograms;

    [[nodiscard]] std::uint64_t counter(const std::string& name) const;
    [[nodiscard]] double histogram_mean(const std::string& name) const;
};

/// Parse obs::MetricsRegistry::json() output.
MetricSnapshot parse_metrics(const std::string& json);

std::string read_file(const std::string& path);

/// Numbers the workloads time themselves around public calls, plus the
/// server-only and SIMT-only figures; zero where a workload does not
/// exercise the layer.
struct LayerExtras {
    int engine_threads = 1;            ///< threads of the exec trace
    double create_engine_ms = 0.0;     ///< mean, warm schedule
    double prepare_ms = 0.0;           ///< mean prepare_scenario
    double parse_ms = 0.0;             ///< mean parse_scenario
    std::uint64_t sharded_steps = 0;   ///< for backend.halo_rows_per_step
    // server_mix
    std::uint64_t jobs = 0;            ///< jobs the traced server ran
    double accept_ms = 0.0;            ///< client submit -> verdict, mean
    double client_latency_ms = 0.0;    ///< client submit -> kDone, mean
    double cache_hit_ratio = 0.0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_entries = 0;
    std::uint64_t rejected = 0;
    // gpu-simt runs
    double simt_host_us_per_step = 0.0;
    double simt_modeled_us_per_step = 0.0;
    double simt_launches = 0.0;
    double simt_warp_instructions = 0.0;
    double simt_global_transactions = 0.0;
    // tracing overhead, and the traced threaded run (0 = none)
    double untraced_ops_per_s = 0.0;
    double traced_ops_per_s = 0.0;
    double threaded_ops_per_s = 0.0;
};

/// Every per-layer metric, in BENCHMARK.json order. The exec metrics come
/// from `exec_trace`, which is `trace` except where a workload records
/// its engine threading in a run of its own.
void add_per_layer(Metrics& m, const TraceSummary& trace,
                   const TraceSummary& exec_trace,
                   const MetricSnapshot& metrics, const LayerExtras& x);

}  // namespace perfbench
