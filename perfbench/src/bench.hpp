// Shared plumbing of the pedsim benchmark: run options, the metric list a
// run reports, the correctness ledger, and small statistics helpers.
//
// The benchmark drives the library only through its public entry points
// (scenario::prepare_scenario, backend::create_device /
// Device::create_engine, core::Simulator::step, io::parse_scenario, the
// pedsim_server binary with server::Client) and times those calls from
// outside. Per-layer numbers come from the spans and counters src/obs
// already records (see layers.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Directory (relative to the working directory) for the server
    /// socket, its logs, and trace/metrics files.
    std::string work_dir = ".";
    /// pedsim_server executable.
    std::string server_bin;
};

/// One named metric with its unit, in the order it was added (each name
/// is set once).
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Metrics {
  public:
    void set(const std::string& name, double value, const std::string& unit);
    [[nodiscard]] const std::vector<Metric>& all() const { return list_; }

  private:
    std::vector<Metric> list_;
};

/// Correctness ledger: every failed check is recorded with its message
/// (printed to stderr), so one run reports all broken properties at once.
class Checks {
  public:
    void expect(bool ok, const std::string& what);
    [[nodiscard]] bool ok() const { return failures_ == 0; }
    [[nodiscard]] int failures() const { return failures_; }

  private:
    int failures_ = 0;
};

/// What a workload run hands back to main().
struct RunOutput {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Metrics metrics;
};

/// Timing samples of one measured phase (untraced or traced).
struct OpStats {
    std::vector<double> latencies_s;  ///< one per completed op
    double busy_s = 0.0;              ///< wall time the ops covered
    std::uint64_t failed = 0;

    [[nodiscard]] double ops_per_s() const {
        return busy_s > 0.0 ? static_cast<double>(latencies_s.size()) / busy_s
                            : 0.0;
    }
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// SplitMix64 step.
std::uint64_t mix(std::uint64_t x);
/// Independent sub-seed `index` of input stream `stream` of the run seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index);

/// Small seeded generator for the benchmark's own input choices.
class Rng {
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() { return state_ = mix(state_); }
    /// Uniform integer in [lo, hi].
    int range(int lo, int hi) {
        return lo + static_cast<int>(next() % static_cast<std::uint64_t>(
                                                  hi - lo + 1));
    }
    bool chance(double p) {
        return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
    }

  private:
    std::uint64_t state_;
};

/// Monotonic clock in seconds (steady_clock, like src/obs/clock.hpp).
double now_s();
/// Peak resident set size of this process, in MB.
double self_peak_rss_mb();

/// Throughput and latency figures of a set of ops.
struct OpFigures {
    double ops_per_s = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
};
OpFigures figures(const OpStats& ops);

/// End-to-end metrics every workload reports with --trace 0.
void add_end_to_end(Metrics& m, const OpFigures& f, double setup_s,
                    double peak_rss_mb);

// Workload entry points (corridor.cpp, server_mix.cpp).
RunOutput run_corridor(const Options& opt, Checks& checks);
RunOutput run_server_mix(const Options& opt, Checks& checks);

}  // namespace perfbench
