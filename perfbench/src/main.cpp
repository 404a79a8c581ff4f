// perfbench — the pedsim benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR --server-bin PATH
//
// Workloads: corridor_sparse_serial, corridor_dense_serial, server_mix
// (README.md describes each). With --trace 0 the run reports the
// end-to-end metrics; with --trace 1 it measures once untraced and once
// under the obs tracer and reports the per-layer metrics. The last line
// of standard output is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
    list_.push_back({name, value, unit});
}

void Checks::expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failures_;
    // Cap the log so one systematic fault does not flood stderr.
    if (failures_ <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (const double x : v) s += x;
    return s / static_cast<double>(v.size());
}

std::uint64_t mix(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index) {
    return mix(mix(mix(seed) ^ stream) ^ (index * 0xD1B54A32D192ED03ull));
}

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double self_peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

OpFigures figures(const OpStats& ops) {
    return {ops.ops_per_s(), quantile(ops.latencies_s, 0.50) * 1e3,
            quantile(ops.latencies_s, 0.95) * 1e3};
}

void add_end_to_end(Metrics& m, const OpFigures& f, double setup_s,
                    double peak_rss_mb) {
    m.set("ops_per_s", f.ops_per_s, "1/s");
    m.set("op_p50_ms", f.p50_ms, "ms");
    m.set("op_p95_ms", f.p95_ms, "ms");
    m.set("setup_s", setup_s, "s");
    m.set("peak_rss_mb", peak_rss_mb, "MB");
}

}  // namespace perfbench

namespace {

void usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --server-bin PATH\n"
                 "workloads: corridor_sparse_serial corridor_dense_serial "
                 "server_mix\n");
}

std::string json_number(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace perfbench;
    // A server that dies mid-write must surface as an error, not kill us.
    std::signal(SIGPIPE, SIG_IGN);

    Options opt;
    bool have_workload = false;
    try {
        for (int i = 1; i + 1 < argc; i += 2) {
            const std::string key = argv[i];
            const std::string val = argv[i + 1];
            if (key == "--workload") {
                opt.workload = val;
                have_workload = true;
            } else if (key == "--seed") {
                opt.seed = std::stoull(val);
            } else if (key == "--seconds") {
                opt.seconds = std::stod(val);
            } else if (key == "--trace") {
                opt.trace = val == "1";
            } else if (key == "--work-dir") {
                opt.work_dir = val;
            } else if (key == "--server-bin") {
                opt.server_bin = val;
            } else {
                throw std::invalid_argument("unknown flag " + key);
            }
        }
        if (argc % 2 == 0) throw std::invalid_argument("flag without value");
        if (!have_workload || opt.seconds <= 0.0) {
            throw std::invalid_argument("--workload and --seconds > 0 needed");
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        usage();
        return 2;
    }

    try {
        Checks checks;
        RunOutput out;
        if (opt.workload == "corridor_sparse_serial" ||
            opt.workload == "corridor_dense_serial") {
            out = run_corridor(opt, checks);
        } else if (opt.workload == "server_mix") {
            out = run_server_mix(opt, checks);
        } else {
            std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                         opt.workload.c_str());
            usage();
            return 2;
        }
        std::string line = "{\"correct\": ";
        line += checks.ok() ? "true" : "false";
        line += ", \"attempted\": " + std::to_string(out.attempted);
        line += ", \"failed\": " + std::to_string(out.failed);
        line += ", \"metrics\": {";
        bool first = true;
        for (const auto& m : out.metrics.all()) {
            if (!first) line += ", ";
            first = false;
            line += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
                    ", \"unit\": \"" + m.unit + "\"}";
        }
        line += "}}";
        std::fflush(stderr);
        std::printf("%s\n", line.c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
