// The paper-corridor workloads: the 480x480 bidirectional corridor at
// density index d (1,280 * d agents per side), stepped serially on the
// cpu engine.
//
//   corridor_sparse_serial  d = 1,  LEM
//   corridor_dense_serial   d = 20, ACO (the groups meet and jam)
//
// Each engine runs 600 steps: the sparse crowd has fully crossed by then,
// the dense one is past the jam. Step cost differs between these phases,
// and 600 steps keep the median inside one phase, not on the boundary.
//
// A run steps fresh engines in whole runs of `steps` steps until the time
// budget is spent. Between those runs, in step with the time spent, it
// builds `setup_samples` batches of `engines_per_setup` engines
// (prepare_scenario + create_engine, each batch timed as one sum; setup_s
// is the median batch). One op is one Simulator::step() call.
//
// Engine threading is measured per layer only: the traced run of the
// dense corridor adds one run at `probe_threads` engine threads under its
// own tracer (README.md gives the reason).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "backend/device.hpp"
#include "checks.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace perfbench {

namespace {

using pedsim::backend::DeviceType;
using pedsim::grid::Group;

struct CorridorSpec {
    int density = 1;
    pedsim::core::Model model = pedsim::core::Model::kLem;
    int steps = 600;
    int engines_per_setup = 8;
    int setup_samples = 15;
    int checked_runs = 2;   ///< runs cross-checked against sharded-cpu
    int probe_threads = 0;  ///< traced threaded run; 0 = none
};

CorridorSpec spec_for(const std::string& workload) {
    CorridorSpec s;
    if (workload == "corridor_dense_serial") {
        s.density = 20;
        s.model = pedsim::core::Model::kAco;
        s.engines_per_setup = 4;
        s.checked_runs = 1;
        s.probe_threads = 4;
    }
    return s;
}

pedsim::scenario::Scenario corridor(const CorridorSpec& spec,
                                    std::uint64_t seed, int threads = 1) {
    auto s = pedsim::scenario::get("paper_corridor");
    s.sim.agents_per_side = 1280u * static_cast<std::size_t>(spec.density);
    s.sim.model = spec.model;
    s.sim.exec.threads = threads;
    s.sim.seed = seed;
    return s;
}

/// Step one fresh engine through a whole run, timing each step and
/// checking each StepResult; returns the final-state fingerprint.
std::uint64_t step_run(const CorridorSpec& spec, std::uint64_t seed,
                       int threads, OpStats& ops, Checks& checks) {
    const std::string label = "corridor seed " + std::to_string(seed);
    const auto device = pedsim::backend::create_device(DeviceType::kCpu);
    const auto prepared =
        pedsim::scenario::prepare_scenario(corridor(spec, seed, threads));
    const auto sim =
        device->create_engine(prepared.scenario.sim, prepared.schedule);
    std::size_t crossed_top = 0;
    std::size_t crossed_bottom = 0;
    for (int k = 0; k < spec.steps; ++k) {
        const std::size_t active = sim->properties().active_count();
        const double t0 = now_s();
        const auto r = sim->step();
        const double dt = now_s() - t0;
        ops.latencies_s.push_back(dt);
        ops.busy_s += dt;
        check_step(r, active, checks, label);
        crossed_top += static_cast<std::size_t>(r.crossed_top);
        crossed_bottom += static_cast<std::size_t>(r.crossed_bottom);
    }
    checks.expect(crossed_top == sim->crossed_total(Group::kTop) &&
                      crossed_bottom == sim->crossed_total(Group::kBottom),
                  label + ": step crossings do not sum to the totals");
    check_engine_state(*sim, checks, label);
    return pedsim::scenario::position_fingerprint(*sim);
}

struct Phase {
    std::vector<OpStats> runs;
    std::vector<double> setup_sums_s;
    std::vector<double> prepare_ms;
    std::vector<double> create_ms;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> fingerprints;

    [[nodiscard]] std::uint64_t ops() const {
        std::uint64_t n = 0;
        for (const auto& r : runs) n += r.latencies_s.size();
        return n;
    }
    /// Latency quantiles over every step of the phase; throughput as the
    /// median of the engine runs' rates, robust to a run that lands in a
    /// slow patch of a shared host.
    [[nodiscard]] OpFigures figures() const {
        OpStats all;
        std::vector<double> rates;
        for (const auto& r : runs) {
            all.latencies_s.insert(all.latencies_s.end(),
                                   r.latencies_s.begin(), r.latencies_s.end());
            rates.push_back(r.ops_per_s());
        }
        OpFigures f = perfbench::figures(all);
        f.ops_per_s = median(rates);
        return f;
    }
};

/// One setup sample: `engines_per_setup` engines built and kept alive
/// together, their prepare_scenario + create_engine calls timed as one sum.
void setup_batch(const CorridorSpec& spec, std::uint64_t seed, int batch,
                 const pedsim::backend::Device& device, Phase& ph) {
    std::vector<std::unique_ptr<pedsim::core::Simulator>> engines;
    double sum = 0.0;
    for (int e = 0; e < spec.engines_per_setup; ++e) {
        const auto s = corridor(
            spec, derive(seed, 1,
                         static_cast<std::uint64_t>(
                             batch * spec.engines_per_setup + e)));
        const double t0 = now_s();
        const auto prepared = pedsim::scenario::prepare_scenario(s);
        const double t1 = now_s();
        engines.push_back(
            device.create_engine(prepared.scenario.sim, prepared.schedule));
        const double t2 = now_s();
        sum += t2 - t0;
        ph.prepare_ms.push_back((t1 - t0) * 1e3);
        ph.create_ms.push_back((t2 - t1) * 1e3);
    }
    ph.setup_sums_s.push_back(sum);
}

Phase measure(const CorridorSpec& spec, std::uint64_t seed, double seconds,
              Checks& checks) {
    Phase ph;
    const auto device = pedsim::backend::create_device(DeviceType::kCpu);
    const double start = now_s();
    int batches = 0;
    for (int run = 0; run == 0 || now_s() - start < seconds; ++run) {
        // Setup batches are spread over the budget, in step with the time
        // spent, so setup_s samples the host over the whole run.
        const double due = spec.setup_samples *
                           std::min(1.0, (now_s() - start) / seconds);
        while (batches == 0 || batches < due)
            setup_batch(spec, seed, batches++, *device, ph);
        const std::uint64_t run_seed =
            derive(seed, 2, static_cast<std::uint64_t>(run));
        ph.runs.emplace_back();
        const std::uint64_t fp =
            step_run(spec, run_seed, 1, ph.runs.back(), checks);
        if (run < spec.checked_runs) ph.fingerprints.emplace_back(run_seed, fp);
        std::fprintf(stderr, "engine run %d (seed %llu): %.1f steps/s\n", run,
                     static_cast<unsigned long long>(run_seed),
                     ph.runs.back().ops_per_s());
    }
    while (batches < spec.setup_samples)
        setup_batch(spec, seed, batches++, *device, ph);
    return ph;
}

/// Engines agree: the sampled runs replayed on sharded-cpu (4 bands, 4
/// threads, which only shortens the check) end in the same state, bit for
/// bit.
void check_against_sharded(const CorridorSpec& spec, const Phase& ph,
                           Checks& checks) {
    pedsim::backend::DeviceOptions opts;
    opts.bands = 4;
    const auto device =
        pedsim::backend::create_device(DeviceType::kShardedCpu, opts);
    for (const auto& [seed, fingerprint] : ph.fingerprints) {
        const auto prepared =
            pedsim::scenario::prepare_scenario(corridor(spec, seed, 4));
        const auto sim =
            device->create_engine(prepared.scenario.sim, prepared.schedule);
        for (int k = 0; k < spec.steps; ++k) sim->step();
        checks.expect(pedsim::scenario::position_fingerprint(*sim) ==
                          fingerprint,
                      "corridor seed " + std::to_string(seed) +
                          ": cpu and sharded-cpu final states differ");
    }
}

}  // namespace

RunOutput run_corridor(const Options& opt, Checks& checks) {
    const CorridorSpec spec = spec_for(opt.workload);
    RunOutput out;
    if (!opt.trace) {
        const Phase ph = measure(spec, opt.seed, opt.seconds, checks);
        // Read before the sharded-cpu check, so the peak covers only the
        // serial cpu setup batches and stepping.
        const double peak_rss_mb = self_peak_rss_mb();
        check_against_sharded(spec, ph, checks);
        out.attempted = ph.ops();
        add_end_to_end(out.metrics, ph.figures(), median(ph.setup_sums_s),
                       peak_rss_mb);
        return out;
    }

    // Traced run: half the budget untraced, half under the obs tracer and
    // metrics registry; their ops_per_s ratio is the tracing overhead.
    const Phase plain = measure(spec, opt.seed, opt.seconds / 2, checks);
    pedsim::obs::Tracer tracer;
    pedsim::obs::MetricsRegistry registry;
    pedsim::obs::Tracer::install(&tracer);
    pedsim::obs::MetricsRegistry::install(&registry);
    const Phase traced = measure(spec, opt.seed, opt.seconds / 2, checks);
    pedsim::obs::Tracer::install(nullptr);
    pedsim::obs::MetricsRegistry::install(nullptr);
    check_against_sharded(spec, traced, checks);
    const TraceSummary trace = summarize_trace(tracer.chrome_trace_json());

    LayerExtras x;
    x.create_engine_ms = mean(traced.create_ms);
    x.prepare_ms = mean(traced.prepare_ms);
    x.untraced_ops_per_s = plain.figures().ops_per_s;
    x.traced_ops_per_s = traced.figures().ops_per_s;
    TraceSummary threaded;
    if (spec.probe_threads > 0) {
        // The first traced run again at probe_threads engine threads: the
        // same end state (thread-count invariance), and the exec spans.
        pedsim::obs::Tracer probe;
        pedsim::obs::Tracer::install(&probe);
        OpStats ops;
        const auto [seed, fingerprint] = traced.fingerprints.front();
        const std::uint64_t fp =
            step_run(spec, seed, spec.probe_threads, ops, checks);
        pedsim::obs::Tracer::install(nullptr);
        checks.expect(fp == fingerprint,
                      "corridor seed " + std::to_string(seed) +
                          ": final state differs between 1 and " +
                          std::to_string(spec.probe_threads) + " threads");
        threaded = summarize_trace(probe.chrome_trace_json());
        x.engine_threads = spec.probe_threads;
        x.threaded_ops_per_s = ops.ops_per_s();
    }
    add_per_layer(out.metrics, trace,
                  spec.probe_threads > 0 ? threaded : trace,
                  parse_metrics(registry.json()), x);
    out.attempted = plain.ops() + traced.ops();
    return out;
}

}  // namespace perfbench
