// Micro-benchmarks (google-benchmark) of the hot building blocks: Philox
// draws, the SIMD row primitives behind the scan-row/candidate hot path
// (the agent mask build, field gathers, the congestion accumulator — the
// last two against their scalar references, so the per-primitive speedup
// of the active backend is one run away), ACO candidate scoring, the
// host movement gather, and one full simulation step per engine.
// These bound the per-step cost that the figure harnesses extrapolate
// from. `--benchmark_format=csv` emits the machine-readable table the
// perf-trajectory workflow (docs/PERFORMANCE.md) archives alongside the
// BENCH_*.json artifacts.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "backend/device.hpp"
#include "core/cpu_simulator.hpp"
#include "core/gpu_simulator.hpp"
#include "core/pheromone.hpp"
#include "core/rules.hpp"
#include "grid/distance_field.hpp"
#include "grid/environment.hpp"
#include "rng/distributions.hpp"
#include "rng/stream.hpp"
#include "scenario/registry.hpp"
#include "simd/row_ops.hpp"
#include "simd/simd.hpp"

using namespace pedsim;

namespace {

void BM_PhiloxU32(benchmark::State& state) {
    rng::Stream s(1, rng::Stage::kGeneric, 0, 0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.next_u32());
    }
}
BENCHMARK(BM_PhiloxU32);

void BM_StreamConstructionPlusDraw(benchmark::State& state) {
    std::uint64_t i = 0;
    for (auto _ : state) {
        rng::Stream s(1, rng::Stage::kMovement, i++, 7);
        benchmark::DoNotOptimize(s.next_u32());
    }
}
BENCHMARK(BM_StreamConstructionPlusDraw);

void BM_NormalDraw(benchmark::State& state) {
    rng::Stream s(1, rng::Stage::kGeneric, 0, 0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng::normal(s));
    }
}
BENCHMARK(BM_NormalDraw);

// --- SIMD primitive benches ---------------------------------------------
//
// One padded 480-column row (the paper_corridor width) at ~20% agent
// density — the corridor_small/panic_crossing regime, denser than
// paper_corridor so the masked sweeps are measured at their least
// favourable occupancy. The `...Scalar` twins run the always-compiled
// reference implementation on identical input.

constexpr int kBenchCols = 480;

std::vector<std::uint8_t> bench_row() {
    const int stride =
        ((kBenchCols + 2 + simd::kRowAlign - 1) / simd::kRowAlign) *
        simd::kRowAlign;
    std::vector<std::uint8_t> row(static_cast<std::size_t>(stride),
                                  grid::kWallOcc);
    rng::Stream s(7, rng::Stage::kGeneric, 0, 0);
    for (int c = 0; c < kBenchCols; ++c) {
        const auto draw = s.next_below(10);
        row[static_cast<std::size_t>(c) + 1] =
            draw < 8 ? std::uint8_t{0}
                     : static_cast<std::uint8_t>(1 + (draw & 1));
    }
    return row;
}

void BM_AgentMaskBuild(benchmark::State& state) {
    const auto row = bench_row();
    std::vector<std::uint64_t> words(row.size() / simd::kWordBits);
    for (auto _ : state) {
        simd::agent_bits(row.data(), static_cast<int>(row.size()),
                         grid::kWallOcc, words.data());
        benchmark::DoNotOptimize(words.data());
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(row.size()));
}
BENCHMARK(BM_AgentMaskBuild);

void BM_FieldGather(benchmark::State& state) {
    // 8 candidate cells per agent against a geodesic-field-sized table —
    // the build_candidates_lem_geo access pattern.
    std::vector<double> field(static_cast<std::size_t>(kBenchCols) *
                              kBenchCols);
    rng::Stream s(11, rng::Stage::kGeneric, 1, 0);
    for (auto& v : field) v = s.next_double() * 1e3;
    std::int32_t idx[8];
    for (auto& i : idx) {
        i = static_cast<std::int32_t>(
            s.next_below(static_cast<std::uint32_t>(field.size())));
    }
    double out[8];
    for (auto _ : state) {
        simd::gather_f64(field.data(), idx, 8, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_FieldGather);

void BM_FieldGatherScalar(benchmark::State& state) {
    std::vector<double> field(static_cast<std::size_t>(kBenchCols) *
                              kBenchCols);
    rng::Stream s(11, rng::Stage::kGeneric, 1, 0);
    for (auto& v : field) v = s.next_double() * 1e3;
    std::int32_t idx[8];
    for (auto& i : idx) {
        i = static_cast<std::int32_t>(
            s.next_below(static_cast<std::uint32_t>(field.size())));
    }
    double out[8];
    for (auto _ : state) {
        simd::scalar::gather_f64(field.data(), idx, 8, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_FieldGatherScalar);

void BM_CongestionAccumulate(benchmark::State& state) {
    // The horizontal scan-ray: count occupied cells over a range-length
    // span, the ray_congestion fast path.
    const auto row = bench_row();
    const int range = 24;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simd::count_occupied(row.data() + 1, range));
    }
}
BENCHMARK(BM_CongestionAccumulate);

void BM_CongestionAccumulateScalar(benchmark::State& state) {
    const auto row = bench_row();
    const int range = 24;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simd::scalar::count_occupied(row.data() + 1, range));
    }
}
BENCHMARK(BM_CongestionAccumulateScalar);

// --- ACO candidate scoring -----------------------------------------------
//
// Eq. (2) numerators for the 8 neighbours of every agent of a 64-row band
// of the corridor width at ~20% density (one sweep per iteration), through
// the engines' shared builder. Arg 0 scores on the analytic corridor field with its eta^beta
// table; Arg 1 on a geodesic field of the same open band, which keeps
// pow(1 / D, beta) per candidate. Items are candidates scored.
void BM_AcoScoreCandidates(benchmark::State& state) {
    const grid::GridConfig gcfg{64, kBenchCols};
    grid::Environment env(gcfg);
    core::PheromoneField pher(gcfg, /*tau0=*/0.1, /*tau_min=*/1e-3);
    rng::Stream s(13, rng::Stage::kGeneric, 2, 0);
    std::vector<std::pair<int, int>> agents;
    for (int r = 0; r < gcfg.rows; ++r) {
        for (int c = 0; c < gcfg.cols; ++c) {
            if (s.next_below(5) != 0) continue;
            agents.emplace_back(r, c);
            env.place(r, c, grid::Group::kTop,
                      static_cast<std::int32_t>(agents.size()));
            pher.deposit(grid::Group::kTop, r, c, s.next_double());
        }
    }
    const bool geodesic = state.range(0) != 0;
    const grid::DistanceField df =
        geodesic ? grid::DistanceField(gcfg, {}, {}) : grid::DistanceField(gcfg);
    const core::AcoParams params;
    const core::AcoHeuristicTable table(df, params.beta);
    const core::AcoHeuristicTable* eta = geodesic ? nullptr : &table;
    const grid::BlendedField field(&df);
    const core::EnvEmpty empty(env);
    const auto tau = [&](int r, int c) {
        return pher.at(grid::Group::kTop, r, c);
    };
    double values[8];
    std::int8_t cells[8];
    std::int64_t scored = 0;
    for (auto _ : state) {
        for (const auto& [r, c] : agents) {
            scored += core::build_candidates_aco_t(
                empty, tau, field, params, eta, grid::Group::kTop, r, c,
                values, cells);
            benchmark::DoNotOptimize(values);
        }
    }
    state.SetItemsProcessed(scored);
    state.SetLabel(geodesic ? "geodesic" : "analytic");
}
BENCHMARK(BM_AcoScoreCandidates)->Arg(0)->Arg(1);

// --- movement gather -----------------------------------------------------
//
// The host engines' movement stage (core::gather_moves) over all 480 rows
// of a frozen paper_corridor step: Arg 0 is d = 1 (LEM, the sparse
// corridor), Arg 1 is d = 20 (ACO, the dense corridor). The snapshot is the
// environment before step 60 plus that step's FUTURE columns, so the
// routine sees exactly what the engine's movement stage saw; the run
// checks it emits that step's move count. Items are moves emitted.
void BM_MovementGather(benchmark::State& state) {
    const bool dense = state.range(0) != 0;
    auto s = scenario::get("paper_corridor");
    s.sim.agents_per_side = dense ? 1280u * 20u : 1280u;
    s.sim.model = dense ? core::Model::kAco : core::Model::kLem;
    const auto sim = backend::make_cpu(s.sim);
    for (int k = 0; k < 60; ++k) sim->step();
    const grid::Environment env = sim->environment();
    const core::StepResult stepped = sim->step();

    // The target plane step() builds: every FUTURE cell, padded bit c + 1.
    const auto& props = sim->properties();
    const int words = env.bit_words();
    std::vector<std::uint64_t> targets(
        static_cast<std::size_t>(env.rows()) * static_cast<std::size_t>(words));
    for (std::size_t i = 1; i < props.rows(); ++i) {
        if (props.future_row[i] == core::kNoFuture) continue;
        const auto p = static_cast<std::size_t>(props.future_col[i]) + 1;
        targets[static_cast<std::size_t>(props.future_row[i]) *
                    static_cast<std::size_t>(words) +
                p / 64] |= std::uint64_t{1} << (p % 64);
    }
    const core::MovementInputs in{targets.data(),
                                  words,
                                  env.cols(),
                                  props.future_row.data(),
                                  props.future_col.data(),
                                  s.sim.seed,
                                  stepped.step};
    const core::EnvIndex index(env);
    std::vector<core::Move> moves;
    moves.reserve(static_cast<std::size_t>(stepped.moves));
    for (auto _ : state) {
        moves.clear();
        core::gather_moves(in, index, 0, env.rows(), moves);
        benchmark::DoNotOptimize(moves.data());
        benchmark::ClobberMemory();
    }
    if (static_cast<int>(moves.size()) != stepped.moves) {
        state.SkipWithError("snapshot gather disagrees with the engine step");
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(moves.size()));
    state.SetLabel(dense ? "dense" : "sparse");
}
BENCHMARK(BM_MovementGather)->Arg(0)->Arg(1);

// --- engine step benches -------------------------------------------------

core::SimConfig small_config(core::Model model) {
    core::SimConfig cfg;
    cfg.grid.rows = cfg.grid.cols = 96;
    cfg.agents_per_side = 512;
    cfg.model = model;
    cfg.seed = 99;
    return cfg;
}

void BM_CpuStepLem(benchmark::State& state) {
    auto sim = backend::make_cpu(small_config(core::Model::kLem));
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim->step());
    }
}
BENCHMARK(BM_CpuStepLem);

void BM_CpuStepAco(benchmark::State& state) {
    auto sim = backend::make_cpu(small_config(core::Model::kAco));
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim->step());
    }
}
BENCHMARK(BM_CpuStepAco);

void BM_GpuSimtStepLem(benchmark::State& state) {
    const auto sim = backend::make_simt(small_config(core::Model::kLem));
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim->step());
    }
}
BENCHMARK(BM_GpuSimtStepLem);

void BM_GpuSimtStepAco(benchmark::State& state) {
    const auto sim = backend::make_simt(small_config(core::Model::kAco));
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim->step());
    }
}
BENCHMARK(BM_GpuSimtStepAco);

}  // namespace
