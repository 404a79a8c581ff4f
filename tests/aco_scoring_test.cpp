// ACO candidate scoring (eq. 2): the shared builder must produce exactly
// pow(tau, alpha) * pow(1 / max(D, 0.5), beta) for every candidate, on
// every field kind, and the paper corridor under ACO must keep its
// trajectory on every engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "backend/device.hpp"
#include "core/rules.hpp"
#include "grid/distance_field.hpp"
#include "grid/environment.hpp"
#include "rng/stream.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

using namespace pedsim;

namespace {

using core::AcoHeuristicTable;
using core::AcoParams;
using grid::Group;

constexpr int kRows = 32;
constexpr int kCols = 48;
constexpr double kAlphas[] = {1.0, 0.5, 2.0};
constexpr double kBetas[] = {1.0, 2.0, 2.5};
const grid::GridConfig kGrid{kRows, kCols};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Seeded pheromone levels over rows -1 .. kRows (the builders may probe
/// the frame rows): log-uniform over [e^-7, e^3], with exact powers of two
/// and the evaporation floor mixed in.
class TauGrid {
  public:
    explicit TauGrid(std::uint64_t seed) {
        rng::Stream s(seed, rng::Stage::kGeneric, 0, 0);
        for (auto& v : tau_) {
            const auto pick = s.next_below(8);
            v = pick == 0   ? std::ldexp(1.0, static_cast<int>(
                                                  s.next_below(12)) - 8)
                : pick == 1 ? 1e-3
                            : std::exp(-7.0 + 10.0 * s.next_double());
        }
    }
    [[nodiscard]] double operator()(int r, int c) const {
        return tau_[static_cast<std::size_t>(r + 1) * kCols +
                    static_cast<std::size_t>(c)];
    }

  private:
    std::array<double, static_cast<std::size_t>(kRows + 2) * kCols> tau_{};
};

/// The grid with a seeded ~30% of cells holding agents of either group.
grid::Environment crowd(std::uint64_t seed) {
    grid::Environment env(kGrid);
    rng::Stream s(seed, rng::Stage::kGeneric, 1, 0);
    std::int32_t id = 1;
    for (int r = 0; r < kRows; ++r) {
        for (int c = 0; c < kCols; ++c) {
            if (s.next_below(10) < 3) {
                env.place(r, c, s.next_below(2) ? Group::kTop : Group::kBottom,
                          id++);
            }
        }
    }
    return env;
}

/// Seeded wall cells (~10%) for the geodesic fields.
std::vector<std::uint32_t> walls(std::uint64_t seed) {
    rng::Stream s(seed, rng::Stage::kGeneric, 2, 0);
    std::vector<std::uint32_t> out;
    for (std::uint32_t cell = 0; cell < kRows * kCols; ++cell) {
        if (s.next_below(10) == 0) out.push_back(cell);
    }
    return out;
}

/// One eta^beta memo of the analytic field `df` per tested beta, looked
/// up by beta — what an engine builds once for its own beta.
class Tables {
  public:
    explicit Tables(const grid::DistanceField& df) {
        for (const double beta : kBetas) tables_.emplace_back(df, beta);
    }
    const AcoHeuristicTable* operator()(double beta) const {
        for (std::size_t k = 0; k < std::size(kBetas); ++k) {
            if (kBetas[k] == beta) return &tables_[k];
        }
        return nullptr;
    }

  private:
    std::vector<AcoHeuristicTable> tables_;
};

/// No memo: the builder computes pow(1 / D, beta) from the field.
const auto kNoTable = [](double) -> const AcoHeuristicTable* {
    return nullptr;
};

/// Eq. (2)'s numerator written out literally, discounted by the visible
/// congestion when the look-ahead is on — the definition the shared
/// builders must reproduce bit for bit.
template <typename EmptyFn, typename Field>
int literal_aco(EmptyFn&& empty, const TauGrid& tau, const Field& df,
                const AcoParams& p, const core::ScanConfig& scan, Group g,
                int r, int c, double* values, std::int8_t* cells) {
    int n = 0;
    for (const int k : grid::ranked_order(g)) {
        const auto off = grid::kNeighborOffsets[static_cast<std::size_t>(k)];
        const int nr = r + off.dr;
        const int nc = c + off.dc;
        if (!empty(nr, nc)) continue;
        values[n] = std::pow(tau(nr, nc), p.alpha) *
                    std::pow(1.0 / std::max(df.cost(g, nr, nc, off.dc),
                                            core::kMinHeuristicDistance),
                             p.beta);
        if (scan.range > 1) {
            const double congestion = core::ray_congestion(
                empty, nr, nc, off.dr, off.dc, scan.range, kGrid);
            values[n] *=
                std::max(1.0 - scan.congestion_weight * congestion, 0.05);
        }
        cells[n] = static_cast<std::int8_t>(k);
        ++n;
    }
    return n;
}

/// Score every cell of the grid for both groups at every (alpha, beta):
/// the builder — the look-ahead builder when `scan.range > 1` — with
/// `table_for(beta)` as its eta^beta memo (null = pow) must equal the
/// literal formula bit for bit. Returns the candidates compared.
template <typename EmptyFn, typename Field, typename TableFn>
int expect_literal(EmptyFn&& empty, const Field& df, TableFn&& table_for,
                   const core::ScanConfig& scan = {}) {
    const TauGrid tau(7);
    int compared = 0;
    for (const double beta : kBetas) {
        const AcoHeuristicTable* eta = table_for(beta);
        for (const double alpha : kAlphas) {
            AcoParams p;
            p.alpha = alpha;
            p.beta = beta;
            for (const auto g : {Group::kTop, Group::kBottom}) {
                for (int cell = 0; cell < kRows * kCols; ++cell) {
                    const int r = cell / kCols;
                    const int c = cell % kCols;
                    double want[8];
                    double got[8];
                    std::int8_t want_cells[8];
                    std::int8_t got_cells[8];
                    const int n = literal_aco(empty, tau, df, p, scan, g, r,
                                              c, want, want_cells);
                    const int m =
                        scan.range > 1
                            ? core::build_candidates_aco_scan_t(
                                  empty, tau, df, p, eta, scan, kGrid, g, r,
                                  c, got, got_cells)
                            : core::build_candidates_aco_t(empty, tau, df, p,
                                                           eta, g, r, c, got,
                                                           got_cells);
                    EXPECT_EQ(m, n) << "r=" << r << " c=" << c;
                    for (int i = 0; i < std::min(n, m); ++i) {
                        EXPECT_EQ(got_cells[i], want_cells[i]);
                        EXPECT_EQ(bits(got[i]), bits(want[i]))
                            << "alpha=" << alpha << " beta=" << beta
                            << " g=" << static_cast<int>(g) << " r=" << r
                            << " c=" << c << " slot=" << i;
                    }
                    compared += std::min(n, m);
                }
            }
        }
    }
    return compared;
}

// --- The builder reproduces eq. (2) bit for bit ------------------------------

TEST(AcoScoringEquivalence, AnalyticFieldTableMatchesLiteralPow) {
    // Every row is scored, so the candidates on each group's target row
    // (D = 0 there, clamped to 0.5) are covered.
    const grid::Environment env = crowd(1);
    const grid::DistanceField df(kGrid);
    const core::EnvEmpty empty(env);
    const Tables table_for(df);
    EXPECT_GT(expect_literal(empty, df, table_for), 50000);
    // The pow path on the same field agrees too.
    expect_literal(empty, df, kNoTable);
}

TEST(AcoScoringEquivalence, AnalyticTableCoversFrameRows) {
    // An emptiness view that calls the frame rows -1 and kRows empty: the
    // table holds every row the analytic distance accepts.
    const auto all_empty = [](int r, int c) {
        return r >= -1 && r <= kRows && c >= 0 && c < kCols;
    };
    const grid::DistanceField df(kGrid);
    const Tables table_for(df);
    expect_literal(all_empty, df, table_for);
}

TEST(AcoScoringEquivalence, GeodesicFieldMatchesLiteralPow) {
    grid::Environment env = crowd(2);
    const auto w = walls(2);
    for (const auto cell : w) {
        if (env.empty(static_cast<int>(cell) / kCols,
                      static_cast<int>(cell) % kCols)) {
            env.set_wall(static_cast<int>(cell) / kCols,
                         static_cast<int>(cell) % kCols);
        }
    }
    const grid::DistanceField df(kGrid, w, {});
    ASSERT_TRUE(df.geodesic());
    EXPECT_GT(expect_literal(core::EnvEmpty(env), grid::BlendedField(&df),
                             kNoTable),
              20000);
}

TEST(AcoScoringEquivalence, BlendedFieldMatchesLiteralPow) {
    const grid::Environment env = crowd(3);
    const grid::DistanceField now(kGrid, walls(3), {});
    const grid::DistanceField next(kGrid, walls(4), {});
    const grid::BlendedField blend(&now, &next, 0.375);
    EXPECT_GT(expect_literal(core::EnvEmpty(env), blend, kNoTable), 20000);
}

TEST(AcoScoringEquivalence, ScanBuilderMatchesLiteralPow) {
    const grid::Environment env = crowd(5);
    const core::EnvEmpty empty(env);
    core::ScanConfig scan;
    scan.range = 4;
    scan.congestion_weight = 0.6;
    const grid::DistanceField analytic(kGrid);
    expect_literal(empty, analytic, Tables(analytic), scan);
    const grid::DistanceField geo(kGrid, walls(5), {});
    expect_literal(empty, grid::BlendedField(&geo), kNoTable, scan);
}

// --- Paper-scale pin of the analytic-field ACO path --------------------------

// Every ACO registry scenario has walls, so its field is geodesic; the
// analytic (wall-free corridor) ACO path is pinned here instead, at the
// paper's 480x480 scale. Recorded before the eta^beta memo existed.
struct CorridorPin {
    std::uint64_t fingerprint;
    std::uint64_t proposals;
    std::uint64_t moves;
};

constexpr int kPinSteps = 40;
constexpr CorridorPin kAcoCorridorD2{0xab4441c811a3e802ull, 204764, 200339};

CorridorPin run_corridor(const backend::EngineSelect& engine) {
    auto s = scenario::get("paper_corridor");
    s.sim.agents_per_side = 1280u * 2;  // density index d = 2
    s.sim.model = core::Model::kAco;
    const auto sim = scenario::make_engine(engine, s.sim);
    CorridorPin pin{0, 0, 0};
    for (int k = 0; k < kPinSteps; ++k) {
        const auto r = sim->step();
        pin.proposals += static_cast<std::uint64_t>(r.proposals);
        pin.moves += static_cast<std::uint64_t>(r.moves);
    }
    pin.fingerprint = scenario::position_fingerprint(*sim);
    return pin;
}

void expect_pin(const backend::EngineSelect& engine) {
    const CorridorPin got = run_corridor(engine);
    EXPECT_EQ(got.fingerprint, kAcoCorridorD2.fingerprint);
    EXPECT_EQ(got.proposals, kAcoCorridorD2.proposals);
    EXPECT_EQ(got.moves, kAcoCorridorD2.moves);
}

TEST(AcoCorridorPin, CpuMatchesRecordedTrajectory) {
    expect_pin(backend::DeviceType::kCpu);
}

TEST(AcoCorridorPin, ShardedFourBandsMatchesRecordedTrajectory) {
    expect_pin({backend::DeviceType::kShardedCpu, 4});
}

TEST(AcoCorridorPin, SimtMatchesRecordedTrajectory) {
    expect_pin(backend::DeviceType::kSimt);
}

}  // namespace
