// Movement equivalence suite: the target-plane gather (core::gather_moves)
// against the candidate-mask sweep it replaced in both host engines.
//
// The reference below is that sweep, kept verbatim apart from reading raw
// planes: per row, the empty cells AND the one-cell dilation of the agent
// masks of rows r-1..r+1, a proposer gather at every candidate, and a
// winner drawn on the cell's movement stream wherever a proposer exists.
// On seeded random occupancy/wall/FUTURE states the new routine must emit
// the identical Move sequence, over the whole grid and band by band
// through replica windows laid out like the sharded engine's. Widths
// 1-130 put the last column on both sides of the 64-bit word boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <tuple>
#include <vector>

#include "core/rules.hpp"
#include "core/simulator.hpp"
#include "exec/thread_pool.hpp"
#include "grid/environment.hpp"
#include "grid/neighborhood.hpp"
#include "rng/stream.hpp"
#include "simd/row_ops.hpp"

using namespace pedsim;
using core::Move;

namespace {

constexpr std::uint64_t kSeed = 0x5eed;
constexpr std::uint64_t kStep = 17;

/// Padded occupancy/index planes plus the FUTURE columns of one frozen
/// movement stage, in the environment's layout: rows -1..rows, byte
/// column 0 is the sentinel, logical column c sits at byte c + 1, every
/// frame and pad byte is kWallOcc with index 0.
struct State {
    int rows = 0;
    int cols = 0;
    int stride = 0;
    std::vector<std::uint8_t> occ;
    std::vector<std::int32_t> idx;
    std::vector<std::int32_t> future_row{core::kNoFuture};  // row 0: dump
    std::vector<std::int32_t> future_col{core::kNoFuture};
    std::vector<std::uint64_t> targets;

    [[nodiscard]] int words() const { return stride / simd::kWordBits; }
    [[nodiscard]] std::size_t padded(int r, int c) const {
        return static_cast<std::size_t>(r + 1) *
                   static_cast<std::size_t>(stride) +
               static_cast<std::size_t>(c + 1);
    }
    [[nodiscard]] core::EnvIndex index() const {
        return core::EnvIndex(idx.data(), stride + 1, stride);
    }
    [[nodiscard]] core::MovementInputs inputs(
        const std::vector<std::uint64_t>& plane) const {
        return {plane.data(),       words(),           cols,
                future_row.data(), future_col.data(), kSeed,
                kStep};
    }
};

/// Random walls (~15%), agents (~50%) and empties, one planted cell whose
/// whole in-grid ring holds agents that all propose it, and FUTURE cells
/// drawn among each agent's empty neighbours with a bias toward a shared
/// per-cell attraction, so contested cells of every size occur.
State random_state(rng::Stream& s, int rows, int cols) {
    State st;
    st.rows = rows;
    st.cols = cols;
    st.stride = ((cols + 2 + simd::kRowAlign - 1) / simd::kRowAlign) *
                simd::kRowAlign;
    const auto cells = static_cast<std::size_t>(rows + 2) *
                       static_cast<std::size_t>(st.stride);
    st.occ.assign(cells, grid::kWallOcc);
    st.idx.assign(cells, 0);
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            const auto draw = s.next_below(20);
            st.occ[st.padded(r, c)] =
                draw < 3 ? grid::kWallOcc
                : draw < 13 ? static_cast<std::uint8_t>(1 + (draw & 1))
                            : std::uint8_t{0};
        }
    }
    const int pr = static_cast<int>(
        s.next_below(static_cast<std::uint32_t>(rows)));
    const int pc = static_cast<int>(
        s.next_below(static_cast<std::uint32_t>(cols)));
    st.occ[st.padded(pr, pc)] = 0;
    for (const auto off : grid::kNeighborOffsets) {
        const int nr = pr + off.dr;
        const int nc = pc + off.dc;
        if (nr >= 0 && nr < rows && nc >= 0 && nc < cols) {
            st.occ[st.padded(nr, nc)] = 1;
        }
    }

    std::vector<std::uint32_t> attraction(cells);
    for (auto& a : attraction) a = s.next_u32();
    std::int32_t next = 1;
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            const std::uint8_t v = st.occ[st.padded(r, c)];
            if (v == 0 || v == grid::kWallOcc) continue;
            const std::int32_t i = next++;
            st.idx[st.padded(r, c)] = i;
            std::vector<std::size_t> open;
            for (const auto off : grid::kNeighborOffsets) {
                const std::size_t p = st.padded(r + off.dr, c + off.dc);
                if (st.occ[p] == 0) open.push_back(p);
            }
            const bool planted = std::max(std::abs(r - pr),
                                          std::abs(c - pc)) == 1;
            std::size_t pick = 0;
            if (planted) {
                pick = st.padded(pr, pc);
            } else if (open.empty() || s.next_below(5) == 0) {
                st.future_row.push_back(core::kNoFuture);
                st.future_col.push_back(core::kNoFuture);
                continue;
            } else if (s.next_below(4) == 0) {
                pick = open[s.next_below(
                    static_cast<std::uint32_t>(open.size()))];
            } else {
                pick = *std::max_element(
                    open.begin(), open.end(),
                    [&](std::size_t a, std::size_t b) {
                        return attraction[a] < attraction[b];
                    });
            }
            const auto stride = static_cast<std::size_t>(st.stride);
            st.future_row.push_back(static_cast<std::int32_t>(pick / stride) -
                                    1);
            st.future_col.push_back(static_cast<std::int32_t>(pick % stride) -
                                    1);
        }
    }

    // The plane Simulator::step() marks: every FUTURE cell's bit c + 1.
    st.targets.assign(static_cast<std::size_t>(rows) *
                          static_cast<std::size_t>(st.words()),
                      0);
    for (std::size_t i = 1; i < st.future_row.size(); ++i) {
        if (st.future_row[i] == core::kNoFuture) continue;
        const auto p = static_cast<std::size_t>(st.future_col[i]) + 1;
        st.targets[static_cast<std::size_t>(st.future_row[i]) *
                       static_cast<std::size_t>(st.words()) +
                   p / 64] |= std::uint64_t{1} << (p % 64);
    }
    return st;
}

// --- the candidate-mask sweep both host engines ran before ---------------

void empty_bits(const std::uint8_t* row, int nbytes, std::uint64_t* words) {
    for (int w = 0; w < nbytes / simd::kWordBits; ++w) {
        std::uint64_t word = 0;
        for (int b = 0; b < simd::kWordBits; ++b) {
            word |= static_cast<std::uint64_t>(row[w * simd::kWordBits + b] ==
                                               0)
                    << b;
        }
        words[w] = word;
    }
}

void dilate1(const std::uint64_t* src, std::uint64_t* dst, int nwords) {
    for (int w = 0; w < nwords; ++w) {
        const std::uint64_t m = src[w];
        const std::uint64_t from_left =
            (m << 1) | (w > 0 ? src[w - 1] >> 63 : 0);
        const std::uint64_t from_right =
            (m >> 1) | (w + 1 < nwords ? src[w + 1] << 63 : 0);
        dst[w] = m | from_left | from_right;
    }
}

std::vector<Move> reference_sweep(const State& st) {
    std::vector<Move> out;
    const int nwords = st.words();
    const int stride = st.stride;
    const auto occ_row = [&](int r) { return st.occ.data() + st.padded(r, -1); };
    std::vector<std::uint64_t> buf(static_cast<std::size_t>(nwords) * 6);
    std::uint64_t* agent[3] = {buf.data(), buf.data() + nwords,
                               buf.data() + 2 * nwords};
    std::uint64_t* empty_m = buf.data() + 3 * nwords;
    std::uint64_t* uni = buf.data() + 4 * nwords;
    std::uint64_t* cand = buf.data() + 5 * nwords;

    simd::scalar::agent_bits(occ_row(-1), stride, grid::kWallOcc, agent[0]);
    simd::scalar::agent_bits(occ_row(0), stride, grid::kWallOcc, agent[1]);

    std::int32_t proposers[grid::kNeighborCount];
    for (int r = 0; r < st.rows; ++r) {
        simd::scalar::agent_bits(occ_row(r + 1), stride, grid::kWallOcc,
                                 agent[2]);
        for (int w = 0; w < nwords; ++w) {
            uni[w] = agent[0][w] | agent[1][w] | agent[2][w];
        }
        dilate1(uni, cand, nwords);
        empty_bits(occ_row(r), stride, empty_m);
        for (int w = 0; w < nwords; ++w) cand[w] &= empty_m[w];

        simd::for_each_set_bit(cand, nwords, [&](int p) {
            const int c = p - 1;
            const int n =
                core::gather_proposers(st.index(), st.future_row.data(),
                                       st.future_col.data(), r, c, proposers);
            if (n == 0) return;
            rng::Stream stream(kSeed, rng::Stage::kMovement,
                               static_cast<std::uint64_t>(r) *
                                       static_cast<std::uint64_t>(st.cols) +
                                   static_cast<std::uint64_t>(c),
                               kStep);
            const int w = core::select_winner(stream, n);
            out.push_back({proposers[w], r, c});
        });

        std::uint64_t* const oldest = agent[0];
        agent[0] = agent[1];
        agent[1] = agent[2];
        agent[2] = oldest;
    }
    return out;
}

// --- the routine under test ---------------------------------------------

/// gather_moves band by band, each band reading its own index replica of
/// rows [begin - 1, end + 1), concatenated in band order — the sharded
/// engine's decomposition with the minimum halo.
std::vector<Move> banded_gather(const State& st, int bands) {
    std::vector<Move> out;
    const auto stride = static_cast<std::size_t>(st.stride);
    for (const auto& sl :
         exec::partition(0, st.rows, std::clamp(bands, 1, st.rows))) {
        const int begin = static_cast<int>(sl.begin);
        const int end = static_cast<int>(sl.end);
        std::vector<std::int32_t> replica(
            st.idx.begin() + static_cast<std::ptrdiff_t>(st.padded(begin - 1, -1)),
            st.idx.begin() + static_cast<std::ptrdiff_t>(st.padded(end + 1, -1)));
        // Global (r, c) addressing: row begin - 1 is the replica's first.
        const core::EnvIndex window(
            replica.data(),
            static_cast<std::ptrdiff_t>(1 - begin) *
                    static_cast<std::ptrdiff_t>(stride) +
                1,
            static_cast<std::ptrdiff_t>(stride));
        core::gather_moves(st.inputs(st.targets), window, begin, end, out);
    }
    return out;
}

using MoveKey = std::tuple<std::int32_t, int, int>;

std::vector<MoveKey> keys(const std::vector<Move>& moves) {
    std::vector<MoveKey> k;
    k.reserve(moves.size());
    for (const auto& m : moves) k.emplace_back(m.agent, m.to_row, m.to_col);
    return k;
}

/// Proposers per target cell, counted from the FUTURE columns.
std::vector<int> proposer_counts(const State& st) {
    std::vector<int> counts(static_cast<std::size_t>(st.rows) *
                            static_cast<std::size_t>(st.cols));
    for (std::size_t i = 1; i < st.future_row.size(); ++i) {
        if (st.future_row[i] == core::kNoFuture) continue;
        ++counts[static_cast<std::size_t>(st.future_row[i]) *
                     static_cast<std::size_t>(st.cols) +
                 static_cast<std::size_t>(st.future_col[i])];
    }
    return counts;
}

}  // namespace

TEST(MovementGather, MatchesTheCandidateMaskSweepOnRandomStates) {
    std::array<int, grid::kNeighborCount + 1> by_proposers{};
    int top = 0, bottom = 0, left = 0, right = 0;
    for (int cols = 1; cols <= 130; ++cols) {
        for (std::uint64_t rep = 0; rep < 3; ++rep) {
            rng::Stream s(2024, rng::Stage::kGeneric,
                          static_cast<std::uint64_t>(cols), rep);
            const int rows = 1 + static_cast<int>(s.next_below(12));
            const State st = random_state(s, rows, cols);
            const auto want = keys(reference_sweep(st));

            std::vector<Move> got;
            core::gather_moves(st.inputs(st.targets), st.index(), 0, rows,
                               got);
            ASSERT_EQ(keys(got), want) << rows << "x" << cols << " rep " << rep;
            for (const int bands : {1, 2, 3, 8}) {
                ASSERT_EQ(keys(banded_gather(st, bands)), want)
                    << rows << "x" << cols << " rep " << rep << " bands "
                    << bands;
            }

            const auto counts = proposer_counts(st);
            for (const auto& [agent, r, c] : want) {
                (void)agent;
                ++by_proposers[static_cast<std::size_t>(
                    counts[static_cast<std::size_t>(r) *
                               static_cast<std::size_t>(cols) +
                           static_cast<std::size_t>(c)])];
                top += r == 0;
                bottom += r == rows - 1;
                left += c == 0;
                right += c == cols - 1;
            }
        }
    }
    // The random states reached every case the sweep distinguishes.
    for (int n = 1; n <= grid::kNeighborCount; ++n) {
        EXPECT_GT(by_proposers[static_cast<std::size_t>(n)], 0)
            << "no cell with " << n << " proposers";
    }
    EXPECT_EQ(by_proposers[0], 0);
    EXPECT_GT(top, 0);
    EXPECT_GT(bottom, 0);
    EXPECT_GT(left, 0);
    EXPECT_GT(right, 0);
}

TEST(MovementGather, EveryTargetBitIsLoadBearing) {
    // Clearing any one proposed cell's bit drops that cell's move, so the
    // equivalence above cannot pass with an incomplete plane.
    int checked = 0;
    for (std::uint64_t trial = 0; trial < 40; ++trial) {
        rng::Stream s(99, rng::Stage::kGeneric, trial, 0);
        const int cols = 1 + static_cast<int>(s.next_below(130));
        const int rows = 1 + static_cast<int>(s.next_below(12));
        const State st = random_state(s, rows, cols);
        const auto want = keys(reference_sweep(st));
        if (want.empty()) continue;
        const auto& [agent, r, c] = want[s.next_below(
            static_cast<std::uint32_t>(want.size()))];
        (void)agent;
        auto plane = st.targets;
        const auto p = static_cast<std::size_t>(c) + 1;
        plane[static_cast<std::size_t>(r) *
                  static_cast<std::size_t>(st.words()) +
              p / 64] &= ~(std::uint64_t{1} << (p % 64));
        std::vector<Move> got;
        core::gather_moves(st.inputs(plane), st.index(), 0, rows, got);
        EXPECT_NE(keys(got), want) << "trial " << trial;
        EXPECT_EQ(got.size() + 1, want.size()) << "trial " << trial;
        ++checked;
    }
    EXPECT_GT(checked, 30);
}
