#include "generator.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr int kSide = 80;  // grid edge: tile-aligned (multiple of 16)

struct Rect {
    int row0, col0, row1, col1;
};

void paint(std::vector<std::uint8_t>& mask, int cols, const Rect& r,
           std::uint8_t v) {
    for (int row = r.row0; row <= r.row1; ++row) {
        for (int col = r.col0; col <= r.col1; ++col) {
            mask[static_cast<std::size_t>(row * cols + col)] = v;
        }
    }
}

std::string rect_text(const Rect& r) {
    return std::to_string(r.row0) + " " + std::to_string(r.col0) + " " +
           std::to_string(r.row1) + " " + std::to_string(r.col1);
}

}  // namespace

GeneratedScenario generate_scenario(std::uint64_t seed,
                                    const std::string& name) {
    Rng rng(seed);
    GeneratedScenario g;
    g.rows = g.cols = kSide;
    const int n = kSide;
    const auto cells = static_cast<std::size_t>(n * n);
    g.walls.assign(cells, 0);
    g.goals[0].assign(cells, 0);
    g.goals[1].assign(cells, 0);
    // Goals: the top group walks to the last row, the bottom group to the
    // first (the paper's corridor convention, written as explicit cells).
    for (int c = 0; c < n; ++c) {
        g.goals[0][static_cast<std::size_t>((n - 1) * n + c)] = 1;
        g.goals[1][static_cast<std::size_t>(c)] = 1;
    }

    std::ostringstream keys;
    const bool aco = rng.chance(0.4);
    keys << "name = " << name << "\n";
    keys << "model = " << (aco ? "aco" : "lem") << "\n";
    keys << "seed = " << rng.range(1, 1 << 30) << "\n";
    keys << "steps = " << rng.range(150, 250) << "\n";

    // Two wall bands split the map into a spawn zone, a middle hall and a
    // second spawn zone. Band A holds a static gap and a timed door;
    // band B a static gap and a pulsing gate.
    const int band_a = n / 3;
    const int band_b = 2 * n / 3;
    paint(g.walls, n, {band_a, 0, band_a + 1, n - 1}, 1);
    paint(g.walls, n, {band_b, 0, band_b + 1, n - 1}, 1);
    const int gap_a = rng.range(2, n / 2 - 10);
    paint(g.walls, n, {band_a, gap_a, band_a + 1, gap_a + 5}, 0);
    const int gap_b = rng.range(n / 2 + 2, n - 10);
    paint(g.walls, n, {band_b, gap_b, band_b + 1, gap_b + 5}, 0);

    std::vector<WallEvent> doors;
    std::vector<WallEvent> cycles;
    std::vector<WallEvent> movers;

    // Timed door in band A (right half): opens, later closes again.
    const int door_col = rng.range(n / 2 + 2, n - 8);
    const Rect door_rect{band_a, door_col, band_a + 1, door_col + 5};
    const int open_at = rng.range(20, 60);
    const int close_at = open_at + rng.range(40, 80);
    keys << "door = " << open_at << " open " << rect_text(door_rect) << "\n";
    keys << "door = " << close_at << " close " << rect_text(door_rect) << "\n";
    doors.push_back({static_cast<std::uint64_t>(open_at), door_rect.row0,
                     door_rect.col0, door_rect.row1, door_rect.col1, false});
    doors.push_back({static_cast<std::uint64_t>(close_at), door_rect.row0,
                     door_rect.col0, door_rect.row1, door_rect.col1, true});

    // Pulsing gate in band B (left half).
    const int gate_col = rng.range(2, n / 2 - 8);
    const Rect gate{band_b, gate_col, band_b + 1, gate_col + 5};
    const int cy_start = rng.range(10, 30);
    const int cy_period = rng.range(24, 40);
    const int cy_duty = rng.range(6, cy_period - 6);
    const int cy_repeats = 3;
    keys << "cycle = " << cy_start << " " << cy_period << " " << cy_duty << " "
         << cy_repeats << " " << rect_text(gate) << "\n";
    for (int k = 0; k < cy_repeats; ++k) {
        const auto at = static_cast<std::uint64_t>(cy_start + k * cy_period);
        cycles.push_back({at, gate.row0, gate.col0, gate.row1, gate.col1, false});
        cycles.push_back({at + static_cast<std::uint64_t>(cy_duty), gate.row0,
                          gate.col0, gate.row1, gate.col1, true});
    }

    // Moving wall: a 2x4 block sliding east along a lane in the hall.
    const int lane = (band_a + band_b) / 2 - 1;
    const int mv_col = rng.range(2, 16);
    const int mv_count = 5;
    const int mv_interval = rng.range(8, 16);
    const int mv_start = rng.range(5, 30);
    const Rect block{lane, mv_col, lane + 1, mv_col + 3};
    paint(g.walls, n, block, 1);
    keys << "mover = " << mv_start << " " << mv_interval << " " << mv_count
         << " 0 1 " << rect_text(block) << "\n";
    for (int k = 0; k < mv_count; ++k) {
        const auto at = static_cast<std::uint64_t>(mv_start + k * mv_interval);
        movers.push_back({at, lane, mv_col + k, lane + 1, mv_col + k + 3, false});
        movers.push_back(
            {at, lane, mv_col + k + 1, lane + 1, mv_col + k + 4, true});
    }

    // Pillars in the hall, clear of the mover lane.
    const int pillars = rng.range(4, 8);
    for (int k = 0; k < pillars; ++k) {
        int r = rng.range(band_a + 3, band_b - 4);
        if (r >= lane - 2 && r <= lane + 2) r = lane + 4;
        const int c = rng.range(2, n - 4);
        paint(g.walls, n, {r, c, r + 1, c + 1}, 1);
    }

    // Waypoints: one checkpoint per group in the hall (not a wall, not on
    // the mover lane); waypoint cells are validated against static walls.
    const auto free_cell = [&](int row_lo, int row_hi) {
        for (;;) {
            int r = rng.range(row_lo, row_hi);
            if (r >= lane - 1 && r <= lane + 2) continue;
            const int c = rng.range(2, n - 3);
            if (g.walls[static_cast<std::size_t>(r * n + c)] == 0) {
                return std::pair<int, int>{r, c};
            }
        }
    };
    const auto wp_top = free_cell(band_a + 3, band_b - 3);
    const auto wp_bottom = free_cell(band_a + 3, band_b - 3);
    keys << "waypoints = top " << wp_top.first << " " << wp_top.second << "\n";
    keys << "waypoints = bottom " << wp_bottom.first << " " << wp_bottom.second
         << "\n";
    keys << "waypoint_radius = 2\n";
    for (const auto& [r, c] : {wp_top, wp_bottom}) {
        g.waypoint_cells.push_back(static_cast<std::uint32_t>(r * n + c));
    }
    std::sort(g.waypoint_cells.begin(), g.waypoint_cells.end());
    g.waypoint_cells.erase(
        std::unique(g.waypoint_cells.begin(), g.waypoint_cells.end()),
        g.waypoint_cells.end());

    keys << "spawn = top 2 2 " << band_a - 3 << " " << n - 3 << " "
         << rng.range(150, 190) << "\n";
    keys << "spawn = bottom " << band_b + 4 << " 2 " << n - 3 << " " << n - 3
         << " " << rng.range(150, 190) << "\n";
    if (rng.chance(0.5)) keys << "anticipate = " << rng.range(10, 30) << "\n";

    // Firing order: doors, then cycle expansions, then mover expansions,
    // stable-sorted by step.
    g.events = doors;
    g.events.insert(g.events.end(), cycles.begin(), cycles.end());
    g.events.insert(g.events.end(), movers.begin(), movers.end());
    std::stable_sort(g.events.begin(), g.events.end(),
                     [](const WallEvent& a, const WallEvent& b) {
                         return a.step < b.step;
                     });

    keys << "map:\n";
    for (int r = 0; r < n; ++r) {
        std::string row(static_cast<std::size_t>(n), '.');
        for (int c = 0; c < n; ++c) {
            const auto i = static_cast<std::size_t>(r * n + c);
            if (g.walls[i]) {
                row[static_cast<std::size_t>(c)] = '#';
            } else if (g.goals[0][i]) {
                row[static_cast<std::size_t>(c)] = 't';
            } else if (g.goals[1][i]) {
                row[static_cast<std::size_t>(c)] = 'b';
            }
        }
        keys << row << "\n";
    }
    g.text = keys.str();
    return g;
}

std::vector<std::vector<std::uint8_t>> replay_walls(
    const GeneratedScenario& g) {
    std::vector<std::vector<std::uint8_t>> phases;
    phases.push_back(g.walls);
    for (const auto& e : g.events) {
        auto next = phases.back();
        paint(next, g.cols, {e.row0, e.col0, e.row1, e.col1},
              e.close ? 1 : 0);
        phases.push_back(std::move(next));
    }
    return phases;
}

std::size_t distinct_configurations(
    const std::vector<std::vector<std::uint8_t>>& phases) {
    std::unordered_set<std::string> seen;
    for (const auto& p : phases) seen.emplace(p.begin(), p.end());
    return seen.size();
}

}  // namespace perfbench
