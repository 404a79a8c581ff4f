#include "checks.hpp"

#include <cmath>

#include "grid/distance_field.hpp"

namespace perfbench {

using pedsim::grid::DistanceField;
using pedsim::grid::Group;

void check_engine_state(const pedsim::core::Simulator& sim, Checks& checks,
                        const std::string& label) {
    const auto& p = sim.properties();
    const auto& env = sim.environment();
    std::size_t active = 0;
    std::size_t active_uncrossed = 0;
    std::size_t crossed = 0;
    bool cells_ok = true;
    for (std::size_t i = 1; i < p.rows(); ++i) {
        if (p.crossed[i]) ++crossed;
        if (!p.active[i]) continue;
        ++active;
        if (!p.crossed[i]) ++active_uncrossed;
        const int r = p.row[i];
        const int c = p.col[i];
        if (!env.in_bounds(r, c) ||
            env.index_at(r, c) != static_cast<std::int32_t>(i) ||
            env.occupancy(r, c) != p.group_of(static_cast<std::int32_t>(i))) {
            cells_ok = false;
        }
    }
    checks.expect(cells_ok, label + ": an active agent is not at its own cell");
    checks.expect(env.population() == active,
                  label + ": occupied cells (" +
                      std::to_string(env.population()) +
                      ") != active agents (" + std::to_string(active) + ")");
    const std::size_t engine_crossed =
        sim.crossed_total(Group::kTop) + sim.crossed_total(Group::kBottom);
    checks.expect(crossed == engine_crossed,
                  label + ": crossed flags disagree with crossing totals");
    const auto& cfg = sim.config();
    const std::size_t placed = cfg.total_agents() -
                               cfg.perturb.surge_total() +
                               sim.perturb_spawned();
    const std::size_t retired = sim.door_retired() + sim.perturb_retired();
    checks.expect(active_uncrossed + engine_crossed + retired == placed,
                  label + ": agents not conserved (" +
                      std::to_string(active_uncrossed) + " active + " +
                      std::to_string(engine_crossed) + " crossed + " +
                      std::to_string(retired) + " retired != " +
                      std::to_string(placed) + " placed)");
}

void check_step(const pedsim::core::StepResult& r, std::size_t active_before,
                Checks& checks, const std::string& label) {
    checks.expect(r.moves >= 0 && r.moves <= r.proposals &&
                      static_cast<std::size_t>(r.proposals) <= active_before,
                  label + ": step " + std::to_string(r.step) +
                      " breaks moves <= proposals <= active");
}

namespace {

/// Bellman optimality of one group's geodesic table: walls unreachable,
/// goals 0, every other cell the minimum over its in-grid non-wall king
/// neighbours of neighbour + 1 (orthogonal) or sqrt 2 (diagonal), and
/// unreachable when no neighbour is reachable.
bool bellman_optimal(const DistanceField& f, Group g,
                     const std::vector<std::uint8_t>& wall,
                     const std::vector<std::uint8_t>& goal, int rows,
                     int cols) {
    const double diag = std::sqrt(2.0);
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            const auto i = static_cast<std::size_t>(r * cols + c);
            double expect = DistanceField::kUnreachable;
            if (!wall[i] && goal[i]) {
                expect = 0.0;
            } else if (!wall[i]) {
                for (int dr = -1; dr <= 1; ++dr) {
                    for (int dc = -1; dc <= 1; ++dc) {
                        const int nr = r + dr;
                        const int nc = c + dc;
                        if ((dr == 0 && dc == 0) || nr < 0 || nr >= rows ||
                            nc < 0 || nc >= cols ||
                            wall[static_cast<std::size_t>(nr * cols + nc)]) {
                            continue;
                        }
                        const double v = f.geo(g, nr, nc) +
                                         (dr != 0 && dc != 0 ? diag : 1.0);
                        if (v < expect) expect = v;
                    }
                }
                if (expect >= DistanceField::kUnreachable) {
                    expect = DistanceField::kUnreachable;
                }
            }
            if (f.geo(g, r, c) != expect) return false;
        }
    }
    return true;
}

}  // namespace

void check_schedule(const pedsim::core::DoorSchedule& schedule,
                    const GeneratedScenario& g, Checks& checks,
                    const std::string& label) {
    const auto phases = replay_walls(g);
    const std::size_t configs = distinct_configurations(phases);
    checks.expect(schedule.events().size() == g.events.size(),
                  label + ": expanded event count differs from the replay");
    checks.expect(schedule.field_count() == configs,
                  label + ": " + std::to_string(schedule.field_count()) +
                      " fields built for " + std::to_string(configs) +
                      " distinct wall configurations");
    checks.expect(schedule.waypoint_cells() == g.waypoint_cells,
                  label + ": waypoint cells differ from the generator's");
    checks.expect(
        schedule.waypoint_field_count() == configs * g.waypoint_cells.size(),
        label + ": waypoint field count differs from configurations x cells");
    if (schedule.events().size() != g.events.size() ||
        schedule.waypoint_cells() != g.waypoint_cells) {
        return;
    }
    std::vector<std::uint8_t> target(g.walls.size(), 0);
    for (std::size_t k = 0; k < phases.size(); ++k) {
        const auto& walls = phases[k];
        const auto& field = schedule.field_after(k);
        bool ok = bellman_optimal(field, Group::kTop, walls, g.goals[0],
                                  g.rows, g.cols) &&
                  bellman_optimal(field, Group::kBottom, walls, g.goals[1],
                                  g.rows, g.cols);
        for (std::size_t s = 0; ok && s < g.waypoint_cells.size(); ++s) {
            const auto cell = g.waypoint_cells[s];
            target[cell] = 1;
            const auto& wf = schedule.waypoint_field_after(k, s);
            ok = bellman_optimal(wf, Group::kTop, walls, target, g.rows,
                                 g.cols) &&
                 bellman_optimal(wf, Group::kBottom, walls, target, g.rows,
                                 g.cols);
            target[cell] = 0;
        }
        checks.expect(ok, label + ": a phase-" + std::to_string(k) +
                              " distance field is not a shortest-path field");
    }
}

}  // namespace perfbench
