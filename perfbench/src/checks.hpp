// Output checks. Each one tests a property the method must have, or
// compares against an account computed apart from the program (the
// generator's own geometry and event replay); none compares against a
// stored copy of earlier output. All of them run outside timed regions.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/door_schedule.hpp"
#include "core/simulator.hpp"
#include "generator.hpp"

namespace perfbench {

/// Agents are conserved (active + crossed + retired == placed) and the
/// occupancy/index planes hold each active agent at its own cell and at
/// no other.
void check_engine_state(const pedsim::core::Simulator& sim, Checks& checks,
                        const std::string& label);

/// moves <= proposals <= agents active before the step.
void check_step(const pedsim::core::StepResult& r, std::size_t active_before,
                Checks& checks, const std::string& label);

/// Every phase field (main and waypoint) of `schedule` is Bellman-optimal
/// for the generator's own replay of its walls and goals, and the number
/// of distinct fields equals the number of distinct wall configurations
/// that replay visits.
void check_schedule(const pedsim::core::DoorSchedule& schedule,
                    const GeneratedScenario& g, Checks& checks,
                    const std::string& label);

}  // namespace perfbench
