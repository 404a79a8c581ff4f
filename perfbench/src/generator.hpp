// Seeded generator of event-heavy scenario texts for the server_mix
// workload: a walled map with a door band, a pulsing gate, pillars, a
// moving wall and waypoint chains, written in the io::parse_scenario text
// format. The generator keeps its own copy of the geometry and replays
// its own events, so the checks can compare the program's door schedule
// and distance fields against an account the program did not produce.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One wall toggle on the inclusive rect, as the generator expands it.
struct WallEvent {
    std::uint64_t step = 0;
    int row0 = 0, col0 = 0, row1 = 0, col1 = 0;
    bool close = false;
};

struct GeneratedScenario {
    std::string text;
    int rows = 0;
    int cols = 0;
    std::vector<std::uint8_t> walls;                 ///< initial wall mask
    std::array<std::vector<std::uint8_t>, 2> goals;  ///< [0] top, [1] bottom
    std::vector<std::uint32_t> waypoint_cells;       ///< distinct, sorted
    /// Doors, then cycle expansions, then mover expansions, stable-sorted
    /// by step: the firing order the format documents.
    std::vector<WallEvent> events;
};

GeneratedScenario generate_scenario(std::uint64_t seed,
                                    const std::string& name);

/// Wall mask after each prefix of the events (entry k = after k events).
std::vector<std::vector<std::uint8_t>> replay_walls(const GeneratedScenario& g);

/// Distinct wall configurations the replay visits.
std::size_t distinct_configurations(
    const std::vector<std::vector<std::uint8_t>>& phases);

}  // namespace perfbench
