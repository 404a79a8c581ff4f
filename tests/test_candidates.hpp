// Test-only environment-backed wrappers over the templated candidate
// builders — the form the CPU engine used before candidate scoring moved
// to the blended-field view (grid::BlendedField). The rules tests and the
// extensions tests both exercise the shared decision rules through this
// convenience shape, so it lives in one header instead of two copies.
#pragma once

#include "core/rules.hpp"

namespace pedsim::core {

inline int build_candidates_lem(const grid::Environment& env,
                                const grid::DistanceField& df, grid::Group g,
                                int r, int c, double* values,
                                std::int8_t* cells) {
    return build_candidates_lem_t(
        [&](int nr, int nc) { return env.walkable(nr, nc); }, df, g, r, c,
        values, cells);
}

inline int build_candidates_aco(const grid::Environment& env,
                                const grid::DistanceField& df,
                                const PheromoneField& pher,
                                const AcoParams& params, grid::Group g, int r,
                                int c, double* values, std::int8_t* cells) {
    return build_candidates_aco_t(
        [&](int nr, int nc) { return env.walkable(nr, nc); },
        [&](int nr, int nc) { return pher.at(g, nr, nc); }, df, params,
        /*eta=*/nullptr, g, r, c, values, cells);
}

}  // namespace pedsim::core
