// Independent correctness oracle.
//
// Everything here works from the benchmark's own generated entry lists
// (MatrixFile), never from the library's CSR containers or its check_*
// functions, so a fault in ingest, build or verify cannot hide itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace e2e {

/// The benchmark's own adjacency for one input, in CSR form.
/// BGPC: `ptr/idx` map each row (net) to its columns and `tptr/tidx`
/// each column (vertex) to its rows. D2GC: `ptr/idx` map each vertex to
/// its neighbors (symmetric, diagonal dropped); `tptr/tidx` are unused.
struct Oracle {
  Problem problem = Problem::kBgpc;
  std::int32_t rows = 0;
  std::int32_t cols = 0;
  std::vector<std::int64_t> ptr, tptr;
  std::vector<std::int32_t> idx, tidx;
  /// Bounds on the color count: L (max net degree, or 1 + max degree
  /// for D2GC) and 1 + the maximum distance-2 degree with multiplicity.
  std::int64_t lower = 0;
  std::int64_t upper = 0;
  /// Vertices with no net (BGPC) or no neighbor (D2GC).
  std::int32_t isolated = 0;

  /// Vertices to color.
  [[nodiscard]] std::int32_t vertices() const {
    return problem == Problem::kBgpc ? cols : rows;
  }
  /// Nets as the library should count them (D2GC has none).
  [[nodiscard]] std::int32_t nets() const {
    return problem == Problem::kBgpc ? rows : 0;
  }
  /// BGPC: distinct entries; D2GC: directed adjacency entries.
  [[nodiscard]] std::int64_t edges() const {
    return static_cast<std::int64_t>(idx.size());
  }
};

[[nodiscard]] Oracle make_oracle(const MatrixFile& m, Problem problem);

/// Empty when `colors` is a valid coloring whose reported count is
/// consistent and within [lower, upper]. Otherwise a message that
/// starts with the failed check: "size", "uncolored", "conflict",
/// "num_colors" or "bounds".
[[nodiscard]] std::string check_coloring(const Oracle& o,
                                         const std::vector<std::int32_t>& colors,
                                         std::int64_t num_colors);

/// Empty when `order` is a permutation of [0, n).
[[nodiscard]] std::string check_permutation(
    const std::vector<std::int32_t>& order, std::int32_t n);

/// Sequential first-fit greedy over `order` (natural order when empty).
[[nodiscard]] std::vector<std::int32_t> first_fit(
    const Oracle& o, const std::vector<std::int32_t>& order);

struct PlantedFault {
  std::string name;
  bool rejected = false;  ///< the oracle rejected it for the planted reason
};

/// Plant each fault that applies to the problem into a copy of a valid
/// coloring and report whether check_coloring rejects it:
/// "shared-row" (BGPC: two columns of one row share a color),
/// "uncolored" (one vertex left at -1) and "middle-vertex" (D2GC: two
/// neighbors of one vertex share a color).
[[nodiscard]] std::vector<PlantedFault> plant_faults(
    const Oracle& o, const std::vector<std::int32_t>& valid, Rng& rng);

}  // namespace e2e
