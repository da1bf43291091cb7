// Workload definitions and the benchmark's own input generators.
//
// The generators here deliberately share no code with the library's
// src/graph/generators: a change to the library must never change what
// the benchmark feeds it. Every input is a pure function of the
// workload name and the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

enum class Problem { kBgpc, kD2gc };

struct Workload {
  std::string name;
  Problem problem = Problem::kBgpc;
  /// bgpc_preset / d2gc_preset name.
  std::string preset;
  /// Order with make_ordering(kSmallestLast); natural order otherwise.
  bool smallest_last = false;
};

/// The benchmark's workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<Workload>& workloads();

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] const Workload& find_workload(const std::string& name);

/// splitmix64: tiny, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform in [0, n) for n < 2^32.
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(((next() >> 32) * n) >> 32);
  }

 private:
  std::uint64_t state_;
};

/// A MatrixMarket coordinate file as the benchmark writes it: the
/// stored entries (0-based, no duplicates; for a symmetric file only the
/// lower triangle r >= c) in file order, plus its header.
struct MatrixFile {
  std::int32_t rows = 0;
  std::int32_t cols = 0;
  std::string field;     ///< "real" or "pattern"
  std::string symmetry;  ///< "general" or "symmetric"
  std::vector<std::int32_t> r;
  std::vector<std::int32_t> c;

  [[nodiscard]] bool symmetric() const { return symmetry == "symmetric"; }
  [[nodiscard]] std::size_t stored() const { return r.size(); }
};

/// Generate the workload's input for `seed` (structure only; values, if
/// any, are drawn by write_matrix_market from their own stream).
[[nodiscard]] MatrixFile generate(const Workload& w, std::uint64_t seed);

/// Write `m` in MatrixMarket coordinate format. Real files get seeded
/// values. Returns the number of bytes written; throws on I/O failure.
std::uint64_t write_matrix_market(const MatrixFile& m, std::uint64_t seed,
                                  const std::string& path);

}  // namespace e2e
