#include "inputs.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace e2e {

namespace {

// Input sizes. Each is chosen so that one warm pass takes 0.4 to 2 s on
// a 4-core host (README.md records the resulting make-up).

// jacobian-powerlaw: rows are nets with a fixed power-law degree
// sequence, so the color lower bound L is the same for every seed. The
// top net covers about a fifth of the columns: with a net covering a
// third or more, the N1-N2 residual-round count swings between 4 and 10
// from pass to pass and no run-level median is steady (see README.md).
constexpr std::int32_t kJacRows = 10000;
constexpr std::int32_t kJacCols = 120000;
constexpr double kJacMaxDeg = 25000.0;
constexpr double kJacRowExp = 0.9;     // d_i = max(min, max * (i+1)^-exp)
constexpr std::int32_t kJacMinDeg = 2;
constexpr double kJacColExp = 0.4;     // column popularity (rank+1)^-exp
constexpr std::uint64_t kJacPattern = 0x6a61636f626921ULL;

// hessian-mesh-d2: n^3 grid with the 27-point stencil.
constexpr std::int32_t kMeshN = 32;

// coauthor-sl: papers are cliques over authors. Author popularity is
// only mildly skewed: at exponent 0.6 the busiest author's 3,089
// coauthors set the color count alone (colors == L), so no better
// ordering or kernel could lower it. At 0.2 the largest papers
// set L = 245 and greedy needs about 1.35 L colors.
constexpr std::int32_t kAuthors = 18000;
constexpr std::int32_t kPapers = 27000;
constexpr double kPaperSizeExp = 1.6;  // P(size >= k) ~ k^-exp
constexpr std::int32_t kMaxPaperSize = 48;
constexpr double kAuthorExp = 0.2;     // author popularity (rank+1)^-exp
constexpr std::uint64_t kCoauthorPattern = 0x636f617574686f72ULL;

std::vector<std::int32_t> shuffled_identity(std::int32_t n, Rng& rng) {
  std::vector<std::int32_t> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  for (std::int32_t i = n - 1; i > 0; --i)
    std::swap(p[static_cast<std::size_t>(i)],
              p[rng.below(static_cast<std::uint32_t>(i) + 1)]);
  return p;
}

/// Samples ids in [0, n) with probability ∝ (rank(id)+1)^-exp, where the
/// ranks are a seeded permutation (popular ids are spread over the range).
class PopularityPicker {
 public:
  PopularityPicker(std::int32_t n, double exp, Rng& rng)
      : id_of_rank_(shuffled_identity(n, rng)),
        cumulative_(static_cast<std::size_t>(n)) {
    double acc = 0.0;
    for (std::int32_t k = 0; k < n; ++k) {
      acc += std::pow(static_cast<double>(k) + 1.0, -exp);
      cumulative_[static_cast<std::size_t>(k)] = acc;
    }
  }

  std::int32_t pick(Rng& rng) const {
    const double x = rng.uniform() * cumulative_.back();
    const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), x);
    const auto rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - cumulative_.begin()),
        cumulative_.size() - 1);
    return id_of_rank_[rank];
  }

 private:
  std::vector<std::int32_t> id_of_rank_;
  std::vector<double> cumulative_;
};

/// Draw `k` distinct ids (k far below n) into `out`; `stamp`/`epoch`
/// mark ids already taken in this draw.
void pick_distinct(const PopularityPicker& picker, std::int32_t k, Rng& rng,
                   std::vector<std::uint32_t>& stamp, std::uint32_t epoch,
                   std::vector<std::int32_t>& out) {
  out.clear();
  while (static_cast<std::int32_t>(out.size()) < k) {
    const std::int32_t id = picker.pick(rng);
    if (stamp[static_cast<std::size_t>(id)] == epoch) continue;
    stamp[static_cast<std::size_t>(id)] = epoch;
    out.push_back(id);
  }
}

MatrixFile jacobian_powerlaw(std::uint64_t /*seed: the pattern is fixed; values vary*/) {
  // A fixed pattern: redrawing the columns of each net per seed, or only
  // renumbering the nets, moved the median coloring time by 2x between
  // seeds (README.md), which no run length averages away.
  Rng rng(kJacPattern);
  MatrixFile m{kJacRows, kJacCols, "real", "general", {}, {}};
  const std::vector<std::int32_t> row_of_rank = shuffled_identity(kJacRows, rng);
  const PopularityPicker cols(kJacCols, kJacColExp, rng);
  std::vector<std::uint32_t> stamp(static_cast<std::size_t>(kJacCols), 0);
  std::vector<std::int32_t> picked;
  std::vector<std::uint64_t> entries;  // (row << 32) | col
  for (std::int32_t i = 0; i < kJacRows; ++i) {
    const double d = kJacMaxDeg * std::pow(i + 1.0, -kJacRowExp);
    pick_distinct(cols, std::max(kJacMinDeg, static_cast<std::int32_t>(d)), rng,
                  stamp, static_cast<std::uint32_t>(i) + 1, picked);
    const auto row = static_cast<std::uint64_t>(row_of_rank[static_cast<std::size_t>(i)]);
    for (const std::int32_t c : picked)
      entries.push_back((row << 32) | static_cast<std::uint32_t>(c));
  }
  std::sort(entries.begin(), entries.end());
  m.r.reserve(entries.size());
  m.c.reserve(entries.size());
  for (const std::uint64_t e : entries) {
    m.r.push_back(static_cast<std::int32_t>(e >> 32));
    m.c.push_back(static_cast<std::int32_t>(e & 0xffffffffULL));
  }
  return m;
}

MatrixFile hessian_mesh(std::uint64_t /*seed: the mesh is fixed; values vary*/) {
  const std::int32_t n = kMeshN;
  MatrixFile m{n * n * n, n * n * n, "real", "symmetric", {}, {}};
  for (std::int32_t z = 0; z < n; ++z)
    for (std::int32_t y = 0; y < n; ++y)
      for (std::int32_t x = 0; x < n; ++x) {
        const std::int32_t v = (z * n + y) * n + x;
        // Offsets in (dz, dy, dx) lexicographic order give ascending w.
        for (std::int32_t dz = -1; dz <= 1; ++dz)
          for (std::int32_t dy = -1; dy <= 1; ++dy)
            for (std::int32_t dx = -1; dx <= 1; ++dx) {
              const std::int32_t zz = z + dz, yy = y + dy, xx = x + dx;
              if (zz < 0 || zz >= n || yy < 0 || yy >= n || xx < 0 || xx >= n)
                continue;
              const std::int32_t w = (zz * n + yy) * n + xx;
              if (w > v) continue;  // lower triangle only
              m.r.push_back(v);
              m.c.push_back(w);
            }
      }
  return m;
}

MatrixFile coauthor(std::uint64_t seed) {
  // One fixed, fixed-numbered collaboration structure; the seed only
  // shuffles the order of the stored entries, which the library sorts
  // away. Renumbering the authors per seed moved the run's color count
  // by 4% (IQR / median over 10 seeds), too close to its 10% bound.
  Rng rng(kCoauthorPattern);
  const PopularityPicker authors(kAuthors, kAuthorExp, rng);
  std::vector<std::uint32_t> stamp(static_cast<std::size_t>(kAuthors), 0);
  std::vector<std::int32_t> team;
  std::vector<std::uint64_t> pairs;  // (row << 32) | col, row > col
  for (std::int32_t p = 0; p < kPapers; ++p) {
    const double u = 1.0 - rng.uniform();  // (0, 1]
    const auto size = std::min(
        kMaxPaperSize,
        1 + static_cast<std::int32_t>(std::pow(u, -1.0 / kPaperSizeExp)));
    pick_distinct(authors, size, rng, stamp, static_cast<std::uint32_t>(p) + 1,
                  team);
    for (const std::int32_t a : team)
      for (const std::int32_t b : team)
        if (a > b)
          pairs.push_back((static_cast<std::uint64_t>(a) << 32) |
                          static_cast<std::uint32_t>(b));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  Rng order(seed);
  for (std::size_t i = pairs.size() - 1; i > 0; --i)
    std::swap(pairs[i], pairs[order.below(static_cast<std::uint32_t>(i) + 1)]);
  MatrixFile m{kAuthors, kAuthors, "pattern", "symmetric", {}, {}};
  m.r.reserve(pairs.size());
  m.c.reserve(pairs.size());
  for (const std::uint64_t e : pairs) {
    m.r.push_back(static_cast<std::int32_t>(e >> 32));
    m.c.push_back(static_cast<std::int32_t>(e & 0xffffffffULL));
  }
  return m;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"jacobian-powerlaw", Problem::kBgpc, "N1-N2", false},
      {"hessian-mesh-d2", Problem::kD2gc, "N1-N2", false},
      {"coauthor-sl", Problem::kBgpc, "V-V-64D", true},
  };
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload: " + name);
}

MatrixFile generate(const Workload& w, std::uint64_t seed) {
  if (w.name == "jacobian-powerlaw") return jacobian_powerlaw(seed);
  if (w.name == "hessian-mesh-d2") return hessian_mesh(seed);
  return coauthor(seed);
}

std::uint64_t write_matrix_market(const MatrixFile& m, std::uint64_t seed,
                                  const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot open " + path);
  std::string buf = "%%MatrixMarket matrix coordinate " + m.field + " " +
                    m.symmetry + "\n" + std::to_string(m.rows) + " " +
                    std::to_string(m.cols) + " " + std::to_string(m.stored()) +
                    "\n";
  // Values come from their own stream so the structure never depends on
  // whether values are written.
  Rng values(seed ^ 0x5eed5eed5eed5eedULL);
  const bool real = m.field == "real";
  std::uint64_t bytes = 0;
  auto flush = [&] {
    if (std::fwrite(buf.data(), 1, buf.size(), f) != buf.size()) {
      std::fclose(f);
      throw std::runtime_error("cannot write " + path);
    }
    bytes += buf.size();
    buf.clear();
  };
  char num[64];
  for (std::size_t k = 0; k < m.stored(); ++k) {
    buf += std::to_string(m.r[k] + 1);
    buf += ' ';
    buf += std::to_string(m.c[k] + 1);
    if (real) {
      std::to_chars_result res{};
      if (m.symmetric()) {
        // Hessian-like: dominant diagonal, full-precision scientific.
        const double v = m.r[k] == m.c[k] ? 27.0 + values.uniform()
                                          : values.uniform() * 2.0 - 1.0;
        res = std::to_chars(num, num + sizeof num, v,
                            std::chars_format::scientific, 16);
      } else {
        // Ratings-like: half-star steps in [0.5, 5].
        const double v = 0.5 * (1 + values.below(10));
        res = std::to_chars(num, num + sizeof num, v);
      }
      buf += ' ';
      buf.append(num, res.ptr);
    }
    buf += '\n';
    if (buf.size() > (1u << 20)) flush();
  }
  flush();
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
  return bytes;
}

}  // namespace e2e
