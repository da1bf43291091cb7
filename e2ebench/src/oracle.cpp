#include "oracle.hpp"

#include <algorithm>

namespace e2e {

namespace {

/// Counting-sort CSR of `keys -> values` over [0, n).
void to_csr(std::int32_t n, const std::vector<std::int32_t>& keys,
            const std::vector<std::int32_t>& values,
            std::vector<std::int64_t>& ptr, std::vector<std::int32_t>& idx) {
  ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const std::int32_t k : keys) ++ptr[static_cast<std::size_t>(k) + 1];
  for (std::size_t i = 1; i < ptr.size(); ++i) ptr[i] += ptr[i - 1];
  idx.resize(keys.size());
  std::vector<std::int64_t> cursor(ptr.begin(), ptr.end() - 1);
  for (std::size_t i = 0; i < keys.size(); ++i)
    idx[static_cast<std::size_t>(cursor[static_cast<std::size_t>(keys[i])]++)] =
        values[i];
}

std::int64_t degree(const std::vector<std::int64_t>& ptr, std::int32_t v) {
  return ptr[static_cast<std::size_t>(v) + 1] - ptr[static_cast<std::size_t>(v)];
}

/// Calls f(w) for every vertex that must differ in color from `u`
/// (with repetition; may include u itself, which callers skip).
template <class F>
void for_each_d2(const Oracle& o, std::int32_t u, F&& f) {
  if (o.problem == Problem::kBgpc) {
    for (std::int64_t a = o.tptr[static_cast<std::size_t>(u)];
         a < o.tptr[static_cast<std::size_t>(u) + 1]; ++a) {
      const std::int32_t r = o.tidx[static_cast<std::size_t>(a)];
      for (std::int64_t b = o.ptr[static_cast<std::size_t>(r)];
           b < o.ptr[static_cast<std::size_t>(r) + 1]; ++b)
        f(o.idx[static_cast<std::size_t>(b)]);
    }
    return;
  }
  for (std::int64_t a = o.ptr[static_cast<std::size_t>(u)];
       a < o.ptr[static_cast<std::size_t>(u) + 1]; ++a) {
    const std::int32_t w = o.idx[static_cast<std::size_t>(a)];
    f(w);
    for (std::int64_t b = o.ptr[static_cast<std::size_t>(w)];
         b < o.ptr[static_cast<std::size_t>(w) + 1]; ++b)
      f(o.idx[static_cast<std::size_t>(b)]);
  }
}

/// A random key in [0, n) whose CSR list has at least two entries.
std::int32_t pick_with_two(const std::vector<std::int64_t>& ptr,
                           std::int32_t n, Rng& rng) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const auto k = static_cast<std::int32_t>(rng.below(static_cast<std::uint32_t>(n)));
    if (degree(ptr, k) >= 2) return k;
  }
  for (std::int32_t k = 0; k < n; ++k)
    if (degree(ptr, k) >= 2) return k;
  return -1;
}

}  // namespace

Oracle make_oracle(const MatrixFile& m, Problem problem) {
  Oracle o;
  o.problem = problem;
  o.rows = m.rows;
  o.cols = m.cols;
  // The full pattern: a symmetric file stores only r >= c.
  std::vector<std::int32_t> r, c;
  r.reserve(2 * m.stored());
  c.reserve(2 * m.stored());
  for (std::size_t k = 0; k < m.stored(); ++k) {
    const bool diagonal = m.r[k] == m.c[k];
    if (problem == Problem::kD2gc && diagonal) continue;
    r.push_back(m.r[k]);
    c.push_back(m.c[k]);
    if (m.symmetric() && !diagonal) {
      r.push_back(m.c[k]);
      c.push_back(m.r[k]);
    }
  }
  to_csr(m.rows, r, c, o.ptr, o.idx);
  if (problem == Problem::kBgpc) to_csr(m.cols, c, r, o.tptr, o.tidx);

  std::int64_t max_deg = 0;
  for (std::int32_t v = 0; v < o.rows; ++v)
    max_deg = std::max(max_deg, degree(o.ptr, v));
  std::int64_t max_d2 = 0;
  for (std::int32_t u = 0; u < o.vertices(); ++u) {
    if (degree(problem == Problem::kBgpc ? o.tptr : o.ptr, u) == 0) ++o.isolated;
    std::int64_t d2 = 0;
    if (problem == Problem::kBgpc) {
      for (std::int64_t a = o.tptr[static_cast<std::size_t>(u)];
           a < o.tptr[static_cast<std::size_t>(u) + 1]; ++a)
        d2 += degree(o.ptr, o.tidx[static_cast<std::size_t>(a)]) - 1;
    } else {
      for (std::int64_t a = o.ptr[static_cast<std::size_t>(u)];
           a < o.ptr[static_cast<std::size_t>(u) + 1]; ++a)
        d2 += degree(o.ptr, o.idx[static_cast<std::size_t>(a)]);
    }
    max_d2 = std::max(max_d2, d2);
  }
  o.lower = problem == Problem::kBgpc ? max_deg : 1 + max_deg;
  o.upper = 1 + max_d2;
  return o;
}

std::string check_coloring(const Oracle& o,
                           const std::vector<std::int32_t>& colors,
                           std::int64_t num_colors) {
  if (colors.size() != static_cast<std::size_t>(o.vertices()))
    return "size: " + std::to_string(colors.size()) + " colors for " +
           std::to_string(o.vertices()) + " vertices";
  std::int64_t max_color = -1;
  for (std::size_t v = 0; v < colors.size(); ++v) {
    if (colors[v] < 0) return "uncolored: vertex " + std::to_string(v);
    max_color = std::max<std::int64_t>(max_color, colors[v]);
  }
  if (num_colors != max_color + 1)
    return "num_colors: reported " + std::to_string(num_colors) +
           ", 1 + max color is " + std::to_string(max_color + 1);
  if (max_color >= o.upper)
    return "bounds: color " + std::to_string(max_color) + " >= upper bound " +
           std::to_string(o.upper);

  // Colors are now known to lie in [0, upper). One stamped marker pass
  // per row (BGPC) or per closed neighborhood N[v] (D2GC).
  std::vector<std::int64_t> seen(static_cast<std::size_t>(o.upper), -1);
  for (std::int32_t v = 0; v < o.rows; ++v) {
    if (o.problem == Problem::kD2gc)
      seen[static_cast<std::size_t>(colors[static_cast<std::size_t>(v)])] = v;
    for (std::int64_t a = o.ptr[static_cast<std::size_t>(v)];
         a < o.ptr[static_cast<std::size_t>(v) + 1]; ++a) {
      const std::int32_t w = o.idx[static_cast<std::size_t>(a)];
      auto& mark = seen[static_cast<std::size_t>(colors[static_cast<std::size_t>(w)])];
      if (mark == v)
        return "conflict: vertex " + std::to_string(w) + " repeats color " +
               std::to_string(colors[static_cast<std::size_t>(w)]) +
               (o.problem == Problem::kBgpc ? " in row " : " in N[") +
               std::to_string(v) + (o.problem == Problem::kBgpc ? "" : "]");
      mark = v;
    }
  }
  if (num_colors < o.lower || num_colors > o.upper)
    return "bounds: " + std::to_string(num_colors) + " colors outside [" +
           std::to_string(o.lower) + ", " + std::to_string(o.upper) + "]";
  return {};
}

std::string check_permutation(const std::vector<std::int32_t>& order,
                              std::int32_t n) {
  if (order.size() != static_cast<std::size_t>(n))
    return "order has " + std::to_string(order.size()) + " entries for " +
           std::to_string(n) + " vertices";
  std::vector<char> hit(static_cast<std::size_t>(n), 0);
  for (const std::int32_t v : order) {
    if (v < 0 || v >= n || hit[static_cast<std::size_t>(v)] != 0)
      return "order entry " + std::to_string(v) + " is out of range or repeated";
    hit[static_cast<std::size_t>(v)] = 1;
  }
  return {};
}

std::vector<std::int32_t> first_fit(const Oracle& o,
                                    const std::vector<std::int32_t>& order) {
  const std::int32_t n = o.vertices();
  std::vector<std::int32_t> colors(static_cast<std::size_t>(n), -1);
  std::vector<std::int32_t> mark(static_cast<std::size_t>(o.upper) + 1, -1);
  for (std::int32_t i = 0; i < n; ++i) {
    const std::int32_t u = order.empty() ? i : order[static_cast<std::size_t>(i)];
    for_each_d2(o, u, [&](std::int32_t w) {
      const std::int32_t cw = colors[static_cast<std::size_t>(w)];
      if (w != u && cw >= 0) mark[static_cast<std::size_t>(cw)] = u;
    });
    std::int32_t c = 0;
    while (mark[static_cast<std::size_t>(c)] == u) ++c;
    colors[static_cast<std::size_t>(u)] = c;
  }
  return colors;
}

std::vector<PlantedFault> plant_faults(const Oracle& o,
                                       const std::vector<std::int32_t>& valid,
                                       Rng& rng) {
  std::vector<PlantedFault> out;
  auto expect = [&](const std::string& name, std::vector<std::int32_t> faulty,
                    const std::string& reason) {
    std::int64_t max_color = -1;
    for (const std::int32_t c : faulty) max_color = std::max<std::int64_t>(max_color, c);
    // Report the count the faulty colors imply, so only the plant itself
    // can make the check fail.
    const std::string why = check_coloring(o, faulty, max_color + 1);
    out.push_back({name, why.rfind(reason, 0) == 0});
  };

  // Two entries of one CSR list get the same color. For BGPC the list is
  // a row; for D2GC it is N(v), so the two share the middle vertex v.
  const std::int32_t v = pick_with_two(o.ptr, o.rows, rng);
  const std::string shared = o.problem == Problem::kBgpc ? "shared-row" : "middle-vertex";
  if (v < 0) {
    out.push_back({shared, false});
  } else {
    const std::int64_t begin = o.ptr[static_cast<std::size_t>(v)];
    const auto len = static_cast<std::uint32_t>(degree(o.ptr, v));
    const std::uint32_t i = rng.below(len);
    const std::uint32_t j = (i + 1 + rng.below(len - 1)) % len;
    std::vector<std::int32_t> faulty = valid;
    faulty[static_cast<std::size_t>(o.idx[static_cast<std::size_t>(begin + j)])] =
        faulty[static_cast<std::size_t>(o.idx[static_cast<std::size_t>(begin + i)])];
    expect(shared, std::move(faulty), "conflict");
  }

  std::vector<std::int32_t> faulty = valid;
  faulty[rng.below(static_cast<std::uint32_t>(o.vertices()))] = -1;
  expect("uncolored", std::move(faulty), "uncolored");
  return out;
}

}  // namespace e2e
