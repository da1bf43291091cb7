// e2ebench: MatrixMarket file -> verified coloring, timed layer by layer.
//
//   gcol_e2e gen --workload W --seed S --out FILE
//   gcol_e2e run --workload W --seed S --seconds T --trace 0|1
//                --input FILE --launch-ns NS [--trace-out FILE]
//   gcol_e2e self-test
//
// `gen` writes the workload's input; it runs in its own process so that
// input generation never counts toward set-up time. `run` times passes
// over that file and prints one JSON result line on stdout. `self-test`
// shows that the oracle rejects planted faults. run.py drives all three.
//
// The pipeline calls only the library's public layer entry points
// (graph: read_matrix_market_file + build_*; order: make_ordering;
// core: color_* configured by preset + num_threads, check_*) and times
// each call from outside. Spans inside the library are not recorded.
#include <omp.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "build_info.hpp"
#include "greedcolor/core/bgpc.hpp"
#include "greedcolor/core/d2gc.hpp"
#include "greedcolor/core/verify.hpp"
#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/mtx_io.hpp"
#include "greedcolor/order/ordering.hpp"
#include "inputs.hpp"
#include "oracle.hpp"

namespace e2e {
namespace {

/// CLOCK_MONOTONIC explicitly (not steady_clock): run.py stamps the
/// launch time with Python's time.monotonic_ns(), the same clock, and
/// set-up time is measured against that stamp.
std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// CPU time the hypervisor gave to other guests while this VM's vCPUs
/// wanted to run ("steal" in /proc/stat), summed over all CPUs; 0 where
/// the kernel does not account it.
double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long v[8] = {};
  in >> cpu;
  for (long long& x : v) in >> x;
  return in ? static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

struct Usage {
  double cpu_s = 0.0;
  long minor_faults = 0;
};

/// Process-wide CPU time (all threads) and minor page faults.
Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {sec(ru.ru_utime) + sec(ru.ru_stime), ru.ru_minflt};
}

/// In-memory span log, written out when the run ends. Spans of one pass
/// share its pass id; layer spans name the pass span as their parent.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int parent;
    int pass;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  int open(const char* name, int parent, int pass, std::int64_t start) {
    spans_.push_back({name, parent, pass, start, start});
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id, std::int64_t end) {
    spans_[static_cast<std::size_t>(id)].end_ns = end;
  }

  /// Chrome trace-event JSON (load in Perfetto or chrome://tracing).
  void write(const std::string& path) const {
    std::ofstream out(path);
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << static_cast<double>(s.start_ns - t0) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"pass\":" << s.pass << "}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("cannot write trace " + path);
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

/// One call into a layer. cpu_s and minor_faults are only read in
/// traced passes; untraced passes take two clock readings per call.
struct LayerCall {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  long minor_faults = 0;
};

struct Tracing {
  SpanLog* log = nullptr;  ///< null: untraced pass
  int parent = -1;
  int pass = 0;
};

template <class F>
auto timed(LayerCall& out, const Tracing& tr, const char* name, F&& f) {
  const Usage u0 = tr.log ? usage_now() : Usage{};
  const std::int64_t t0 = now_ns();
  auto result = f();
  const std::int64_t t1 = now_ns();
  if (tr.log) {
    const Usage u1 = usage_now();
    out.cpu_s = u1.cpu_s - u0.cpu_s;
    out.minor_faults = u1.minor_faults - u0.minor_faults;
    tr.log->close(tr.log->open(name, tr.parent, tr.pass, t0), t1);
  }
  out.wall_s = seconds_between(t0, t1);
  return result;
}

struct Ingest {
  std::int64_t vertices = 0;
  std::int64_t nets = 0;
  std::int64_t edges = 0;
  double csr_mb = 0.0;  ///< CSR array bytes / 1e6
};

template <class T>
double mb(const std::vector<T>& v) {
  return static_cast<double>(v.size() * sizeof(T)) / 1e6;
}

Ingest ingest_of(const gcol::BipartiteGraph& g) {
  return {g.num_vertices(), g.num_nets(), g.num_edges(),
          mb(g.vptr()) + mb(g.vadj()) + mb(g.nptr()) + mb(g.nadj())};
}

Ingest ingest_of(const gcol::Graph& g) {
  return {g.num_vertices(), 0, g.num_adjacency_entries(),
          mb(g.ptr()) + mb(g.adj())};
}

template <class G>
constexpr bool kBipartite = std::is_same_v<G, gcol::BipartiteGraph>;

struct PassOutcome {
  bool ok = false;
  std::string error;
  LayerCall read, build, order, color, verify;
  double e2e_s = 0.0;
  Ingest ingest;
  std::vector<gcol::vid_t> order_perm;
  gcol::ColoringResult result;
};

/// One pass: file -> graph -> (order) -> coloring -> library verify.
/// The timed span ends after the graph is released.
template <class G>
PassOutcome run_pass(const Workload& w, const std::string& path, int threads,
                     SpanLog* log, int pass) {
  PassOutcome p;
  const std::int64_t t0 = now_ns();
  Tracing tr{log, log ? log->open("pass", -1, pass, t0) : -1, pass};
  try {
    gcol::Coo coo = timed(p.read, tr, "graph.read", [&] {
      return gcol::read_matrix_market_file(path);
    });
    const G g = timed(p.build, tr, "graph.build", [&] {
      if constexpr (kBipartite<G>) return gcol::build_bipartite(std::move(coo));
      else return gcol::build_graph(std::move(coo));
    });
    p.ingest = ingest_of(g);
    if (w.smallest_last)
      p.order_perm = timed(p.order, tr, "order.make_ordering", [&] {
        return gcol::make_ordering(g, gcol::OrderingKind::kSmallestLast);
      });
    gcol::ColoringOptions opt = w.problem == Problem::kBgpc
                                    ? gcol::bgpc_preset(w.preset)
                                    : gcol::d2gc_preset(w.preset);
    opt.num_threads = threads;
    p.result = timed(p.color, tr, "core.color", [&] {
      if constexpr (kBipartite<G>) return gcol::color_bgpc(g, opt, p.order_perm);
      else return gcol::color_d2gc(g, opt, p.order_perm);
    });
    const auto violation = timed(p.verify, tr, "core.verify", [&] {
      if constexpr (kBipartite<G>) return gcol::check_bgpc(g, p.result.colors);
      else return gcol::check_d2gc(g, p.result.colors);
    });
    if (violation) throw std::runtime_error("library verify: " + violation->to_string());
    p.ok = true;
  } catch (const std::exception& e) {
    p.error = e.what();
  }
  const std::int64_t t1 = now_ns();
  if (log) log->close(tr.parent, t1);
  p.e2e_s = seconds_between(t0, t1);
  return p;
}

/// Reference sequential baseline: its wall time, and whether it matches
/// the oracle's own first-fit over the same order color for color.
template <class G>
std::pair<double, std::string> sequential_reference(
    const std::string& path, const Oracle& oracle,
    const std::vector<gcol::vid_t>& order, SpanLog& log) {
  gcol::Coo coo = gcol::read_matrix_market_file(path);
  G g;
  if constexpr (kBipartite<G>) g = gcol::build_bipartite(std::move(coo));
  else g = gcol::build_graph(std::move(coo));
  LayerCall call;
  const gcol::ColoringResult seq =
      timed(call, Tracing{&log, -1, -1}, "core.color_sequential", [&] {
        if constexpr (kBipartite<G>) return gcol::color_bgpc_sequential(g, order);
        else return gcol::color_d2gc_sequential(g, order);
      });
  const std::vector<std::int32_t> own = first_fit(oracle, order);
  if (own != seq.colors)
    return {call.wall_s, "sequential coloring differs from the oracle's first-fit"};
  return {call.wall_s, {}};
}

/// Oracle verdict on one pass: empty when accepted.
std::string judge(const PassOutcome& p, const Oracle& o) {
  if (!p.ok) return p.error;
  const Ingest& in = p.ingest;
  if (in.vertices != o.vertices() || in.nets != o.nets() || in.edges != o.edges())
    return "ingest counts (" + std::to_string(in.vertices) + ", " +
           std::to_string(in.nets) + ", " + std::to_string(in.edges) +
           ") differ from the generated (" + std::to_string(o.vertices()) +
           ", " + std::to_string(o.nets()) + ", " + std::to_string(o.edges()) + ")";
  if (!p.order_perm.empty()) {
    std::string why = check_permutation(p.order_perm, o.vertices());
    if (!why.empty()) return why;
  }
  return check_coloring(o, p.result.colors, p.result.num_colors);
}

/// Named samples, each reported as one quantile of its values (the
/// median unless given), in first-insertion order.
class Samples {
 public:
  void add(const std::string& name, const std::string& unit, double v,
           double q = 0.5) {
    for (auto& s : series_)
      if (s.name == name) {
        s.values.push_back(v);
        return;
      }
    series_.push_back({name, unit, q, {v}});
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < series_.size(); ++i) {
      const auto& s = series_[i];
      out += (i ? ", \"" : "\"") + s.name + "\": {\"value\": " +
             number(quantile_of(s.values, s.q)) + ", \"unit\": \"" + s.unit + "\"}";
    }
    return out + "}";
  }

  /// Linear interpolation between the order statistics around (n-1) q.
  static double quantile_of(std::vector<double> v, double q) {
    if (v.empty()) throw std::runtime_error("no successful pass to report");
    std::sort(v.begin(), v.end());
    const double k = static_cast<double>(v.size() - 1) * q;
    const auto lo = static_cast<std::size_t>(k);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (k - static_cast<double>(lo));
  }

  static double median_of(std::vector<double> v) { return quantile_of(std::move(v), 0.5); }

  static std::string number(double v) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return {buf, res.ptr};
  }

 private:
  struct Series {
    std::string name;
    std::string unit;
    double q;
    std::vector<double> values;
  };
  std::vector<Series> series_;
};

void add_layer_samples(Samples& s, const PassOutcome& p, const Oracle& o,
                       double file_mb, int threads) {
  const gcol::ColoringResult& r = p.result;
  s.add("graph.read_s", "s", p.read.wall_s);
  s.add("graph.read_cpu_s", "s", p.read.cpu_s);
  s.add("graph.read_mb_per_s", "MB/s", file_mb / p.read.wall_s);
  s.add("graph.build_s", "s", p.build.wall_s);
  s.add("graph.build_cpu_s", "s", p.build.cpu_s);
  s.add("graph.csr_mb", "MB", p.ingest.csr_mb);
  s.add("graph.minor_faults", "count",
        static_cast<double>(p.read.minor_faults + p.build.minor_faults));
  s.add("order.s", "s", p.order.wall_s);
  s.add("order.cpu_s", "s", p.order.cpu_s);
  s.add("core.cpu_s", "s", p.color.cpu_s);
  s.add("core.cpu_util", "ratio", p.color.cpu_s / (p.color.wall_s * threads));
  s.add("core.rounds", "count", r.rounds);
  double round1 = 0.0, residual = 0.0;
  for (std::size_t i = 0; i < r.iterations.size(); ++i) {
    const double t = r.iterations[i].color_seconds + r.iterations[i].conflict_seconds;
    (i == 0 ? round1 : residual) += t;
  }
  s.add("core.round1_s", "s", round1);
  s.add("core.residual_s", "s", residual);
  s.add("core.round2_queue", "count",
        r.iterations.size() > 1 ? static_cast<double>(r.iterations[1].queue_size) : 0.0);
  s.add("core.driver_s", "s", p.color.wall_s - round1 - residual);
  const gcol::KernelCounters col = r.total_color_counters();
  const gcol::KernelCounters con = r.total_conflict_counters();
  s.add("core.edges_visited", "count",
        static_cast<double>(col.edges_visited + con.edges_visited));
  s.add("core.color_probes", "count",
        static_cast<double>(col.color_probes + con.color_probes));
  s.add("core.conflicts", "count", static_cast<double>(con.conflicts));
  // The library colors isolated vertices up front, outside the counters.
  s.add("core.useful_ratio", "ratio",
        static_cast<double>(o.vertices() - o.isolated) /
            static_cast<double>(col.colored));
  s.add("core.verify_s", "s", p.verify.wall_s);
}

struct Args {
  std::string mode, workload, input, out, trace_out;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::int64_t launch_ns = 0;
};

Args parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: gcol_e2e gen|run|self-test ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--input") a.input = val;
    else if (key == "--out") a.out = val;
    else if (key == "--trace-out") a.trace_out = val;
    else if (key == "--launch-ns") a.launch_ns = std::stoll(val);
    else throw std::invalid_argument("unknown option " + key);
  }
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  return "unknown";
}

void print_fingerprint(int threads) {
  std::cerr << "host: cores=" << omp_get_num_procs() << " threads=" << threads
            << " cpu=\"" << cpu_model() << "\" compiler=\"" << kCompiler
            << "\" flags=\"" << kFlags << "\" options=\"" << kGcolOptions
            << "\"\n";
}

/// Warm-pass wall times (e2e_s, color_s) are reported at this quantile
/// of the passes, not the median. On the shared 4-core host where the
/// benchmark was tuned, each vCPU switches, for seconds at a time,
/// between speeds up to 1.6x apart (a CPU-bound loop pinned to each core
/// shows it), and for a minute or more at a time other guests' load made
/// the 4-thread coloring 3 to 40x slower. A run's median pass lands in
/// whichever mode dominated it, and run medians of one input differed by
/// 1.5x (e2e_s) and 8x (color_s). The lower decile reads the uncontended
/// mode whenever a tenth of the run had it.
constexpr double kTimeQuantile = 0.1;

/// Moves the calling thread to the next allowed CPU, one per warm pass,
/// so that a run samples every core's speed instead of only the core the
/// scheduler first put the single-threaded ingest on. OpenMP's workers,
/// started by the cold pass, keep the full mask. Restores it on exit.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof all_, &all_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

template <class G>
int run(const Args& a, const Workload& w) {
  const int threads = omp_get_num_procs();
  SpanLog log;
  // The cold pass: the first in this process, paying OpenMP start-up
  // and first-touch faults, as one color_tool invocation would.
  PassOutcome cold = run_pass<G>(w, a.input, threads, a.trace ? &log : nullptr, 0);
  const double setup_s = seconds_between(a.launch_ns, now_ns());
  // Peak memory of the pipeline alone, read before the oracle builds its
  // own copy of the pattern. Warm passes repeat the same pipeline.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;

  const Oracle oracle = make_oracle(generate(w, a.seed), w.problem);
  const double file_mb =
      static_cast<double>(std::filesystem::file_size(a.input)) / 1e6;
  print_fingerprint(threads);
  std::cerr << "oracle: colors must lie in [" << oracle.lower << ", "
            << oracle.upper << "]\n";

  bool correct = true;
  long attempted = 1, failed = 0;
  auto judged = [&](PassOutcome& p, int pass) {
    const std::string why = judge(p, oracle);
    if (!why.empty()) {
      ++failed;
      std::cerr << "pass " << pass << " failed: " << why << "\n";
    }
    return why.empty();
  };
  if (judged(cold, 0)) {
    // The oracle must reject faults planted into a coloring it accepted.
    Rng rng(a.seed ^ 0x0badc0de0badc0deULL);
    for (const PlantedFault& f : plant_faults(oracle, cold.result.colors, rng)) {
      std::cerr << "oracle self-test: planted " << f.name
                << (f.rejected ? " rejected\n" : " NOT rejected\n");
      correct = correct && f.rejected;
    }
  }

  // Warm passes until the measuring time is up. A traced run alternates
  // traced and untraced passes in ABBA order (traced: 1, 4, 5, 8, 9, ...)
  // so both see the same machine state and neither always runs first.
  Samples e2e, layer;
  std::vector<double> traced_e2e, plain_e2e, traced_color, traced_colors;
  e2e.add("setup_s", "s", setup_s);
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  constexpr int kMinWarmPasses = 4;
  std::optional<CpuRotation> rotation(std::in_place);
  for (int pass = 1; pass <= kMinWarmPasses || now_ns() < end; ++pass) {
    const bool traced = a.trace && pass % 4 <= 1;
    rotation->next();
    const double steal0 = host_steal_s();
    PassOutcome p = run_pass<G>(w, a.input, threads, traced ? &log : nullptr, pass);
    const double steal_s = host_steal_s() - steal0;
    ++attempted;
    if (!judged(p, pass)) continue;
    std::cerr << "pass " << pass << (traced ? " traced" : "") << ": e2e_s "
              << p.e2e_s << " color_s " << p.color.wall_s << " colors "
              << p.result.num_colors << " rounds " << p.result.rounds << " cpu "
              << sched_getcpu() << " steal_s " << steal_s << "\n";
    (traced ? traced_e2e : plain_e2e).push_back(p.e2e_s);
    if (traced) {
      add_layer_samples(layer, p, oracle, file_mb, threads);
      traced_color.push_back(p.color.wall_s);
      traced_colors.push_back(static_cast<double>(p.result.num_colors));
    }
    e2e.add("e2e_s", "s", p.e2e_s, kTimeQuantile);
    e2e.add("color_s", "s", p.color.wall_s, kTimeQuantile);
    e2e.add("colors", "count", p.result.num_colors);
  }
  rotation.reset();
  if (failed == attempted) correct = false;

  std::string metrics;
  if (a.trace) {
    const auto [seq_s, mismatch] =
        sequential_reference<G>(a.input, oracle, cold.order_perm, log);
    if (!mismatch.empty()) {
      std::cerr << mismatch << "\n";
      correct = false;
    }
    layer.add("core.seq_color_s", "s", seq_s);
    const double traced_e2e_s = Samples::quantile_of(traced_e2e, kTimeQuantile);
    const double plain_e2e_s = Samples::quantile_of(plain_e2e, kTimeQuantile);
    const double traced_color_s = Samples::quantile_of(traced_color, kTimeQuantile);
    layer.add("core.speedup", "ratio", seq_s / traced_color_s);
    // The traced passes' own end-to-end figures, taken as e2e_s, color_s
    // and colors are, to hold against the untraced runs.
    layer.add("trace.e2e_s", "s", traced_e2e_s);
    layer.add("trace.color_s", "s", traced_color_s);
    layer.add("trace.colors", "count", Samples::median_of(traced_colors));
    layer.add("trace.overhead_pct", "%", 100.0 * (traced_e2e_s / plain_e2e_s - 1.0));
    metrics = layer.json();
    if (!a.trace_out.empty()) log.write(a.trace_out);
    std::cerr << "trace: " << log.size() << " spans, traced e2e_s " << traced_e2e_s
              << " vs untraced " << plain_e2e_s << "\n";
  } else {
    e2e.add("peak_rss_mb", "MB", peak_rss_mb);
    metrics = e2e.json();
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics << "}" << std::endl;
  return 0;
}

/// Oracle self-test on every workload's generated input: the oracle
/// accepts its own first-fit coloring and rejects each planted fault.
int self_test() {
  bool ok = true;
  for (const Workload& w : workloads()) {
    const Oracle o = make_oracle(generate(w, 1), w.problem);
    const std::vector<std::int32_t> colors = first_fit(o, {});
    const std::int64_t n = 1 + *std::max_element(colors.begin(), colors.end());
    const std::string clean = check_coloring(o, colors, n);
    std::cout << w.name << ": first-fit " << (clean.empty() ? "accepted" : clean) << "\n";
    ok = ok && clean.empty();
    Rng rng(7);
    for (const PlantedFault& f : plant_faults(o, colors, rng)) {
      std::cout << w.name << ": planted " << f.name
                << (f.rejected ? " rejected" : " NOT rejected") << "\n";
      ok = ok && f.rejected;
    }
  }
  std::cout << (ok ? "oracle self-test passed" : "oracle self-test FAILED") << "\n";
  return ok ? 0 : 1;
}

int main_checked(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.mode == "self-test") return self_test();
  const Workload& w = find_workload(a.workload);
  if (a.mode == "gen") {
    const std::uint64_t bytes = write_matrix_market(generate(w, a.seed), a.seed, a.out);
    std::cerr << "generated " << a.out << " (" << bytes << " bytes)\n";
    return 0;
  }
  if (a.mode != "run") throw std::invalid_argument("unknown mode " + a.mode);
  return w.problem == Problem::kBgpc ? run<gcol::BipartiteGraph>(a, w)
                                     : run<gcol::Graph>(a, w);
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::main_checked(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "gcol_e2e: " << e.what() << "\n";
    return 2;
  }
}
