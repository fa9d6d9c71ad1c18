// The repo benchmark program: one named workload, inputs from --seed, every
// end-to-end metric (or, with --trace 1, every per-layer metric) printed by
// name with its unit, every answer checked. The last stdout line is the
// result object; the exit code is nonzero when any operation failed.
//
//   perfbench --workload cube-factor --seed 1 --seconds 30 --trace 0
//             --out DIR [--source ID]
//
// README.md documents the workloads, the metrics and the layer map.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "kernels/assembly.hpp"
#include "linalg/gemm_kernel.hpp"
#include "server/server.hpp"
#include "util/rng.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

// Why each workload exists is in README.md. The counts size one round so
// that a run yields several hundred 1-RHS latencies and served requests on
// cube-factor and molecule-serve (>= 10 samples beyond each p95); a
// cube-ooc-f32 solve takes ~300 ms, so there the tails rest on ~40.
constexpr Workload kWorkloads[] = {
    {"cube-factor", false, 8192, false, h2::Precision::F64, false, false,
     /*direct=*/80, /*blocks=*/4, /*requests=*/24, /*round_s=*/5.0},
    {"molecule-serve", true, 8192, true, h2::Precision::F64, true, false,
     /*direct=*/48, /*blocks=*/4, /*requests=*/12, /*round_s=*/3.6},
    {"cube-ooc-f32", false, 4096, false, h2::Precision::F32, false, true,
     /*direct=*/6, /*blocks=*/2, /*requests=*/1, /*round_s=*/4.4},
};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::string workload_names() {
  std::string s;
  for (const Workload& w : kWorkloads) s += (s.empty() ? "" : ", ") + std::string(w.name);
  return s;
}

RoundInputs make_inputs(const Workload& w, std::uint64_t seed, int round) {
  h2::Rng rng(splitmix(splitmix(seed) + static_cast<std::uint64_t>(round)));
  RoundInputs in;
  in.points = w.molecule ? h2::molecule_surface(w.n, rng) : h2::uniform_cube(w.n, rng);
  in.rhs = h2::Matrix(w.n, w.direct + w.blocks * kBlockCols);
  for (int j = 0; j < in.rhs.cols(); ++j)
    for (int i = 0; i < w.n; ++i) in.rhs.data()[static_cast<std::size_t>(j) * w.n + i] = rng.normal();
  return in;
}

std::unique_ptr<h2::Kernel> make_kernel(const Workload& w) {
  if (w.yukawa) return std::make_unique<h2::YukawaKernel>(1.0, 1e-4);
  return std::make_unique<h2::LaplaceKernel>(1e-4);
}

h2::SolverOptions solver_options(const Workload& w, const std::string& spill_dir,
                                 bool record_tasks) {
  h2::SolverOptions o;
  o.structure = h2::SolverStructure::H2;
  o.leaf_size = 128;
  o.partitioner = h2::Partitioner::KMeans;
  o.seed = 42;  // clustering Rng; the workload seed only shapes the inputs
  o.eta = 1.0;
  o.tol = kTol;
  o.build_tol_factor = 1e-2;
  o.max_rank = 80;
  o.mode = h2::UlvMode::Parallel;
  o.executor = h2::UlvExecutor::TaskDag;
  o.solve_executor = h2::UlvExecutor::TaskDag;
  o.schedule = h2::UlvSchedule::WorkSteal;
  o.priority = h2::UlvPriority::CriticalPath;
  o.n_workers = kWorkers;
  o.pool = nullptr;
  o.record_tasks = record_tasks;
  o.fill_tol_factor = 0.01;
  o.fillin_augmentation = true;
  o.width_stable_solve = w.server;  // the server's deterministic contract
  o.precision = w.precision;
  // A raw fp32 solve lands right around tol, so refining to tol takes 0 or
  // 1 corrections per column and the latency is bimodal; at tol/100 every
  // solve takes exactly one (each correction gains ~6 digits).
  o.refine_tol = w.precision == h2::Precision::F32 ? kTol * 1e-2 : 0.0;
  o.max_refine_iters = 20;
  o.spill_dir = w.spill ? spill_dir : std::string();
  o.spill_budget_mb = kSpillBudgetMb;
  o.spill_threads = kSpillThreads;
  return o;
}

namespace {

h2::ServerOptions server_options() {
  h2::ServerOptions o;
  o.cache_budget_bytes = 1ull << 30;
  o.batch_deadline_us = 1000;
  o.max_batch = 64;
  o.coalesce = true;
  o.deterministic = true;
  o.spill_dir = std::string();
  return o;
}

}  // namespace

void pin_environment() {
  setenv("H2_THREADS", std::to_string(kWorkers).c_str(), 1);
  setenv("H2_BLOCK_POOL_MB", "256", 1);
  for (const char* v : {"H2_SOLVE_TRACE", "H2_PRECISION", "H2_SPILL_DIR", "H2_SPILL_MB",
                        "H2_SPILL_THREADS", "H2_SERVER_CACHE_MB", "H2_SERVER_BATCH_US",
                        "H2_SERVER_MAX_BATCH"})
    unsetenv(v);
}

// ---------------------------------------------------------------- tracing

int Trace::begin(std::string layer, std::string call, int parent, int round) {
  static std::atomic<int> next_tid{0};
  thread_local const int tid = next_tid++;
  const double t = now_s() - epoch_;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({std::move(layer), std::move(call), t, t, parent, round, tid});
  return static_cast<int>(spans_.size()) - 1;
}

void Trace::end(int id) {
  const double t = now_s() - epoch_;
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].t1 = t;
}

std::vector<Trace::Span> Trace::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

bool Trace::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[\n";
  const std::vector<Span> s = spans();
  for (std::size_t i = 0; i < s.size(); ++i) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"round\":%d}}%s\n",
                  s[i].call.c_str(), s[i].layer.c_str(), s[i].t0 * 1e6,
                  (s[i].t1 - s[i].t0) * 1e6, s[i].tid, i, s[i].parent, s[i].round,
                  i + 1 < s.size() ? "," : "");
    f << buf;
  }
  f << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(f);
}

std::vector<LayerTime> layer_self_times(const std::vector<Trace::Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0) children[static_cast<std::size_t>(spans[i].parent)].push_back(static_cast<int>(i));
  std::map<std::string, LayerTime> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Trace::Span& s = spans[i];
    // Union of the children's intervals (concurrent clients overlap).
    std::vector<std::pair<double, double>> iv;
    for (int c : children[i]) iv.emplace_back(spans[static_cast<std::size_t>(c)].t0, spans[static_cast<std::size_t>(c)].t1);
    std::sort(iv.begin(), iv.end());
    double covered = 0, end = -1e300;
    for (auto [a, b] : iv) {
      a = std::max(a, end);
      if (b > a) covered += b - a;
      end = std::max(end, b);
    }
    LayerTime& lt = by_layer[s.layer];
    lt.layer = s.layer;
    ++lt.calls;
    lt.total_s += s.t1 - s.t0;
    lt.self_s += std::max(0.0, (s.t1 - s.t0) - covered);
  }
  std::vector<LayerTime> out;
  for (auto& [k, v] : by_layer) out.push_back(v);
  return out;
}

// ------------------------------------------------------------------ checks

bool all_finite(h2::ConstMatrixView x) {
  for (int j = 0; j < x.cols(); ++j)
    for (int i = 0; i < x.rows(); ++i)
      if (!std::isfinite(x.col(j)[i])) return false;
  return true;
}

bool bitwise_equal(h2::ConstMatrixView a, h2::ConstMatrixView b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int j = 0; j < a.cols(); ++j)
    if (std::memcmp(a.col(j), b.col(j), sizeof(double) * static_cast<std::size_t>(a.rows())) != 0)
      return false;
  return true;
}

std::vector<double> dense_residuals(const h2::Kernel& k, const h2::PointCloud& pts,
                                    h2::ConstMatrixView b, h2::ConstMatrixView x) {
  // One thread per column: each kernel_matvec re-evaluates the kernel, but
  // the check runs outside every timed section and the host is idle then.
  // A column whose check cannot run reads +inf, so it fails.
  std::vector<double> out(static_cast<std::size_t>(b.cols()), INFINITY);
  std::vector<std::thread> threads;
  for (int j = 0; j < b.cols(); ++j)
    threads.emplace_back([&, j] {
      try {
        h2::Matrix ax(b.rows(), 1);
        h2::kernel_matvec(k, pts, x.block(0, j, x.rows(), 1), ax);
        double rr = 0, bb = 0;
        for (int i = 0; i < b.rows(); ++i) {
          const double r = b.col(j)[i] - ax(i, 0);
          rr += r * r;
          bb += b.col(j)[i] * b.col(j)[i];
        }
        out[static_cast<std::size_t>(j)] = std::sqrt(rr / bb);
      } catch (const std::exception&) {
      }
    });
  for (std::thread& t : threads) t.join();
  return out;
}

// ------------------------------------------------------------------- round

namespace {

void fail(RoundResult& r, const std::string& what) {
  ++r.failed;
  if (r.errors.size() < 8) r.errors.push_back(what);
}

}  // namespace

RoundResult run_round(const Workload& w, const RoundInputs& in,
                      const std::string& spill_dir, Trace* trace, int parent,
                      int round) {
  RoundResult r;
  const int n = w.n;
  const bool traced = trace != nullptr;
  const std::unique_ptr<h2::Kernel> kernel = make_kernel(w);
  const h2::SolverOptions opt = solver_options(w, spill_dir, traced);
  const char* api = "api";
  const char* solve_call = "Solver::solve";

  // Declared before the handle/solver so they outlive every solve.
  std::unique_ptr<h2::Server> server;
  if (w.server) server = std::make_unique<h2::Server>(server_options());
  h2::Server::FactorHandle handle;
  std::unique_ptr<h2::Solver> own;
  const h2::Solver* s = nullptr;

  // Build: points -> ready solver (a cold acquire on the server workload).
  ++r.attempted;
  try {
    const Scope sc(trace, w.server ? "server" : api,
                   w.server ? "Server::acquire" : "Solver::build", parent, round);
    const double t0 = now_s();
    if (w.server) {
      handle = server->acquire(in.points, *kernel, opt);
      s = &handle.solver();
    } else {
      own = std::make_unique<h2::Solver>(h2::Solver::build(in.points, *kernel, opt));
      s = own.get();
    }
    r.setup_s.push_back(now_s() - t0);
  } catch (const std::exception& e) {
    fail(r, std::string("build: ") + e.what());
    return r;
  }
  r.tree_depth = s->tree().depth();
  r.factor_mb = s->ulv_stats() ? static_cast<double>(s->ulv_stats()->final_block_bytes) / (1 << 20) : 0.0;
  r.factor_blocks = static_cast<double>(s->spill_stats().blocks);
  if (traced) r.spill_after_build = s->spill_stats();

  // Direct 1-RHS solves, back to back, in point order.
  r.direct_x = h2::Matrix(n, w.direct);
  // Columns (rhs, answer) kept for the untimed residual check.
  h2::Matrix check_b(n, 2 * kCheckedCols), check_x(n, 2 * kCheckedCols);
  int checked = 0;
  auto keep = [&](h2::ConstMatrixView b, h2::ConstMatrixView x) {
    h2::copy_into(b, check_b.block(0, checked, n, 1));
    h2::copy_into(x, check_x.block(0, checked, n, 1));
    ++checked;
  };
  std::vector<char> direct_ok(static_cast<std::size_t>(w.direct), 0);
  for (int j = 0; j < w.direct; ++j) {
    ++r.attempted;
    try {
      const h2::ConstMatrixView b = in.rhs.block(0, j, n, 1);
      h2::Matrix x;
      {
        const Scope sc(trace, api, solve_call, parent, round);
        const double t0 = now_s();
        x = s->solve(b);
        r.solve_ms.push_back((now_s() - t0) * 1e3);
      }
      if (!all_finite(x)) {
        fail(r, "direct solve: non-finite output");
        continue;
      }
      h2::copy_into(x, r.direct_x.block(0, j, n, 1));
      direct_ok[static_cast<std::size_t>(j)] = 1;
      if (traced) {
        const h2::ExecStats st = s->last_solve_stats();
        r.solve_tasks.push_back(static_cast<double>(st.records.size()));
        r.solve_busy.push_back(1.0 - st.overhead_fraction());
        r.solve_steals.push_back(static_cast<double>(st.total_steals()));
        r.refine_iters.push_back(s->last_refine().iterations);
      }
    } catch (const std::exception& e) {
      fail(r, std::string("direct solve: ") + e.what());
    }
  }
  if (traced) r.spill_after_direct = s->spill_stats();
  for (int j = 0; j < std::min(w.direct, kCheckedCols); ++j)
    if (direct_ok[static_cast<std::size_t>(j)])
      keep(in.rhs.block(0, j, n, 1), r.direct_x.block(0, j, n, 1));

  // The tree-ordered in-place path, to split off the permutation.
  for (int j = 0; traced && j < w.direct; ++j) {
    ++r.attempted;
    try {
      h2::Matrix bt = s->tree().to_tree_order(in.rhs.block(0, j, n, 1));
      const Scope sc(trace, api, "Solver::solve_in_place", parent, round);
      const double t0 = now_s();
      s->solve_in_place(bt);
      r.in_place_ms.push_back((now_s() - t0) * 1e3);
    } catch (const std::exception& e) {
      fail(r, std::string("in-place solve: ") + e.what());
    }
  }

  // Blocked solves of kBlockCols columns.
  for (int q = 0; q < w.blocks; ++q) {
    ++r.attempted;
    try {
      const h2::ConstMatrixView b = in.rhs.block(0, w.direct + q * kBlockCols, n, kBlockCols);
      h2::Matrix x;
      {
        const Scope sc(trace, api, "Solver::solve[32]", parent, round);
        const double t0 = now_s();
        x = s->solve(b);
        r.block_rhs_per_s.push_back(kBlockCols / (now_s() - t0));
      }
      if (!all_finite(x)) {
        fail(r, "blocked solve: non-finite output");
        continue;
      }
      if (q == 0)
        for (int j = 0; j < kCheckedCols; ++j) keep(b.block(0, j, n, 1), x.block(0, j, n, 1));
    } catch (const std::exception& e) {
      fail(r, std::string("blocked solve: ") + e.what());
    }
  }

  // Closed-loop clients: each waits for its answer before the next request.
  if (w.requests > 0 && w.direct > 0) {
    const h2::ServerStats st0 = server ? server->stats() : h2::ServerStats{};
    const int total = kClients * w.requests;
    std::vector<h2::Matrix> answers(static_cast<std::size_t>(total));
    std::vector<double> lat(static_cast<std::size_t>(total), -1.0);
    std::vector<std::string> errs(kClients);
    std::vector<double> t_end(kClients, 0.0);
    std::latch go(1);
    const int clients_span = traced ? trace->begin("bench", "clients", parent, round) : -1;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        go.wait();
        for (int i = 0; i < w.requests; ++i) {
          const int k = c * w.requests + i;
          const int j = (c + i * kClients) % w.direct;
          try {
            const h2::ConstMatrixView b = in.rhs.block(0, j, n, 1);
            const Scope sc(trace, w.server ? "server" : api,
                           w.server ? "Server::solve" : solve_call, clients_span, round);
            const double t0 = now_s();
            answers[static_cast<std::size_t>(k)] = server ? server->solve(handle, b) : s->solve(b);
            lat[static_cast<std::size_t>(k)] = (now_s() - t0) * 1e3;
          } catch (const std::exception& e) {
            if (errs[static_cast<std::size_t>(c)].empty()) errs[static_cast<std::size_t>(c)] = e.what();
          }
        }
        t_end[static_cast<std::size_t>(c)] = now_s();
      });
    const double t0 = now_s();
    go.count_down();
    for (std::thread& t : clients) t.join();
    if (traced) trace->end(clients_span);
    const double wall = *std::max_element(t_end.begin(), t_end.end()) - t0;
    if (server) {
      const h2::ServerStats st1 = server->stats();
      r.serve_delta.requests = st1.requests - st0.requests;
      r.serve_delta.rhs_served = st1.rhs_served - st0.rhs_served;
      r.serve_delta.backend_solves = st1.backend_solves - st0.backend_solves;
      r.serve_delta.coalesced_requests = st1.coalesced_requests - st0.coalesced_requests;
    }
    int completed = 0;
    for (int k = 0; k < total; ++k) {
      ++r.attempted;
      const int c = k / w.requests, i = k % w.requests;
      const int j = (c + i * kClients) % w.direct;
      const h2::Matrix& x = answers[static_cast<std::size_t>(k)];
      if (lat[static_cast<std::size_t>(k)] < 0) {
        fail(r, "request: " + errs[static_cast<std::size_t>(c)]);
        continue;
      }
      ++completed;
      r.serve_ms.push_back(lat[static_cast<std::size_t>(k)]);
      if (!all_finite(x)) {
        fail(r, "request: non-finite output");
      } else if (direct_ok[static_cast<std::size_t>(j)] &&
                 !bitwise_equal(x, r.direct_x.block(0, j, n, 1))) {
        fail(r, "request: answer differs from the direct solve of column " + std::to_string(j));
      }
    }
    if (wall > 0 && completed > 0) r.serve_rhs_per_s.push_back(completed / wall);
  }
  if (traced) r.spill_end = s->spill_stats();

  // Untimed residual check on the kept direct and blocked columns (their
  // outputs are already known to be finite).
  if (checked > 0)
    r.residuals = dense_residuals(*kernel, in.points, check_b.block(0, 0, n, checked),
                                  check_x.block(0, 0, n, checked));
  for (const double res : r.residuals)
    if (!(res <= kResidualFactor * kTol)) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "residual %.3e above %.0f x tol", res, kResidualFactor);
      fail(r, buf);
    }
  return r;
}

// ------------------------------------------------------------------- host

std::pair<double, double> read_steal() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (!(f >> cpu) || cpu != "cpu") return {0, 0};
  double total = 0;
  for (double& x : v) {
    f >> x;
    total += x;  // user..steal; guest time is already inside user
  }
  return {v[7], total};
}

namespace {

double triad_gbs() {
  const std::size_t n = kTriadArrayBytes / sizeof(double);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 3.0 * c[i];
    const double dt = now_s() - t0;
    best = std::max(best, 3.0 * kTriadArrayBytes / dt / 1e9);
  }
  volatile double sink = a[n / 2];
  (void)sink;
  return best;
}

}  // namespace

Canary measure_canary() {
  Canary out;
  const auto s0 = read_steal();
  int fd[2];
  if (pipe(fd) == 0) {
    const pid_t pid = fork();
    if (pid == 0) {
      close(fd[0]);
      const double g = triad_gbs();
      const ssize_t wr = write(fd[1], &g, sizeof g);
      _exit(wr == static_cast<ssize_t>(sizeof g) ? 0 : 1);
    }
    close(fd[1]);
    if (pid > 0) {
      double g = 0;
      if (read(fd[0], &g, sizeof g) == static_cast<ssize_t>(sizeof g)) out.triad_gbs = g;
      int status = 0;
      waitpid(pid, &status, 0);
    }
    close(fd[0]);
  }
  const auto s1 = read_steal();
  if (s1.second > s0.second) out.steal_frac = (s1.first - s0.first) / (s1.second - s0.second);
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench

// -------------------------------------------------------------------- main

namespace {

using perfbench::Metric;

struct Args {
  std::string workload, out, source = "unknown";
  std::uint64_t seed = 1;
  double seconds = 25;
  int trace = 0;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload {%s} --seed N --seconds S "
               "--trace {0,1} --out DIR [--source ID]\n",
               why.c_str(), perfbench::workload_names().c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v);
      else if (k == "--out") a.out = v;
      else if (k == "--source") a.source = v;
      else usage("unknown argument " + k);
    } catch (const std::exception&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (perfbench::find_workload(a.workload) == nullptr) usage("unknown workload '" + a.workload + "'");
  if (a.out.empty()) usage("--out is required");
  if (!(a.seconds > 0) || a.seconds > 600) usage("--seconds must be in (0, 600]");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

/// Removes the run's spill directory on every exit path out of main.
struct SpillDir {
  std::string path;
  ~SpillDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 1e300);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::pin_environment();  // before the first library call
  const Args args = parse(argc, argv);
  const perfbench::Workload& w = *perfbench::find_workload(args.workload);
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  if (ec) usage("cannot create --out directory " + args.out);

  SpillDir spill;
  if (w.spill) {
    std::string tmpl = args.out + "/spill-XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr) usage("cannot create a spill directory under " + args.out);
    spill.path = tmpl;
  }

  const double t_run0 = perfbench::now_s();
  const auto steal0 = perfbench::read_steal();
  const perfbench::Canary c0 = perfbench::measure_canary();

  std::vector<Metric> metrics;
  // Printed by name but kept out of the result object: they read 0 (error
  // rate) or vary with the seed's geometry (residual), see README.md.
  std::vector<Metric> unbounded;
  std::vector<std::string> lines;
  int attempted = 0, failed = 0;
  std::vector<std::string> errors;
  int rounds = 0;

  if (args.trace == 0) {
    rounds = std::max(3, static_cast<int>(std::lround(args.seconds / w.round_s)));
    perfbench::RoundResult all;
    for (int r = 0; r < rounds; ++r) {
      const perfbench::RoundInputs in = perfbench::make_inputs(w, args.seed, r);
      perfbench::RoundResult rr = perfbench::run_round(w, in, spill.path, nullptr, -1, r);
      auto append = [](std::vector<double>& to, const std::vector<double>& from) {
        to.insert(to.end(), from.begin(), from.end());
      };
      append(all.setup_s, rr.setup_s);
      append(all.solve_ms, rr.solve_ms);
      append(all.block_rhs_per_s, rr.block_rhs_per_s);
      append(all.serve_ms, rr.serve_ms);
      append(all.serve_rhs_per_s, rr.serve_rhs_per_s);
      append(all.residuals, rr.residuals);
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "round %d: depth %d, factor %.1f MiB %.0f blocks, setup %.4f s, solve p50 %.3f ms, block %.1f rhs/s, "
                    "serve p50 %.3f ms",
                    r, rr.tree_depth, rr.factor_mb, rr.factor_blocks, perfbench::median(rr.setup_s), perfbench::median(rr.solve_ms),
                    perfbench::median(rr.block_rhs_per_s), perfbench::median(rr.serve_ms));
      lines.push_back(buf);
      attempted += rr.attempted;
      failed += rr.failed;
      for (auto& e : rr.errors)
        if (errors.size() < 16) errors.push_back("round " + std::to_string(r) + ": " + e);
    }
    using perfbench::median;
    using perfbench::quantile;
    metrics = {
        {"setup_s", median(all.setup_s), "s"},
        {"solve_p50_ms", median(all.solve_ms), "ms"},
        {"solve_p95_ms", quantile(all.solve_ms, 0.95), "ms"},
        {"block_rhs_per_s", median(all.block_rhs_per_s), "1/s"},
        {"serve_rhs_per_s", median(all.serve_rhs_per_s), "1/s"},
        {"serve_p50_ms", median(all.serve_ms), "ms"},
        {"serve_p95_ms", quantile(all.serve_ms, 0.95), "ms"},
        {"peak_rss_mb", perfbench::peak_rss_mb(), "MiB"},
    };
    if (!all.residuals.empty()) {
      unbounded.push_back({"rel_residual", median(all.residuals), "1"});
      unbounded.push_back(
          {"rel_residual_max", *std::max_element(all.residuals.begin(), all.residuals.end()), "1"});
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "samples: %zu builds, %zu 1-RHS solves, %zu blocked solves, %zu requests "
                  "over %zu client rounds, %zu residual-checked columns",
                  all.setup_s.size(), all.solve_ms.size(), all.block_rhs_per_s.size(),
                  all.serve_ms.size(), all.serve_rhs_per_s.size(), all.residuals.size());
    lines.push_back(buf);
  } else {
    perfbench::Trace trace;
    rounds = std::max(2, static_cast<int>(std::lround(args.seconds / (3.0 * w.round_s))));
    perfbench::TracedReport rep = perfbench::run_traced(w, args.seed, rounds, spill.path, trace);
    metrics = rep.metrics;
    lines = rep.lines;
    attempted = rep.attempted;
    failed = rep.failed;
    errors = rep.errors;
    const std::string path = args.out + "/trace-" + w.name + "-" + std::to_string(args.seed) + ".json";
    lines.push_back(trace.write_chrome(path) ? "spans: " + path : "spans: could not write " + path);
  }

  const perfbench::Canary c1 = perfbench::measure_canary();
  const auto steal1 = perfbench::read_steal();
  const double steal_run =
      steal1.second > steal0.second ? (steal1.first - steal0.first) / (steal1.second - steal0.second) : 0.0;
  if (args.trace == 1) {
    metrics.push_back({"host.triad_gbs", 0.5 * (c0.triad_gbs + c1.triad_gbs), "GB/s"});
    metrics.push_back({"host.steal_frac", steal_run, "1"});
  }

  // Run metadata and canaries, then the human-readable report.
  const h2::GemmTiling tiling = h2::gemm_tiling();
  std::ostringstream meta;
  meta << "{\"workload\":\"" << w.name << "\",\"seed\":" << args.seed << ",\"default_seed\":1"
       << ",\"heldout_seed\":1001,\"trace\":" << args.trace << ",\"seconds\":" << args.seconds
       << ",\"rounds\":" << rounds << ",\"n\":" << w.n << ",\"workers\":" << perfbench::kWorkers
       << ",\"clients\":" << perfbench::kClients
       << ",\"spill_threads\":" << (w.spill ? perfbench::kSpillThreads : 0)
       << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << ",\"isa\":\"" << tiling.isa
       << "\",\"source\":\"" << args.source << "\",\"triad_array_mib\":"
       << (perfbench::kTriadArrayBytes >> 20) << ",\"triad_gbs_start\":" << num(c0.triad_gbs)
       << ",\"triad_gbs_end\":" << num(c1.triad_gbs) << ",\"steal_frac_start\":" << num(c0.steal_frac)
       << ",\"steal_frac_end\":" << num(c1.steal_frac) << ",\"steal_frac_run\":" << num(steal_run)
       << ",\"wall_s\":" << num(perfbench::now_s() - t_run0) << "}";

  std::printf("# perfbench %s seed=%llu trace=%d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.trace);
  std::printf("# meta %s\n", meta.str().c_str());
  for (const std::string& l : lines) std::printf("# %s\n", l.c_str());
  for (const Metric& m : metrics) std::printf("%-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const Metric& m : unbounded)
    std::printf("%-28s %16.6g %s   (reported, not bounded)\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("%-28s %16.6g %s   (%d failed / %d attempted)\n", "error_rate",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0, "1", failed, attempted);
  for (const std::string& e : errors) std::printf("# FAILURE %s\n", e.c_str());

  std::ostringstream js;
  js << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": " << std::max(1, attempted)
     << ", \"failed\": " << std::min(failed, std::max(1, attempted)) << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    js << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << num(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  js << "}}";
  {
    std::ofstream rec(args.out + "/result-" + w.name + "-" + std::to_string(args.seed) + "-trace" +
                      std::to_string(args.trace) + ".json");
    rec << "{\"meta\": " << meta.str() << ", \"result\": " << js.str() << "}\n";
  }
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
