#pragma once

// Shared pieces of the repo benchmark: the workload table, the inputs a seed
// generates, the pinned solver configuration, one measured round, the span
// recorder of the traced run, and the host canaries. README.md documents
// what each workload is for and what every metric means.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/solver.hpp"
#include "geometry/cloud.hpp"
#include "kernels/kernel.hpp"
#include "linalg/matrix.hpp"
#include "server/server.hpp"

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation quantile (q in [0, 1]) of a copy of `v`; 0 if empty.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// One named benchmark input set. Every workload uses the H2 structure, the
/// bench SolverConfig (leaf 128, eta 1.0, tol 1e-6, max_rank 80) and 2 pool
/// workers; the fields below are what differs.
struct Workload {
  const char* name;
  bool molecule;       ///< molecule_surface points (else uniform_cube)
  int n;               ///< points per round
  bool yukawa;         ///< YukawaKernel(1.0, 1e-4) (else LaplaceKernel(1e-4))
  h2::Precision precision;
  bool server;         ///< serve through h2::Server (else Solver::solve)
  bool spill;          ///< spill the factor to a run-private directory
  int direct;          ///< 1-RHS solves per round (also the served columns)
  int blocks;          ///< 32-column solves per round
  int requests;        ///< closed-loop requests per client per round
  double round_s;      ///< expected round length, sizes the round count
};

constexpr int kWorkers = 2;      ///< pool workers (see README: not nproc)
constexpr int kClients = 4;      ///< closed-loop client threads
constexpr int kBlockCols = 32;   ///< width of a blocked solve
/// Residual-checked columns per round: this many 1-RHS answers and this
/// many columns of the first blocked answer.
constexpr int kCheckedCols = 2;
constexpr double kTol = 1e-6;
/// A checked column passes when its dense relative residual is at most this
/// multiple of tol (seed readings: 2.0e-6 cube, 1.6e-7 molecule).
constexpr double kResidualFactor = 10.0;
constexpr double kSpillBudgetMb = 16.0;
constexpr int kSpillThreads = 1;

/// The workload table; nullptr when `name` is unknown.
const Workload* find_workload(const std::string& name);
std::string workload_names();

/// Inputs of one round, generated from (seed, round) only.
struct RoundInputs {
  h2::PointCloud points;
  /// Columns [0, direct) are the 1-RHS (and served) right-hand sides; then
  /// `blocks` groups of kBlockCols columns.
  h2::Matrix rhs;
};
RoundInputs make_inputs(const Workload& w, std::uint64_t seed, int round);
std::unique_ptr<h2::Kernel> make_kernel(const Workload& w);

/// Every SolverOptions field set explicitly (none left to an H2_* default).
h2::SolverOptions solver_options(const Workload& w, const std::string& spill_dir,
                                 bool record_tasks);

/// Set or clear every environment variable the library reads. Must run
/// before the first library call.
void pin_environment();

/// Spans of the traced run: one per call into a layer's public function,
/// kept in memory and written as Chrome trace-event JSON at exit.
class Trace {
 public:
  struct Span {
    std::string layer, call;
    double t0 = 0, t1 = 0;
    int parent = -1, round = -1, tid = 0;
  };
  int begin(std::string layer, std::string call, int parent, int round);
  void end(int id);
  [[nodiscard]] std::vector<Span> spans() const;
  bool write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  double epoch_ = now_s();
};

/// RAII span; a null Trace records nothing.
class Scope {
 public:
  Scope(Trace* t, const char* layer, const char* call, int parent, int round)
      : t_(t), id_(t ? t->begin(layer, call, parent, round) : -1) {}
  ~Scope() {
    if (t_) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Trace* t_;
  int id_;
};

/// Layer -> (calls, total seconds, self seconds). Self time is a span's
/// duration minus the union of its children's intervals.
struct LayerTime {
  std::string layer;
  int calls = 0;
  double total_s = 0, self_s = 0;
};
std::vector<LayerTime> layer_self_times(const std::vector<Trace::Span>& spans);

/// What one round measured: samples for the end-to-end metrics, counts and
/// failures. Also keeps what the traced run needs to split the round.
struct RoundResult {
  std::vector<double> setup_s, solve_ms, block_rhs_per_s, serve_ms,
      serve_rhs_per_s;
  std::vector<double> residuals;  ///< dense relative residual per checked column
  int tree_depth = 0;
  double factor_mb = 0, factor_blocks = 0;
  int attempted = 0, failed = 0;
  std::vector<std::string> errors;
  // Traced-run extras.
  std::vector<double> in_place_ms;  ///< Solver::solve_in_place, 1 RHS
  h2::Matrix direct_x;              ///< direct 1-RHS answers, point order
  h2::ServerStats serve_delta;      ///< server counters over the serve phase
  /// Store counters (cumulative) after the build, after the 1-RHS solves
  /// and at the end of the round.
  h2::SpillStats spill_after_build, spill_after_direct, spill_end;
  std::vector<double> solve_tasks, solve_busy, solve_steals, refine_iters;
};

/// One round: build, 1-RHS solves, blocked solves, closed-loop clients, then
/// the untimed checks. With a Trace, every call gets a span under `parent`
/// and the traced-run extras are filled.
RoundResult run_round(const Workload& w, const RoundInputs& in,
                      const std::string& spill_dir, Trace* trace, int parent,
                      int round);

/// Dense relative residual ||b - A x|| / ||b|| of each column of (b, x),
/// A applied by kernel_matvec (one thread per column).
std::vector<double> dense_residuals(const h2::Kernel& k, const h2::PointCloud& pts,
                                    h2::ConstMatrixView b, h2::ConstMatrixView x);
bool all_finite(h2::ConstMatrixView x);
bool bitwise_equal(h2::ConstMatrixView a, h2::ConstMatrixView b);

/// Host canaries: a single-threaded STREAM triad in a child process (so its
/// arrays stay out of this process's peak RSS) and /proc/stat steal time.
struct Canary {
  double triad_gbs = 0;
  double steal_frac = 0;  ///< over the triad's window
};
constexpr std::size_t kTriadArrayBytes = 128ull << 20;  ///< each of 3 arrays
Canary measure_canary();
/// Cumulative (steal, total) jiffies of the "cpu" line of /proc/stat.
std::pair<double, double> read_steal();

double peak_rss_mb();

/// Per-layer metrics of the traced run (layers.cpp).
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
struct TracedReport {
  std::vector<Metric> metrics;
  std::vector<std::string> lines;  ///< human-readable report
  int attempted = 0, failed = 0;
  std::vector<std::string> errors;
};
TracedReport run_traced(const Workload& w, std::uint64_t seed, int pairs,
                        const std::string& spill_dir, Trace& trace);

}  // namespace perfbench
