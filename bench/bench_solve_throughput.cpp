/// Solve-side throughput: fast direct solvers earn their keep on SOLVE
/// REUSE — one factorization amortized over many right-hand sides (Ho &
/// Greengard). This harness factorizes once and measures RHS/s three ways:
///
///   1. single-RHS latency (nrhs=1, back to back),
///   2. blocked multi-RHS (one solve carrying many columns),
///   3. pipelined batches (independent solves running concurrently on a
///      shared pool, each replaying the solve DAG inline on its worker —
///      the h2::Solver::solve_batch path),
///
/// at 1 and 4 pool workers. Every solve replays the solve DAG recorded at
/// factorization time; all cells produce bitwise-identical solutions, only
/// the schedule differs. H2_SOLVE_REPS sets the solves per cell (16).
/// Writes solve_throughput.csv and BENCH_SOLVE.json (the solve-side perf
/// trajectory).
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"

#include "bench_common.hpp"

namespace {

struct Cell {
  std::string mode;  // "latency" / "blocked" / "pipelined"
  int workers;
  int n_solves;
  int nrhs_per_solve;
  double seconds;
  [[nodiscard]] double rhs_per_s() const {
    return n_solves * nrhs_per_solve / seconds;
  }
};

}  // namespace

int main() {
  using namespace h2;
  using namespace h2::bench;

  const int n = static_cast<int>(2048 * scale());
  const int reps = static_cast<int>(env::get_int("H2_SOLVE_REPS", 16));
  Rng rng(42);
  const PointCloud pts = uniform_cube(n, rng);
  const LaplaceKernel kernel(1e-4);
  SolverConfig cfg;
  cfg.tol = 1e-6;

  const ClusterTree tree = ClusterTree::build(pts, cfg.leaf, rng);
  H2BuildOptions ho;
  ho.admissibility = {Admissibility::Strong, cfg.eta};
  ho.tol = 1e-2 * cfg.tol;
  ho.max_rank = cfg.max_rank;
  const H2Matrix a(tree, kernel, ho);

  // One factorization per worker count; the factors themselves are bitwise
  // identical (ulv_dag_test), so every cell solves the same operator.
  auto factor = [&](ThreadPool* pool) {
    UlvOptions uo;
    uo.tol = cfg.tol;
    uo.max_rank = cfg.max_rank;
    uo.pool = pool;
    return std::make_unique<UlvFactorization>(a, uo);
  };

  const Matrix b1 = Matrix::random(n, 1, rng);
  const Matrix b_block = Matrix::random(n, reps, rng);

  std::vector<Cell> cells;
  Matrix x_ref, x_block_ref;  // bitwise cross-checks across every cell
  bool diverged = false;
  for (const int workers : {1, 4}) {
    ThreadPool pool(workers);
    const auto f = factor(&pool);

    // 1. Single-RHS latency, back to back.
    {
      Matrix x = b1;
      Timer t;
      for (int r = 0; r < reps; ++r) {
        x = b1;
        f->solve(x);
      }
      cells.push_back({"latency", workers, reps, 1, t.seconds()});
      if (x_ref.empty()) x_ref = x;
      if (rel_error_fro(x, x_ref) != 0.0) {
        std::printf("!! latency/%d diverged on nrhs=1\n", workers);
        diverged = true;
      }
    }
    // 2. One blocked solve carrying `reps` columns.
    {
      Matrix x = b_block;
      Timer t;
      f->solve(x);
      cells.push_back({"blocked", workers, 1, reps, t.seconds()});
      if (x_block_ref.empty()) x_block_ref = x;
      if (rel_error_fro(x, x_block_ref) != 0.0) {
        std::printf("!! blocked/%d diverged\n", workers);
        diverged = true;
      }
    }
    // 3. Pipelined independent solves: whole solves run concurrently on the
    //    pool's workers, each replaying the DAG inline (the
    //    h2::Solver::solve_batch / solve_async path).
    {
      std::vector<Matrix> xs(reps, b1);
      Timer t;
      for (int r = 0; r < reps; ++r)
        pool.submit([&f, &xs, r] { f->solve(xs[r]); });
      pool.wait_idle();
      cells.push_back({"pipelined", workers, reps, 1, t.seconds()});
      for (const Matrix& x : xs)
        if (rel_error_fro(x, x_ref) != 0.0) {
          std::printf("!! pipelined/%d diverged\n", workers);
          diverged = true;
        }
    }
  }

  Table t({"mode", "workers", "solves", "nrhs/solve", "total (s)", "RHS/s"});
  for (const Cell& c : cells)
    t.add_row({c.mode, std::to_string(c.workers),
               std::to_string(c.n_solves), std::to_string(c.nrhs_per_solve),
               Table::fmt(c.seconds, 4), Table::fmt(c.rhs_per_s(), 1)});
  char title[128];
  std::snprintf(title, sizeof(title),
                "Solve throughput, N=%d, tol=%.0e (%d RHS per cell)", n,
                cfg.tol, reps);
  emit(t, title, "solve_throughput");

  // JSON trajectory: one self-contained record per cell. "executor" stays
  // in the schema so cells compare with files that also held loop cells.
  std::ofstream js("BENCH_SOLVE.json");
  js << "{\n  \"bench\": \"solve_throughput\",\n  \"n\": " << n
     << ",\n  \"tol\": " << cfg.tol
     << ",\n  \"host_cores\": " << std::thread::hardware_concurrency()
     << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    js << "    {\"mode\": \"" << c.mode
       << "\", \"executor\": \"dag\", \"workers\": " << c.workers << ", \"solves\": " << c.n_solves
       << ", \"nrhs_per_solve\": " << c.nrhs_per_solve
       << ", \"seconds\": " << c.seconds
       << ", \"rhs_per_s\": " << c.rhs_per_s() << "}"
       << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  js << "  ]\n}\n";
  std::printf("(JSON trajectory written to BENCH_SOLVE.json)\n");
  if (diverged) {
    std::printf("FAILED: solves disagreed bitwise — see !! lines above\n");
    return 1;
  }
  return 0;
}
