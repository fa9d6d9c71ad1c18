/// Out-of-core factor store bench: factorize + solve the standard cube
/// problem twice through the h2::Solver facade — fully in RAM, then with the
/// spill/prefetch tier capped at ~0.25x the measured in-RAM factor footprint
/// — and report what the disk tier costs:
///
///   slowdown_factor — OOC (factor+solve) wall over in-RAM wall,
///   slowdown_solve  — the solve sweep alone (the serving-path number),
///   hit_rate        — fraction of step-acquired blocks the planner got to
///                     before the sweep needed them: resident, read in
///                     flight, or scheduled (the prefetcher's score),
///   arrived_in_time — fraction of step-acquired blocks already resident
///                     when their step was acquired; the rest stalled the
///                     sweep (informational),
///   peak_over_budget — serve-phase peak resident factor bytes relative to
///                     budget + one block (must be <= 1 by design).
///
/// The OOC answers are checked bitwise against the in-RAM ones (spilling
/// moves bytes, never transforms them). Writes ooc.csv and BENCH_OOC.json
/// (one cell per line for the CI awk gate). With --gate, exits nonzero on
/// bitwise divergence or a prefetch hit rate under 90%.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "api/solver.hpp"

#include "bench_common.hpp"

namespace {

using namespace h2;

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<std::size_t>(a.rows()) *
                         static_cast<std::size_t>(a.cols())) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace h2::bench;
  const bool gate =
      argc > 1 && std::string(argv[1]) == "--gate";

  const int n = static_cast<int>(4096 * scale());
  const int nrhs = 4;
  Rng rng(42);
  const PointCloud pts = uniform_cube(n, rng);
  const LaplaceKernel kernel(1e-4);
  SolverConfig cfg;
  const SolverOptions base = SolverOptions{}
                                 .with_leaf_size(cfg.leaf)
                                 .with_eta(cfg.eta)
                                 .with_tol(cfg.tol)
                                 .with_max_rank(cfg.max_rank);
  const Matrix b = Matrix::random(n, nrhs, rng);

  // In-RAM reference: its persistent factor footprint sets the OOC budget.
  Timer t_ram;
  const Solver ram = Solver::build(pts, kernel, base);
  const double ram_factor_s = t_ram.seconds();
  Timer t_ram_solve;
  const Matrix x_ram = ram.solve(b);
  const double ram_solve_s = t_ram_solve.seconds();
  const UlvStats* rst = ram.ulv_stats();
  const std::uint64_t factor_bytes = rst != nullptr ? rst->final_block_bytes : 0;

  // OOC run at a quarter of that footprint.
  const double budget_mb =
      0.25 * static_cast<double>(factor_bytes) / (1 << 20);
  const std::string spill_parent =
      (std::filesystem::temp_directory_path() /
       ("h2-bench-ooc-" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(spill_parent);

  Timer t_ooc;
  const Solver ooc = Solver::build(pts, kernel,
                                   SolverOptions(base)
                                       .with_spill_dir(spill_parent)
                                       .with_spill_budget_mb(budget_mb)
                                       .with_spill_threads(2));
  const double ooc_factor_s = t_ooc.seconds();
  Timer t_ooc_solve;
  const Matrix x_ooc = ooc.solve(b);
  const double ooc_solve_s = t_ooc_solve.seconds();

  const bool bitwise = bitwise_equal(x_ram, x_ooc);
  const SpillStats ss = ooc.spill_stats();
  const std::uint64_t steps = ss.step_hits + ss.step_misses;
  const double hit_rate =
      steps > 0 ? static_cast<double>(ss.step_hits) / static_cast<double>(steps)
                : 1.0;
  const double arrived_in_time =
      steps > 0 ? static_cast<double>(ss.step_ready) / static_cast<double>(steps)
                : 1.0;
  const double slowdown_factor =
      ram_factor_s > 0 ? ooc_factor_s / ram_factor_s : 0.0;
  const double slowdown_solve =
      ram_solve_s > 0 ? ooc_solve_s / ram_solve_s : 0.0;
  const double peak_over_budget =
      static_cast<double>(ss.peak_resident_bytes) /
      static_cast<double>(ss.budget_bytes + ss.max_block_bytes);

  Table t({"run", "factor (s)", "solve (s)", "resident factor (MiB)",
           "spilled (MiB)", "hit rate", "arrived in time"});
  t.add_row({"in-RAM", Table::fmt(ram_factor_s, 2), Table::fmt(ram_solve_s, 3),
             Table::fmt(static_cast<double>(factor_bytes) / (1 << 20), 1), "-",
             "-", "-"});
  t.add_row({"OOC 0.25x", Table::fmt(ooc_factor_s, 2),
             Table::fmt(ooc_solve_s, 3),
             Table::fmt(static_cast<double>(ss.budget_bytes) / (1 << 20), 1),
             Table::fmt(static_cast<double>(ss.spilled_bytes) / (1 << 20), 1),
             Table::fmt(hit_rate, 3), Table::fmt(arrived_in_time, 3)});
  char title[128];
  std::snprintf(title, sizeof(title),
                "Out-of-core factor store, N=%d, tol=%.0e, budget=0.25x", n,
                cfg.tol);
  emit(t, title, "ooc");
  std::printf("slowdown: factor %.2fx, solve %.2fx; prefetch hit rate %.3f; "
              "arrived in time %.3f; peak/(budget+block) %.2f; bitwise %s\n",
              slowdown_factor, slowdown_solve, hit_rate, arrived_in_time,
              peak_over_budget, bitwise ? "IDENTICAL" : "DIVERGED");
  std::printf("step blocks: %llu ready, %llu waited in flight, %llu taken "
              "over, %llu missed\n",
              static_cast<unsigned long long>(ss.step_ready),
              static_cast<unsigned long long>(ss.step_waited),
              static_cast<unsigned long long>(ss.step_taken_over),
              static_cast<unsigned long long>(ss.step_misses));

  std::ofstream js("BENCH_OOC.json");
  js << "{\n  \"bench\": \"ooc\",\n  \"n\": " << n
     << ",\n  \"tol\": " << cfg.tol << ",\n  \"nrhs\": " << nrhs
     << ",\n  \"factor_bytes\": " << factor_bytes
     << ",\n  \"budget_bytes\": " << ss.budget_bytes
     << ",\n  \"cells\": [\n"
     << "    {\"key\": \"slowdown_factor\", \"value\": " << slowdown_factor
     << "},\n"
     << "    {\"key\": \"slowdown_solve\", \"value\": " << slowdown_solve
     << "},\n"
     << "    {\"key\": \"hit_rate\", \"value\": " << hit_rate << "},\n"
     << "    {\"key\": \"arrived_in_time\", \"value\": " << arrived_in_time
     << "},\n"
     << "    {\"key\": \"peak_over_budget\", \"value\": " << peak_over_budget
     << "},\n"
     << "    {\"key\": \"bitwise\", \"value\": " << (bitwise ? 1 : 0) << "}\n"
     << "  ]\n}\n";
  std::printf("(JSON trajectory written to BENCH_OOC.json)\n");

  {
    std::error_code ec;
    std::filesystem::remove_all(spill_parent, ec);
  }

  int failed = 0;
  if (!bitwise) {
    std::printf("FAILED: out-of-core solution diverged bitwise from the "
                "in-RAM one\n");
    failed = 1;
  }
  if (gate && hit_rate < 0.90) {
    std::printf("FAILED: prefetch hit rate %.3f under the 0.90 gate\n",
                hit_rate);
    failed = 1;
  }
  return failed;
}
