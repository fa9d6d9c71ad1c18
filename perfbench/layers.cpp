// The traced run: per-layer metrics for one workload.
//
// Each pass replays round p of the untraced run twice on the same inputs —
// once untraced, once with a span around every call and record_tasks on —
// so the tracing overhead is the difference of the two within one process.
// It then rebuilds the same operator one layer at a time (ClusterTree,
// Kernel::eval, H2Matrix, UlvFactorization, its tree-order solve) so that
// the layer times can be set against the end-to-end times they split.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

#include "common.hpp"
#include "core/ulv_factorization.hpp"
#include "geometry/cluster_tree.hpp"
#include "hmatrix/h2_matrix.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "util/flops.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::size_t kEvalPairs = 1 << 21;

/// Best-of-5 rate (GFlop/s) of `op`, each trial repeating it for >= 20 ms;
/// `reset` restores the operands before each call and is not timed.
double gflops(double flop, const std::function<void()>& op,
              const std::function<void()>& reset = nullptr) {
  double best = 0;
  for (int trial = 0; trial < 5; ++trial) {
    double busy = 0;
    int reps = 0;
    while (busy < 0.02) {
      if (reset) reset();
      const double t0 = now_s();
      op();
      busy += now_s() - t0;
      ++reps;
    }
    best = std::max(best, flop * reps / busy / 1e9);
  }
  return best;
}

h2::Matrix random_matrix(int m, int n, h2::Rng& rng) {
  h2::Matrix a(m, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) a(i, j) = rng.normal();
  return a;
}

/// The linalg kernels at the shapes the factorization issues (leaf 128,
/// rank cap 80), single-threaded on the caller.
void linalg_rates(std::vector<Metric>& out) {
  h2::Rng rng(7);
  const int b = 128, k = 80;
  h2::Matrix a = random_matrix(b, b, rng), bm = random_matrix(b, b, rng), c(b, b);
  out.push_back({"linalg.gemm_gflops", gflops(2.0 * b * b * b, [&] {
                   h2::gemm(1.0, a, h2::Trans::No, bm, h2::Trans::No, 0.0, c);
                 }), "GFlop/s"});
  h2::Matrix ak = random_matrix(b, k, rng), bk = random_matrix(k, b, rng);
  out.push_back({"linalg.gemm_rank_gflops", gflops(2.0 * b * b * k, [&] {
                   h2::gemm(1.0, ak, h2::Trans::No, bk, h2::Trans::No, 0.0, c);
                 }), "GFlop/s"});
  h2::Matrix tri = random_matrix(b, b, rng);
  for (int i = 0; i < b; ++i) tri(i, i) = b;  // well conditioned
  h2::Matrix rhs0 = random_matrix(b, b, rng), rhs(b, b);
  out.push_back({"linalg.trsm_gflops",
                 gflops(static_cast<double>(h2::flops::trsm_left(b, b)),
                        [&] {
                          h2::trsm(h2::Side::Left, h2::UpLo::Lower, h2::Trans::No,
                                   h2::Diag::NonUnit, 1.0, tri, rhs);
                        },
                        [&] { h2::copy_into(rhs0, rhs); }),
                 "GFlop/s"});
  h2::Matrix q(b, b);
  std::vector<double> tau;
  out.push_back({"linalg.qr_gflops",
                 gflops(static_cast<double>(h2::flops::geqrf(b, b)),
                        [&] { h2::householder_qr(q, tau); }, [&] { h2::copy_into(a, q); }),
                 "GFlop/s"});
  const h2::MatrixF af = h2::to_f32(a), bf = h2::to_f32(bm);
  h2::MatrixF cf(b, b);
  out.push_back({"linalg.gemm_f32_gflops", gflops(2.0 * b * b * b, [&] {
                   h2::gemm(1.0, af, h2::Trans::No, bf, h2::Trans::No, 0.0, cf);
                 }), "GFlop/s"});
}

/// Critical path (s) of an executed DAG: the longest chain of measured task
/// durations.
double critical_path_s(const h2::DagRecord& dag, const h2::ExecStats& ex) {
  std::vector<double> dur(static_cast<std::size_t>(dag.n_tasks()), 0.0);
  for (const h2::TaskRecord& r : ex.records)
    if (r.id >= 0 && r.id < dag.n_tasks()) dur[static_cast<std::size_t>(r.id)] = r.duration();
  const std::vector<double> bl = h2::bottom_levels(dag.n_tasks(), dag.successors, dur);
  return bl.empty() ? 0.0 : *std::max_element(bl.begin(), bl.end());
}

struct Series {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  void add(const std::vector<double>& x) { v.insert(v.end(), x.begin(), x.end()); }
  [[nodiscard]] double med() const { return median(v); }
};

}  // namespace

TracedReport run_traced(const Workload& w, std::uint64_t seed, int passes,
                        const std::string& spill_dir, Trace& trace) {
  TracedReport rep;
  auto note_failures = [&](const RoundResult& r, int p) {
    rep.attempted += r.attempted;
    rep.failed += r.failed;
    for (const std::string& e : r.errors)
      if (rep.errors.size() < 16) rep.errors.push_back("pass " + std::to_string(p) + ": " + e);
  };
  auto fail = [&](const std::string& what) {
    ++rep.failed;
    if (rep.errors.size() < 16) rep.errors.push_back(what);
  };

  // End-to-end samples, untraced (u) and traced (t).
  Series u_setup, u_solve, u_block, u_serve, u_rate, t_setup, t_solve, t_block, t_serve, t_rate;
  // Layer samples.
  Series tree_s, eval_ns, h_build_s, h_mem_mb, h_rank, factor_s, factor_gflop, factor_gflops,
      peak_block_mb, final_block_mb, core_solve_ms, core_block_ms, f_tasks, f_busy, f_wall_cp,
      s_tasks, s_busy, s_steals, permute_ms, refine_iters, refine_ms, spilled_mb,
      prefetch_mb, faults, step_misses, peak_res_mb, solve_extra_ms, mean_batch, coalesced;

  for (int p = 0; p < passes; ++p) {
    const RoundInputs in = make_inputs(w, seed, p);
    const int n = w.n;

    // Alternate which of the pair runs first, so neither always pays the
    // process's first-round warm-up.
    RoundResult u, t;
    auto untraced = [&] { u = run_round(w, in, spill_dir, nullptr, -1, p); };
    auto traced = [&] {
      const int root = trace.begin("bench", "round", -1, p);
      t = run_round(w, in, spill_dir, &trace, root, p);
      trace.end(root);
    };
    if (p % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
    note_failures(u, p);
    u_setup.add(u.setup_s);
    u_solve.add(u.solve_ms);
    u_block.add(u.block_rhs_per_s);
    u_serve.add(u.serve_ms);
    u_rate.add(u.serve_rhs_per_s);
    note_failures(t, p);
    t_setup.add(t.setup_s);
    t_solve.add(t.solve_ms);
    t_block.add(t.block_rhs_per_s);
    t_serve.add(t.serve_ms);
    t_rate.add(t.serve_rhs_per_s);
    s_tasks.add(t.solve_tasks);
    s_busy.add(t.solve_busy);
    s_steals.add(t.solve_steals);
    refine_iters.add(t.refine_iters);
    if (!t.solve_ms.empty() && !t.in_place_ms.empty())
      permute_ms.add(median(t.solve_ms) - median(t.in_place_ms));
    if (w.spill) {
      const double nd = std::max(1, w.direct);
      spilled_mb.add(static_cast<double>(t.spill_after_build.spilled_bytes) / kMiB);
      prefetch_mb.add(static_cast<double>(t.spill_after_direct.prefetch_bytes -
                                          t.spill_after_build.prefetch_bytes) / kMiB / nd);
      faults.add(static_cast<double>(t.spill_after_direct.faults - t.spill_after_build.faults) / nd);
      step_misses.add(static_cast<double>(t.spill_after_direct.step_misses -
                                          t.spill_after_build.step_misses) / nd);
      peak_res_mb.add(static_cast<double>(t.spill_end.peak_resident_bytes) / kMiB);
    }
    if (w.server && t.serve_delta.backend_solves > 0) {
      mean_batch.add(static_cast<double>(t.serve_delta.rhs_served) /
                     static_cast<double>(t.serve_delta.backend_solves));
      coalesced.add(static_cast<double>(t.serve_delta.coalesced_requests) /
                    static_cast<double>(std::max<std::uint64_t>(1, t.serve_delta.rhs_served)));
    }

    // The same operator, one layer at a time, in RAM.
    const int layers = trace.begin("bench", "layers", -1, p);
    const std::unique_ptr<h2::Kernel> kernel = make_kernel(w);
    std::vector<double> raw_ms;
    ++rep.attempted;
    try {
      const h2::SolverOptions opt = solver_options(w, std::string(), true);
      h2::Rng rng(opt.seed);
      double t0 = now_s();
      std::unique_ptr<h2::ClusterTree> tree;
      {
        const Scope sc(&trace, "geometry", "ClusterTree::build", layers, p);
        tree = std::make_unique<h2::ClusterTree>(
            h2::ClusterTree::build(in.points, opt.leaf_size, rng, opt.partitioner));
      }
      tree_s.add(now_s() - t0);
      {
        const h2::PointCloud& pts = tree->points();
        const std::size_t np = pts.size();
        double sink = 0;
        const Scope sc(&trace, "kernels", "Kernel::eval", layers, p);
        t0 = now_s();
        for (std::size_t k = 0; k < kEvalPairs; ++k)
          sink += kernel->eval(pts[k % np], pts[(k * 7919 + 1) % np]);
        eval_ns.add((now_s() - t0) / kEvalPairs * 1e9);
        if (!std::isfinite(sink)) fail("Kernel::eval: non-finite value");
      }
      h2::H2BuildOptions ho;
      ho.admissibility = {h2::Admissibility::Strong, opt.eta};
      ho.tol = opt.build_tol_factor * opt.tol;
      ho.max_rank = opt.max_rank;
      std::unique_ptr<h2::H2Matrix> a;
      t0 = now_s();
      {
        const Scope sc(&trace, "hmatrix", "H2Matrix::H2Matrix", layers, p);
        a = std::make_unique<h2::H2Matrix>(*tree, *kernel, ho);
      }
      h_build_s.add(now_s() - t0);
      h_mem_mb.add(static_cast<double>(a->memory_bytes()) / kMiB);
      h_rank.add(a->max_rank_used());

      h2::flops::reset();
      t0 = now_s();
      std::unique_ptr<h2::UlvFactorization> f;
      {
        const Scope sc(&trace, "core", "UlvFactorization::UlvFactorization", layers, p);
        f = std::make_unique<h2::UlvFactorization>(*a, opt.ulv_options());
      }
      const double fs = now_s() - t0;
      const double gflop = static_cast<double>(h2::flops::total()) / 1e9;
      factor_s.add(fs);
      factor_gflop.add(gflop);
      factor_gflops.add(gflop / fs);
      const h2::UlvStats& st = f->stats();
      peak_block_mb.add(static_cast<double>(st.peak_block_bytes) / kMiB);
      final_block_mb.add(static_cast<double>(st.final_block_bytes) / kMiB);
      f_tasks.add(st.dag.n_tasks());
      f_busy.add(1.0 - st.exec.overhead_fraction());
      const double cp = critical_path_s(st.dag, st.exec);
      if (cp > 0) f_wall_cp.add(st.exec.wall_seconds / cp);

      for (int j = 0; j < w.direct; ++j) {
        h2::Matrix bt = tree->to_tree_order(in.rhs.block(0, j, n, 1));
        const Scope sc(&trace, "core", "UlvFactorization::solve", layers, p);
        t0 = now_s();
        f->solve(bt);
        raw_ms.push_back((now_s() - t0) * 1e3);
      }
      core_solve_ms.add(raw_ms);
      for (int q = 0; q < w.blocks; ++q) {
        h2::Matrix bt = tree->to_tree_order(in.rhs.block(0, w.direct + q * kBlockCols, n, kBlockCols));
        const Scope sc(&trace, "core", "UlvFactorization::solve[32]", layers, p);
        t0 = now_s();
        f->solve(bt);
        core_block_ms.add((now_s() - t0) * 1e3);
      }
      f.reset();
      a.reset();
    } catch (const std::exception& e) {
      fail(std::string("layer rebuild: ") + e.what());
    }

    // The same factor held in RAM (a twin build on the in-RAM workloads):
    // its answers must match the round's bit for bit, and it splits the
    // spill cost from the refinement cost. Off the spill workload the
    // storage share measures ~0 and the refinement share is the facade.
    {
      const Scope sc(&trace, "bench", "in-RAM reference", layers, p);
      try {
        std::unique_ptr<h2::Solver> ram;
        {
          const Scope b(&trace, "api", "Solver::build", sc.id(), p);
          ram = std::make_unique<h2::Solver>(
              h2::Solver::build(in.points, *kernel, solver_options(w, std::string(), false)));
        }
        std::vector<double> ram_ms, ram_in_place_ms;
        for (int j = 0; j < w.direct; ++j) {
          const h2::ConstMatrixView b = in.rhs.block(0, j, n, 1);
          h2::Matrix x;
          {
            const Scope s1(&trace, "api", "Solver::solve", sc.id(), p);
            const double t1 = now_s();
            x = ram->solve(b);
            ram_ms.push_back((now_s() - t1) * 1e3);
          }
          ++rep.attempted;
          if (!bitwise_equal(x, t.direct_x.block(0, j, n, 1)))
            fail("answer differs from the same factor held in RAM, column " + std::to_string(j));
          h2::Matrix bt = ram->tree().to_tree_order(b);
          const Scope s2(&trace, "api", "Solver::solve_in_place", sc.id(), p);
          const double t1 = now_s();
          ram->solve_in_place(bt);
          ram_in_place_ms.push_back((now_s() - t1) * 1e3);
        }
        solve_extra_ms.add(median(t.solve_ms) - median(ram_ms));
        refine_ms.add(median(ram_in_place_ms) - median(raw_ms));
      } catch (const std::exception& e) {
        fail(std::string("in-RAM reference: ") + e.what());
      }
    }
    trace.end(layers);
  }

  // ---- metrics (medians over passes / pooled samples)
  auto& m = rep.metrics;
  const double setup = t_setup.med(), solve = t_solve.med();
  m.push_back({"geometry.tree_s", tree_s.med(), "s"});
  m.push_back({"kernels.eval_ns", eval_ns.med(), "ns"});
  m.push_back({"hmatrix.build_s", h_build_s.med(), "s"});
  m.push_back({"hmatrix.mem_mb", h_mem_mb.med(), "MiB"});
  m.push_back({"hmatrix.max_rank", h_rank.med(), "count"});
  m.push_back({"core.factor_s", factor_s.med(), "s"});
  m.push_back({"core.factor_gflop", factor_gflop.med(), "GFlop"});
  m.push_back({"core.factor_gflops", factor_gflops.med(), "GFlop/s"});
  m.push_back({"core.peak_block_mb", peak_block_mb.med(), "MiB"});
  m.push_back({"core.final_block_mb", final_block_mb.med(), "MiB"});
  m.push_back({"core.solve_ms", core_solve_ms.med(), "ms"});
  m.push_back({"core.solve_block_ms", core_block_ms.med(), "ms"});
  m.push_back({"core.solve_gbs",
               core_solve_ms.med() > 0 ? final_block_mb.med() * kMiB / (core_solve_ms.med() * 1e-3) / 1e9 : 0.0,
               "GB/s"});
  m.push_back({"runtime.factor_tasks", f_tasks.med(), "count"});
  m.push_back({"runtime.factor_busy_frac", f_busy.med(), "1"});
  m.push_back({"runtime.factor_wall_over_cp", f_wall_cp.med(), "1"});
  m.push_back({"runtime.solve_tasks", s_tasks.med(), "count"});
  m.push_back({"runtime.solve_busy_frac", s_busy.med(), "1"});
  m.push_back({"runtime.solve_steals", s_steals.med(), "count"});
  linalg_rates(m);
  m.push_back({"storage.spilled_mb", spilled_mb.med(), "MiB"});
  m.push_back({"storage.prefetch_mb", prefetch_mb.med(), "MiB"});
  m.push_back({"storage.faults", faults.med(), "count"});
  m.push_back({"storage.step_misses", step_misses.med(), "count"});
  m.push_back({"storage.peak_resident_mb", peak_res_mb.med(), "MiB"});
  m.push_back({"storage.solve_extra_ms", solve_extra_ms.med(), "ms"});
  m.push_back({"api.permute_ms", permute_ms.med(), "ms"});
  m.push_back({"api.refine_iters", refine_iters.med(), "count"});
  m.push_back({"api.refine_ms", refine_ms.med(), "ms"});
  m.push_back({"server.mean_batch", mean_batch.med(), "count"});
  m.push_back({"server.coalesced_frac", coalesced.med(), "1"});
  m.push_back({"server.queue_wait_ms", t_serve.med() - solve, "ms"});
  m.push_back({"trace.overhead_setup_s", setup - u_setup.med(), "s"});
  m.push_back({"trace.overhead_solve_p50_ms", solve - u_solve.med(), "ms"});
  m.push_back({"trace.overhead_block_rhs_per_s", t_block.med() - u_block.med(), "1/s"});
  m.push_back({"trace.overhead_serve_p50_ms", t_serve.med() - u_serve.med(), "ms"});
  m.push_back({"trace.overhead_serve_rhs_per_s", t_rate.med() - u_rate.med(), "1/s"});
  const double setup_parts = tree_s.med() + h_build_s.med() + factor_s.med();
  const double solve_parts = permute_ms.med() + core_solve_ms.med();
  m.push_back({"split.setup_gap_frac", setup > 0 ? (setup - setup_parts) / setup : 0.0, "1"});
  m.push_back({"split.solve_gap_frac", solve > 0 ? (solve - solve_parts) / solve : 0.0, "1"});

  // ---- report
  char buf[256];
  auto line = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof buf, fmt, args...);
    rep.lines.emplace_back(buf);
  };
  line("%d traced passes; each = untraced round + traced round + layer rebuild", passes);
  line("end to end      untraced     traced     (traced - untraced)");
  line("setup_s        %9.4f  %9.4f  %+9.4f", u_setup.med(), setup, setup - u_setup.med());
  line("solve_p50_ms   %9.3f  %9.3f  %+9.3f", u_solve.med(), solve, solve - u_solve.med());
  line("block_rhs/s    %9.1f  %9.1f  %+9.1f", u_block.med(), t_block.med(), t_block.med() - u_block.med());
  line("serve_p50_ms   %9.3f  %9.3f  %+9.3f", u_serve.med(), t_serve.med(), t_serve.med() - u_serve.med());
  line("serve_rhs/s    %9.1f  %9.1f  %+9.1f", u_rate.med(), t_rate.med(), t_rate.med() - u_rate.med());
  line("split setup_s %.4f = tree %.4f + hmatrix %.4f + core %.4f + gap %.4f (%.1f%%)", setup,
       tree_s.med(), h_build_s.med(), factor_s.med(), setup - setup_parts,
       setup > 0 ? 100.0 * (setup - setup_parts) / setup : 0.0);
  line("split solve_p50_ms %.3f = permute %.3f + core sweep %.3f + gap %.3f (%.1f%%)", solve,
       permute_ms.med(), core_solve_ms.med(), solve - solve_parts,
       solve > 0 ? 100.0 * (solve - solve_parts) / solve : 0.0);
  line("split solve_p50_ms %.3f = same factor in RAM %.3f + storage %.3f", solve,
       solve - solve_extra_ms.med(), solve_extra_ms.med());
  line("layer self time over the traced passes (s):");
  for (const LayerTime& lt : layer_self_times(trace.spans()))
    line("  %-10s calls %6d  total %9.4f  self %9.4f", lt.layer.c_str(), lt.calls, lt.total_s, lt.self_s);
  return rep;
}

}  // namespace perfbench
