#pragma once

#include <exception>
#include <memory>

#include "core/ulv_factorization.hpp"
#include "geometry/cloud.hpp"
#include "geometry/cluster_tree.hpp"
#include "hmatrix/h2_matrix.hpp"
#include "kernels/assembly.hpp"
#include "kernels/kernel.hpp"
#include "linalg/linalg.hpp"
#include "runtime/thread_pool.hpp"

namespace h2::testing_support {

struct Problem {
  PointCloud pts;  // original ordering (unused after tree build)
  std::unique_ptr<ClusterTree> tree;
  std::unique_ptr<Kernel> kernel;
};

enum class Geometry { Cube, Sphere, Molecule, Crowded };
enum class KernelKind { Laplace, Yukawa, Gaussian, Matern };

inline Problem make_problem(int n, int leaf, Geometry geo, KernelKind kk,
                            std::uint64_t seed = 42) {
  Problem p;
  Rng rng(seed);
  switch (geo) {
    case Geometry::Cube: p.pts = uniform_cube(n, rng); break;
    case Geometry::Sphere: p.pts = sphere_surface(n, rng); break;
    case Geometry::Molecule: p.pts = molecule_surface(n, rng); break;
    case Geometry::Crowded: p.pts = crowded_molecules(n, rng, 8); break;
  }
  switch (kk) {
    case KernelKind::Laplace:
      p.kernel = std::make_unique<LaplaceKernel>(1e-2 * cloud_diameter(p.pts));
      break;
    case KernelKind::Yukawa:
      p.kernel = std::make_unique<YukawaKernel>(
          1.0 / cloud_diameter(p.pts), 1e-2 * cloud_diameter(p.pts));
      break;
    case KernelKind::Gaussian:
      p.kernel = std::make_unique<GaussianKernel>(
          0.3 * cloud_diameter(p.pts), 1e-2);
      break;
    case KernelKind::Matern:
      p.kernel = std::make_unique<Matern32Kernel>(
          0.3 * cloud_diameter(p.pts), 1e-2);
      break;
  }
  p.tree = std::make_unique<ClusterTree>(ClusterTree::build(p.pts, leaf, rng));
  return p;
}

/// Factorize + solve a random system and return the relative L2 error of the
/// solution against a dense-LU reference (the paper's Sec. IV metric).
inline double ulv_solution_error(const Problem& p, const H2BuildOptions& hopt,
                                 const UlvOptions& uopt,
                                 UlvStats* stats_out = nullptr) {
  const H2Matrix h(*p.tree, *p.kernel, hopt);
  const UlvFactorization f(h, uopt);
  if (stats_out != nullptr) *stats_out = f.stats();

  const int n = p.tree->n_points();
  Rng rng(7);
  Matrix b = Matrix::random(n, 1, rng);
  Matrix x = b;
  // Core-API contract: solve() works in TREE ordering. A random b needs no
  // permutation, but the reference matrix must then be evaluated on the
  // tree-ordered points (p.tree->points()), not the original cloud — the
  // h2::Solver facade is the point-ordering path.
  f.solve(x);

  const Matrix a = kernel_dense(*p.kernel, p.tree->points());
  const Matrix x_ref = lu_solve(a, b);
  return rel_error_fro(x, x_ref);
}

/// Run `fn` on a worker of `pool` and wait for it, rethrowing what it
/// threw. Every DAG that `fn` executes on `pool` — a factorization or solve
/// with UlvOptions::pool = &pool — then replays inline, in the graph's
/// serial order: the reference the bitwise suites compare pools against.
template <class Fn>
void on_worker(ThreadPool& pool, Fn&& fn) {
  std::exception_ptr err;
  pool.submit([&] {
    try {
      fn();
    } catch (...) {
      err = std::current_exception();
    }
  });
  pool.wait_idle();
  if (err) std::rethrow_exception(err);
}

}  // namespace h2::testing_support
