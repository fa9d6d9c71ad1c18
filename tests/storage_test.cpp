// The storage tier (src/storage/): out-of-core factorization correctness —
// solves with the spill/prefetch store enabled are bitwise identical to
// in-RAM across worker counts and serial replay while resident factor bytes
// stay under the budget (concurrent sweeps take turns); the
// arrived-in-time partition of the step counters; demote/promote round-trips;
// fault injection (truncated files, corrupted payloads, a full disk) turning
// into diagnosable errors that name the file and block, never a silently
// wrong answer; the XXH64 payload checksum against reference vectors; and
// spill-file cleanup on destruction including error paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/solver.hpp"
#include "runtime/thread_pool.hpp"
#include "storage/spill_store.hpp"
#include "test_helpers.hpp"

namespace h2 {
namespace {

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<std::size_t>(a.rows()) *
                         static_cast<std::size_t>(a.cols())) == 0;
}

SolverOptions cheap_opts() {
  return SolverOptions{}.with_tol(1e-6).with_max_rank(60);
}

/// Scratch directory under the system temp dir (unique per process + use),
/// removed recursively on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            ("h2-storage-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter++)))
               .string();
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

TEST(OutOfCore, BitwiseIdenticalToInRamAcrossWorkersAndSerialReplay) {
  // The tentpole contract: spilling moves factor bytes, never transforms
  // them, so an out-of-core solve at HALF the in-RAM factor footprint must
  // reproduce the in-RAM answer bit for bit — on pools of 1, 4 and 8
  // workers and in the serial replay (built and solved on a worker of the
  // pool, which walks the spill steps inline) — while the store's resident
  // gauge respects the budget up to one block of slack.
  Rng rng(21);
  const PointCloud pts = uniform_cube(512, rng);
  const LaplaceKernel kern(1e-2);
  const Matrix b = Matrix::random(512, 2, rng);

  const Solver ref = Solver::build(pts, kern, cheap_opts());
  const Matrix x_ref = ref.solve(b);
  const double ld_ref = ref.logabsdet();
  const UlvStats* rst = ref.ulv_stats();
  ASSERT_NE(rst, nullptr);
  ASSERT_GT(rst->final_block_bytes, 0u);
  const double budget_mb =
      0.5 * static_cast<double>(rst->final_block_bytes) / (1 << 20);

  TempDir tmp;
  ThreadPool pool(2);
  // 0 workers: the serial replay on a worker of `pool`.
  for (const int workers : {1, 4, 8, 0}) {
    const SolverOptions o = cheap_opts()
                                .with_workers(workers)
                                .with_pool(workers > 0 ? nullptr : &pool)
                                .with_spill_dir(tmp.path)
                                .with_spill_budget_mb(budget_mb)
                                .with_spill_threads(2);
    std::unique_ptr<Solver> built;
    Matrix x;
    if (workers > 0) {
      built = std::make_unique<Solver>(Solver::build(pts, kern, o));
      x = built->solve(b);
    } else {
      testing_support::on_worker(pool, [&] {
        built = std::make_unique<Solver>(Solver::build(pts, kern, o));
        x = built->solve(b);
      });
    }
    const Solver& s = *built;
    EXPECT_TRUE(bitwise_equal(x, x_ref)) << workers << " workers";
    EXPECT_EQ(s.logabsdet(), ld_ref);

    const SpillStats ss = s.spill_stats();
    EXPECT_GT(ss.blocks, 0u);
    EXPECT_GT(ss.spilled_blocks, 0u) << "nothing ever hit the disk";
    EXPECT_GT(ss.evictions, 0u) << "budget never forced a payload out";
    EXPECT_LE(ss.budget_bytes, rst->final_block_bytes / 2 + 1);
    // The acceptance bound: over the serve phase, resident factor bytes
    // never exceed the budget by more than one (required) block.
    EXPECT_LE(ss.peak_resident_bytes, ss.budget_bytes + ss.max_block_bytes);

    // UlvStats carries the adoption totals for operators reading ulv_stats.
    const UlvStats* st = s.ulv_stats();
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->spilled_blocks, ss.blocks);
    EXPECT_EQ(st->spilled_bytes, ss.block_bytes);
  }
}

/// The arrived-in-time partition of SpillStats: ready, waited-in-flight and
/// taken-over blocks sum to step_hits, so every step-acquired block lands in
/// exactly one of the four buckets.
void expect_step_partition(const SpillStats& ss) {
  EXPECT_EQ(ss.step_ready + ss.step_waited + ss.step_taken_over, ss.step_hits)
      << "ready " << ss.step_ready << " waited " << ss.step_waited
      << " taken over " << ss.step_taken_over << " hits " << ss.step_hits;
}

TEST(OutOfCore, DagSolveReportsPrefetchCounters) {
  Rng rng(22);
  const PointCloud pts = uniform_cube(512, rng);
  const LaplaceKernel kern(1e-2);
  const Matrix b = Matrix::random(512, 1, rng);
  TempDir tmp;
  // Budget 0: a pure disk tier, so every solve step must fault or prefetch —
  // the ExecStats deltas of the DAG solve have to see that traffic. With no
  // budget to reserve the planner schedules nothing: every block is a miss
  // and none arrives in time.
  const Solver s = Solver::build(
      pts, kern,
      cheap_opts().with_spill_dir(tmp.path).with_spill_budget_mb(0.0));
  const Matrix x = s.solve(b);
  const ExecStats ex = s.last_solve_stats();
  EXPECT_GT(ex.prefetch_hits + ex.prefetch_misses, 0u);
  const SpillStats ss = s.spill_stats();
  EXPECT_EQ(ex.prefetch_hits + ex.prefetch_misses, ss.step_hits + ss.step_misses);
  expect_step_partition(ss);
  EXPECT_GT(ss.step_misses, 0u);
  EXPECT_EQ(ss.step_ready, 0u);

  // At a quarter of the footprint the planner reads ahead, so blocks reach
  // the sweep by all routes; the partition still accounts for each once.
  const Solver q = Solver::build(
      pts, kern,
      cheap_opts()
          .with_spill_dir(tmp.path)
          .with_spill_budget_mb(0.25 * static_cast<double>(ss.block_bytes) /
                                (1 << 20))
          .with_spill_threads(1));
  EXPECT_TRUE(bitwise_equal(q.solve(b), x));
  const SpillStats qs = q.spill_stats();
  const ExecStats qx = q.last_solve_stats();
  EXPECT_EQ(qx.prefetch_hits, qs.step_hits);
  EXPECT_EQ(qx.prefetch_misses, qs.step_misses);
  EXPECT_GT(qs.step_hits, 0u) << "the planner never got ahead of the sweep";
  expect_step_partition(qs);
}

TEST(OutOfCore, ConcurrentSweepsOvershootByAtMostOneBlockEach) {
  // Four threads solving on one spilled fp32 factor, one IO thread, ~0.25x
  // the in-RAM footprint. Their sweeps take turns, so one step is pinned at
  // a time, and every read holds its budget reservation until its bytes land
  // (scheduled, taken over by a sweep, or demanded): resident bytes pass the
  // budget only by what is pinned plus the one read-ahead block the IO
  // thread may have in flight — and the answers stay bitwise those of the
  // factor held in RAM.
  Rng rng(29);
  const int n = 1024;
  const PointCloud pts = uniform_cube(n, rng);
  const LaplaceKernel kern(1e-4);
  const SolverOptions opts = SolverOptions{}
                                 .with_leaf_size(32)
                                 .with_partitioner(Partitioner::KMeans)
                                 .with_seed(42)
                                 .with_eta(1.0)
                                 .with_tol(1e-6)
                                 .with_max_rank(80)
                                 .with_workers(2)
                                 .with_precision(Precision::F32)
                                 .with_refine_tol(1e-8);
  const Solver ref = Solver::build(pts, kern, opts);
  const UlvStats* rst = ref.ulv_stats();
  ASSERT_NE(rst, nullptr);
  const double budget_mb =
      0.25 * static_cast<double>(rst->final_block_bytes) / (1 << 20);

  TempDir tmp;
  const Solver s = Solver::build(pts, kern,
                                 SolverOptions(opts)
                                     .with_spill_dir(tmp.path)
                                     .with_spill_budget_mb(budget_mb)
                                     .with_spill_threads(1));
  constexpr int kSweeps = 4;
  constexpr int kSolvesEach = 10;
  std::vector<Matrix> rhs, x_ref;
  for (int t = 0; t < kSweeps; ++t) {
    rhs.push_back(Matrix::random(n, 1, rng));
    x_ref.push_back(ref.solve(rhs.back()));
  }
  std::vector<int> diverged(kSweeps, 0);
  std::vector<std::thread> sweeps;
  for (int t = 0; t < kSweeps; ++t) {
    sweeps.emplace_back([&, t] {
      const auto i = static_cast<std::size_t>(t);
      for (int k = 0; k < kSolvesEach; ++k)
        if (!bitwise_equal(s.solve(rhs[i]), x_ref[i])) ++diverged[i];
    });
  }
  for (std::thread& th : sweeps) th.join();
  for (int t = 0; t < kSweeps; ++t)
    EXPECT_EQ(diverged[static_cast<std::size_t>(t)], 0) << "sweep " << t;

  const SpillStats ss = s.spill_stats();
  EXPECT_GT(ss.evictions, 0u) << "budget never forced a payload out";
  const auto blocks_over = [&ss](std::uint64_t bytes) {
    return (static_cast<double>(bytes) - static_cast<double>(ss.budget_bytes)) /
           static_cast<double>(ss.max_block_bytes);
  };
  EXPECT_LE(ss.peak_resident_bytes,
            std::max(ss.budget_bytes, ss.peak_pinned_bytes + ss.max_block_bytes))
      << "resident peak " << blocks_over(ss.peak_resident_bytes)
      << " blocks over budget, pinned peak " << blocks_over(ss.peak_pinned_bytes);
  EXPECT_LE(ss.peak_resident_bytes,
            ss.budget_bytes + kSweeps * ss.max_block_bytes)
      << "resident peak " << blocks_over(ss.peak_resident_bytes)
      << " blocks over budget, pinned peak " << blocks_over(ss.peak_pinned_bytes);
  // One pinned step (~budget/4 plus at most one cluster row) at a time; four
  // sweeps holding steps at once would pin about the whole budget.
  EXPECT_LE(ss.peak_pinned_bytes, ss.budget_bytes / 2)
      << "pinned peak " << blocks_over(ss.peak_pinned_bytes)
      << " blocks over budget";
  expect_step_partition(ss);
}

TEST(OutOfCore, PipelinedSolvesSweepBesideTheTurnHolder) {
  // solve_batch pipelines whole solves on the solver's own pool, each one
  // sweeping inline on a worker, while a synchronous solve runs its DAG on
  // that same pool holding the store's sweep turn. The inline sweeps must
  // not wait for the turn — the DAG needs their workers — and every answer
  // stays bitwise the in-RAM one.
  Rng rng(31);
  const int n = 512;
  const PointCloud pts = uniform_cube(n, rng);
  const LaplaceKernel kern(1e-4);
  ThreadPool pool(2);
  const SolverOptions opts =
      cheap_opts().with_leaf_size(32).with_seed(42).with_pool(&pool);
  const Solver ref = Solver::build(pts, kern, opts);
  const UlvStats* rst = ref.ulv_stats();
  ASSERT_NE(rst, nullptr);
  TempDir tmp;
  const Solver s = Solver::build(
      pts, kern,
      SolverOptions(opts)
          .with_spill_dir(tmp.path)
          .with_spill_budget_mb(0.25 * static_cast<double>(rst->final_block_bytes) /
                                (1 << 20))
          .with_spill_threads(1));
  std::vector<Matrix> rhs, x_ref;
  for (int i = 0; i < 8; ++i) {
    rhs.push_back(Matrix::random(n, 1, rng));
    x_ref.push_back(ref.solve(rhs.back()));
  }
  int sync_diverged = 0;
  std::thread sync([&] {
    for (int k = 0; k < 4; ++k)
      if (!bitwise_equal(s.solve(rhs[static_cast<std::size_t>(k)]),
                         x_ref[static_cast<std::size_t>(k)]))
        ++sync_diverged;
  });
  const std::vector<Matrix> batched = s.solve_batch(rhs);
  sync.join();
  EXPECT_EQ(sync_diverged, 0);
  ASSERT_EQ(batched.size(), rhs.size());
  for (std::size_t i = 0; i < rhs.size(); ++i)
    EXPECT_TRUE(bitwise_equal(batched[i], x_ref[i])) << "pipelined rhs " << i;
  EXPECT_GT(s.spill_stats().evictions, 0u) << "budget never forced a payload out";
}

TEST(SpillStorePasses, SweepsTakeTurns) {
  // A Pass waits in its constructor while another Pass holds the store's
  // turn, and starts once that Pass is gone; a Pass that does not wait for
  // a turn starts at once.
  TempDir tmp;
  Rng rng(30);
  Matrix m = Matrix::random(8, 8, rng);
  SpillStore store({tmp.path, 1ull << 30, 1});
  const SpillStore::SlotId id = store.adopt(&m, "blk");
  store.seal({{id}});

  auto holder = std::make_unique<SpillStore::Pass>(store);
  holder->advance(0);
  std::atomic<bool> started{false};
  std::thread queued([&] {
    SpillStore::Pass p(store);
    started = true;
    p.advance(0);
  });
  auto beside = std::async(std::launch::async, [&] {
    SpillStore::Pass p(store, /*wait_turn=*/false);
    p.advance(0);
  });
  const bool beside_ran =
      beside.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(beside_ran) << "a Pass without a turn waited for the holder";
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(started) << "a second Pass swept while the first held the turn";
  holder.reset();
  queued.join();
  EXPECT_TRUE(started);
  beside.wait();
  EXPECT_EQ(store.stats().step_hits + store.stats().step_misses, 3u);
}

TEST(OutOfCore, DemotePromoteRoundTripIsBitwise) {
  Rng rng(23);
  const PointCloud pts = uniform_cube(384, rng);
  const LaplaceKernel kern(1e-2);
  const Matrix b = Matrix::random(384, 1, rng);
  TempDir tmp;

  // Built fully in RAM (no spill configured): demotion attaches the store
  // lazily, registers every factor block, and drains it to disk.
  Solver s = Solver::build(pts, kern, cheap_opts());
  const Matrix x_ref = s.solve(b);
  EXPECT_EQ(s.spill_stats().blocks, 0u);

  ASSERT_TRUE(s.demote_to_disk(tmp.path));
  EXPECT_GT(s.spill_stats().blocks, 0u);
  EXPECT_EQ(s.spill_stats().resident_bytes, 0u) << "demotion left bytes in RAM";
  // A demoted factorization still serves (demand-faulting per step)...
  EXPECT_TRUE(bitwise_equal(s.solve(b), x_ref));
  // ...and promotes back wholesale.
  s.promote();
  EXPECT_GT(s.spill_stats().resident_bytes, 0u);
  EXPECT_TRUE(bitwise_equal(s.solve(b), x_ref));
  EXPECT_EQ(s.logabsdet(), Solver::build(pts, kern, cheap_opts()).logabsdet());

  // Backends without the block store have no disk tier to demote into.
  Solver blr = Solver::build(
      pts, kern, cheap_opts().with_structure(SolverStructure::BLR));
  EXPECT_FALSE(blr.demote_to_disk(tmp.path));
}

TEST(OutOfCore, OptionsValidationRejectsBadSpillConfig) {
  Rng rng(24);
  const PointCloud pts = uniform_cube(64, rng);
  const LaplaceKernel kern(1e-2);
  TempDir tmp;
  EXPECT_THROW(
      Solver::build(pts, kern,
                    cheap_opts().with_spill_dir("/nonexistent/h2-spill")),
      std::invalid_argument);
  EXPECT_THROW(Solver::build(pts, kern, cheap_opts().with_spill_budget_mb(-1)),
               std::invalid_argument);
  EXPECT_THROW(
      Solver::build(
          pts, kern,
          cheap_opts().with_spill_dir(tmp.path).with_spill_threads(0)),
      std::invalid_argument);
  // Zero writer threads without a spill tier is inert, not an error.
  (void)Solver::build(pts, kern, cheap_opts().with_spill_threads(0));
}

TEST(OutOfCore, SpillFilesCleanedUpOnSolverDestruction) {
  Rng rng(25);
  const PointCloud pts = uniform_cube(256, rng);
  const LaplaceKernel kern(1e-2);
  const Matrix b = Matrix::random(256, 1, rng);
  TempDir tmp;
  {
    const Solver s = Solver::build(
        pts, kern,
        cheap_opts().with_spill_dir(tmp.path).with_spill_budget_mb(0.0));
    (void)s.solve(b);
    EXPECT_FALSE(std::filesystem::is_empty(tmp.path))
        << "no spill directory was ever created";
  }
  EXPECT_TRUE(std::filesystem::is_empty(tmp.path))
      << "solver destruction left spill files behind";
}

TEST(SpillStoreFaults, TruncatedFileThrowsNamingFileAndBlock) {
  TempDir tmp;
  std::string dir;
  {
    Rng rng(26);
    Matrix m = Matrix::random(24, 16, rng);
    SpillStore store({tmp.path, 1ull << 30, 1});
    dir = store.directory();
    const SpillStore::SlotId id = store.adopt(&m, "dense L1 (0,0)");
    store.quiesce();
    store.set_budget(0);  // payload dropped; the file is now the only copy
    ASSERT_EQ(store.stats().resident_bytes, 0u);

    std::filesystem::resize_file(store.file_path(id), 10);
    try {
      store.pin({id});
      FAIL() << "reading a truncated spill file did not throw";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
      EXPECT_NE(msg.find(store.file_path(id)), std::string::npos) << msg;
      EXPECT_NE(msg.find("dense L1 (0,0)"), std::string::npos) << msg;
    }
    // The store is poisoned: every entry point rethrows, nothing serves a
    // half-read block.
    EXPECT_THROW(store.pin({id}), std::runtime_error);
    EXPECT_THROW(store.quiesce(), std::runtime_error);
  }
  EXPECT_FALSE(std::filesystem::exists(dir))
      << "failed store left its directory behind";
}

/// Flip the payload byte at `offset` (past the 40-byte header) of `path`.
void flip_payload_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  const auto pos = static_cast<std::streamoff>(40 + offset);
  f.seekg(pos);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(pos);
  f.write(&c, 1);
}

/// Spill `block` into a fresh store, corrupt one payload byte of its file,
/// and expect the read back to fail the checksum naming the file and block.
template <class M>
void expect_corruption_caught(M& block, const std::string& name,
                              std::uint64_t offset) {
  TempDir tmp;
  SpillStore store({tmp.path, 1ull << 30, 1});
  const SpillStore::SlotId id = store.adopt(&block, name);
  store.quiesce();
  store.set_budget(0);  // payload dropped; the file is now the only copy
  flip_payload_byte(store.file_path(id), offset);
  try {
    store.pin({id});
    FAIL() << "reading a spill file corrupted at payload byte " << offset
           << " did not throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find(store.file_path(id)), std::string::npos) << msg;
    EXPECT_NE(msg.find(name), std::string::npos) << msg;
  }
}

TEST(SpillStoreFaults, CorruptPayloadFailsTheChecksum) {
  Rng rng(27);
  Matrix m = Matrix::random(24, 16, rng);
  expect_corruption_caught(m, "q L2 c3", 100);

  // An fp32 block whose payload (7*5*4 = 140 bytes) is not a whole number
  // of the checksum's 32-byte stripes: a flipped byte must be caught in the
  // first stripe, mid-payload, and in the sub-stripe tail alike.
  MatrixF f = to_f32(Matrix::random(7, 5, rng));
  const std::uint64_t bytes = sizeof(float) * 7 * 5;
  ASSERT_NE(bytes % 32, 0u);
  for (const std::uint64_t offset : {std::uint64_t{0}, bytes / 2, bytes - 1}) {
    MatrixF block = f;  // each store poisons itself on the first bad read
    expect_corruption_caught(block, "fp32 u L3 c5", offset);
  }
}

TEST(SpillStoreChecksum, MatchesXxh64ReferenceVectors) {
  // The spill checksum is XXH64: pinned to the specification's values on
  // short inputs and on lengths that exercise the 32-byte stripe loop and
  // each tail path (8-, 4- and 1-byte lanes), with and without a seed.
  EXPECT_EQ(xxh64("", 0), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(xxh64("a", 1), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(xxh64("abc", 3), 0x44BC2CF5AD770999ull);
  std::vector<unsigned char> buf(111);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<unsigned char>(i * 31 + 7);
  EXPECT_EQ(xxh64(buf.data(), 31), 0x4A74F3A1A39AD4A1ull);
  EXPECT_EQ(xxh64(buf.data(), 32), 0x8D57D6A4671CC43Dull);
  EXPECT_EQ(xxh64(buf.data(), 111), 0x87C7088F6055A3E3ull);
  EXPECT_EQ(xxh64(buf.data(), 31, 2654435761ull), 0xB806F858C84789EAull);
  EXPECT_EQ(xxh64(buf.data(), 32, 2654435761ull), 0x8EF2E38DDE10F162ull);
  EXPECT_EQ(xxh64(buf.data(), 111, 2654435761ull), 0x814CE7667FB169AAull);
}

TEST(SpillStoreFaults, FullDiskSurfacesOnQuiesceNamingFileAndBlock) {
  TempDir tmp;
  std::string dir;
  std::string path;
  {
    Rng rng(28);
    Matrix m = Matrix::random(24, 16, rng);
    SpillStore store({tmp.path, 1ull << 30, 1});
    dir = store.directory();
    store.fail_next_writes_for_testing(1);
    const SpillStore::SlotId id = store.adopt(&m, "top_lu");
    path = store.file_path(id);
    try {
      store.quiesce();
      FAIL() << "an out-of-space spill write did not surface";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("No space left on device"), std::string::npos) << msg;
      EXPECT_NE(msg.find(path), std::string::npos) << msg;
      EXPECT_NE(msg.find("top_lu"), std::string::npos) << msg;
    }
    EXPECT_THROW(store.adopt(&m, "again"), std::runtime_error);
  }
  // Cleanup on the throw path too: the half-written file and the directory
  // are gone with the store.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(dir));
}

}  // namespace
}  // namespace h2
