#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "linalg/matrix.hpp"

namespace h2 {

/// Counters and gauges of one SpillStore, snapshotted atomically by
/// SpillStore::stats(). Counters are lifetime totals; gauges are the value at
/// the snapshot.
///
/// The out-of-core bound, measured over the serve phase (both high-water
/// marks reset when adoption seals; during adoption the blocks already exist
/// and the store can only drain them):
///
///     peak_resident_bytes <= max(budget_bytes,
///                                peak_pinned_bytes + io_threads * max_block_bytes)
///
/// Every read holds a reservation of its bytes from the moment it is
/// scheduled or demanded until they land, and a read the sweep needs first
/// evicts every unpinned block and cancels unstarted read-ahead to fit.
/// Resident bytes can therefore pass the budget only while pinned blocks
/// fill it, and then by no more than the read-ahead the IO threads already
/// had in flight. Sweeps take turns (see Pass), so the pinned bytes are one
/// step's: the solve plan chunks its steps to ~budget/4 (plus at most one
/// cluster row), and the serve phase stays within the budget however many
/// solves run at once. Only a sweep that runs without a turn, and pin(),
/// add their blocks on top.
///
/// Step acquisitions are partitioned by how each block reached the sweep:
/// `step_ready + step_waited + step_taken_over == step_hits`, and
/// `step_hits + step_misses` is the number of blocks the sweep acquired.
/// Only `step_ready` blocks arrived in time; the other three stalled their
/// step.
struct SpillStats {
  std::uint64_t blocks = 0;            ///< blocks adopted into the store
  std::uint64_t block_bytes = 0;       ///< payload bytes adopted
  std::uint64_t spilled_blocks = 0;    ///< spill files written by the writers
  std::uint64_t spilled_bytes = 0;     ///< payload bytes written to disk
  std::uint64_t evictions = 0;         ///< resident payloads dropped to disk-only
  std::uint64_t evicted_bytes = 0;     ///< payload bytes dropped
  std::uint64_t faults = 0;            ///< synchronous (demand) reads
  std::uint64_t fault_bytes = 0;       ///< payload bytes read on demand
  std::uint64_t prefetches = 0;        ///< reads issued ahead of the sweep cursor
  std::uint64_t prefetch_bytes = 0;    ///< payload bytes read ahead
  std::uint64_t step_hits = 0;    ///< step-acquired blocks the planner got to
                                  ///< first: ready, waited, or taken over
  std::uint64_t step_misses = 0;  ///< step-acquired blocks the planner never
                                  ///< scheduled: the sweep initiated the read
  std::uint64_t step_ready = 0;   ///< resident when the step was acquired
                                  ///< (arrived in time)
  std::uint64_t step_waited = 0;  ///< read in flight on an IO thread; the
                                  ///< sweep waited for it to land
  std::uint64_t step_taken_over = 0;  ///< scheduled but not yet started; the
                                      ///< sweep ran the read itself
  std::uint64_t resident_bytes = 0;    ///< gauge: managed payload bytes in RAM
  std::uint64_t peak_resident_bytes = 0;  ///< high-water mark of resident_bytes
  std::uint64_t peak_pinned_bytes = 0;  ///< high-water mark of the payload
                                        ///< bytes held pinned by sweeps and pin()
  std::uint64_t budget_bytes = 0;      ///< gauge: current resident budget
  std::uint64_t max_block_bytes = 0;   ///< largest single adopted payload
};

/// XXH64 of `n` bytes at `data` with `seed`, implemented from the xxHash
/// specification: four independent 64-bit lanes consume 32-byte stripes and
/// a full avalanche finishes the hash. Spill files carry it as their payload
/// checksum. Lanes are loaded in host byte order, which matches the
/// specification's reference vectors on little-endian hosts (spill files
/// never outlive the store that wrote them, so only self-consistency is
/// load-bearing).
std::uint64_t xxh64(const void* data, std::size_t n, std::uint64_t seed = 0);

/// File-backed tier for factor blocks: gives each adopted block the
/// resident -> spilled -> prefetched lifecycle that decouples solvable N from
/// RAM.
///
/// A block enters with adopt() at its factorization release point (its bytes
/// are final and read-only from then on; the solve only ever *reads* factors,
/// so moving a payload to disk and back can change where the bytes live but
/// never what they are — out-of-core execution is bitwise identical by
/// construction). Background writer threads persist every adopted payload to a
/// checksummed per-block file; once a block's file exists, dropping its
/// payload (eviction) and restoring it (fault-in) are pure byte moves through
/// BlockPool::global(), which hands the storage back on release and re-adopts
/// it on fault-in.
///
/// seal() fixes the *solve plan*: an ordered list of steps, each naming the
/// slots one phase chunk of the solve sweep reads. A Pass walks the steps in
/// order; Pass::advance(s) pins step s resident (counting how each block got
/// there, see SpillStats) and releases the previous step. A planner thread
/// walks the plan ahead of the most recently acquired step, reserving
/// resident budget and queueing reads in plan order; the IO threads — idle
/// as writers once the plan is sealed — pop the queue from its front and
/// execute the reads concurrently, so a healthy sweep overlaps its compute
/// with several reads in flight. Acquiring a step is takeover-first: the
/// sweep reads every block of the step still on disk itself, starting from
/// the step's far end (the IO threads work from its near end), and only then
/// waits for the reads in flight, so it never idles behind a queue it could
/// be draining.
///
/// Sweeps take turns: a Pass waits in its constructor until every Pass that
/// took a turn before it is destroyed, and turns go in arrival order. One
/// prefetch cursor, one Belady ranking and one pinned step then describe
/// the only sweep reading the store, so concurrent solves neither evict each
/// other's read-ahead nor pin more than one step, and every sweep reads the
/// same bytes whatever runs beside it. Overlapping sweeps would share some
/// reads and evict each other's read-ahead, so what a solve cost would
/// depend on how their steps happened to line up.
///
/// Budget policy: every read holds a reservation of its bytes from the
/// moment it is scheduled or demanded until its bytes land, so the planner
/// never books budget a read in flight already owns. The planner books a
/// read only while resident plus reserved bytes fit budget_bytes, and a read
/// the sweep needs evicts unpinned blocks until they fit again; it overshoots
/// rather than stall the sweep only when everything resident is pinned —
/// see SpillStats for the exact bound.
/// Setting the budget to zero turns the store into a pure disk tier (the
/// serving cache's "demoted" state): every release drains to disk, every use
/// faults back in.
///
/// Failure policy: any write or read error (short file, checksum mismatch,
/// out of disk) is recorded and rethrown as std::runtime_error naming the
/// spill file and block from every subsequent store entry point — never a
/// silently wrong answer. The destructor stops the threads, removes the
/// store's files and directory, and discharges its resident accounting, so
/// cleanup happens on every path including exceptions.
class SpillStore {
 public:
  /// Construction knobs (see H2_SPILL_DIR / H2_SPILL_MB / H2_SPILL_THREADS in
  /// docs/TUNING.md for the environment defaults they are usually fed from).
  struct Options {
    std::string dir;                 ///< existing writable parent directory
    std::uint64_t budget_bytes = 0;  ///< resident payload budget (0 = spill all)
    int io_threads = 2;  ///< background IO threads (>= 1): spill writers that
                         ///< double as prefetch readers once the plan is sealed
  };

  /// Index of an adopted block within this store.
  using SlotId = int;
  /// Sentinel for "no slot" in plan step lists (empty blocks are never
  /// adopted, so plans built from block tables use this for the gaps).
  static constexpr SlotId kNoSlot = -1;

  /// Creates `<dir>/h2spill-<pid>-<n>/` and starts the writer and prefetcher
  /// threads. Throws std::runtime_error if the directory cannot be created.
  explicit SpillStore(const Options& opt);
  /// Stops the threads, deletes every spill file and the store directory, and
  /// discharges the resident accounting of its managed blocks.
  ~SpillStore();

  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  /// Hand `block` (non-empty, final, address-stable) to the store. The write
  /// is queued immediately; adopt() then pushes residency down toward the
  /// budget (waiting on the writers when needed) before returning, so
  /// adoption itself never accumulates more than the budget plus the blocks
  /// currently in flight. `name` labels the block in error messages.
  /// The store charges the payload to blockmem; the caller must drop its own
  /// accounting for the block before calling. fp32 blocks are first-class:
  /// a slot remembers its element type, its bytes are the real payload size
  /// (half the fp64 twin), and spill/restore stays a pure byte move either
  /// way — checksums, prefetch planning, and the budget policy are oblivious
  /// to precision.
  SlotId adopt(Matrix* block, std::string name);
  SlotId adopt(MatrixF* block, std::string name);

  /// Seal adoption and install the solve plan: steps[s] lists the slots step
  /// s reads (kNoSlot entries are skipped). Waits for every queued write,
  /// then resets the peak-resident mark and releases the prefetcher onto the
  /// first steps. Call once, after the last adopt().
  void seal(std::vector<std::vector<SlotId>> steps);

  /// Walks one solve sweep over the sealed plan. Destroying a Pass releases
  /// whatever step it still holds and its turn, so an exception unwinding a
  /// solve cannot leak pins or stall the sweeps queued behind it.
  class Pass {
   public:
    /// Waits for the store's sweep turn, then rewinds the store's prefetch
    /// cursor to the first step. `wait_turn = false` sweeps at once beside
    /// the turn holder: for a caller that must not block because the turn
    /// holder may need its thread (a pool worker running a pipelined solve).
    explicit Pass(SpillStore& store, bool wait_turn = true);
    ~Pass();
    Pass(const Pass&) = delete;
    Pass& operator=(const Pass&) = delete;
    /// Releases the previously held step and pins every block of `step`
    /// resident, blocking on demand reads for the ones prefetch missed.
    void advance(int step);

   private:
    SpillStore* store_;
    int held_ = -1;
    bool turn_;  // holds the store's sweep turn until destroyed
  };

  /// Pin an explicit slot set resident (demand-faulting as needed) — the
  /// hook for factor reads outside the solve sweep (logabsdet, the depth-0
  /// top solve). Ignores kNoSlot entries.
  void pin(const std::vector<SlotId>& ids);
  /// Undo pin(); eviction may reclaim the blocks again.
  void unpin(const std::vector<SlotId>& ids);

  /// Block until every queued spill write has completed (rethrows a recorded
  /// writer error).
  void quiesce();
  /// Fault every spilled block back in (promotion). Respects no budget; pair
  /// with set_budget() when turning a disk tier resident again.
  void fetch_all();
  /// Spill and drop every unpinned block (demotion). Blocks pinned by an
  /// in-flight sweep stay resident and drain on release.
  void drop_all();
  /// Replace the resident budget and immediately evict down toward it.
  void set_budget(std::uint64_t budget_bytes);

  /// Atomic snapshot of the counters and gauges.
  [[nodiscard]] SpillStats stats() const;
  /// The spill file backing slot `id` (exists once the writers got to it).
  [[nodiscard]] std::string file_path(SlotId id) const;
  /// This store's private directory, `<dir>/h2spill-<pid>-<n>`.
  [[nodiscard]] const std::string& directory() const;

  /// Test seam: make the next `n` spill writes fail as if the disk were full
  /// (a partial payload is written first, so the file is also invalid).
  void fail_next_writes_for_testing(int n);

 private:
  enum class State : std::uint8_t {
    kQueued,   // resident; write not yet picked up
    kWriting,  // resident; writer thread owns the file
    kClean,    // resident; file valid — evictable when unpinned
    kSpilled,  // disk only
    kReading,  // disk -> RAM transfer in flight (single-flight gate)
  };

  struct Slot {
    // Exactly one of block/blockf is set; the slot's element type (and hence
    // its payload byte size) follows the set pointer.
    Matrix* block = nullptr;
    MatrixF* blockf = nullptr;
    int rows = 0, cols = 0;
    std::uint64_t bytes = 0;
    std::string name;
    State state = State::kQueued;
    int pins = 0;
    bool prefetched = false;   // read ahead, not yet acquired: evict last
    bool read_queued = false;  // in read_q_; its bytes are budget-reserved
    int next_use = -1;         // earliest upcoming step reading this slot...
    std::uint64_t plan_gen = 0;  // ...valid while this matches plan_gen_
  };

  template <class T>
  SlotId adopt_impl(MatrixT<T>* block, std::string name);
  void writer_main();
  void prefetch_main();
  void write_slot(std::unique_lock<std::mutex>& lk, SlotId id);
  // Disk -> RAM for a spilled slot whose bytes the caller has reserved in
  // reserved_read_bytes_; the reservation turns into resident bytes when the
  // read lands and is dropped if it fails.
  void read_slot(std::unique_lock<std::mutex>& lk, SlotId id, bool required);
  // A read the caller needs now: keeps the planner's reservation if the read
  // was scheduled (a takeover) or takes one (a demand miss), makes room, and
  // runs read_slot on the calling thread.
  void read_required(std::unique_lock<std::mutex>& lk, SlotId id);
  void pin_slot(SlotId id);    // one more pin; tracks pinned_bytes_
  void unpin_slot(SlotId id);  // the last unpin queues the slot for eviction
  void evict_one(SlotId id);
  void evict_toward(std::uint64_t target, bool sweep);
  void schedule_reads();         // one planning pass (callers hold mu_)
  // Evict the evictable resident block whose next plan use is farthest past
  // `step` (Belady's rule on the sealed plan; a block with no upcoming use at
  // all goes first). Returns false when nothing qualifies.
  bool evict_farthest_after(int step);
  void ensure_resident(std::unique_lock<std::mutex>& lk, SlotId id);
  void acquire_step(int step);
  void release_step(int step);
  void throw_if_failed() const;  // callers hold mu_
  void fail(const std::string& what);

  const std::string dir_;
  std::uint64_t budget_;
  SpillStats st_;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // state / budget / error waiters
  std::condition_variable work_cv_;   // writer wakeups
  std::condition_variable fetch_cv_;  // prefetch-planner wakeups
  std::vector<Slot> slots_;
  std::deque<SlotId> write_q_;
  std::deque<SlotId> evict_q_;  // lazily validated eviction candidates
  std::deque<SlotId> read_q_;   // planner-scheduled prefetch reads, plan order
  // Budget bytes held by read_q_ entries and by every read still in flight
  // (scheduled, taken over, or demanded): the planner admits a read only
  // while resident + reserved stays under the budget, so every read has room
  // by the time it completes.
  std::uint64_t reserved_read_bytes_ = 0;
  std::uint64_t pinned_bytes_ = 0;  // payload bytes of slots with pins > 0
  std::uint64_t plan_gen_ = 0;  // bumped per planning walk; stamps next_use
  std::vector<std::vector<SlotId>> steps_;
  bool sealed_ = false;
  bool draining_ = false;  // drop_all in progress: planner paused, reads void
  int cursor_ = -1;        // most recently acquired step (prefetch oracle)
  // Sweep turns, granted in arrival order: Pass tickets handed out, and the
  // ticket whose Pass may sweep now.
  std::uint64_t turns_issued_ = 0;
  std::uint64_t turn_now_ = 0;
  std::condition_variable turn_cv_;
  int inject_write_failures_ = 0;
  std::string error_;
  bool stop_ = false;

  std::vector<std::thread> threads_;
};

}  // namespace h2
