#include "storage/spill_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "runtime/block_pool.hpp"

namespace h2 {

namespace {

/// On-disk layout of one spill file: this header, then rows*cols elements
/// (fp64 or fp32, whichever the slot holds — payload_bytes disambiguates) in
/// column-major order. All fields are fixed-width and naturally aligned, so
/// the struct has no padding and can be written/read as one block.
struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t slot;
  std::int32_t rows;
  std::int32_t cols;
  std::uint64_t payload_bytes;
  std::uint64_t checksum;
};
static_assert(sizeof(FileHeader) == 40, "FileHeader must be packed");

constexpr char kMagic[8] = {'H', '2', 'S', 'P', 'I', 'L', 'L', '\0'};
constexpr std::uint32_t kVersion = 2;  // version 1 checksummed with FNV-1a

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

inline std::uint64_t rotl(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

inline std::uint64_t load64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t load32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t lane) {
  return rotl(acc + lane * kP2, 31) * kP1;
}

inline std::uint64_t xxh_merge(std::uint64_t h, std::uint64_t acc) {
  return (h ^ xxh_round(0, acc)) * kP1 + kP4;
}

/// RAII fclose so every error path below closes the stream.
struct FileCloser {
  std::FILE* f = nullptr;
  ~FileCloser() {
    if (f != nullptr) std::fclose(f);
  }
};

std::string make_store_dir(const std::string& parent) {
  static std::atomic<int> counter{0};
  return parent + "/h2spill-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1));
}

}  // namespace

std::uint64_t xxh64(const void* data, std::size_t n, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t left = n;
  std::uint64_t h;
  if (left >= 32) {
    // Four independent lanes: the multiply chains overlap, so a stripe costs
    // about one multiply's latency instead of four.
    std::uint64_t v1 = seed + kP1 + kP2, v2 = seed + kP2, v3 = seed,
                  v4 = seed - kP1;
    for (; left >= 32; left -= 32, p += 32) {
      v1 = xxh_round(v1, load64(p));
      v2 = xxh_round(v2, load64(p + 8));
      v3 = xxh_round(v3, load64(p + 16));
      v4 = xxh_round(v4, load64(p + 24));
    }
    h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
    h = xxh_merge(h, v1);
    h = xxh_merge(h, v2);
    h = xxh_merge(h, v3);
    h = xxh_merge(h, v4);
  } else {
    h = seed + kP5;
  }
  h += static_cast<std::uint64_t>(n);
  for (; left >= 8; left -= 8, p += 8)
    h = rotl(h ^ xxh_round(0, load64(p)), 27) * kP1 + kP4;
  if (left >= 4) {
    h = rotl(h ^ (load32(p) * kP1), 23) * kP2 + kP3;
    left -= 4;
    p += 4;
  }
  for (; left > 0; --left, ++p) h = rotl(h ^ (*p * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

SpillStore::SpillStore(const Options& opt)
    : dir_(make_store_dir(opt.dir)), budget_(opt.budget_bytes) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("SpillStore: cannot create spill directory '" +
                             dir_ + "': " + ec.message());
  }
  const int writers = std::max(1, opt.io_threads);
  threads_.reserve(writers + 1);
  for (int t = 0; t < writers; ++t)
    threads_.emplace_back([this] { writer_main(); });
  threads_.emplace_back([this] { prefetch_main(); });
}

SpillStore::~SpillStore() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    work_cv_.notify_all();
    fetch_cv_.notify_all();
    cv_.notify_all();
  }
  for (std::thread& t : threads_) t.join();
  // Discharge the accounting of every payload still resident; the Matrix
  // objects themselves belong to the factorization and outlive the store.
  std::uint64_t resident = 0;
  for (const Slot& s : slots_)
    if (s.state != State::kSpilled) resident += s.bytes;
  blockmem::discharge(resident);
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);  // best effort; nothing to throw into
}

void SpillStore::throw_if_failed() const {
  if (!error_.empty()) throw std::runtime_error(error_);
}

void SpillStore::fail(const std::string& what) {
  if (error_.empty()) error_ = what;  // first failure wins; the rest follow it
  cv_.notify_all();
  work_cv_.notify_all();
  fetch_cv_.notify_all();
}

template <class T>
SpillStore::SlotId SpillStore::adopt_impl(MatrixT<T>* block, std::string name) {
  assert(block != nullptr && !block->empty());
  const std::uint64_t bytes = sizeof(T) *
                              static_cast<std::uint64_t>(block->rows()) *
                              static_cast<std::uint64_t>(block->cols());
  std::unique_lock<std::mutex> lk(mu_);
  throw_if_failed();
  const SlotId id = static_cast<SlotId>(slots_.size());
  Slot s;
  if constexpr (std::is_same_v<T, float>) {
    s.blockf = block;
  } else {
    s.block = block;
  }
  s.rows = block->rows();
  s.cols = block->cols();
  s.bytes = bytes;
  s.name = std::move(name);
  slots_.push_back(std::move(s));
  st_.blocks += 1;
  st_.block_bytes += bytes;
  st_.max_block_bytes = std::max(st_.max_block_bytes, bytes);
  blockmem::charge(bytes);  // the caller dropped its own accounting first
  st_.resident_bytes += bytes;
  st_.peak_resident_bytes = std::max(st_.peak_resident_bytes, st_.resident_bytes);
  write_q_.push_back(id);
  work_cv_.notify_one();
  // Push residency back down toward the budget before accepting more: wait
  // for the writers while anything is still in flight, then sweep whatever
  // became evictable. Past that point the overshoot is blocks that cannot be
  // dropped yet (pinned, or this one while larger than the whole budget).
  while (true) {
    evict_toward(budget_, /*sweep=*/false);
    if (st_.resident_bytes <= budget_) break;
    const bool pending =
        !write_q_.empty() ||
        std::any_of(slots_.begin(), slots_.end(), [](const Slot& sl) {
          return sl.state == State::kWriting || sl.state == State::kReading;
        });
    if (!pending) {
      evict_toward(budget_, /*sweep=*/true);
      break;
    }
    cv_.wait(lk);
    throw_if_failed();
  }
  return id;
}

SpillStore::SlotId SpillStore::adopt(Matrix* block, std::string name) {
  return adopt_impl(block, std::move(name));
}

SpillStore::SlotId SpillStore::adopt(MatrixF* block, std::string name) {
  return adopt_impl(block, std::move(name));
}

void SpillStore::seal(std::vector<std::vector<SlotId>> steps) {
  std::unique_lock<std::mutex> lk(mu_);
  while ((!write_q_.empty() ||
          std::any_of(slots_.begin(), slots_.end(),
                      [](const Slot& s) { return s.state == State::kWriting; })) &&
         error_.empty())
    cv_.wait(lk);
  throw_if_failed();
  steps_ = std::move(steps);
  sealed_ = true;
  cursor_ = -1;
  // Adoption is over: from here on the high-water marks measure the serve
  // phase, where the budget is enforceable (see SpillStats for the bound).
  st_.peak_resident_bytes = st_.resident_bytes;
  st_.peak_pinned_bytes = pinned_bytes_;
  fetch_cv_.notify_all();
}

void SpillStore::quiesce() {
  std::unique_lock<std::mutex> lk(mu_);
  while ((!write_q_.empty() ||
          std::any_of(slots_.begin(), slots_.end(),
                      [](const Slot& s) { return s.state == State::kWriting; })) &&
         error_.empty())
    cv_.wait(lk);
  throw_if_failed();
}

void SpillStore::evict_one(SlotId id) {
  Slot& s = slots_[id];
  assert(s.state == State::kClean && s.pins == 0);
  if (s.block != nullptr) {
    Matrix dead = std::move(*s.block);
    *s.block = Matrix();
    BlockPool::global().recycle(std::move(dead));
  } else {
    MatrixF dead = std::move(*s.blockf);
    *s.blockf = MatrixF();
    BlockPool::global().recycle(std::move(dead));
  }
  s.state = State::kSpilled;
  s.prefetched = false;
  st_.resident_bytes -= s.bytes;
  st_.evictions += 1;
  st_.evicted_bytes += s.bytes;
  blockmem::discharge(s.bytes);
}

void SpillStore::evict_toward(std::uint64_t target, bool sweep) {
  while (st_.resident_bytes > target && !evict_q_.empty()) {
    const SlotId id = evict_q_.front();
    evict_q_.pop_front();
    Slot& s = slots_[id];  // entries are lazily validated: skip stale ones
    if (s.state == State::kClean && s.pins == 0 && !s.prefetched) evict_one(id);
  }
  if (st_.resident_bytes <= target || !sweep) return;
  // The queue ran dry: scan for anything unpinned, spending blocks that were
  // read ahead of the cursor only as a last resort (a policy mistake here
  // costs a re-read, never correctness).
  for (int pass = 0; pass < 2 && st_.resident_bytes > target; ++pass) {
    for (SlotId id = 0;
         id < static_cast<SlotId>(slots_.size()) && st_.resident_bytes > target;
         ++id) {
      Slot& s = slots_[id];
      if (s.state == State::kClean && s.pins == 0 &&
          (pass == 1 || !s.prefetched))
        evict_one(id);
    }
  }
}

bool SpillStore::evict_farthest_after(int step) {
  SlotId victim = kNoSlot;
  bool victim_stale = false;
  int victim_use = step;
  for (SlotId id = 0; id < static_cast<SlotId>(slots_.size()); ++id) {
    Slot& s = slots_[id];
    if (s.state != State::kClean || s.pins != 0) continue;
    if (s.plan_gen != plan_gen_) {
      // No upcoming use in the last planning walk: the ideal victim.
      if (!victim_stale) {
        victim = id;
        victim_stale = true;
      }
    } else if (!victim_stale && s.next_use > victim_use) {
      victim = id;
      victim_use = s.next_use;
    }
  }
  if (victim == kNoSlot) return false;
  evict_one(victim);
  return true;
}

void SpillStore::pin_slot(SlotId id) {
  Slot& s = slots_[id];
  if (s.pins++ == 0) {
    pinned_bytes_ += s.bytes;
    st_.peak_pinned_bytes = std::max(st_.peak_pinned_bytes, pinned_bytes_);
  }
  s.prefetched = false;
}

void SpillStore::unpin_slot(SlotId id) {
  Slot& s = slots_[id];
  assert(s.pins > 0);
  if (--s.pins > 0) return;
  pinned_bytes_ -= s.bytes;
  if (s.state == State::kClean) evict_q_.push_back(id);
}

void SpillStore::read_required(std::unique_lock<std::mutex>& lk, SlotId id) {
  Slot& s = slots_[id];
  assert(s.state == State::kSpilled);
  if (s.read_queued) {
    // The planner scheduled this read and no IO thread has started it: run
    // it here instead of waiting its turn, keeping the planner's reservation
    // until the bytes land.
    s.read_queued = false;
    const auto it = std::find(read_q_.begin(), read_q_.end(), id);
    assert(it != read_q_.end());
    read_q_.erase(it);
  } else {
    reserved_read_bytes_ += s.bytes;
  }
  // Make room for everything reserved, this read included: FIFO leftovers
  // first (sparing read-ahead blocks), then residents farthest from their
  // next use, then — a sweep without a turn leaves read-ahead behind the
  // shared cursor that Belady's rule cannot rank — any unpinned resident.
  const std::uint64_t target =
      reserved_read_bytes_ > budget_ ? 0 : budget_ - reserved_read_bytes_;
  evict_toward(target, /*sweep=*/false);
  while (st_.resident_bytes > target && evict_farthest_after(cursor_)) {
  }
  evict_toward(target, /*sweep=*/true);
  // Still over: every resident block is pinned. Read-ahead nobody has
  // started yields its reservation, latest in plan order first; queued reads
  // of pinned blocks stay, a sweep needs them now. Past this point the read
  // overshoots only by bytes the sweeps hold pinned (see SpillStats).
  for (auto it = read_q_.end();
       st_.resident_bytes + reserved_read_bytes_ > budget_ &&
       it != read_q_.begin();) {
    Slot& q = slots_[*--it];
    if (q.pins > 0) continue;
    q.read_queued = false;
    reserved_read_bytes_ -= q.bytes;
    it = read_q_.erase(it);
  }
  read_slot(lk, id, /*required=*/true);
}

void SpillStore::ensure_resident(std::unique_lock<std::mutex>& lk, SlotId id) {
  while (true) {
    throw_if_failed();
    switch (slots_[id].state) {
      case State::kQueued:
      case State::kWriting:
      case State::kClean:
        return;
      case State::kReading:
        cv_.wait(lk);  // another thread's read of this block is in flight
        break;
      case State::kSpilled:
        read_required(lk, id);
        return;
    }
  }
}

void SpillStore::acquire_step(int step) {
  std::unique_lock<std::mutex> lk(mu_);
  throw_if_failed();
  assert(sealed_ && step >= 0 && step < static_cast<int>(steps_.size()));
  cursor_ = step;
  draining_ = false;
  fetch_cv_.notify_all();
  // Pin the whole step before reading any of it, so a block this sweep
  // already needs cannot be evicted to make room for a later one of the same
  // step. What is resident now arrived in time; everything else stalls.
  std::vector<SlotId> late;
  for (const SlotId id : steps_[step]) {
    if (id == kNoSlot) continue;
    pin_slot(id);
    const Slot& s = slots_[id];
    if (s.state == State::kSpilled || s.state == State::kReading) {
      late.push_back(id);
    } else {
      st_.step_ready += 1;
      st_.step_hits += 1;
    }
  }
  // Read every late block still on disk before waiting on any read in
  // flight, starting from the step's far end: the IO threads pop the read
  // queue from its front, which holds this step's near end, so the two
  // meet in the middle instead of the sweep queueing behind them.
  for (auto it = late.rbegin(); it != late.rend(); ++it) {
    throw_if_failed();
    const Slot& s = slots_[*it];
    if (s.state != State::kSpilled) continue;  // an IO thread picked it up
    if (s.read_queued) {
      st_.step_taken_over += 1;
      st_.step_hits += 1;
    } else {
      st_.step_misses += 1;
    }
    read_required(lk, *it);
    *it = kNoSlot;  // counted
  }
  for (const SlotId id : late) {
    if (id == kNoSlot) continue;
    st_.step_waited += 1;
    st_.step_hits += 1;
    ensure_resident(lk, id);
  }
}

void SpillStore::release_step(int step) {
  std::lock_guard<std::mutex> lk(mu_);
  assert(sealed_ && step >= 0 && step < static_cast<int>(steps_.size()));
  for (const SlotId id : steps_[step])
    if (id != kNoSlot) unpin_slot(id);
  evict_toward(budget_, /*sweep=*/false);
  schedule_reads();
  cv_.notify_all();
  fetch_cv_.notify_all();
}

SpillStore::Pass::Pass(SpillStore& store, bool wait_turn)
    : store_(&store), turn_(wait_turn) {
  std::unique_lock<std::mutex> lk(store_->mu_);
  if (turn_) {
    const std::uint64_t ticket = store_->turns_issued_++;
    store_->turn_cv_.wait(lk, [&] { return store_->turn_now_ == ticket; });
  }
  store_->cursor_ = -1;
  store_->draining_ = false;
  store_->fetch_cv_.notify_all();
}

SpillStore::Pass::~Pass() {
  if (held_ >= 0) store_->release_step(held_);
  if (!turn_) return;
  std::lock_guard<std::mutex> lk(store_->mu_);
  store_->turn_now_ += 1;
  store_->turn_cv_.notify_all();
}

void SpillStore::Pass::advance(int step) {
  if (held_ >= 0) store_->release_step(held_);
  held_ = -1;  // if acquire throws, the dtor must not double-release
  store_->acquire_step(step);
  held_ = step;
}

void SpillStore::pin(const std::vector<SlotId>& ids) {
  std::unique_lock<std::mutex> lk(mu_);
  throw_if_failed();
  for (const SlotId id : ids) {
    if (id == kNoSlot) continue;
    pin_slot(id);
    ensure_resident(lk, id);
  }
}

void SpillStore::unpin(const std::vector<SlotId>& ids) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const SlotId id : ids)
    if (id != kNoSlot) unpin_slot(id);
  evict_toward(budget_, /*sweep=*/false);
  cv_.notify_all();
  fetch_cv_.notify_all();
}

void SpillStore::fetch_all() {
  std::unique_lock<std::mutex> lk(mu_);
  draining_ = false;
  for (SlotId id = 0; id < static_cast<SlotId>(slots_.size()); ++id)
    ensure_resident(lk, id);
}

void SpillStore::drop_all() {
  std::unique_lock<std::mutex> lk(mu_);
  draining_ = true;  // pause the planner until the next pass begins
  // Void the scheduled reads wholesale: the workers skip stale entries, but
  // draining must not wait on reads that would be dropped right back.
  for (const SlotId id : read_q_) {
    slots_[id].read_queued = false;
    reserved_read_bytes_ -= slots_[id].bytes;
  }
  read_q_.clear();
  while (error_.empty()) {
    const bool pending =
        !write_q_.empty() ||
        std::any_of(slots_.begin(), slots_.end(), [](const Slot& s) {
          return s.state == State::kWriting || s.state == State::kReading;
        });
    if (!pending) break;
    cv_.wait(lk);
  }
  throw_if_failed();
  for (SlotId id = 0; id < static_cast<SlotId>(slots_.size()); ++id) {
    Slot& s = slots_[id];
    if (s.state == State::kClean && s.pins == 0) evict_one(id);
  }
}

void SpillStore::set_budget(std::uint64_t budget_bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  budget_ = budget_bytes;
  evict_toward(budget_, /*sweep=*/false);
  fetch_cv_.notify_all();
}

SpillStats SpillStore::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  SpillStats out = st_;
  out.budget_bytes = budget_;
  return out;
}

std::string SpillStore::file_path(SlotId id) const {
  return dir_ + "/blk-" + std::to_string(id) + ".bin";
}

const std::string& SpillStore::directory() const { return dir_; }

void SpillStore::fail_next_writes_for_testing(int n) {
  std::lock_guard<std::mutex> lk(mu_);
  inject_write_failures_ = n;
}

// ---------------------------------------------------------------------------
// Background threads and the file format.
// ---------------------------------------------------------------------------

void SpillStore::writer_main() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    if ((write_q_.empty() && read_q_.empty()) || !error_.empty()) {
      work_cv_.wait(lk);
      continue;
    }
    if (!write_q_.empty()) {
      const SlotId id = write_q_.front();
      write_q_.pop_front();
      write_slot(lk, id);
      continue;
    }
    // No writes pending: execute a planner-scheduled prefetch read under the
    // reservation the planner took for it.
    const SlotId id = read_q_.front();
    read_q_.pop_front();
    Slot& s = slots_[id];
    s.read_queued = false;
    if (s.state != State::kSpilled || draining_) {
      // A demand read got here first, or the pass is being drained; the
      // schedule entry is stale.
      reserved_read_bytes_ -= s.bytes;
      fetch_cv_.notify_all();
      continue;
    }
    try {
      read_slot(lk, id, /*required=*/false);
    } catch (const std::exception&) {
      // Recorded by fail(); every store entry point rethrows it.
    }
  }
}

void SpillStore::write_slot(std::unique_lock<std::mutex>& lk, SlotId id) {
  slots_[id].state = State::kWriting;
  // Everything the unlocked section needs is copied out: slots_ may grow
  // (invalidating references) while the lock is dropped.
  const std::string path = file_path(id);
  // Payload address stable while kWriting, whichever precision the slot holds.
  const void* data = slots_[id].block != nullptr
                         ? static_cast<const void*>(slots_[id].block->data())
                         : static_cast<const void*>(slots_[id].blockf->data());
  const int rows = slots_[id].rows, cols = slots_[id].cols;
  const std::uint64_t bytes = slots_[id].bytes;
  const std::string name = slots_[id].name;
  bool inject = false;
  if (inject_write_failures_ > 0) {
    --inject_write_failures_;
    inject = true;
  }
  lk.unlock();

  std::string err;
  {
    FileHeader h{};
    std::memcpy(h.magic, kMagic, sizeof(h.magic));
    h.version = kVersion;
    h.slot = static_cast<std::uint32_t>(id);
    h.rows = rows;
    h.cols = cols;
    h.payload_bytes = bytes;
    h.checksum = xxh64(data, bytes);
    FileCloser fc{std::fopen(path.c_str(), "wb")};
    if (fc.f == nullptr) {
      err = std::string("cannot open for writing: ") + std::strerror(errno);
    } else if (std::fwrite(&h, sizeof(h), 1, fc.f) != 1) {
      err = "header write failed";
    } else if (inject) {
      // Simulated ENOSPC: a partial payload lands on disk, then the write
      // fails — exactly the state a full disk leaves behind.
      std::fwrite(data, 1, bytes / 2, fc.f);
      err = "No space left on device (injected fault)";
    } else if (std::fwrite(data, 1, bytes, fc.f) != bytes) {
      err = std::string("payload write failed: ") + std::strerror(errno);
    }
  }

  lk.lock();
  if (!err.empty()) {
    fail("SpillStore: spill write failed for spill file " + path + " (block " +
         name + ", " + std::to_string(rows) + "x" + std::to_string(cols) +
         "): " + err);
    return;
  }
  Slot& s = slots_[id];
  s.state = State::kClean;
  st_.spilled_blocks += 1;
  st_.spilled_bytes += bytes;
  if (s.pins == 0) evict_q_.push_back(id);
  cv_.notify_all();
  fetch_cv_.notify_all();
}

void SpillStore::read_slot(std::unique_lock<std::mutex>& lk, SlotId id,
                           bool required) {
  slots_[id].state = State::kReading;
  slots_[id].prefetched = !required;
  const std::string path = file_path(id);
  const bool is_f32 = slots_[id].blockf != nullptr;
  const int rows = slots_[id].rows, cols = slots_[id].cols;
  const std::uint64_t bytes = slots_[id].bytes;
  const std::string name = slots_[id].name;
  if (required) {
    st_.faults += 1;
    st_.fault_bytes += bytes;
  } else {
    st_.prefetches += 1;
    st_.prefetch_bytes += bytes;
  }
  lk.unlock();

  std::string err;
  Matrix m;
  MatrixF mf;
  void* dst = nullptr;
  if (is_f32) {
    mf = BlockPool::global().makef(rows, cols);
    dst = mf.data();
  } else {
    m = BlockPool::global().make(rows, cols);
    dst = m.data();
  }
  {
    FileHeader h{};
    FileCloser fc{std::fopen(path.c_str(), "rb")};
    if (fc.f == nullptr) {
      err = std::string("cannot open for reading: ") + std::strerror(errno);
    } else if (std::fread(&h, sizeof(h), 1, fc.f) != 1) {
      err = "truncated spill file (header short)";
    } else if (std::memcmp(h.magic, kMagic, sizeof(h.magic)) != 0 ||
               h.version != kVersion) {
      err = "corrupt spill file (bad magic/version)";
    } else if (h.slot != static_cast<std::uint32_t>(id) || h.rows != rows ||
               h.cols != cols || h.payload_bytes != bytes) {
      err = "corrupt spill file (header does not match block)";
    } else {
      const std::size_t got = std::fread(dst, 1, bytes, fc.f);
      if (got != bytes) {
        err = "truncated spill file (expected " + std::to_string(bytes) +
              " payload bytes, got " + std::to_string(got) + ")";
      } else if (xxh64(dst, bytes) != h.checksum) {
        err = "checksum mismatch (corrupt spill file)";
      }
    }
  }

  lk.lock();
  reserved_read_bytes_ -= bytes;  // resident below, or never
  fetch_cv_.notify_all();
  if (!err.empty()) {
    const std::string msg = "SpillStore: spill read failed for spill file " +
                            path + " (block " + name + ", " +
                            std::to_string(rows) + "x" + std::to_string(cols) +
                            "): " + err;
    fail(msg);
    throw std::runtime_error(msg);
  }
  Slot& s = slots_[id];
  if (is_f32) {
    *s.blockf = std::move(mf);
  } else {
    *s.block = std::move(m);
  }
  s.state = State::kClean;
  blockmem::charge(bytes);
  st_.resident_bytes += bytes;
  st_.peak_resident_bytes = std::max(st_.peak_resident_bytes, st_.resident_bytes);
  cv_.notify_all();
}

void SpillStore::schedule_reads() {
  // The planning pass: walk the sealed plan ahead of the sweep cursor in step
  // order, reserving resident budget and queueing cold blocks for the IO
  // threads to read. Planning stops at the first block the budget cannot
  // cover (scheduling out of plan order would let a far-future block squat on
  // budget the very next step needs). Runs on the planner thread whenever
  // budget or the cursor moves, and synchronously inside release_step so
  // freshly freed budget flows into the next steps' reads before the sweep
  // can acquire them.
  if (!sealed_ || draining_ || !error_.empty()) return;
  // Stamp every slot's earliest upcoming use with this walk's generation:
  // eviction ranks residents by it (Belady), and a stale stamp means the
  // block is never read again this pass.
  ++plan_gen_;
  for (int s = cursor_ + 1; s < static_cast<int>(steps_.size()); ++s) {
    for (const SlotId id : steps_[s]) {
      if (id == kNoSlot) continue;
      Slot& sl = slots_[id];
      if (sl.plan_gen != plan_gen_) {
        sl.plan_gen = plan_gen_;
        sl.next_use = s;
      }
    }
  }
  bool scheduled = false, full = false;
  for (int s = cursor_ + 1; !full && s < static_cast<int>(steps_.size());
       ++s) {
    for (const SlotId id : steps_[s]) {
      if (id == kNoSlot) continue;
      Slot& sl = slots_[id];
      // A block of an upcoming step that is already resident (an adoption
      // leftover, or carried over from an earlier step) is as valuable as
      // one read ahead: flag it so the FIFO eviction path cannot spend
      // it — that would trade a certain re-read for a speculative one.
      if (sl.state == State::kClean) sl.prefetched = true;
      if (sl.state != State::kSpilled || sl.read_queued) continue;
      const std::uint64_t need = reserved_read_bytes_ + sl.bytes;
      // Make room with past-step leftovers first, then residents whose
      // next use lies beyond this step — never pinned blocks or blocks
      // this very window still needs.
      if (need <= budget_) evict_toward(budget_ - need, /*sweep=*/false);
      while (st_.resident_bytes + need > budget_ && evict_farthest_after(s)) {
      }
      if (st_.resident_bytes + need > budget_) {
        full = true;
        break;
      }
      sl.read_queued = true;
      reserved_read_bytes_ += sl.bytes;
      read_q_.push_back(id);
      scheduled = true;
    }
  }
  if (scheduled) work_cv_.notify_all();
}

void SpillStore::prefetch_main() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    schedule_reads();
    fetch_cv_.wait(lk);
  }
}

}  // namespace h2
