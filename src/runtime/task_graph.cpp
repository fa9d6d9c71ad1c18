#include "runtime/task_graph.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "runtime/block_pool.hpp"
#include "util/timer.hpp"

namespace h2 {

std::vector<double> bottom_levels(
    int n_tasks, const std::vector<std::vector<TaskId>>& successors,
    const std::vector<double>& durations, double per_task_overhead) {
  const auto succs_of = [&](int i) -> const std::vector<TaskId>& {
    static const std::vector<TaskId> kNone;
    return static_cast<std::size_t>(i) < successors.size()
               ? successors[static_cast<std::size_t>(i)]
               : kNone;
  };
  if (static_cast<int>(successors.size()) > n_tasks)
    throw std::invalid_argument("bottom_levels: more successor lists than tasks");
  std::vector<int> indeg(n_tasks, 0);
  for (int i = 0; i < n_tasks; ++i)
    for (const TaskId s : succs_of(i)) {
      if (s < 0 || s >= n_tasks)
        throw std::invalid_argument("bottom_levels: successor index out of range");
      ++indeg[s];
    }
  std::vector<int> order;
  order.reserve(n_tasks);
  for (int i = 0; i < n_tasks; ++i)
    if (indeg[i] == 0) order.push_back(i);
  for (std::size_t head = 0; head < order.size(); ++head)
    for (const TaskId s : succs_of(order[head]))
      if (--indeg[s] == 0) order.push_back(s);
  if (static_cast<int>(order.size()) != n_tasks)
    throw std::logic_error("bottom_levels: dependency cycle");

  std::vector<double> bl(n_tasks, 0.0);
  for (int k = n_tasks - 1; k >= 0; --k) {
    const int i = order[k];
    double tail = 0.0;
    for (const TaskId s : succs_of(i)) tail = std::max(tail, bl[s]);
    const double dur =
        static_cast<std::size_t>(i) < durations.size() ? durations[i] : 1.0;
    bl[i] = dur + per_task_overhead + tail;
  }
  return bl;
}

TaskId TaskGraph::add_task(std::function<void()> fn, std::string label,
                           int owner, int level) {
  const TaskId id = static_cast<TaskId>(tasks_.size());
  tasks_.push_back(std::move(fn));
  meta_.push_back({std::move(label), owner, level});
  successors_.emplace_back();
  n_predecessors_.push_back(0);
  priority_.push_back(0.0);
  out_bytes_.push_back(0.0);
  plan_.reset();
  return id;
}

void TaskGraph::set_out_bytes(TaskId id, double bytes) {
  assert(id >= 0 && id < n_tasks());
  out_bytes_[id] = bytes;
  out_bytes_set_.store(true, std::memory_order_release);
}

void TaskGraph::set_priority(TaskId id, double priority) {
  assert(id >= 0 && id < n_tasks());
  priority_[id] = priority;
  // Refinements on top of a structural policy keep its classification; only
  // hand-assigned priorities from scratch are "custom".
  if (std::string_view(priority_policy_) == "none") priority_policy_ = "custom";
  plan_.reset();
}

void TaskGraph::set_critical_path_priorities() {
  // Bottom levels on unit durations: priority = number of tasks on the
  // longest chain from here to the DAG's end. Task durations are unknown
  // before execution, and hop counts already give schur/merge drains their
  // head start (they sit on the cross-level spine).
  priority_ = bottom_levels(n_tasks(), successors_);
  priority_policy_ = "critical-path";
  plan_.reset();
}

void TaskGraph::add_dependency(TaskId before, TaskId after) {
  assert(before >= 0 && before < n_tasks() && after >= 0 && after < n_tasks());
  successors_[before].push_back(after);
  ++n_predecessors_[after];
  plan_.reset();
}

const TaskGraph::Plan& TaskGraph::plan() const {
  std::lock_guard<std::mutex> lk(plan_mu_);
  if (plan_ != nullptr) return *plan_;
  // Kahn's algorithm on the static structure, highest priority first among
  // the ready tasks (ties by id). Anything it cannot reach sits on (or
  // behind) a cycle and would deadlock execution.
  const int n = n_tasks();
  auto p = std::make_unique<Plan>();
  const auto runs_later = [this](TaskId a, TaskId b) {
    return priority_[a] != priority_[b] ? priority_[a] < priority_[b] : a > b;
  };
  std::priority_queue<TaskId, std::vector<TaskId>, decltype(runs_later)> ready(
      runs_later);
  std::vector<int> degree = n_predecessors_;
  for (TaskId i = 0; i < n; ++i)
    if (degree[i] == 0) ready.push(i);
  p->order.reserve(n);
  while (!ready.empty()) {
    const TaskId t = ready.top();
    ready.pop();
    p->order.push_back(t);
    for (const TaskId succ : successors_[t])
      if (--degree[succ] == 0) ready.push(succ);
  }
  if (static_cast<int>(p->order.size()) != n) {
    const int stuck = n - static_cast<int>(p->order.size());
    std::ostringstream msg;
    msg << "TaskGraph: dependency cycle — " << stuck << " of " << n
        << " tasks unexecutable (stuck:";
    int shown = 0;
    for (TaskId i = 0; i < n && shown < 4; ++i) {
      if (degree[i] <= 0) continue;
      msg << (shown ? ", " : " ");
      if (meta_[i].label.empty())
        msg << '#' << i;
      else
        msg << '\'' << meta_[i].label << "' (#" << i << ')';
      ++shown;
    }
    if (stuck > shown) msg << ", ...";
    msg << ')';
    throw std::logic_error(msg.str());
  }
  // Successors lowest priority FIRST (stable: insertion order on ties): a
  // finishing task releases its ready successors in this order, and on a
  // work-stealing pool each push lands on the worker's LIFO deque, so the
  // last push — the highest bottom level — is the task it pops next, while
  // thieves take the breadth end.
  p->succ_begin.resize(n + 1);
  for (TaskId t = 0; t < n; ++t) {
    p->succ_begin[t] = static_cast<int>(p->succ.size());
    const auto first = p->succ.insert(p->succ.end(), successors_[t].begin(),
                                      successors_[t].end());
    std::stable_sort(first, p->succ.end(), [this](TaskId a, TaskId b) {
      return priority_[a] < priority_[b];
    });
  }
  p->succ_begin[n] = static_cast<int>(p->succ.size());
  plan_ = std::move(p);
  return *plan_;
}

/// The mutable state of ONE execution: pending counters, trace records and
/// the completion signal. Lives on execute()'s stack, so concurrent
/// executions of one graph never share it.
struct TaskGraph::Run {
  Run(const TaskGraph& graph, const Plan& p,
      const std::function<void(TaskId)>& run, ExecStats& out)
      : g(graph), plan(p), body(run), stats(out) {}

  const TaskGraph& g;
  const Plan& plan;
  const std::function<void(TaskId)>& body;
  ExecStats& stats;
  ThreadPool* pool = nullptr;
  std::unique_ptr<std::atomic<int>[]> pending;
  std::atomic<int> remaining{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;

  void timed(TaskId id) {
    TaskRecord& rec = stats.records[id];
    rec.id = id;
    rec.worker = std::max(0, ThreadPool::worker_index());
    rec.owner = g.meta_[id].owner;
    rec.level = g.meta_[id].level;
    rec.label = g.meta_[id].label;
    rec.t_start = now_sec();
    body(id);
    rec.t_end = now_sec();
  }

  void submit(TaskId id) {
    pool->submit([this, id] { step(id); }, g.priority_[id]);
  }

  void step(TaskId id) {
    timed(id);
    for (int k = plan.succ_begin[id]; k < plan.succ_begin[id + 1]; ++k) {
      const TaskId succ = plan.succ[k];
      if (pending[succ].fetch_sub(1) == 1) submit(succ);
    }
    if (remaining.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lk(done_mu);
      done = true;
      done_cv.notify_all();
    }
  }
};

ExecStats TaskGraph::execute(ThreadPool& pool,
                             const std::function<void(TaskId)>& run) const {
  const Plan& p = plan();  // throws on cycles before any task runs
  const int n = n_tasks();

  ExecStats stats;
  stats.records.resize(n);
  stats.priority_policy = priority_policy_;
  Run r(*this, p, run, stats);

  // Block-byte measurement window (see ExecStats::peak_block_bytes).
  blockmem::reset_peak();
  const Timer wall;
  if (ThreadPool::current() == &pool) {
    stats.n_workers = 1;
    for (const TaskId id : p.order) r.timed(id);
  } else {
    stats.n_workers = pool.size();
    const std::vector<ThreadPool::WorkerCounters> counters0 =
        pool.worker_counters();
    r.pool = &pool;
    r.pending = std::make_unique<std::atomic<int>[]>(n);
    for (int i = 0; i < n; ++i) r.pending[i].store(n_predecessors_[i]);
    r.remaining.store(n);
    r.done = (n == 0);
    for (TaskId i = 0; i < n; ++i)
      if (n_predecessors_[i] == 0) r.submit(i);
    {
      std::unique_lock<std::mutex> lk(r.done_mu);
      r.done_cv.wait(lk, [&] { return r.done; });
    }
    const std::vector<ThreadPool::WorkerCounters> counters1 =
        pool.worker_counters();
    stats.worker_counters.resize(counters1.size());
    for (std::size_t w = 0; w < counters1.size(); ++w)
      stats.worker_counters[w] = {
          counters1[w].executed - counters0[w].executed,
          counters1[w].stolen - counters0[w].stolen};
  }
  stats.wall_seconds = wall.seconds();
  stats.peak_block_bytes = blockmem::peak();
  stats.live_block_bytes = blockmem::live();
  for (const auto& rec : stats.records) stats.useful_seconds += rec.duration();
  return stats;
}

ExecStats TaskGraph::execute(ThreadPool& pool) const {
  return execute(pool, [this](TaskId id) { tasks_[id](); });
}

ExecStats TaskGraph::execute(int n_threads) const {
  ThreadPool pool(n_threads);
  return execute(pool);
}

bool TaskGraph::write_trace_csv(const ExecStats& stats, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  if (*stats.priority_policy != '\0')
    f << "# priority=" << stats.priority_policy
      << " workers=" << stats.n_workers << '\n';
  for (std::size_t w = 0; w < stats.worker_counters.size(); ++w)
    f << "# worker=" << w
      << " executed=" << stats.worker_counters[w].executed
      << " stolen=" << stats.worker_counters[w].stolen << '\n';
  f << "task,label,owner,level,worker,t_start,t_end\n";
  double t0 = stats.records.empty() ? 0.0 : stats.records.front().t_start;
  for (const auto& r : stats.records) t0 = std::min(t0, r.t_start);
  for (const auto& r : stats.records)
    f << r.id << ',' << r.label << ',' << r.owner << ',' << r.level << ','
      << r.worker << ',' << (r.t_start - t0) << ',' << (r.t_end - t0) << '\n';
  return static_cast<bool>(f);
}

}  // namespace h2
