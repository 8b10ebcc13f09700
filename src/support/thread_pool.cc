#include "support/thread_pool.h"

#include "support/logging.h"

namespace hpcmixp::support {

ThreadPool::ThreadPool(std::size_t workers)
{
    if (workers == 0) {
        workers = std::thread::hardware_concurrency();
        if (workers == 0)
            workers = 1;
    }
    queues_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        queues_.push_back(std::make_unique<WorkerQueue>());
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_)
        t.join();
}

std::future<void>
ThreadPool::submit(std::function<void()> job)
{
    std::packaged_task<void()> task(std::move(job));
    auto fut = task.get_future();

    // Deal round-robin onto a per-worker deque, touching only that
    // deque's lock. The global mutex is taken only when a worker is
    // actually asleep — while all workers are busy, submits and
    // completions proceed without ever contending on it.
    HPCMIXP_ASSERT(!stop_, "submit() on a stopped ThreadPool");
    const std::size_t idx = nextQueue_.fetch_add(
                                1, std::memory_order_relaxed) %
                            queues_.size();
    {
        std::lock_guard<std::mutex> qlock(queues_[idx]->mutex);
        queues_[idx]->jobs.push_back(std::move(task));
    }
    // The pending_ increment must be sequenced before the sleepers_
    // load (both seq_cst): either this submit sees the sleeper and
    // rings the bell, or the sleeper's pre-sleep re-check (under the
    // mutex) sees pending_ > 0 and never sleeps. No lost wakeups.
    // Any woken worker can run the job, stealing it if need be.
    pending_.fetch_add(1);
    if (sleepers_.load() > 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        cv_.notify_one();
    }
    return fut;
}

/**
 * Pop one task for worker @p self in one sweep: the front of its own
 * deque (the oldest dealt job, submission-order fair), else the back
 * of the first loaded sibling's deque (the opposite end, Chase–Lev
 * style, so a thief and the owner only collide on a deque holding one
 * job).
 */
bool
ThreadPool::popTask(std::size_t self, std::packaged_task<void()>& task)
{
    const std::size_t n = queues_.size();
    for (std::size_t k = 0; k < n; ++k) {
        WorkerQueue& queue = *queues_[(self + k) % n];
        std::lock_guard<std::mutex> lock(queue.mutex);
        if (queue.jobs.empty())
            continue;
        if (k == 0) {
            task = std::move(queue.jobs.front());
            queue.jobs.pop_front();
        } else {
            task = std::move(queue.jobs.back());
            queue.jobs.pop_back();
            steals_.fetch_add(1, std::memory_order_relaxed);
        }
        return true;
    }
    return false;
}

void
ThreadPool::workerLoop(std::size_t self)
{
    for (;;) {
        std::packaged_task<void()> task;
        if (popTask(self, task)) {
            pending_.fetch_sub(1);
            task();
            continue;
        }
        std::unique_lock<std::mutex> lock(mutex_);
        // Any worker can run anything still pending, so only a fully
        // drained pool lets a stopped worker exit.
        if (pending_.load() == 0 && stop_)
            return;
        if (pending_.load() > 0)
            continue; // a job landed (or is mid-claim): rescan
        sleepers_.fetch_add(1);
        cv_.wait(lock, [this] { return stop_ || pending_.load() > 0; });
        sleepers_.fetch_sub(1);
    }
}

} // namespace hpcmixp::support
