#ifndef HPCMIXP_SUPPORT_THREAD_POOL_H_
#define HPCMIXP_SUPPORT_THREAD_POOL_H_

/**
 * @file
 * Fixed-size thread pool with work-stealing scheduling.
 *
 * Substitutes for the paper's SLURM cluster scheduling: the harness
 * offloads each application/algorithm analysis job to a pool worker,
 * and SearchContext::evaluateBatch offloads in-search configuration
 * evaluations (DESIGN.md, Sections 2, 9 and 15).
 *
 * Jobs are dealt round-robin onto per-worker FIFO deques (replacing
 * the original single mutex-guarded queue, whose one lock every
 * submit and pop had to cross). A worker runs its own deque from the
 * front; once that is empty it raids the back of a loaded sibling's
 * deque (Chase–Lev ends: owner front, thief back, so they only collide
 * on a deque holding one job), so uneven job latencies never convoy
 * behind the unluckiest worker. The deques are mutex-per-deque rather
 * than lock-free — honest about what it is, trivially TSan-clean, and
 * each lock is touched by 1/N of the traffic the old global queue's
 * was.
 *
 * Result order never depends on which worker ran a job: submit()
 * returns a future per job, and callers that need deterministic
 * aggregation (e.g. evaluateBatch's commit-in-submission-order rule)
 * impose it when they harvest the futures. The destructor runs every
 * queued job, then joins the workers.
 */

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hpcmixp::support {

/** A fixed-size pool of worker threads executing queued jobs. */
class ThreadPool {
  public:
    /** Start @p workers threads (0 means hardware concurrency). */
    explicit ThreadPool(std::size_t workers);

    /** Run every queued job to completion, then join the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Enqueue a job; the future resolves when it completes. */
    std::future<void> submit(std::function<void()> job);

    /** Number of worker threads. */
    std::size_t workerCount() const { return threads_.size(); }

    /** Jobs executed by a thread other than the one whose deque they
     *  were dealt to. */
    std::size_t stealCount() const
    {
        return steals_.load(std::memory_order_relaxed);
    }

  private:
    /** One worker's deque; owner pops the front, thieves the back. */
    struct WorkerQueue {
        std::mutex mutex;
        std::deque<std::packaged_task<void()>> jobs;
    };

    void workerLoop(std::size_t self);
    bool popTask(std::size_t self, std::packaged_task<void()>& task);

    std::vector<std::thread> threads_;
    std::vector<std::unique_ptr<WorkerQueue>> queues_;

    std::mutex mutex_; ///< stop flag, sleep/wake
    std::condition_variable cv_;
    std::atomic<std::size_t> pending_{0}; ///< queued, not yet started
    std::atomic<std::size_t> sleepers_{0}; ///< workers waiting on cv_
    std::atomic<std::size_t> steals_{0};
    std::atomic<std::size_t> nextQueue_{0}; ///< round-robin dealer
    /// Written under mutex_; atomic so the lock-free submit fast path
    /// and sleep predicates may read it without the lock.
    std::atomic<bool> stop_{false};
};

} // namespace hpcmixp::support

#endif // HPCMIXP_SUPPORT_THREAD_POOL_H_
