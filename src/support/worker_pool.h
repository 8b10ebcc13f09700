#ifndef HPCMIXP_SUPPORT_WORKER_POOL_H_
#define HPCMIXP_SUPPORT_WORKER_POOL_H_

/**
 * @file
 * Pre-forked sandbox worker pool (DESIGN.md, Sections 13 and 15),
 * plus the sandbox vocabulary the isolation modes share: which mode
 * runs an evaluation (IsolationMode) and how a sandboxed child
 * terminated (ChildExit).
 *
 * A WorkerPool runs a handler in forked children fed over per-worker
 * shared-memory job rings, so a handler that SIGSEGVs, aborts, spins
 * forever or exits is contained: the parent observes a classified
 * PoolOutcome instead of dying with the child. Workers come in two
 * lifetimes, chosen at construction:
 *
 *  - Persistent (isolation = pool): N long-lived children are forked
 *    once, in the constructor. One job then costs a ring write plus an
 *    eventfd doorbell kick instead of a process spawn, and each worker
 *    keeps its process-local caches (prepared inputs, thread-local
 *    workspaces) warm across the jobs it serves.
 *  - OneJob (isolation = fork): a worker is forked when a job acquires
 *    its slot, serves that one job and exits, and the parent reaps it
 *    before run() returns. Every job runs in a fresh process that sees
 *    the parent's memory as of the dispatch.
 *
 * Per worker the parent owns:
 *
 *     job ring     (ShmArena)  parent commits [op | job bytes]
 *     result ring  (ShmArena)  child commits  [status | result bytes]
 *     job doorbell (eventfd)   parent kicks, child blocks on read()
 *     done doorbell (eventfd)  child kicks after committing a result
 *     pidfd                    polled for child death and deadlines
 *
 * Both rings use the ShmArena commit protocol — magic, capacity,
 * payload size, FNV-1a checksum, then an atomic state flip as the last
 * store — so a reader on either side of the process boundary sees a
 * complete checksummed message or nothing, never a torn one.
 *
 * A handler that crashes, spins past the deadline or _exit()s takes
 * only its worker with it: the parent kills it on the deadline,
 * classifies the death with the ChildExit taxonomy and reaps the
 * corpse. A persistent slot is re-forked at once on the same rings and
 * doorbells (the shared mappings and parent-side eventfds survive the
 * child), so the pool's file descriptor count is constant for the life
 * of the pool; a one-job slot is forked again by the next job that
 * acquires it. A handler that merely throws is contained in-worker
 * (status kChildBodyThrew), and a persistent worker keeps serving.
 * Workers _exit() — never exit() — so no atexit handlers run and no
 * stdio buffers inherited from the parent are flushed twice.
 *
 * run() hands each job to the lowest-indexed free worker, which keeps
 * dispatch order deterministic for single-threaded submitters; callers
 * that dispatch from several threads block on a condition variable
 * until a worker frees up.
 */

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <sys/types.h>

namespace hpcmixp::support {

/** Where an evaluation attempt executes (harness --isolation). */
enum class IsolationMode {
    None, ///< in the tuner process (the historical behavior)
    Fork, ///< in a fresh one-job WorkerPool worker per attempt
    Pool, ///< on a persistent pre-forked WorkerPool worker
};

/** Parse "none" / "fork" / "pool"; throws FatalError on anything else. */
IsolationMode parseIsolationMode(const std::string& text);

/** Canonical name of an IsolationMode ("none", "fork", "pool"). */
const char* isolationModeName(IsolationMode mode);

/** How a sandboxed child terminated. */
enum class ChildExit {
    Clean,            ///< _exit(0)
    NonZeroExit,      ///< _exit(code != 0)
    Signaled,         ///< killed by a signal it raised (SIGSEGV, abort)
    KilledOnDeadline, ///< SIGKILLed by the parent at the deadline
    SpawnFailed,      ///< fork() itself failed; no child ran
};

/** Canonical name of a ChildExit ("clean", "nonzero_exit", ...). */
const char* childExitName(ChildExit exit);

/** Exit status a sandboxed child reports when its job throws. */
inline constexpr int kChildBodyThrew = 61;

/**
 * Open a pidfd for @p pid (pidfd_open(2)), or -1 when the kernel does
 * not support it. A pidfd polls readable once the process exits, which
 * lets a parent sleep in poll() until exactly the child's death or a
 * deadline — no reap-poll wakeups. The caller owns the descriptor.
 */
int pidfdOpen(pid_t pid);

/** How long a WorkerPool worker lives. */
enum class WorkerLifetime {
    Persistent, ///< forked up front, serves jobs until the pool stops
    OneJob,     ///< forked when a job acquires it, exits after that job
};

/** Classified outcome of one WorkerPool::run() dispatch. */
struct PoolOutcome {
    /** Clean means the worker committed a result envelope; NonZeroExit
     *  with detail kChildBodyThrew means the handler threw (contained
     *  in-worker); other NonZeroExit / Signaled / KilledOnDeadline /
     *  SpawnFailed mean the worker died serving this job (or could not
     *  be forked at all). */
    ChildExit exit = ChildExit::Clean;

    /** Exit code (NonZeroExit), terminating signal number (Signaled,
     *  KilledOnDeadline), or errno (SpawnFailed); 0 otherwise. */
    int detail = 0;

    /** Parent wall clock from dispatch to classified completion. */
    double wallSeconds = 0.0;

    /** True when the caller's result buffer holds a checksum-valid
     *  handler result of exactly the requested size. */
    bool resultValid = false;
};

/** Pool-lifetime accounting. */
struct WorkerPoolStats {
    std::size_t forks = 0;      ///< fork() calls: spawns + respawns
    std::size_t dispatched = 0; ///< jobs handed to a worker
    std::size_t respawns = 0;   ///< persistent workers re-forked after a death
    std::size_t spawnFailures = 0; ///< fork() failures (spawn or respawn)
};

/** N sandbox worker slots fed over shared-memory job rings. */
class WorkerPool {
  public:
    /**
     * Job handler, executed inside a worker child. Receives the job
     * bytes, writes up to @p resultCapacity result bytes into
     * @p result and returns how many it wrote. A thrown exception is
     * contained in-worker and surfaces to run() as NonZeroExit with
     * detail kChildBodyThrew. A persistent worker is forked in the
     * constructor and never sees parent memory created afterwards, so
     * anything its handler touches must exist by then; a one-job
     * worker sees the parent's memory as of the dispatch.
     */
    using Handler = std::function<std::size_t(
        const void* job, std::size_t jobSize, void* result,
        std::size_t resultCapacity)>;

    /**
     * Set up @p workers slots ready to run @p handler on jobs of up to
     * @p jobCapacity bytes producing up to @p resultCapacity result
     * bytes. @p workers must be >= 1. Persistent workers are forked
     * here; one-job workers are forked by run().
     */
    WorkerPool(std::size_t workers, std::size_t jobCapacity,
               std::size_t resultCapacity, Handler handler,
               WorkerLifetime lifetime = WorkerLifetime::Persistent);

    /** Stops every worker (stop op + doorbell, SIGKILL stragglers),
     *  reaps them all and closes every descriptor. */
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /**
     * Dispatch one job and block until it completes, the worker dies,
     * or @p deadlineSeconds expires (<= 0 waits forever; on expiry the
     * worker is SIGKILLed and reported KilledOnDeadline). On Clean
     * completion the handler's result is copied into @p result when
     * its size is exactly @p resultSize — resultValid says whether it
     * was. A worker that died or served its one job is reaped before
     * run() returns, and a dead persistent worker is re-forked; a slot
     * whose fork fails is retried by the next dispatch, and only when
     * no worker can be spawned at all does run() report SpawnFailed.
     * The parent sleeps in poll() throughout: waiting on a slow job
     * burns no CPU.
     */
    PoolOutcome run(const void* job, std::size_t jobSize, void* result,
                    std::size_t resultSize, double deadlineSeconds);

    /** Number of worker slots (fixed at construction). */
    std::size_t workerCount() const { return workers_.size(); }

    /** Snapshot of the pool-lifetime accounting. */
    WorkerPoolStats stats() const;

    /** Current worker pids, by slot; -1 for a slot with no live
     *  worker. For tests that kill a worker mid-campaign. */
    std::vector<pid_t> workerPids() const;

  private:
    struct Worker;

    bool spawnLocked(Worker& w);
    void stopWorker(Worker& w);

    std::vector<std::unique_ptr<Worker>> workers_;
    Handler handler_;
    WorkerLifetime lifetime_;
    std::size_t jobCapacity_ = 0;
    std::size_t resultCapacity_ = 0;

    mutable std::mutex mutex_; ///< guards worker busy/alive + stats
    std::condition_variable freeCv_;
    WorkerPoolStats stats_;
};

} // namespace hpcmixp::support

#endif // HPCMIXP_SUPPORT_WORKER_POOL_H_
