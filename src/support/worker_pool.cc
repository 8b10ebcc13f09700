#include "support/worker_pool.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstring>

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/logging.h"
#include "support/shm_arena.h"
#include "support/timer.h"

namespace hpcmixp::support {

namespace {

/** Job-ring operations (first 4 payload bytes of the job arena). */
constexpr std::uint32_t kOpJob = 1;
constexpr std::uint32_t kOpStop = 2;

/** Grace period a stopping worker gets before SIGKILL. */
constexpr double kStopGraceSeconds = 2.0;

/** Longest single poll() slice while a deadline is armed; run()
 *  re-checks the deadline between slices, so a far (or infinite)
 *  deadline only costs a wakeup per slice. Keeps the milliseconds
 *  well inside int. */
constexpr double kMaxPollSliceSeconds = 3600.0;

void
writeDoorbell(int fd)
{
    const std::uint64_t one = 1;
    ssize_t n;
    do {
        n = ::write(fd, &one, sizeof one);
    } while (n < 0 && errno == EINTR);
}

/** Blocking doorbell read; returns false on EOF/error (fd closed). */
bool
readDoorbell(int fd)
{
    std::uint64_t ticks = 0;
    ssize_t n;
    do {
        n = ::read(fd, &ticks, sizeof ticks);
    } while (n < 0 && errno == EINTR);
    return n == static_cast<ssize_t>(sizeof ticks);
}

/** Drop any pending doorbell ticks (before re-forking a worker). */
void
drainDoorbell(int fd)
{
    std::uint64_t ticks = 0;
    // EFD_NONBLOCK is not set on these descriptors, so probe first.
    struct pollfd pfd = {fd, POLLIN, 0};
    while (::poll(&pfd, 1, 0) > 0 && (pfd.revents & POLLIN) != 0)
        if (::read(fd, &ticks, sizeof ticks) < 0 && errno != EINTR)
            break;
}

void
closeFd(int& fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

} // namespace

IsolationMode
parseIsolationMode(const std::string& text)
{
    if (text == "none") return IsolationMode::None;
    if (text == "fork") return IsolationMode::Fork;
    if (text == "pool") return IsolationMode::Pool;
    fatal(strCat("unknown isolation mode '", text,
                 "' (expected none, fork or pool)"));
}

const char*
isolationModeName(IsolationMode mode)
{
    switch (mode) {
      case IsolationMode::None: return "none";
      case IsolationMode::Fork: return "fork";
      case IsolationMode::Pool: return "pool";
    }
    panic("unreachable isolation mode");
}

const char*
childExitName(ChildExit exit)
{
    switch (exit) {
      case ChildExit::Clean: return "clean";
      case ChildExit::NonZeroExit: return "nonzero_exit";
      case ChildExit::Signaled: return "signaled";
      case ChildExit::KilledOnDeadline: return "killed_on_deadline";
      case ChildExit::SpawnFailed: return "spawn_failed";
    }
    panic("unreachable child exit class");
}

int
pidfdOpen(pid_t pid)
{
#ifdef SYS_pidfd_open
    return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0u));
#else
    (void)pid;
    errno = ENOSYS;
    return -1;
#endif
}

/**
 * One worker slot. The arenas and parent-side eventfds are created
 * once and survive worker deaths: a re-forked child inherits the same
 * MAP_SHARED pages and descriptor table entries, so respawning costs
 * one fork(), not a teardown-and-rebuild, and the pool's descriptor
 * footprint never changes after construction.
 */
struct WorkerPool::Worker {
    std::unique_ptr<ShmArena> jobRing;
    std::unique_ptr<ShmArena> resultRing;
    int jobFd = -1;  ///< parent -> child: a job (or stop) is committed
    int doneFd = -1; ///< child -> parent: a result is committed
    int pidFd = -1;  ///< polls readable when the child dies
    pid_t pid = -1;
    bool alive = false;
    bool busy = false;
};

WorkerPool::WorkerPool(std::size_t workers, std::size_t jobCapacity,
                       std::size_t resultCapacity, Handler handler,
                       WorkerLifetime lifetime)
    : handler_(std::move(handler)),
      lifetime_(lifetime),
      jobCapacity_(jobCapacity),
      resultCapacity_(resultCapacity)
{
    HPCMIXP_ASSERT(workers >= 1, "WorkerPool needs at least one worker");
    HPCMIXP_ASSERT(handler_ != nullptr, "WorkerPool needs a handler");
    workers_.reserve(workers);
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < workers; ++i) {
        auto w = std::make_unique<Worker>();
        w->jobRing = std::make_unique<ShmArena>(sizeof(std::uint32_t) +
                                                jobCapacity_);
        w->resultRing = std::make_unique<ShmArena>(
            sizeof(std::uint32_t) + resultCapacity_);
        w->jobFd = ::eventfd(0, 0);
        w->doneFd = ::eventfd(0, 0);
        if (w->jobFd < 0 || w->doneFd < 0)
            fatal(strCat("eventfd for sandbox worker ", i,
                         " failed: errno=", errno));
        workers_.push_back(std::move(w));
    }
    // Fork after every ring and doorbell exists, so each child
    // inherits all of its slot's machinery (and only ever touches its
    // own). A spawn failure here is not fatal: the slot retries on its
    // first dispatch and run() degrades to SpawnFailed only when no
    // slot can be brought up at all. One-job slots stay empty until a
    // job acquires them.
    if (lifetime_ == WorkerLifetime::Persistent)
        for (auto& w : workers_)
            spawnLocked(*w);
}

WorkerPool::~WorkerPool()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& w : workers_) {
        stopWorker(*w);
        closeFd(w->jobFd);
        closeFd(w->doneFd);
        closeFd(w->pidFd);
    }
}

/**
 * Fork one worker onto its (already existing) rings and doorbells.
 * Caller holds mutex_. Returns false when fork() fails; the slot is
 * left dead and the failure counted.
 */
bool
WorkerPool::spawnLocked(Worker& w)
{
    // A previous incumbent may have died between the parent's doorbell
    // kick and its own read(), leaving a stale tick (and a stale job)
    // behind; a fresh worker must start from silence.
    drainDoorbell(w.jobFd);
    drainDoorbell(w.doneFd);
    w.jobRing->reset();
    w.resultRing->reset();
    closeFd(w.pidFd);

    ++stats_.forks;
    const pid_t pid = ::fork();
    if (pid < 0) {
        ++stats_.spawnFailures;
        w.pid = -1;
        w.alive = false;
        return false;
    }
    if (pid == 0) {
        // Worker loop: block on the job doorbell, run the handler on
        // the committed job, commit [status | result] and ring back; a
        // one-job worker then exits. _exit, never exit: no atexit
        // handlers, no stdio flush of buffers inherited from the
        // parent.
        std::vector<unsigned char> job(sizeof(std::uint32_t) +
                                       jobCapacity_);
        std::vector<unsigned char> result(sizeof(std::uint32_t) +
                                          resultCapacity_);
        for (;;) {
            if (!readDoorbell(w.jobFd))
                ::_exit(0); // parent closed the doorbell: shut down
            const std::size_t jobBytes = w.jobRing->payloadSize();
            if (jobBytes < sizeof(std::uint32_t) ||
                !w.jobRing->read(job.data(), jobBytes))
                ::_exit(kChildBodyThrew); // torn job: unservable
            std::uint32_t op;
            std::memcpy(&op, job.data(), sizeof op);
            if (op == kOpStop)
                ::_exit(0);
            std::uint32_t status = 0;
            std::size_t written = 0;
            try {
                written = handler_(job.data() + sizeof op,
                                   jobBytes - sizeof op,
                                   result.data() + sizeof status,
                                   resultCapacity_);
            } catch (...) {
                status = static_cast<std::uint32_t>(kChildBodyThrew);
                written = 0;
            }
            if (written > resultCapacity_) {
                status = static_cast<std::uint32_t>(kChildBodyThrew);
                written = 0;
            }
            std::memcpy(result.data(), &status, sizeof status);
            w.resultRing->commit(result.data(), sizeof status + written);
            writeDoorbell(w.doneFd);
            if (lifetime_ == WorkerLifetime::OneJob)
                ::_exit(0);
        }
    }

    w.pid = pid;
    w.pidFd = pidfdOpen(pid);
    w.alive = true;
    return true;
}

/**
 * Ask one worker to stop (stop op + doorbell), wait out the grace
 * period, SIGKILL a straggler, and reap. Caller holds mutex_.
 */
void
WorkerPool::stopWorker(Worker& w)
{
    if (!w.alive)
        return;
    w.jobRing->reset();
    const std::uint32_t op = kOpStop;
    w.jobRing->commit(&op, sizeof op);
    writeDoorbell(w.jobFd);

    bool exited = false;
    if (w.pidFd >= 0) {
        struct pollfd pfd = {w.pidFd, POLLIN, 0};
        const int graceMs =
            static_cast<int>(kStopGraceSeconds * 1e3);
        int rc;
        do {
            rc = ::poll(&pfd, 1, graceMs);
        } while (rc < 0 && errno == EINTR);
        exited = rc > 0;
    }
    if (!exited && w.pidFd >= 0)
        ::kill(w.pid, SIGKILL);
    // Without a pidfd, fall straight through to the blocking reap: the
    // stop op is unconditional, so the worst case is the grace period.
    while (::waitpid(w.pid, nullptr, 0) < 0 && errno == EINTR) {
    }
    w.alive = false;
    w.pid = -1;
}

PoolOutcome
WorkerPool::run(const void* job, std::size_t jobSize, void* result,
                std::size_t resultSize, double deadlineSeconds)
{
    HPCMIXP_ASSERT(jobSize <= jobCapacity_,
                   strCat("pool job of ", jobSize,
                          " bytes exceeds ring capacity ", jobCapacity_));
    WallTimer timer;
    PoolOutcome out;

    // Acquire the lowest-indexed free worker; lowest-index-first keeps
    // a serial dispatcher's worker choice deterministic (tests rely on
    // "kill pids[0], the next dispatch hits it"). An empty slot is
    // (re)spawned at acquire time: that is where one-job workers are
    // born, and one failed re-fork never bricks a persistent slot for
    // the rest of the campaign.
    Worker* w = nullptr;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            bool anyAlive = false;
            for (auto& slot : workers_) {
                if (slot->busy)
                    continue;
                if (!slot->alive && !spawnLocked(*slot))
                    continue;
                w = slot.get();
                break;
            }
            if (w != nullptr)
                break;
            for (auto& slot : workers_)
                anyAlive = anyAlive || slot->alive;
            if (!anyAlive) {
                // Every slot is dead and unspawnable right now.
                out.exit = ChildExit::SpawnFailed;
                out.detail = errno;
                out.wallSeconds = timer.seconds();
                return out;
            }
            freeCv_.wait(lock);
        }
        w->busy = true;
        ++stats_.dispatched;
    }

    // Dispatch: commit [kOpJob | job bytes] and ring the doorbell. The
    // arenas are quiescent here — the worker only touches them between
    // its doorbell read and its done kick, and we hold the slot.
    w->jobRing->reset();
    w->resultRing->reset();
    {
        std::vector<unsigned char> framed(sizeof(std::uint32_t) +
                                          jobSize);
        const std::uint32_t op = kOpJob;
        std::memcpy(framed.data(), &op, sizeof op);
        std::memcpy(framed.data() + sizeof op, job, jobSize);
        w->jobRing->commit(framed.data(), framed.size());
    }
    writeDoorbell(w->jobFd);

    // Wait for the done doorbell, the worker's death, or the deadline.
    // Completion wins a photo finish against death: a committed result
    // is a committed result even if the worker died a microsecond
    // later (the checksum protocol rejects torn ones regardless).
    bool done = false;
    bool killed = false;
    for (;;) {
        struct pollfd pfds[2];
        pfds[0] = {w->doneFd, POLLIN, 0};
        pfds[1] = {w->pidFd, POLLIN, 0};
        const nfds_t nfds = w->pidFd >= 0 ? 2 : 1;

        int timeoutMs = -1;
        if (deadlineSeconds > 0.0 && !killed) {
            const double remaining = deadlineSeconds - timer.seconds();
            if (remaining <= 0.0) {
                ::kill(w->pid, SIGKILL);
                killed = true;
                continue; // now wait for the corpse
            }
            timeoutMs = static_cast<int>(std::ceil(
                std::min(remaining, kMaxPollSliceSeconds) * 1e3));
        }
        if (nfds == 1) {
            // No pidfd on this kernel: a worker death cannot wake the
            // poll, so probe for one on a bounded cadence instead.
            if (::waitpid(w->pid, nullptr, WNOHANG | WNOWAIT) > 0)
                break; // died
            if (timeoutMs < 0 || timeoutMs > 20)
                timeoutMs = 20;
        }
        const int rc = ::poll(pfds, nfds, timeoutMs);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            panic(strCat("poll on sandbox worker ", w->pid,
                         " failed: errno=", errno));
        }
        if (rc == 0)
            continue; // deadline check at the top of the loop
        if ((pfds[0].revents & POLLIN) != 0) {
            done = true;
            break;
        }
        if (nfds == 2 && (pfds[1].revents & (POLLIN | POLLERR)) != 0)
            break; // died
    }

    const bool oneJob = lifetime_ == WorkerLifetime::OneJob;
    const bool served = done && !killed;
    if (served) {
        // Drain the doorbell and unwrap [status | result bytes].
        readDoorbell(w->doneFd);
        const std::size_t bytes = w->resultRing->payloadSize();
        std::uint32_t status = 0;
        if (bytes >= sizeof status) {
            std::vector<unsigned char> framed(bytes);
            if (w->resultRing->read(framed.data(), bytes)) {
                std::memcpy(&status, framed.data(), sizeof status);
                if (status == 0 &&
                    bytes == sizeof status + resultSize) {
                    std::memcpy(result, framed.data() + sizeof status,
                                resultSize);
                    out.resultValid = true;
                }
            }
        }
        if (status != 0) {
            // The handler threw; the worker contained it.
            out.exit = ChildExit::NonZeroExit;
            out.detail = static_cast<int>(status);
        } else {
            out.exit = ChildExit::Clean;
        }
        // A one-job worker exits right after its done kick: reap it
        // here so no zombie outlives run().
        if (oneJob)
            while (::waitpid(w->pid, nullptr, 0) < 0 && errno == EINTR) {
            }
    } else {
        // The worker died (by its own hand or our deadline SIGKILL):
        // reap and classify.
        int wstatus = 0;
        while (::waitpid(w->pid, &wstatus, 0) < 0 && errno == EINTR) {
        }
        if (killed) {
            out.exit = ChildExit::KilledOnDeadline;
            out.detail = SIGKILL;
        } else if (WIFEXITED(wstatus)) {
            out.exit = ChildExit::NonZeroExit;
            out.detail = WEXITSTATUS(wstatus);
        } else if (WIFSIGNALED(wstatus)) {
            out.exit = ChildExit::Signaled;
            out.detail = WTERMSIG(wstatus);
        } else {
            panic(strCat("unexpected waitpid status ", wstatus,
                         " for sandbox worker"));
        }
    }
    out.wallSeconds = timer.seconds();

    std::lock_guard<std::mutex> lock(mutex_);
    if (!served || oneJob) {
        w->alive = false;
        w->pid = -1;
        closeFd(w->pidFd);
    }
    if (!served && !oneJob) {
        // Re-fork the persistent slot; a failure leaves it for
        // acquire-time retry.
        ++stats_.respawns;
        spawnLocked(*w);
    }
    w->busy = false;
    freeCv_.notify_one();
    return out;
}

WorkerPoolStats
WorkerPool::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::vector<pid_t>
WorkerPool::workerPids() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<pid_t> pids;
    pids.reserve(workers_.size());
    for (const auto& w : workers_)
        pids.push_back(w->alive ? w->pid : -1);
    return pids;
}

} // namespace hpcmixp::support
