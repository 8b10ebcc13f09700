#ifndef HPCMIXP_SUPPORT_SUBPROCESS_H_
#define HPCMIXP_SUPPORT_SUBPROCESS_H_

/**
 * @file
 * Sandbox vocabulary shared by the isolation modes (DESIGN.md,
 * Sections 13 and 15): which mode runs an evaluation, how a sandboxed
 * child terminated, and the pidfd helper the WorkerPool waits on.
 * The sandbox itself is support::WorkerPool.
 */

#include <string>

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
 * lets a parent sleep in ppoll() until exactly the child's death or a
 * deadline — no reap-poll wakeups. The caller owns the descriptor.
 */
int pidfdOpen(pid_t pid);

} // namespace hpcmixp::support

#endif // HPCMIXP_SUPPORT_SUBPROCESS_H_
