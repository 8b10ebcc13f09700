#include "support/subprocess.h"

#include <cerrno>

#include <sys/syscall.h>
#include <sys/types.h>
#include <unistd.h>

#include "support/logging.h"

namespace hpcmixp::support {

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

} // namespace hpcmixp::support
