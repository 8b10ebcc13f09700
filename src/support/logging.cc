#include "support/logging.h"

#include <cstdio>
#include <cstdlib>

namespace hpcmixp::support {

namespace {
LogLevel g_level = LogLevel::Warn;
} // namespace

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

LogLevel
logLevel()
{
    return g_level;
}

void
inform(const std::string& msg)
{
    if (g_level >= LogLevel::Inform)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
warn(const std::string& msg)
{
    if (g_level >= LogLevel::Warn)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
debug(const std::string& msg)
{
    if (g_level >= LogLevel::Debug)
        std::fprintf(stderr, "debug: %s\n", msg.c_str());
}

void
fatal(const std::string& msg)
{
    throw FatalError(msg);
}

void
panic(const std::string& msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

} // namespace hpcmixp::support
