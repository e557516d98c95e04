#include "support/logging.h"

#include <cstdarg>
#include <cstdio>

namespace beehive {

namespace {

bool log_quiet = false;

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Inform: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Fatal: return "fatal";
      case LogLevel::Panic: return "panic";
    }
    return "?";
}

} // namespace

void
setLogQuiet(bool quiet)
{
    log_quiet = quiet;
}

namespace detail {

void
logMessage(LogLevel level, const char *where, const std::string &msg)
{
    if (log_quiet &&
        (level == LogLevel::Inform || level == LogLevel::Warn)) {
        return;
    }
    if (level == LogLevel::Panic || level == LogLevel::Fatal) {
        std::fprintf(stderr, "%s: %s (%s)\n", levelName(level),
                     msg.c_str(), where);
    } else {
        std::fprintf(stderr, "%s: %s\n", levelName(level), msg.c_str());
    }
}

void
panicExit()
{
    std::abort();
}

void
fatalExit()
{
    std::exit(1);
}

void
panicAt(const char *where, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    logMessage(LogLevel::Panic, where, vstrprintf(fmt, args));
    va_end(args);
    panicExit();
}

void
fatalAt(const char *where, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    logMessage(LogLevel::Fatal, where, vstrprintf(fmt, args));
    va_end(args);
    fatalExit();
}

void
assertFailed(const char *where, const char *cond, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    const std::string msg = vstrprintf(fmt, args);
    va_end(args);
    logMessage(LogLevel::Panic, where,
               strprintf("assertion failed: %s %s", cond, msg.c_str()));
    panicExit();
}

} // namespace detail

} // namespace beehive
