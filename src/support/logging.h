/**
 * @file
 * Status and error reporting helpers in the gem5 idiom.
 *
 * panic() is for conditions that indicate a bug in BeeHive itself and
 * aborts the process; fatal() is for unrecoverable user errors (bad
 * configuration, invalid arguments) and exits with an error code.
 * warn() and inform() report conditions without stopping execution.
 */

#ifndef BEEHIVE_SUPPORT_LOGGING_H
#define BEEHIVE_SUPPORT_LOGGING_H

#include <cstdlib>
#include <string>

#include "support/strutil.h"

namespace beehive {

/** Severity levels used by the logging backend. */
enum class LogLevel { Inform, Warn, Fatal, Panic };

namespace detail {

/**
 * Emit one formatted log record to stderr.
 *
 * @param level Record severity.
 * @param where "file:line" location string.
 * @param msg Pre-formatted message body.
 */
void logMessage(LogLevel level, const char *where, const std::string &msg);

[[noreturn]] void panicExit();
[[noreturn]] void fatalExit();

/**
 * panic()/fatal() bodies: report the formatted message at @p where,
 * then abort / exit(1). Out of line and cold, like assertFailed(), so
 * a failure check costs its caller only a call.
 */
[[noreturn, gnu::cold]] void panicAt(const char *where, const char *fmt,
                                     ...)
    __attribute__((format(printf, 2, 3)));
[[noreturn, gnu::cold]] void fatalAt(const char *where, const char *fmt,
                                     ...)
    __attribute__((format(printf, 2, 3)));

/**
 * bh_assert()'s failure path: report "assertion failed: <cond>
 * <message>" at @p where, as panic() would, and abort.
 */
[[noreturn, gnu::cold]] void assertFailed(const char *where,
                                          const char *cond,
                                          const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

} // namespace detail

/** Suppress inform()/warn() output (used by quiet benches). */
void setLogQuiet(bool quiet);

} // namespace beehive

#define BEEHIVE_WHERE_STR2(x) #x
#define BEEHIVE_WHERE_STR(x) BEEHIVE_WHERE_STR2(x)
#define BEEHIVE_WHERE __FILE__ ":" BEEHIVE_WHERE_STR(__LINE__)

/** Report an internal invariant violation and abort. */
#define panic(...) ::beehive::detail::panicAt(BEEHIVE_WHERE, __VA_ARGS__)

/** Report an unrecoverable user/configuration error and exit(1). */
#define fatal(...) ::beehive::detail::fatalAt(BEEHIVE_WHERE, __VA_ARGS__)

/** Report a suspicious but survivable condition. */
#define warn(...)                                                           \
    ::beehive::detail::logMessage(::beehive::LogLevel::Warn,                \
        BEEHIVE_WHERE, ::beehive::strprintf(__VA_ARGS__))

/** Report normal operating status. */
#define inform(...)                                                         \
    ::beehive::detail::logMessage(::beehive::LogLevel::Inform,              \
        BEEHIVE_WHERE, ::beehive::strprintf(__VA_ARGS__))

/** panic() unless the given condition holds. */
#define bh_assert(cond, ...)                                                \
    do {                                                                    \
        if (!(cond)) [[unlikely]]                                           \
            ::beehive::detail::assertFailed(BEEHIVE_WHERE, #cond,           \
                                            "" __VA_ARGS__);                \
    } while (0)

#endif // BEEHIVE_SUPPORT_LOGGING_H
