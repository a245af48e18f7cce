#ifndef C2M_COMMON_LOGGING_HPP
#define C2M_COMMON_LOGGING_HPP

/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic(): an internal invariant was violated (a bug in this library);
 *          aborts so a debugger/core dump sees the failure point.
 * fatal(): the simulation cannot continue because of a user error
 *          (bad configuration, invalid arguments); throws
 *          std::invalid_argument so the caller decides what to do.
 * warn()/inform(): non-fatal status messages on stderr.
 */

#include <cstdint>
#include <sstream>
#include <string>

namespace c2m {

/** Severity of a routed log message. */
enum class LogLevel { Warn, Inform };

/**
 * Destination for C2M_WARN / C2M_INFORM messages.  The sink is invoked
 * under the logging mutex (calls are serialized); it must not call back
 * into the logging macros.  @p ctx is the pointer registered alongside
 * the function.
 */
using LogSinkFn = void (*)(void *ctx, LogLevel lvl, const char *msg);

/**
 * Replace the process-wide log sink (nullptr restores the stderr
 * default).  Thread-safe; intended for tests capturing output and for
 * embedders redirecting into their own logging.
 */
void setLogSink(LogSinkFn fn, void *ctx);

/**
 * Secondary observer invoked (under the logging mutex) for every
 * message that passes rate limiting, after the sink.  The trace
 * recorder registers here so warnings appear as instant events on the
 * timeline.  nullptr clears the hook.
 */
using LogTraceHookFn = void (*)(void *ctx, LogLevel lvl, const char *msg);
void setLogTraceHook(LogTraceHookFn fn, void *ctx);

/** Context pointer currently registered with setLogTraceHook. */
void *logTraceHookCtx();

/**
 * Warnings with identical text are rate-limited: the first
 * kLogRepeatHead occurrences pass, after that only every
 * kLogRepeatStride-th passes (annotated with the repeat count).
 * Informational messages are never rate-limited.
 */
inline constexpr uint64_t kLogRepeatHead = 8;
inline constexpr uint64_t kLogRepeatStride = 128;

/** Drop the per-message repeat counts (tests; long-lived services). */
void resetLogRateLimiter();

namespace detail {

/** Fold any streamable argument pack into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

} // namespace c2m

/** Abort with a message: internal invariant violated (library bug). */
#define C2M_PANIC(...) \
    ::c2m::detail::panicImpl(__FILE__, __LINE__, \
                             ::c2m::detail::concat(__VA_ARGS__))

/**
 * Throw std::invalid_argument: unusable user configuration or input.
 * The message ends with the raising site, "(file:line)".
 */
#define C2M_FATAL(...) \
    ::c2m::detail::fatalImpl(__FILE__, __LINE__, \
                             ::c2m::detail::concat(__VA_ARGS__))

/** Non-fatal warning on stderr. */
#define C2M_WARN(...) \
    ::c2m::detail::warnImpl(::c2m::detail::concat(__VA_ARGS__))

/** Informational message on stderr. */
#define C2M_INFORM(...) \
    ::c2m::detail::informImpl(::c2m::detail::concat(__VA_ARGS__))

/** Checked assertion that survives NDEBUG; panics with context. */
#define C2M_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            C2M_PANIC("assertion failed: ", #cond, " ", \
                      ::c2m::detail::concat(__VA_ARGS__)); \
        } \
    } while (0)

#endif // C2M_COMMON_LOGGING_HPP
