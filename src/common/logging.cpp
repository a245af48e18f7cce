#include "common/logging.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace c2m {

namespace {

void
stderrSink(void *, LogLevel lvl, const char *msg)
{
    std::fprintf(stderr, "%s: %s\n",
                 lvl == LogLevel::Warn ? "warn" : "info", msg);
}

/**
 * Process-wide logging state.  Leaked on purpose: log macros may fire
 * from static destructors, so the state must outlive every other
 * object in the program.
 */
struct LogState
{
    std::mutex m;
    LogSinkFn sink = &stderrSink;
    void *sinkCtx = nullptr;
    LogTraceHookFn hook = nullptr;
    void *hookCtx = nullptr;
    std::unordered_map<std::string, uint64_t> repeats;
};

LogState &
state()
{
    static LogState *s = new LogState();
    return *s;
}

void
emit(LogLevel lvl, const std::string &msg)
{
    LogState &s = state();
    std::lock_guard<std::mutex> lock(s.m);

    std::string text = msg;
    if (lvl == LogLevel::Warn) {
        const uint64_t n = ++s.repeats[msg];
        if (n > kLogRepeatHead && n % kLogRepeatStride != 0)
            return;
        if (n > kLogRepeatHead)
            text += " (repeated " + std::to_string(n) + " times)";
    }
    s.sink(s.sinkCtx, lvl, text.c_str());
    if (s.hook)
        s.hook(s.hookCtx, lvl, text.c_str());
}

} // namespace

void
setLogSink(LogSinkFn fn, void *ctx)
{
    LogState &s = state();
    std::lock_guard<std::mutex> lock(s.m);
    s.sink = fn ? fn : &stderrSink;
    s.sinkCtx = fn ? ctx : nullptr;
}

void
setLogTraceHook(LogTraceHookFn fn, void *ctx)
{
    LogState &s = state();
    std::lock_guard<std::mutex> lock(s.m);
    s.hook = fn;
    s.hookCtx = fn ? ctx : nullptr;
}

void *
logTraceHookCtx()
{
    LogState &s = state();
    std::lock_guard<std::mutex> lock(s.m);
    return s.hookCtx;
}

void
resetLogRateLimiter()
{
    LogState &s = state();
    std::lock_guard<std::mutex> lock(s.m);
    s.repeats.clear();
}

namespace detail {

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::abort();
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::string what = msg;
    what += " (";
    what += file;
    what += ':';
    what += std::to_string(line);
    what += ')';
    throw std::invalid_argument(what);
}

void
warnImpl(const std::string &msg)
{
    emit(LogLevel::Warn, msg);
}

void
informImpl(const std::string &msg)
{
    emit(LogLevel::Inform, msg);
}

} // namespace detail
} // namespace c2m
