#include "support/logging.hh"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace yasim {

namespace {

// Toggled by bench drivers while worker threads log; relaxed is enough
// because the only consequence of a stale read is one extra line.
std::atomic<bool> informEnabled{true};

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (n < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(n));
}

} // namespace

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    if (!informEnabled.load(std::memory_order_relaxed))
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
setInformEnabled(bool enabled)
{
    informEnabled.store(enabled, std::memory_order_relaxed);
}

std::string
csprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformat(fmt, ap);
    va_end(ap);
    return msg;
}

bool
parseDecimal(std::string_view text, uint64_t &value)
{
    // from_chars reads digits only for an unsigned type: it refuses a
    // sign or leading space, and reports overflow.
    const char *end = text.data() + text.size();
    uint64_t parsed = 0;
    const auto [at, err] = std::from_chars(text.data(), end, parsed);
    if (text.empty() || err != std::errc() || at != end)
        return false;
    value = parsed;
    return true;
}

} // namespace yasim
