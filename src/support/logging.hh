/**
 * @file
 * Status-message and error-reporting helpers in the gem5 idiom.
 *
 * panic() is for internal invariant violations (a simulator bug): it prints
 * and aborts. fatal() is for user errors (bad configuration, impossible
 * technique parameters): it prints and exits with status 1. warn() and
 * inform() report conditions without stopping the simulation.
 */

#ifndef YASIM_SUPPORT_LOGGING_HH
#define YASIM_SUPPORT_LOGGING_HH

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>

namespace yasim {

/** Print a formatted message and abort. Use for internal bugs only. */
[[noreturn]] void panic(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a formatted message and exit(1). Use for user errors. */
[[noreturn]] void fatal(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a non-fatal warning to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational status message to stderr. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Enable/disable inform() output (benches silence it for clean tables). */
void setInformEnabled(bool enabled);

/** printf-style formatting into a std::string. */
std::string csprintf(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Read @p text as a whole unsigned decimal number: one or more digits
 * and nothing else (no sign, space, base prefix or suffix), no larger
 * than UINT64_MAX. @return false, leaving @p value untouched, when
 * @p text is anything else.
 */
bool parseDecimal(std::string_view text, uint64_t &value);

/**
 * Assert that holds in release builds too. Panics with the stringified
 * condition when it fails.
 */
#define YASIM_ASSERT(cond)                                                    \
    do {                                                                      \
        if (!(cond))                                                          \
            ::yasim::panic("assertion failed at %s:%d: %s",                   \
                           __FILE__, __LINE__, #cond);                        \
    } while (0)

} // namespace yasim

#endif // YASIM_SUPPORT_LOGGING_HH
