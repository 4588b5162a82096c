/**
 * @file
 * Error-reporting utilities, in the spirit of gem5's panic()/fatal() split:
 * panic-class failures indicate internal invariant violations (library
 * bugs); fatal-class failures indicate invalid usage or configuration by
 * the caller. Both throw so that tests can observe them.
 */
#ifndef AN2_BASE_ERROR_H
#define AN2_BASE_ERROR_H

#include <sstream>
#include <stdexcept>
#include <string>

namespace an2 {

/** Thrown when an internal invariant is violated (a bug in an2sim). */
class InternalError : public std::logic_error {
  public:
    explicit InternalError(const std::string& what) : std::logic_error(what) {}
};

/** Thrown on invalid arguments or configuration supplied by the caller. */
class UsageError : public std::invalid_argument {
  public:
    explicit UsageError(const std::string& what)
        : std::invalid_argument(what) {}
};

namespace detail {

std::string formatLocation(const char* file, int line, const std::string& msg);

}  // namespace detail

/** Throw a UsageError with a formatted location prefix. */
[[noreturn]] void fatalAt(const char* file, int line, const std::string& msg);

/** Throw an InternalError with a formatted location prefix. */
[[noreturn]] void panicAt(const char* file, int line, const std::string& msg);

/**
 * Return `n`, or throw a UsageError ("<what> must be positive") when it
 * is not. For member initializer lists: it checks a size before the
 * size reaches a container, whose constructor would throw
 * std::length_error on a negative value instead.
 */
int requirePositive(int n, const char* what);

/**
 * Observer invoked with the formatted message just before panicAt()
 * throws — the flight-recorder hook: a black box installs one to dump a
 * post-mortem while the failing state is still intact. Thread-local,
 * reentrancy-guarded (a panic raised *inside* the hook skips it), and
 * must not throw. Returns the previously installed hook (nullptr if
 * none) so scoped installers can restore it.
 */
using PanicHook = void (*)(void* ctx, const std::string& msg);
PanicHook setPanicHook(PanicHook hook, void* ctx, void** prev_ctx = nullptr);

}  // namespace an2

/** Report a caller error: invalid arguments/configuration. */
#define AN2_FATAL(msg)                                                       \
    do {                                                                     \
        std::ostringstream an2_oss_;                                         \
        an2_oss_ << msg; /* NOLINT */                                        \
        ::an2::fatalAt(__FILE__, __LINE__, an2_oss_.str());                  \
    } while (0)

/** Report an internal invariant violation (an an2sim bug). */
#define AN2_PANIC(msg)                                                       \
    do {                                                                     \
        std::ostringstream an2_oss_;                                         \
        an2_oss_ << msg; /* NOLINT */                                        \
        ::an2::panicAt(__FILE__, __LINE__, an2_oss_.str());                  \
    } while (0)

/** Assert an internal invariant; always checked (simulation correctness).
    This check and the next format their message in a cold, never-inlined
    lambda, so a check costs its caller only the test and a call. */
#define AN2_ASSERT(cond, msg)                                                \
    do {                                                                     \
        if (!(cond)) [[unlikely]] {                                          \
            [&]() __attribute__((cold, noinline, noreturn)) {                \
                AN2_PANIC("assertion failed: " #cond ": " << msg);           \
            }();                                                             \
        }                                                                    \
    } while (0)

/** Validate a user-supplied precondition. */
#define AN2_REQUIRE(cond, msg)                                               \
    do {                                                                     \
        if (!(cond)) [[unlikely]] {                                          \
            [&]() __attribute__((cold, noinline, noreturn)) {                \
                AN2_FATAL("requirement failed: " #cond ": " << msg);         \
            }();                                                             \
        }                                                                    \
    } while (0)

#endif  // AN2_BASE_ERROR_H
