/**
 * @file
 * Strict text-to-number parsing for CLI flags and fault-plan specs.
 *
 * The C library's atoi/strtod silently accept trailing garbage ("0.9x")
 * or turn unparseable input into 0, which is how a mistyped flag value
 * becomes a silent zero-thread or zero-load run. These helpers consume
 * the ENTIRE token or fail, and report failure instead of guessing.
 */
#ifndef AN2_BASE_PARSE_H
#define AN2_BASE_PARSE_H

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace an2 {

/** Parse a whole string as a signed 64-bit decimal integer. */
inline bool
parseInt64(const std::string& text, int64_t& out)
{
    if (text.empty())
        return false;
    errno = 0;
    char* end = nullptr;
    long long v = std::strtoll(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    out = static_cast<int64_t>(v);
    return true;
}

/** Parse a whole string as an unsigned 64-bit decimal integer. */
inline bool
parseUint64(const std::string& text, uint64_t& out)
{
    if (text.empty() || text[0] == '-' || text[0] == '+')
        return false;
    errno = 0;
    char* end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    out = static_cast<uint64_t>(v);
    return true;
}

/** Parse a whole string as an int (rejects values outside int range). */
inline bool
parseInt(const std::string& text, int& out)
{
    int64_t v = 0;
    if (!parseInt64(text, v) || v < INT32_MIN || v > INT32_MAX)
        return false;
    out = static_cast<int>(v);
    return true;
}

/** Parse a whole string as a finite double. */
inline bool
parseDouble(const std::string& text, double& out)
{
    if (text.empty())
        return false;
    errno = 0;
    char* end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    // NaN/Inf spellings parse via strtod but are never valid knob values.
    if (!(v == v) || v > 1e300 || v < -1e300)
        return false;
    out = v;
    return true;
}

/** The error text for a flag value the helpers above rejected:
    "--flag: malformed value 'v' (expected ...)". */
inline std::string
badValue(const char* flag, const char* v, const char* expected)
{
    return std::string(flag) + ": malformed value '" + v + "' (expected " +
           expected + ")";
}

}  // namespace an2

#endif  // AN2_BASE_PARSE_H
