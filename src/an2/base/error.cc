#include "an2/base/error.h"

namespace an2 {
namespace detail {

std::string
formatLocation(const char* file, int line, const std::string& msg)
{
    std::ostringstream oss;
    oss << file << ":" << line << ": " << msg;
    return oss.str();
}

}  // namespace detail

void
fatalAt(const char* file, int line, const std::string& msg)
{
    throw UsageError(detail::formatLocation(file, line, msg));
}

int
requirePositive(int n, const char* what)
{
    if (n <= 0)
        AN2_FATAL(what << " must be positive, got " << n);
    return n;
}

namespace {

thread_local PanicHook tls_panic_hook = nullptr;
thread_local void* tls_panic_ctx = nullptr;
thread_local bool tls_in_panic_hook = false;

}  // namespace

PanicHook
setPanicHook(PanicHook hook, void* ctx, void** prev_ctx)
{
    PanicHook prev = tls_panic_hook;
    if (prev_ctx != nullptr)
        *prev_ctx = tls_panic_ctx;
    tls_panic_hook = hook;
    tls_panic_ctx = ctx;
    return prev;
}

void
panicAt(const char* file, int line, const std::string& msg)
{
    std::string what = detail::formatLocation(file, line, msg);
    if (tls_panic_hook != nullptr && !tls_in_panic_hook) {
        // Guard against a panic raised while dumping the post-mortem:
        // the inner panic throws straight through without re-entering.
        tls_in_panic_hook = true;
        tls_panic_hook(tls_panic_ctx, what);
        tls_in_panic_hook = false;
    }
    throw InternalError(what);
}

}  // namespace an2
