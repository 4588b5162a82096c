#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace an2bench {

namespace {

/** A /proc/self/status field in kB, as MiB; -1 when absent. */
double
statusMb(const char* key)
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return -1.0;
    char line[256];
    double mb = -1.0;
    const size_t klen = std::strlen(key);
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, key, klen) == 0 && line[klen] == ':') {
            mb = std::strtod(line + klen + 1, nullptr) / 1024.0;
            break;
        }
    }
    std::fclose(f);
    return mb;
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricObject(const std::vector<Metric>& metrics, bool with_units)
{
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        if (i > 0)
            out += ", ";
        out += jsonString(m.name) + ": ";
        if (with_units)
            out += "{\"value\": " + jsonNumber(m.value) +
                   ", \"unit\": " + jsonString(m.unit) + "}";
        else
            out += jsonNumber(m.value);
    }
    return out + "}";
}

#ifndef AN2BENCH_BUILD_TYPE
#define AN2BENCH_BUILD_TYPE "unknown"
#endif
#ifndef AN2BENCH_COMPILER
#define AN2BENCH_COMPILER "unknown"
#endif

}  // namespace

void
Report::check(bool ok, const std::string& what)
{
    ++checks_attempted;
    if (!ok)
        check_failures.push_back(what);
}

void
Report::add(std::vector<Metric>& to, const std::string& name, double value,
            const std::string& unit)
{
    to.push_back({name, value, unit});
}

double
peakRssMb()
{
    return statusMb("VmHWM");
}

double
currentRssMb()
{
    return statusMb("VmRSS");
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void
printReport(const RunOptions& opt, const Report& report)
{
#ifdef AN2_OBS_DISABLED
    const bool obs_disabled = true;
#else
    const bool obs_disabled = false;
#endif
    std::string out = "{\"workload\": " + jsonString(opt.workload);
    out += ", \"seed\": " + std::to_string(opt.seed);
    out += ", \"trace\": " + std::string(opt.trace ? "true" : "false");
    out += ", \"provenance\": {\"compiler\": " +
           jsonString(AN2BENCH_COMPILER) +
           ", \"build_type\": " + jsonString(AN2BENCH_BUILD_TYPE) +
           ", \"obs_disabled\": " + (obs_disabled ? "true" : "false") +
           ", \"hardware_threads\": " +
           std::to_string(std::thread::hardware_concurrency()) + "}";
    out += ", \"end_to_end\": " + metricObject(report.end_to_end, true);
    out += ", \"per_layer\": " + metricObject(report.per_layer, true);
    out += ", \"simulated\": " + metricObject(report.simulated, false);
    out += ", \"info\": " + metricObject(report.info, false);
    out += ", \"checks\": {\"attempted\": " +
           std::to_string(report.checks_attempted) + ", \"failures\": [";
    for (size_t i = 0; i < report.check_failures.size(); ++i)
        out += (i > 0 ? ", " : "") + jsonString(report.check_failures[i]);
    out += "]}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

}  // namespace an2bench
