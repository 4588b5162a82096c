#include "an2/harness/arch.h"

#include <cstdint>
#include <memory>
#include <string_view>

#include "an2/base/error.h"
#include "an2/matching/hopcroft_karp.h"
#include "an2/matching/islip.h"
#include "an2/matching/pim.h"
#include "an2/matching/serial_greedy.h"
#include "an2/sim/fifo_switch.h"
#include "an2/sim/iq_switch.h"

namespace an2::harness {
namespace {

enum class Kind { Fifo, OutputQueued, Pim, Islip, Greedy, Maximum, Cioq };

/** What a name denotes: everything the factory builds from. */
struct ArchParams
{
    Kind kind = Kind::Fifo;
    int iterations = 0;  ///< PIM and iSLIP; 0 runs PIM to completion
    int capacity = 1;    ///< PIM's cells per output (k)
    int window = 1;      ///< FIFO's lookahead, with its rounds
    int rounds = 1;
    int speedup = 1;
    ServiceDiscipline service = ServiceDiscipline::None;
    WarmStart warm = WarmStart::Off;
    bool pipelined = false;
};

/** Consume `lit` from the front of `s`; false leaves `s` as it was. */
bool
eat(std::string_view& s, std::string_view lit)
{
    if (s.substr(0, lit.size()) != lit)
        return false;
    s.remove_prefix(lit.size());
    return true;
}

/** Consume a canonical decimal in [lo, hi]; lo >= 1, so a leading zero
    is never canonical. */
bool
eatInt(std::string_view& s, int lo, int hi, int& out)
{
    size_t len = 0;
    int64_t v = 0;
    while (len < s.size() && s[len] >= '0' && s[len] <= '9' && v <= hi)
        v = v * 10 + (s[len++] - '0');
    if (len == 0 || s[0] == '0' || v < lo || v > hi)
        return false;
    out = static_cast<int>(v);
    s.remove_prefix(len);
    return true;
}

constexpr int kAny = INT32_MAX;

ArchParams
parseArch(const std::string& name)
{
    std::string_view s = name;
    ArchParams p;
    bool ok = true;
    if (eat(s, "FIFO")) {
        if (eat(s, "(window="))
            ok = eatInt(s, 2, kAny, p.window) && eat(s, ",rounds=") &&
                 eatInt(s, 1, kAny, p.rounds) && eat(s, ")");
    } else if (eat(s, "OutputQueued")) {
        p.kind = Kind::OutputQueued;
        p.service = ServiceDiscipline::Fifo;
    } else if (eat(s, "PIM(")) {
        p.kind = Kind::Pim;
        ok = eat(s, "inf") || eatInt(s, 1, kAny, p.iterations);
        if (ok && eat(s, ",k=")) {
            ok = eatInt(s, 2, kAny, p.capacity);
            p.service = ServiceDiscipline::Strict;
        }
        ok = ok && eat(s, ")");
    } else if (eat(s, "iSLIP(")) {
        p.kind = Kind::Islip;
        ok = eatInt(s, 1, kAny, p.iterations) && eat(s, ")");
    } else if (eat(s, "Greedy")) {
        p.kind = Kind::Greedy;
    } else if (eat(s, "Maximum")) {
        p.kind = Kind::Maximum;
    } else if (eat(s, "CIOQ(S=")) {
        p.kind = Kind::Cioq;
        ok = eatInt(s, 1, 4, p.speedup) && eat(s, ",");
        if (ok && eat(s, "strict"))
            p.service = ServiceDiscipline::Strict;
        else if (ok && eat(s, "wrr"))
            p.service = ServiceDiscipline::Wrr;
        ok = ok && p.service != ServiceDiscipline::None && eat(s, ")");
    } else {
        ok = false;
    }
    if (ok && eat(s, "+warm")) {
        p.warm = WarmStart::On;
        ok = p.kind == Kind::Islip || p.kind == Kind::Greedy;
    }
    if (ok && eat(s, "-pipelined")) {
        p.pipelined = true;
        ok = p.kind != Kind::Fifo && p.kind != Kind::OutputQueued &&
             p.service == ServiceDiscipline::None;
    }
    AN2_REQUIRE(ok && s.empty(), "unknown architecture name '"
                                     << name << "' (expected "
                                     << kArchGrammar << ")");
    return p;
}

std::unique_ptr<SwitchModel>
build(const ArchParams& p, int n, uint64_t seed)
{
    const IqSwitchConfig cfg{.n = n,
                             .pipelined = p.pipelined,
                             .speedup = p.speedup,
                             .service = p.service};
    std::unique_ptr<Matcher> matcher;
    switch (p.kind) {
    case Kind::Fifo:
        return std::make_unique<FifoSwitch>(n, seed, p.window, p.rounds);
    case Kind::OutputQueued:
        return std::make_unique<InputQueuedSwitch>(cfg);
    case Kind::Pim:
        matcher = std::make_unique<PimMatcher>(
            PimConfig{.iterations = p.iterations,
                      .output_capacity = p.capacity,
                      .seed = seed});
        break;
    case Kind::Islip:
        matcher = std::make_unique<IslipMatcher>(p.iterations, p.warm);
        break;
    case Kind::Greedy:
    case Kind::Cioq:
        matcher = std::make_unique<SerialGreedyMatcher>(/*randomize=*/true,
                                                        seed, p.warm);
        break;
    case Kind::Maximum:
        matcher = std::make_unique<HopcroftKarpMatcher>();
        break;
    }
    return std::make_unique<InputQueuedSwitch>(cfg, std::move(matcher));
}

}  // namespace

ArchSpec
archByName(const std::string& name)
{
    const ArchParams p = parseArch(name);
    ArchSpec spec{name,
                  [p](int n, uint64_t seed) { return build(p, n, seed); }};
    if (p.kind == Kind::Cioq) {
        spec.speedup = p.speedup;
        spec.service = p.service == ServiceDiscipline::Wrr ? "wrr" : "strict";
    }
    return spec;
}

std::vector<ArchSpec>
archsByName(std::initializer_list<const char*> names)
{
    std::vector<ArchSpec> archs;
    for (const char* name : names)
        archs.push_back(archByName(name));
    return archs;
}

}  // namespace an2::harness
