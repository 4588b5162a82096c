#include "an2/matching/pim.h"

#include <algorithm>
#include <bit>

#include "an2/matching/wordset.h"
#include "an2/obs/recorder.h"

// The popcnt/BMI2 kernel needs GCC's target pragma and x86-64's pdep.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define AN2_HAVE_POPCNT_BMI2_KERNEL 1
#include <immintrin.h>
#else
#define AN2_HAVE_POPCNT_BMI2_KERNEL 0
#endif

// The kernel source, once per instruction set (see pim_kernel.inc for
// the rules that keep the two apart). Every header is included above,
// outside both namespaces.
#define AN2_PIM_KERNEL_HARDWARE 0
namespace an2::pim_kernel::portable {
#include "an2/matching/pim_kernel.inc"
}  // namespace an2::pim_kernel::portable
#undef AN2_PIM_KERNEL_HARDWARE

#if AN2_HAVE_POPCNT_BMI2_KERNEL
#define AN2_PIM_KERNEL_HARDWARE 1
#pragma GCC push_options
#pragma GCC target("popcnt,bmi2")
namespace an2::pim_kernel::popcnt_bmi2 {
#include "an2/matching/pim_kernel.inc"
}  // namespace an2::pim_kernel::popcnt_bmi2
#pragma GCC pop_options
#undef AN2_PIM_KERNEL_HARDWARE
#endif

namespace an2 {

namespace {

const PimKernel kPortableKernel{"portable", &pim_kernel::portable::popcount64,
                                &pim_kernel::portable::selectBit64,
                                &pim_kernel::portable::run};

#if AN2_HAVE_POPCNT_BMI2_KERNEL
const PimKernel kHardwareKernel{"popcnt+bmi2",
                                &pim_kernel::popcnt_bmi2::popcount64,
                                &pim_kernel::popcnt_bmi2::selectBit64,
                                &pim_kernel::popcnt_bmi2::run};
#endif

/** The kernel a PimMatcher runs unless told otherwise: popcnt/BMI2 on a
    CPU with a fast pdep. AMD families 15h and 17h (Excavator, Zen 1
    and 2) microcode pdep, at tens to hundreds of cycles by the mask,
    where the portable broadword select is faster. */
const PimKernel&
selectedKernel()
{
    static const PimKernel& kernel = []() -> const PimKernel& {
        const PimKernel* hw = pimHardwareKernel();
#if AN2_HAVE_POPCNT_BMI2_KERNEL
        if (hw != nullptr && !__builtin_cpu_is("amdfam15h") &&
            !__builtin_cpu_is("amdfam17h"))
            return *hw;
#endif
        (void)hw;
        return kPortableKernel;
    }();
    return kernel;
}

}  // namespace

const PimKernel&
pimPortableKernel()
{
    return kPortableKernel;
}

const PimKernel*
pimHardwareKernel()
{
#if AN2_HAVE_POPCNT_BMI2_KERNEL
    // Static constructors may run before libgcc's own CPU probe.
    __builtin_cpu_init();
    if (__builtin_cpu_supports("popcnt") && __builtin_cpu_supports("bmi2"))
        return &kHardwareKernel;
#endif
    return nullptr;
}

PimMatcher::PimMatcher(const PimConfig& config, std::unique_ptr<Rng> rng)
    : PimMatcher(config, selectedKernel(), std::move(rng))
{
}

PimMatcher::PimMatcher(const PimConfig& config, const PimKernel& kernel,
                       std::unique_ptr<Rng> rng)
    : config_(config),
      rng_(rng ? std::move(rng) : std::make_unique<Xoshiro256>(config.seed)),
      kernel_(&kernel)
{
    AN2_REQUIRE(config_.iterations >= 0,
                "iterations must be >= 0 (0 = to completion)");
    AN2_REQUIRE(config_.output_capacity >= 1,
                "output capacity must be >= 1");
    state_.accept = config_.accept;
    state_.rng = rng_.get();
}

std::string
PimMatcher::name() const
{
    std::string n = "PIM(";
    n += config_.iterations == 0 ? "complete"
                                 : std::to_string(config_.iterations);
    if (config_.accept == AcceptPolicy::RoundRobin)
        n += ",rr-accept";
    if (config_.output_capacity > 1)
        n += ",k=" + std::to_string(config_.output_capacity);
    n += ")";
    return n;
}

void
PimMatcher::reset()
{
    state_.accept_ptr.clear();
}

void
PimMatcher::prepare(const RequestMatrix& req)
{
    const int n_in = req.numInputs();
    const int n_out = req.numOutputs();
    PimState& s = state_;
    if (s.accept_ptr.empty()) {
        s.accept_ptr.assign(static_cast<size_t>(n_in), 0);
        s.accept_outputs = n_out;
    }
    AN2_REQUIRE(static_cast<int>(s.accept_ptr.size()) == n_in &&
                    s.accept_outputs == n_out,
                "request matrix size changed without reset()");
    if (n_in == s.n_inputs && n_out == s.n_outputs)
        return;
    s.n_inputs = n_in;
    s.n_outputs = n_out;
    s.col_words = req.colWords();
    s.row_words = req.rowWords();
    s.free_in.resize(static_cast<size_t>(s.col_words));
    s.free_out.resize(static_cast<size_t>(s.row_words));
    s.granted.resize(static_cast<size_t>(s.col_words));
    s.requesters.resize(static_cast<size_t>(s.col_words));
    s.grant_rows.resize(static_cast<size_t>(n_in) *
                        static_cast<size_t>(s.row_words));
    s.grant_order.reserve(static_cast<size_t>(n_in));
}

void
PimMatcher::matchInto(const RequestMatrix& req, Matching& out)
{
    out.reset(req.numInputs(), req.numOutputs(), config_.output_capacity);
    prepare(req);
    if (req.numEdges() == 0) {
        // No output is requested, so the first round would grant and
        // draw nothing; record it as that round would.
        if (obs::Recorder* rec = obs::current())
            rec->matchIteration(obs::MatchAlg::Pim, 0, 0, 0, 0, 0);
        return;
    }
    kernel_->run(state_, req, out, config_.iterations, nullptr);
}

Matching
PimMatcher::matchDetailed(const RequestMatrix& req, PimRunStats& stats,
                          int max_iterations)
{
    Matching m(req.numInputs(), req.numOutputs(), config_.output_capacity);
    stats = PimRunStats{};
    prepare(req);
    kernel_->run(state_, req, m, max_iterations, &stats);
    stats.reached_maximal = m.isMaximalFor(req);
    return m;
}

}  // namespace an2
