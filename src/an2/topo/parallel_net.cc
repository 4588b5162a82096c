#include "an2/topo/parallel_net.h"

#include <barrier>
#include <limits>
#include <thread>

#include "an2/base/error.h"
#include "an2/obs/probe.h"
#include "an2/obs/recorder.h"

namespace an2::topo {

namespace {
constexpr PicoTime kNever = std::numeric_limits<PicoTime>::max();
}  // namespace

ParallelNet::ParallelNet(Network& net, int threads) : net_(net)
{
    AN2_REQUIRE(threads >= 1, "need at least one thread");
    AN2_REQUIRE(net.numNodes() > 0, "network has no nodes");
    threads_ = std::min(threads, net.numNodes());

    min_latency_ = kNever;
    for (int l = 0; l < net.numLinks(); ++l)
        min_latency_ = std::min(min_latency_, net.linkAt(l).latencyPs());
    AN2_REQUIRE(net.numLinks() > 0 && min_latency_ > 0,
                "the parallel engine needs every link latency positive "
                "(the conservative window is the minimum latency)");

    shards_.resize(static_cast<size_t>(threads_));
    for (NodeId n = 0; n < net.numNodes(); ++n)
        shards_[static_cast<size_t>(n % threads_)].nodes.push_back(n);
    for (int l = 0; l < net.numLinks(); ++l) {
        NodeId up = net.linkEnds(l).from;
        shards_[static_cast<size_t>(up % threads_)].links.push_back(l);
    }
}

PicoTime
ParallelNet::tickShard(int k, PicoTime end)
{
    PicoTime next = kNever;
    for (NodeId n : shards_[static_cast<size_t>(k)].nodes) {
        NetNode& node = net_.nodeAt(n);
        PicoTime t = node.nextTick();
        while (t <= end) {
            node.tick();
            t = node.nextTick();
        }
        next = std::min(next, t);
    }
    return next;
}

void
ParallelNet::commitShard(int k)
{
    for (int l : shards_[static_cast<size_t>(k)].links)
        net_.linkAt(l).commit();
}

void
ParallelNet::setWatchdog(int max_stalled_windows)
{
    AN2_REQUIRE(max_stalled_windows >= 0,
                "watchdog limit must be non-negative (0 disables)");
    watchdog_limit_ = max_stalled_windows;
}

void
ParallelNet::noteWindowAdvance(PicoTime prev_m, PicoTime m,
                               int& stalled) const
{
    if (watchdog_limit_ <= 0 || m == kNever || m > prev_m) {
        stalled = 0;
        return;
    }
    if (++stalled < watchdog_limit_)
        return;
    NodeId stuck = -1;
    for (NodeId n = 0; n < net_.numNodes() && stuck < 0; ++n)
        if (net_.nodeAt(n).nextTick() <= m)
            stuck = n;
    AN2_FATAL("ParallelNet watchdog: min next-tick stuck at "
              << m << " ps for " << stalled << " consecutive windows "
              << "(node " << stuck << ", shard " << stuck % threads_
              << " of " << threads_ << ")");
}

void
ParallelNet::run(PicoTime until_ps)
{
    // Sends go to the pending side for the duration of the run; leaving
    // deferred mode at the end re-enables plain Network::run use.
    int64_t windows_at_entry = windows_;
    for (int l = 0; l < net_.numLinks(); ++l)
        net_.linkAt(l).setDeferred(true);

    PicoTime m = kNever;
    for (NodeId n = 0; n < net_.numNodes(); ++n)
        m = std::min(m, net_.nodeAt(n).nextTick());

    // Shared window state, published by the main thread (shard 0)
    // strictly between barrier phases; with one thread the barrier has a
    // single participant and the pool is empty. A shard that throws (e.g.
    // an invariant check) records the exception and keeps honoring the
    // barrier protocol so nobody deadlocks; the first error is rethrown
    // on the caller's thread after the pool drains.
    PicoTime window_end = 0;
    bool done = false;
    std::vector<PicoTime> local_min(static_cast<size_t>(threads_), kNever);
    std::vector<std::exception_ptr> errors(static_cast<size_t>(threads_));
    std::barrier sync(threads_);

    auto step = [&](int k) {
        auto idx = static_cast<size_t>(k);
        try {
            local_min[idx] = tickShard(k, window_end);
        } catch (...) {
            errors[idx] = std::current_exception();
            local_min[idx] = kNever;
        }
        sync.arrive_and_wait();  // all ticks done
        try {
            commitShard(k);
        } catch (...) {
            if (errors[idx] == nullptr)
                errors[idx] = std::current_exception();
        }
        sync.arrive_and_wait();  // all commits done
    };

    auto worker = [&](int k) {
        while (true) {
            sync.arrive_and_wait();  // window published
            if (done)
                return;
            step(k);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads_ - 1));
    for (int k = 1; k < threads_; ++k)
        pool.emplace_back(worker, k);

    std::exception_ptr failure;
    int stalled = 0;
    while (m <= until_ps) {
        window_end = std::min(until_ps, m + min_latency_ - 1);
        PicoTime prev_m = m;
        sync.arrive_and_wait();
        step(0);
        m = kNever;
        for (PicoTime t : local_min)
            m = std::min(m, t);
        ++windows_;
        for (const std::exception_ptr& e : errors)
            if (e != nullptr && failure == nullptr)
                failure = e;
        // The watchdog must not throw past the barrier protocol (workers
        // would block forever at "window published"); route it through
        // the drain path like any shard error.
        try {
            noteWindowAdvance(prev_m, m, stalled);
        } catch (...) {
            if (failure == nullptr)
                failure = std::current_exception();
        }
        if (failure != nullptr)
            break;
    }
    done = true;
    sync.arrive_and_wait();
    for (std::thread& t : pool)
        t.join();
    if (failure != nullptr) {
        for (int l = 0; l < net_.numLinks(); ++l)
            net_.linkAt(l).setDeferred(false);
        std::rethrow_exception(failure);
    }

    obs::count(obs::Counter::ShardWindows, windows_ - windows_at_entry);
    for (int l = 0; l < net_.numLinks(); ++l)
        net_.linkAt(l).setDeferred(false);
}

}  // namespace an2::topo
