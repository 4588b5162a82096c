/**
 * @file
 * Unidirectional point-to-point links with propagation latency. A cell
 * placed on a link at wall time t becomes eligible for forwarding at the
 * downstream node at t + latency (the paper's l includes per-cell switch
 * overhead; fold that into the latency here).
 *
 * Concurrency contract (the sharded engine, an2/topo/parallel_net.h):
 * in *deferred* mode, send() appends to a staging queue touched only by
 * the upstream node's shard, while deliverEach() (and its wrappers
 * deliverInto()/deliverUpTo()) pops from the in-flight queue touched
 * only by the downstream node's shard;
 * commit() — called at a barrier, when no node is ticking — publishes
 * staged cells into the in-flight queue. Immediate mode (the default)
 * keeps the classic serial semantics: send() publishes directly.
 *
 * Due-time mirror: the node a link feeds watch()es it, and from then on
 * the link keeps that node's due slot equal to nextDue(), so a node
 * finds its idle in-links without reading them. The slot belongs with
 * the in-flight queue to the downstream side: a deferred send touches
 * neither.
 */
#ifndef AN2_NETWORK_LINK_H
#define AN2_NETWORK_LINK_H

#include <limits>
#include <vector>

#include "an2/base/ring.h"
#include "an2/base/types.h"
#include "an2/cell/cell.h"

namespace an2 {

/** Identifier of a node in a Network. */
using NodeId = int;

/** A cell in flight on a link. */
struct TimedCell
{
    Cell cell;
    PicoTime arrives_ps;
};

/** One directed link between two node ports. */
class NetLink
{
  public:
    /** nextDue() of a link with nothing in flight. */
    static constexpr PicoTime kNever = std::numeric_limits<PicoTime>::max();

    /**
     * @param latency_ps Propagation latency plus downstream per-cell
     *        processing overhead (wall picoseconds).
     */
    explicit NetLink(PicoTime latency_ps);

    /** Place a cell on the link at wall time now. A downed link carries
        nothing: the cell is lost and counted in cellsLost(). */
    void send(const Cell& cell, PicoTime now_ps);

    /**
     * Hand every cell that has arrived by `now` to fn(const Cell&), in
     * arrival order, straight from the in-flight queue, and remove it
     * once fn returns. The nodes' delivery path: no copy into a scratch
     * vector and no allocation. fn must not touch this link. The watched
     * due slot equals nextDue() on return, also when fn throws; the cell
     * it threw on stays in flight.
     */
    template <typename Fn>
    void
    deliverEach(PicoTime now_ps, Fn&& fn)
    {
        try {
            while (!in_flight_.empty() &&
                   in_flight_.front().arrives_ps <= now_ps) {
                fn(in_flight_.front().cell);
                in_flight_.pop_front();
            }
        } catch (...) {
            publishDue();
            throw;
        }
        publishDue();
    }

    /** Append every cell that has arrived by `now` to `out` (which is
        not cleared) and remove it from the link (wraps deliverEach). */
    void deliverInto(PicoTime now_ps, std::vector<Cell>& out);

    /** Remove and return all cells that have arrived by `now`
        (convenience wrapper over deliverInto; allocates). */
    std::vector<Cell> deliverUpTo(PicoTime now_ps);

    /**
     * Switch between immediate mode (send publishes straight to the
     * in-flight queue; the default) and deferred mode (send stages, a
     * later commit() publishes). Used by the sharded engine so upstream
     * and downstream shards never touch the same queue within a
     * synchronization window. Pending cells are committed on the switch
     * back to immediate mode.
     */
    void setDeferred(bool deferred);

    /** Publish staged cells into the in-flight queue (deferred mode). */
    void commit();

    /**
     * Take the link down or bring it back up. Taking it down loses every
     * cell currently in flight — staged or published (a fiber cut does
     * not preserve photons); bringing it up resumes carriage from the
     * next send.
     */
    void setUp(bool up);

    bool isUp() const { return up_; }

    /** Arrival time of the head in-flight cell, or kNever when none is
        in flight (staged cells count from their commit()). */
    PicoTime
    nextDue() const
    {
        return in_flight_.empty() ? kNever : in_flight_.front().arrives_ps;
    }

    /**
     * Keep `*slot` equal to nextDue() from now on: the link rewrites it
     * whenever the head of its in-flight queue changes. Called by the
     * node the link feeds; fatal if the link already feeds one.
     */
    void watch(PicoTime* slot);

    /** Cells currently in flight (published; excludes staged cells). */
    int inFlight() const { return static_cast<int>(in_flight_.size()); }

    /** Cells staged in deferred mode, not yet committed. */
    int pendingCount() const { return static_cast<int>(pending_.size()); }

    PicoTime latencyPs() const { return latency_ps_; }

    /** Total cells ever carried. */
    int64_t cellsCarried() const { return cells_carried_; }

    /** Cells lost to link outages (in flight at down, or sent while down). */
    int64_t cellsLost() const { return cells_lost_; }

  private:
    /** Mirror nextDue() into the watched slot, if any. */
    void
    publishDue()
    {
        if (due_ != nullptr)
            *due_ = nextDue();
    }

    PicoTime latency_ps_;
    RingQueue<TimedCell> in_flight_;
    RingQueue<TimedCell> pending_;
    bool up_ = true;
    bool deferred_ = false;
    /** The downstream node's due slot (watch()); null until watched. */
    PicoTime* due_ = nullptr;
    int64_t cells_carried_ = 0;
    int64_t cells_lost_ = 0;
};

}  // namespace an2

#endif  // AN2_NETWORK_LINK_H
