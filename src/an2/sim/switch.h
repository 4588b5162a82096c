/**
 * @file
 * The switch-architecture interface for the slot-synchronous simulator.
 *
 * A slot proceeds as: (1) the simulator feeds each arriving cell to
 * acceptCell(); (2) runSlot() schedules and forwards cells, returning the
 * cells that depart the switch in this slot. Delay of a cell is its
 * departure slot minus its injection slot.
 */
#ifndef AN2_SIM_SWITCH_H
#define AN2_SIM_SWITCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "an2/cell/cell.h"

namespace an2 {

/**
 * Per-slot callbacks for the batched slot loop (SwitchModel::runSlots).
 * The driver supplies each slot's arrivals and consumes its departures;
 * batching many slots into one virtual call amortizes the per-slot
 * dispatch, and a `final` switch class devirtualizes its own slot
 * internals inside the batch.
 */
class SlotDriver
{
  public:
    virtual ~SlotDriver() = default;

    /**
     * Arrivals for `slot` (cells already past any admission/fault
     * filtering — every returned cell is fed to the switch). The buffer
     * must stay valid until the same slot's endSlot() returns; drivers
     * reuse one buffer so steady-state slots perform no allocation.
     */
    virtual const std::vector<Cell>& beginSlot(SlotTime slot) = 0;

    /** Departures of `slot` (the switch's runSlot() return buffer). */
    virtual void endSlot(SlotTime slot,
                         const std::vector<Cell>& departed) = 0;
};

/** Abstract N x N switch architecture under test. */
class SwitchModel
{
  public:
    virtual ~SwitchModel() = default;

    /** Accept a cell arriving at the start of the current slot. */
    virtual void acceptCell(const Cell& cell) = 0;

    /**
     * Schedule and forward for slot `slot`; returns the departing cells.
     * Called once per slot, after all of the slot's arrivals. The
     * reference points at a buffer owned by the switch and is valid until
     * the next runSlot() call — implementations reuse it so that
     * steady-state slots perform no heap allocation.
     */
    virtual const std::vector<Cell>& runSlot(SlotTime slot) = 0;

    /**
     * Run `count` consecutive slots starting at `first`, pulling each
     * slot's arrivals from `driver` and handing its departures back —
     * semantically identical to the acceptCell()/runSlot() loop below.
     * Final implementations override this so the per-cell accept calls
     * and the slot body devirtualize inside one virtual dispatch per
     * batch instead of several per slot.
     */
    virtual void runSlots(SlotTime first, SlotTime count, SlotDriver& driver)
    {
        for (SlotTime s = first; s < first + count; ++s) {
            const std::vector<Cell>& arrivals = driver.beginSlot(s);
            for (const Cell& c : arrivals)
                acceptCell(c);
            driver.endSlot(s, runSlot(s));
        }
    }

    /** Cells currently buffered anywhere in the switch. */
    virtual int bufferedCells() const = 0;

    /** Architecture name for reports. */
    virtual std::string name() const = 0;

    /** Number of ports. */
    virtual int size() const = 0;

    // ---- fault plumbing (graceful degradation) ------------------------
    //
    // A dead port carries nothing: arrivals at a dead input or bound for
    // a dead output are dropped and counted in droppedCells(); cells
    // already queued toward a dead output stay buffered until it
    // revives. Every model keeps port liveness and the conservation
    // ledger (fault/invariants.h).

    /** Mark input port `i` (output port `j`) live or dead. */
    virtual void setInputPortLive(PortId i, bool live) = 0;
    virtual void setOutputPortLive(PortId j, bool live) = 0;

    virtual bool inputPortLive(PortId i) const = 0;
    virtual bool outputPortLive(PortId j) const = 0;

    /** Cells discarded by the switch (dead ports, buffer policy). */
    virtual int64_t droppedCells() const = 0;

    // ---- diagnostics ---------------------------------------------------

    /**
     * Fill `voq` (size() x size() entries, row-major by input) with
     * per-(input, output) queue occupancy and `backlog` (size() entries)
     * with per-output queued-cell totals. Diagnostic path only (periodic
     * snapshots, flight-recorder post-mortems), never the slot loop.
     */
    virtual void fillOccupancy(int32_t* voq, int32_t* backlog) const = 0;
};

}  // namespace an2

#endif  // AN2_SIM_SWITCH_H
