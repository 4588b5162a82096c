#include "an2/sim/iq_switch.h"

#include <algorithm>
#include <sstream>

#include "an2/base/error.h"
#include "an2/matching/wordset.h"
#include "an2/obs/recorder.h"

namespace an2 {

InputQueuedSwitch::InputQueuedSwitch(const IqSwitchConfig& config,
                                     std::unique_ptr<Matcher> matcher,
                                     const FrameSchedule* cbr_schedule)
    : config_(config), matcher_(std::move(matcher)),
      cbr_schedule_(cbr_schedule),
      // The first member sized from n, so it checks n for the rest.
      crossbar_(requirePositive(config.n, "switch size")),
      vbr_req_(config.n),
      masked_req_(config.n), busy_words_(wordset::numWords(config.n)),
      in_busy_(static_cast<size_t>(busy_words_), 0),
      out_busy_(static_cast<size_t>(busy_words_), 0),
      next_in_(static_cast<size_t>(busy_words_), 0),
      next_out_(static_cast<size_t>(busy_words_), 0),
      vbr_match_(config.n, config.n), combined_(config.n, config.n),
      pending_vbr_(config.n, config.n),
      dead_in_(static_cast<size_t>(busy_words_), 0),
      dead_out_(static_cast<size_t>(busy_words_), 0)
{
    AN2_REQUIRE(config_.speedup >= 1 && config_.speedup <= 4,
                "speedup must be in 1..4, got " << config_.speedup);
    AN2_REQUIRE(matcher_ != nullptr, "a matcher is required");
    AN2_REQUIRE(config_.speedup == 1 || hasOutputQueues(),
                "speedup > 1 needs the output stage (strict or wrr)");
    AN2_REQUIRE(!hasOutputQueues() || cbr_schedule_ == nullptr,
                "the output stage cannot be combined with a CBR schedule");
    AN2_REQUIRE(!hasOutputQueues() || !config_.pipelined,
                "the output stage cannot be combined with pipelining");
    for (int w : config_.wrr_weights)
        AN2_REQUIRE(w > 0, "WRR weights must be positive");
    vbr_bufs_.reserve(static_cast<size_t>(config_.n));
    for (int i = 0; i < config_.n; ++i)
        vbr_bufs_.emplace_back(config_.n);
    if (cbr_schedule_ != nullptr) {
        AN2_REQUIRE(cbr_schedule_->size() == config_.n,
                    "frame schedule size does not match switch");
        cbr_bufs_.reserve(static_cast<size_t>(config_.n));
        for (int i = 0; i < config_.n; ++i)
            cbr_bufs_.emplace_back(config_.n);
    }
    if (hasOutputQueues()) {
        out_q_.resize(static_cast<size_t>(config_.n) * kNumTrafficClasses);
        wrr_cls_.assign(static_cast<size_t>(config_.n), 0);
        wrr_credit_.assign(static_cast<size_t>(config_.n),
                           config_.wrr_weights[0]);
        departed_.reserve(static_cast<size_t>(config_.n));
    }
    forwarded_.reserve(static_cast<size_t>(config_.n) *
                       static_cast<size_t>(config_.speedup));
}

std::string
InputQueuedSwitch::name() const
{
    std::ostringstream oss;
    if (hasOutputQueues()) {
        oss << "CIOQ[" << matcher_->name() << ",S=" << config_.speedup << ","
            << (config_.service == ServiceDiscipline::Strict ? "strict"
                                                             : "wrr")
            << "]";
        return oss.str();
    }
    oss << "IQ[" << matcher_->name();
    if (cbr_schedule_ != nullptr)
        oss << ",CBR";
    if (config_.pipelined)
        oss << ",pipelined";
    oss << "]";
    return oss.str();
}

void
InputQueuedSwitch::setInputPortLive(PortId i, bool live)
{
    AN2_REQUIRE(i >= 0 && i < config_.n,
                "input port " << i << " out of range");
    if (live)
        wordset::clearBit(dead_in_.data(), i);
    else
        wordset::setBit(dead_in_.data(), i);
    vbr_req_.setInputLive(i, live);
    any_dead_ = wordset::popcountAll(dead_in_.data(), busy_words_) +
                    wordset::popcountAll(dead_out_.data(), busy_words_) >
                0;
}

void
InputQueuedSwitch::setOutputPortLive(PortId j, bool live)
{
    AN2_REQUIRE(j >= 0 && j < config_.n,
                "output port " << j << " out of range");
    if (live)
        wordset::clearBit(dead_out_.data(), j);
    else
        wordset::setBit(dead_out_.data(), j);
    vbr_req_.setOutputLive(j, live);
    any_dead_ = wordset::popcountAll(dead_in_.data(), busy_words_) +
                    wordset::popcountAll(dead_out_.data(), busy_words_) >
                0;
}

bool
InputQueuedSwitch::inputPortLive(PortId i) const
{
    return !wordset::testBit(dead_in_.data(), i);
}

bool
InputQueuedSwitch::outputPortLive(PortId j) const
{
    return !wordset::testBit(dead_out_.data(), j);
}

void
InputQueuedSwitch::acceptCellAs(FlowId queue_key, const Cell& cell)
{
    AN2_REQUIRE(cell.input >= 0 && cell.input < config_.n,
                "cell input " << cell.input << " out of range");
    AN2_REQUIRE(cell.output >= 0 && cell.output < config_.n,
                "cell output " << cell.output << " out of range");
    if (any_dead_ && (wordset::testBit(dead_in_.data(), cell.input) ||
                      wordset::testBit(dead_out_.data(), cell.output))) {
        // Dead port: the cell is lost at the line card, not buffered.
        checker_.noteDropped();
        if (cell.cls == TrafficClass::CBR)
            ++cbr_cells_lost_;
        obs::count(obs::Counter::CellsDroppedByFaults);
        return;
    }
    // A CBR cell waits for the frame schedule; with the output stage it
    // is matched like VBR and its class sets its priority at the output.
    if (cell.cls == TrafficClass::CBR && !hasOutputQueues()) {
        AN2_REQUIRE(cbr_schedule_ != nullptr,
                    "CBR cell arrived at a switch with no frame schedule");
        cbr_bufs_[static_cast<size_t>(cell.input)].enqueueAs(queue_key, cell);
    } else {
        vbr_bufs_[static_cast<size_t>(cell.input)].enqueueAs(queue_key, cell);
        // Patch the persistent request matrix; the matching dequeue-side
        // decrement happens in forwardVbr().
        vbr_req_.increment(cell.input, cell.output);
    }
    // Counted only once a buffer holds the cell: a rejected cell never
    // reaches the ledger.
    checker_.noteAccepted();
    obs::cellEnqueued(cell);
}

void
InputQueuedSwitch::rebindFlow(PortId i, TrafficClass cls, FlowId flow,
                              PortId new_output)
{
    AN2_REQUIRE(i >= 0 && i < config_.n,
                "input port " << i << " out of range");
    if (cls == TrafficClass::CBR && !hasOutputQueues()) {
        // CBR cells wait in the frame-schedule buffers, if there are any.
        if (!cbr_bufs_.empty())
            cbr_bufs_[static_cast<size_t>(i)].rebindFlow(flow, new_output);
        return;
    }
    InputBuffer& buf = vbr_bufs_[static_cast<size_t>(i)];
    if (buf.rebindFlow(flow, new_output) == 0)
        return;
    // The moved cells shift counts between two VOQs of this input; resync
    // its request row from the buffer (O(N), and rerouting is rare).
    for (PortId j = 0; j < config_.n; ++j)
        vbr_req_.set(i, j, buf.cellCountFor(j));
    // A pipelined matching computed before the move may pair the old VOQ.
    has_pending_ = false;
}

int
InputQueuedSwitch::purgeCbrFlow(PortId i, FlowId flow)
{
    AN2_REQUIRE(i >= 0 && i < config_.n,
                "input port " << i << " out of range");
    if (cbr_bufs_.empty())
        return 0;
    const int n = cbr_bufs_[static_cast<size_t>(i)].purgeFlow(flow);
    checker_.notePurged(n);
    return n;
}

int
InputQueuedSwitch::serveCbr(int fs)
{
    // Ascending input order, so forwarded_ keeps its CBR order.
    int served = 0;
    const uint64_t* scheduled = cbr_schedule_->scheduledInputs(fs);
    wordset::forEachSet(scheduled, cbr_schedule_->inputWords(), [&](int i) {
        const PortId j = cbr_schedule_->outputAt(fs, i);
        // A reservation whose schedule has not yet been repaired may
        // still pair a dead port; it cannot be served.
        if (any_dead_ && (wordset::testBit(dead_in_.data(), i) ||
                          wordset::testBit(dead_out_.data(), j)))
            return;
        auto& buf = cbr_bufs_[static_cast<size_t>(i)];
        if (!buf.hasCellFor(j))
            return;  // idle reservation: the slot falls to VBR
        forwarded_.push_back(buf.dequeueFor(j));
        obs::cellDequeued(forwarded_.back());
        obs::count(obs::Counter::CbrCellsForwarded);
        wordset::setBit(in_busy_.data(), i);
        wordset::setBit(out_busy_.data(), j);
        ++cbr_forwarded_;
        ++served;
    });
    return served;
}

bool
InputQueuedSwitch::predictCbrBusy(int fs)
{
    // Ports the frame schedule will claim in `fs`, predicted from the
    // CBR cells queued right now (CBR buffers only drain at their own
    // scheduled slots, so a cell present now is still present then; a
    // cell arriving later makes the prediction optimistic, and the
    // transmit path re-checks with CBR priority).
    bool any = false;
    const uint64_t* scheduled = cbr_schedule_->scheduledInputs(fs);
    wordset::forEachSet(scheduled, cbr_schedule_->inputWords(), [&](int i) {
        const PortId j = cbr_schedule_->outputAt(fs, i);
        if (!cbr_bufs_[static_cast<size_t>(i)].hasCellFor(j))
            return;
        if (any_dead_ && (wordset::testBit(dead_in_.data(), i) ||
                          wordset::testBit(dead_out_.data(), j)))
            return;  // dead pairing cannot claim ports next slot
        wordset::setBit(next_in_.data(), i);
        wordset::setBit(next_out_.data(), j);
        any = true;
    });
    return any;
}

void
InputQueuedSwitch::computeVbrMatch(const uint64_t* in_busy,
                                   const uint64_t* out_busy, bool any_busy,
                                   Matching& out)
{
    const RequestMatrix* req = &vbr_req_;
    if (any_busy) {
        // Copy-assign reuses masked_req_'s capacity (same dimensions
        // every slot), then strip the CBR-claimed ports.
        masked_req_ = vbr_req_;
        wordset::forEachSet(in_busy, busy_words_,
                            [&](int i) { masked_req_.clearRow(i); });
        wordset::forEachSet(out_busy, busy_words_,
                            [&](int j) { masked_req_.clearColumn(j); });
        req = &masked_req_;
        if (obs::Recorder* rec = obs::current())
            rec->cbrMasked(wordset::popcountAll(in_busy, busy_words_),
                           wordset::popcountAll(out_busy, busy_words_));
    }
    matcher_->matchInto(*req, out);
    AN2_ASSERT(out.isLegalFor(*req), "matcher returned illegal match");
    AN2_REQUIRE(out.outputCapacity() == 1 || hasOutputQueues(),
                "matcher output capacity " << out.outputCapacity()
                                           << " needs the output stage");
}

void
InputQueuedSwitch::forwardVbr(int fs, PortId i, PortId j)
{
    AN2_ASSERT(vbr_bufs_[static_cast<size_t>(i)].hasCellFor(j),
               "pipelined matching references a vanished cell");
    Cell c = vbr_bufs_[static_cast<size_t>(i)].dequeueFor(j);
    obs::cellDequeued(c);
    vbr_req_.decrement(i, j);
    ++vbr_forwarded_;
    // An idle reservation's pairing carried this VBR cell.
    if (cbr_schedule_ != nullptr &&
        wordset::testBit(cbr_schedule_->scheduledInputs(fs), i) &&
        cbr_schedule_->outputAt(fs, i) == j)
        ++vbr_in_cbr_slots_;
    forwarded_.push_back(c);
}

void
InputQueuedSwitch::serveOutput(PortId j)
{
    if (config_.service == ServiceDiscipline::Strict) {
        for (int cls = 0; cls < kNumTrafficClasses; ++cls) {
            RingQueue<Cell>& q =
                outQueue(j, static_cast<TrafficClass>(cls));
            if (q.empty())
                continue;
            departed_.push_back(q.front());
            q.pop_front();
            return;
        }
        return;
    }
    // Deterministic WRR: the pointer rests on a class with some credit;
    // serving costs one credit, and an exhausted or empty class passes
    // the pointer on with a fresh grant of that class's weight. At most
    // kNumTrafficClasses + 1 probes reach a cell whenever one exists, so
    // the discipline stays work-conserving.
    auto sj = static_cast<size_t>(j);
    for (int probes = 0; probes <= kNumTrafficClasses; ++probes) {
        int cls = wrr_cls_[sj];
        RingQueue<Cell>& q = outQueue(j, static_cast<TrafficClass>(cls));
        if (wrr_credit_[sj] > 0 && !q.empty()) {
            --wrr_credit_[sj];
            departed_.push_back(q.front());
            q.pop_front();
            return;
        }
        int next = (cls + 1) % kNumTrafficClasses;
        wrr_cls_[sj] = static_cast<uint8_t>(next);
        wrr_credit_[sj] = config_.wrr_weights[static_cast<size_t>(next)];
    }
}

int
InputQueuedSwitch::outputBacklog(PortId j) const
{
    int queued = 0;
    for (int cls = 0; cls < kNumTrafficClasses; ++cls)
        queued += static_cast<int>(
            outQueue(j, static_cast<TrafficClass>(cls)).size());
    return queued;
}

const std::vector<Cell>&
InputQueuedSwitch::runSlot(SlotTime slot)
{
    const int n = config_.n;
    forwarded_.clear();
    obs::slotBegin(slot);

    // Phase 1: CBR service from the frame schedule.
    bool cbr_busy = false;
    int fs = 0;  // the slot's place in the frame
    if (cbr_schedule_ != nullptr) {
        fs = static_cast<int>(slot % cbr_schedule_->frameSlots());
        wordset::clearAll(in_busy_.data(), busy_words_);
        wordset::clearAll(out_busy_.data(), busy_words_);
        cbr_busy = serveCbr(fs) > 0;
    }
    const size_t n_cbr = forwarded_.size();

    // Phase 2: the VBR matching for this slot — computed now, or (in
    // pipelined mode) taken from the previous slot's computation — and
    // the CBR pairings set the crossbar, and the cells cross (CBR first,
    // then VBR, the order they were appended to forwarded_). The output
    // stage repeats this up to S times, each phase matching over the
    // requests the previous one left, so a hot (i,j) pair can cross up
    // to S cells per slot. Without it the matcher runs every slot, even
    // with no request pending: randomized matchers draw on every call.
    size_t phase_first = 0;
    for (int phase = 0; phase < config_.speedup; ++phase) {
        if (hasOutputQueues()) {
            if (vbr_req_.numEdges() == 0)
                break;
            obs::count(obs::Counter::SpeedupPhases);
            ++phases_run_;
        }
        if (!config_.pipelined) {
            computeVbrMatch(in_busy_.data(), out_busy_.data(), cbr_busy,
                            vbr_match_);
            if (hasOutputQueues() && vbr_match_.size() == 0)
                break;
        }
        // The crossbar setting is this phase's VBR matching, merged into
        // combined_ when CBR pairings (served only in single-phase slots)
        // join it or a pipelined matching loses stale pairs.
        const bool merged = n_cbr > 0 || config_.pipelined;
        if (merged) {
            combined_.reset(n, n);
            for (size_t k = 0; k < n_cbr; ++k)
                combined_.add(forwarded_[k].input, forwarded_[k].output);
        }
        if (!config_.pipelined) {
            for (PortId i = 0; i < n; ++i) {
                PortId j = vbr_match_.outputOf(i);
                if (j == kNoPort)
                    continue;
                if (merged)
                    combined_.add(i, j);
                forwardVbr(fs, i, j);
            }
        } else if (has_pending_) {
            for (PortId i = 0; i < n; ++i) {
                PortId j = pending_vbr_.outputOf(i);
                if (j == kNoPort)
                    continue;
                // A CBR cell that arrived after the matching was computed
                // reclaims its scheduled ports: CBR has priority.
                if (cbr_busy && (wordset::testBit(in_busy_.data(), i) ||
                                 wordset::testBit(out_busy_.data(), j)))
                    continue;
                // A port killed after the matching was computed (mask flip
                // mid-pipeline) invalidates its pairings.
                if (any_dead_ && (wordset::testBit(dead_in_.data(), i) ||
                                  wordset::testBit(dead_out_.data(), j)))
                    continue;
                combined_.add(i, j);
                forwardVbr(fs, i, j);
            }
        }

        // Always-on invariant: the crossbar setting never touches a dead
        // port.
        const Matching& setting = merged ? combined_ : vbr_match_;
        if (any_dead_)
            fault::InvariantChecker::checkMatchingAvoidsDead(
                setting, dead_in_.data(), dead_out_.data(),
                "InputQueuedSwitch");
        crossbar_.configure(setting);
        for (size_t k = phase_first; k < forwarded_.size(); ++k)
            crossbar_.forward(forwarded_[k]);
        phase_first = forwarded_.size();
    }

    // Pipelined mode: while this slot's cells cross the fabric, the
    // scheduler computes the matching the *next* slot will use.
    if (config_.pipelined) {
        bool any_next = false;
        if (cbr_schedule_ != nullptr) {
            wordset::clearAll(next_in_.data(), busy_words_);
            wordset::clearAll(next_out_.data(), busy_words_);
            any_next = predictCbrBusy(
                fs + 1 == cbr_schedule_->frameSlots() ? 0 : fs + 1);
        }
        computeVbrMatch(next_in_.data(), next_out_.data(), any_next,
                        pending_vbr_);
        has_pending_ = true;
    }

    // Departures: crossed cells leave at once, or join their output's
    // class queue in crossing order, and then every live output sends
    // one cell (a dead output holds its queues until revival).
    const std::vector<Cell>* result = &forwarded_;
    int cbr_crossed = static_cast<int>(n_cbr);
    if (hasOutputQueues()) {
        for (const Cell& c : forwarded_) {
            outQueue(c.output, c.cls).push_back(c);
            if (c.cls == TrafficClass::CBR)
                ++cbr_crossed;
        }
        departed_.clear();
        for (PortId j = 0; j < n; ++j) {
            if (any_dead_ && wordset::testBit(dead_out_.data(), j))
                continue;
            serveOutput(j);
        }
        // Backlog high-water mark across all outputs (post-departure).
        for (PortId j = 0; j < n; ++j)
            out_hwm_ = std::max<int64_t>(out_hwm_, outputBacklog(j));
        result = &departed_;
    }

    // Always-on invariant: the conservation ledger balances every slot.
    checker_.noteDeparted(static_cast<int64_t>(result->size()));
    checker_.checkConservation(bufferedCells(), "InputQueuedSwitch");

    // Slot-boundary probes; the periodic snapshot samples the post-slot
    // queue state.
    if (obs::Recorder* rec = obs::current()) {
        if (hasOutputQueues())
            rec->set(obs::Gauge::OutputQueueHwm, out_hwm_);
        rec->endSlot(static_cast<int>(forwarded_.size()), cbr_crossed,
                     static_cast<int>(forwarded_.size() - n_cbr));
        if (rec->snapshotDue(slot))
            takeSnapshot(*rec, slot);
    }
    return *result;
}

void
InputQueuedSwitch::runSlots(SlotTime first, SlotTime count,
                            SlotDriver& driver)
{
    // Identical to the base loop, but compiled against the final class:
    // the per-cell acceptCell calls and the runSlot body are direct
    // (inlinable) calls here, so a k-slot batch pays one virtual
    // dispatch instead of ~arrivals+1 per slot.
    for (SlotTime s = first; s < first + count; ++s) {
        const std::vector<Cell>& arrivals = driver.beginSlot(s);
        for (const Cell& c : arrivals)
            acceptCell(c);
        driver.endSlot(s, runSlot(s));
    }
}

void
InputQueuedSwitch::fillOccupancy(int32_t* voq, int32_t* backlog) const
{
    const int n = config_.n;
    for (PortId j = 0; j < n; ++j)
        backlog[j] = out_q_.empty() ? 0 : outputBacklog(j);
    for (PortId i = 0; i < n; ++i) {
        for (PortId j = 0; j < n; ++j) {
            int32_t cells = vbr_bufs_[static_cast<size_t>(i)].cellCountFor(j);
            if (!cbr_bufs_.empty())
                cells += cbr_bufs_[static_cast<size_t>(i)].cellCountFor(j);
            voq[static_cast<size_t>(i) * static_cast<size_t>(n) +
                static_cast<size_t>(j)] = cells;
            backlog[j] += cells;
        }
    }
}

void
InputQueuedSwitch::takeSnapshot(obs::Recorder& rec, SlotTime slot) const
{
    AN2_REQUIRE(rec.ports() == config_.n,
                "recorder snapshot ports do not match the switch size");
    fillOccupancy(rec.voqMatrix(), rec.outputBacklog());
    rec.commitSnapshot(slot, bufferedCells());
}

int
InputQueuedSwitch::bufferedCells() const
{
    int total = 0;
    for (const auto& b : vbr_bufs_)
        total += b.totalCells();
    for (const auto& b : cbr_bufs_)
        total += b.totalCells();
    for (const auto& q : out_q_)
        total += static_cast<int>(q.size());
    return total;
}

}  // namespace an2
