#include "an2/sim/iq_switch.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "an2/base/error.h"
#include "an2/matching/wordset.h"
#include "an2/obs/recorder.h"

namespace an2 {

InputQueuedSwitch::InputQueuedSwitch(const IqSwitchConfig& config)
    : InputQueuedSwitch(config, nullptr)
{
}

InputQueuedSwitch::InputQueuedSwitch(const IqSwitchConfig& config,
                                     std::unique_ptr<Matcher> matcher,
                                     const FrameSchedule* cbr_schedule)
    : InputQueuedSwitch(config, std::move(matcher), cbr_schedule, nullptr)
{
}

InputQueuedSwitch::InputQueuedSwitch(int n, uint64_t seed, int window,
                                     int rounds)
    : InputQueuedSwitch(IqSwitchConfig{.n = n}, nullptr, nullptr,
                        std::make_unique<FifoInputStage>(n, seed, window,
                                                         rounds))
{
}

InputQueuedSwitch::FifoInputStage::FifoInputStage(int n, uint64_t seed,
                                                  int window, int rounds)
    : window(window), rounds(rounds), rng(seed),
      queues(static_cast<size_t>(requirePositive(n, "switch size"))),
      cursor(static_cast<size_t>(n)), bidders(static_cast<size_t>(n)),
      last(static_cast<size_t>(n)), lower(static_cast<size_t>(n)),
      contended(static_cast<size_t>(wordset::numWords(n)))
{
    AN2_REQUIRE(window >= 1, "window must be >= 1");
    AN2_REQUIRE(rounds >= 1, "rounds must be >= 1");
}

InputQueuedSwitch::InputQueuedSwitch(const IqSwitchConfig& config,
                                     std::unique_ptr<Matcher> matcher,
                                     const FrameSchedule* cbr_schedule,
                                     std::unique_ptr<FifoInputStage> fifo)
    : config_(config), matcher_(std::move(matcher)), fifo_(std::move(fifo)),
      cbr_schedule_(cbr_schedule),
      // The first member sized from n, so it checks n for the rest.
      crossbar_(requirePositive(config.n, "switch size")),
      vbr_req_(config.n),
      masked_req_(config.n), busy_words_(wordset::numWords(config.n)),
      in_busy_(static_cast<size_t>(busy_words_), 0),
      out_busy_(static_cast<size_t>(busy_words_), 0),
      next_in_(static_cast<size_t>(busy_words_), 0),
      next_out_(static_cast<size_t>(busy_words_), 0),
      vbr_match_(config.n, config.n), pending_vbr_(config.n, config.n),
      dead_in_(static_cast<size_t>(busy_words_), 0),
      dead_out_(static_cast<size_t>(busy_words_), 0)
{
    AN2_REQUIRE(config_.speedup >= 1 && config_.speedup <= 4,
                "speedup must be in 1..4, got " << config_.speedup);
    AN2_REQUIRE(matcher_ != nullptr || fifo_ != nullptr ||
                    (hasOutputQueues() && config_.speedup == 1),
                "the perfect fabric (no matcher) needs an output stage and "
                "speedup 1");
    AN2_REQUIRE(config_.speedup == 1 || hasOutputQueues(),
                "speedup > 1 needs the output stage");
    AN2_REQUIRE(!hasOutputQueues() || cbr_schedule_ == nullptr,
                "the output stage cannot be combined with a CBR schedule");
    AN2_REQUIRE(!hasOutputQueues() || !config_.pipelined,
                "the output stage cannot be combined with pipelining");
    for (int w : config_.wrr_weights)
        AN2_REQUIRE(w > 0, "WRR weights must be positive");
    const auto n = static_cast<size_t>(config_.n);
    if (matcher_ != nullptr) {
        vbr_bufs_.reserve(n);
        for (int i = 0; i < config_.n; ++i)
            vbr_bufs_.emplace_back(config_.n);
    }
    if (cbr_schedule_ != nullptr) {
        AN2_REQUIRE(cbr_schedule_->size() == config_.n,
                    "frame schedule size does not match switch");
        cbr_bufs_.reserve(n);
        for (int i = 0; i < config_.n; ++i)
            cbr_bufs_.emplace_back(config_.n);
    }
    if (config_.service == ServiceDiscipline::VirtualClock) {
        vc_ = std::make_unique<VirtualClockStage>();
        vc_->heaps.resize(n);
    } else if (config_.service == ServiceDiscipline::Fifo) {
        out_q_.resize(n);
    } else if (hasOutputQueues()) {
        out_q_.resize(n * kNumTrafficClasses);
        wrr_cls_.assign(n, 0);
        wrr_credit_.assign(n, config_.wrr_weights[0]);
    }
    if (hasOutputQueues())
        departed_.reserve(n);
    forwarded_.reserve(n * static_cast<size_t>(config_.speedup));
}

std::string
InputQueuedSwitch::name() const
{
    // ServiceDiscipline names, in declaration order.
    static const char* const kServices[] = {"none", "strict", "wrr", "fifo",
                                            "vclock"};
    const char* service = kServices[static_cast<int>(config_.service)];
    std::ostringstream oss;
    if (fifo_ != nullptr) {
        oss << "FIFO";
        if (fifo_->window > 1)
            oss << "(window=" << fifo_->window << ",rounds=" << fifo_->rounds
                << ")";
        return oss.str();
    }
    if (matcher_ == nullptr) {
        oss << "OutputQueued";
        if (config_.service != ServiceDiscipline::Fifo)
            oss << "[" << service << "]";
        return oss.str();
    }
    if (hasOutputQueues()) {
        oss << "CIOQ[" << matcher_->name() << ",S=" << config_.speedup << ","
            << service << "]";
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
    any_dead_ = wordset::popcountAll(dead_in_.data(), busy_words_) +
                    wordset::popcountAll(dead_out_.data(), busy_words_) >
                0;
    if (!vbr_bufs_.empty())
        for (PortId j = 0; j < config_.n; ++j)
            syncWire(i, j);
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
    any_dead_ = wordset::popcountAll(dead_in_.data(), busy_words_) +
                    wordset::popcountAll(dead_out_.data(), busy_words_) >
                0;
    if (!vbr_bufs_.empty())
        for (PortId i = 0; i < config_.n; ++i)
            syncWire(i, j);
}

void
InputQueuedSwitch::syncWire(PortId i, PortId j)
{
    vbr_req_.set(i, j,
                 inputPortLive(i) && outputPortLive(j) &&
                     vbr_bufs_[static_cast<size_t>(i)].hasCellFor(j));
}

void
InputQueuedSwitch::setFlowRate(FlowId flow, double rate)
{
    AN2_REQUIRE(vc_ != nullptr, "flow rates need the virtual-clock service");
    AN2_REQUIRE(rate > 0.0 && rate <= 1.0, "rate must be in (0,1]");
    vc_->rates[flow] = rate;
}

void
InputQueuedSwitch::setDefaultRate(double rate)
{
    AN2_REQUIRE(vc_ != nullptr, "flow rates need the virtual-clock service");
    AN2_REQUIRE(rate > 0.0 && rate <= 1.0, "rate must be in (0,1]");
    vc_->default_rate = rate;
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
    // The FIFO form queues every class in its input's ring, and the
    // perfect fabric delivers the cell to its output's queue at once.
    // Otherwise a CBR cell waits for the frame schedule; with the output
    // stage it is matched like VBR and its class sets its priority at
    // the output.
    if (matcher_ == nullptr) {
        if (fifo_ != nullptr)
            fifo_->queues[static_cast<size_t>(cell.input)].push_back(cell);
        else
            fileCell(cell);
    } else if (cell.cls == TrafficClass::CBR && !hasOutputQueues()) {
        AN2_REQUIRE(cbr_schedule_ != nullptr,
                    "CBR cell arrived at a switch with no frame schedule");
        cbr_bufs_[static_cast<size_t>(cell.input)].enqueueAs(queue_key, cell);
    } else {
        vbr_bufs_[static_cast<size_t>(cell.input)].enqueueAs(queue_key, cell);
        // Raise the pair's request wire; forwardVbr() drops it when the
        // dequeue empties the VOQ.
        vbr_req_.set(cell.input, cell.output, true);
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
    if (vbr_bufs_.empty())
        return;  // the perfect fabric holds no cell at its inputs
    InputBuffer& buf = vbr_bufs_[static_cast<size_t>(i)];
    if (buf.rebindFlow(flow, new_output) == 0)
        return;
    // The moved cells leave one VOQ of this input for another; rebuild
    // its request row from the buffer (O(N), and rerouting is rare). A
    // wire at a dead port stays down until the port revives.
    for (PortId j = 0; j < config_.n; ++j)
        syncWire(i, j);
    // A pipelined matching computed before the move may pair the old VOQ.
    pending_vbr_.reset(config_.n, config_.n);
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
        masked_req_.assignMasked(vbr_req_, in_busy, out_busy);
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
    InputBuffer& buf = vbr_bufs_[static_cast<size_t>(i)];
    AN2_ASSERT(buf.hasCellFor(j),
               "pipelined matching references a vanished cell");
    Cell c = buf.dequeueFor(j);
    obs::cellDequeued(c);
    if (!buf.hasCellFor(j))
        vbr_req_.set(i, j, false);
    ++vbr_forwarded_;
    // An idle reservation's pairing carried this VBR cell.
    if (cbr_schedule_ != nullptr &&
        wordset::testBit(cbr_schedule_->scheduledInputs(fs), i) &&
        cbr_schedule_->outputAt(fs, i) == j)
        ++vbr_in_cbr_slots_;
    forwarded_.push_back(c);
}

void
InputQueuedSwitch::VirtualClockStage::push(const Cell& cell)
{
    // Zhang's update, VC <- max(VC, now) + 1/rate: taking the max with
    // the arrival slot keeps an idle flow from hoarding credit.
    const double* rate = rates.get(cell.flow);
    double& clock = clocks[cell.flow];
    clock = std::max(clock, static_cast<double>(cell.arrival_slot)) +
            1.0 / (rate != nullptr ? *rate : default_rate);
    auto& heap = heaps[static_cast<size_t>(cell.output)];
    heap.push_back({cell, clock, arrivals++});
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
}

inline void
InputQueuedSwitch::fileCell(const Cell& cell)
{
    if (vc_ != nullptr)
        vc_->push(cell);
    else if (config_.service == ServiceDiscipline::Fifo)
        out_q_[static_cast<size_t>(cell.output)].push_back(cell);
    else
        classQueue(cell.output, cell.cls).push_back(cell);
}

void
InputQueuedSwitch::serveOutput(PortId j)
{
    auto sj = static_cast<size_t>(j);
    if (vc_ != nullptr) {
        auto& heap = vc_->heaps[sj];
        if (heap.empty())
            return;
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        departed_.push_back(heap.back().cell);
        heap.pop_back();
        return;
    }
    if (config_.service == ServiceDiscipline::Strict) {
        for (int cls = 0; cls < kNumTrafficClasses; ++cls) {
            RingQueue<Cell>& q =
                classQueue(j, static_cast<TrafficClass>(cls));
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
    for (int probes = 0; probes <= kNumTrafficClasses; ++probes) {
        int cls = wrr_cls_[sj];
        RingQueue<Cell>& q = classQueue(j, static_cast<TrafficClass>(cls));
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
    auto sj = static_cast<size_t>(j);
    if (vc_ != nullptr)
        return static_cast<int>(vc_->heaps[sj].size());
    if (config_.service == ServiceDiscipline::Fifo)
        return static_cast<int>(out_q_[sj].size());
    const RingQueue<Cell>* rings = &out_q_[sj * kNumTrafficClasses];
    int queued = 0;
    for (int cls = 0; cls < kNumTrafficClasses; ++cls)
        queued += static_cast<int>(rings[cls].size());
    return queued;
}

void
InputQueuedSwitch::serveOutputs()
{
    departed_.clear();
    const int n = config_.n;
    auto live = [this](PortId j) {
        return !any_dead_ || !wordset::testBit(dead_out_.data(), j);
    };
    if (config_.service == ServiceDiscipline::Fifo) {
        // One ring per output, served in a loop free of per-output
        // dispatch: perfect output queueing's common case.
        for (PortId j = 0; j < n; ++j) {
            RingQueue<Cell>& q = out_q_[static_cast<size_t>(j)];
            if (!q.empty() && live(j)) {
                departed_.push_back(q.front());
                q.pop_front();
            }
            out_hwm_ = std::max<int64_t>(out_hwm_,
                                         static_cast<int64_t>(q.size()));
        }
        return;
    }
    for (PortId j = 0; j < n; ++j) {
        if (live(j))
            serveOutput(j);
        out_hwm_ = std::max<int64_t>(out_hwm_, outputBacklog(j));
    }
}

void
InputQueuedSwitch::crossFabric(const Matching& setting, size_t first)
{
    // Always-on invariant: the crossbar setting never touches a dead
    // port.
    if (any_dead_)
        fault::InvariantChecker::checkMatchingAvoidsDead(
            setting, dead_in_.data(), dead_out_.data(), "InputQueuedSwitch");
    crossbar_.configure(setting);
    for (size_t k = first; k < forwarded_.size(); ++k)
        crossbar_.forward(forwarded_[k]);
}

int
InputQueuedSwitch::crossFifo()
{
    FifoInputStage& f = *fifo_;
    const int n = config_.n;
    const int words = busy_words_;
    vbr_match_.reset(n, n);
    std::fill(f.cursor.begin(), f.cursor.end(), 0);
    for (int round = 0; round < f.rounds; ++round) {
        // Every unmatched live input bids the output of the cell at its
        // cursor. The window ends at the W-th cell, and at the first cell
        // for a dead output: that cell blocks the ones behind it.
        bool any = false;
        for (PortId i = 0; i < n; ++i) {
            const auto si = static_cast<size_t>(i);
            const RingQueue<Cell>& q = f.queues[si];
            const auto pos = static_cast<size_t>(f.cursor[si]);
            if (pos >= q.size() || f.cursor[si] >= f.window ||
                vbr_match_.isInputMatched(i))
                continue;
            const PortId j = q.at(pos).output;
            if (any_dead_ && (wordset::testBit(dead_in_.data(), i) ||
                              wordset::testBit(dead_out_.data(), j)))
                continue;
            if (vbr_match_.isOutputSaturated(j)) {
                // Claimed in an earlier round: the input steps to its
                // next cell without bidding.
                ++f.cursor[si];
                continue;
            }
            const auto sj = static_cast<size_t>(j);
            if (f.bidders[sj]++ == 0)
                wordset::setBit(f.contended.data(), j);
            else
                f.lower[si] = f.last[sj];
            f.last[sj] = i;
            any = true;
        }
        if (!any)
            break;
        // Each bid-for output, in ascending order, draws its winner among
        // its bidders in ascending input order; the losers step to their
        // next cell. The list runs from the highest bidder down.
        wordset::forEachSet(f.contended.data(), words, [&](int j) {
            const auto sj = static_cast<size_t>(j);
            const int count = f.bidders[sj];
            const int win = count - 1 -
                            static_cast<int>(f.rng.nextBelow(
                                static_cast<uint64_t>(count)));
            PortId i = f.last[sj];
            for (int k = 0; k < count; ++k) {
                const PortId below = f.lower[static_cast<size_t>(i)];
                if (k == win)
                    vbr_match_.add(i, j);
                else
                    ++f.cursor[static_cast<size_t>(i)];
                i = below;
            }
            f.bidders[sj] = 0;
        });
        wordset::clearAll(f.contended.data(), words);
    }

    int cbr_sent = 0;
    for (PortId i = 0; i < n; ++i) {
        if (!vbr_match_.isInputMatched(i))
            continue;
        const auto si = static_cast<size_t>(i);
        const auto pos = static_cast<size_t>(f.cursor[si]);
        forwarded_.push_back(f.queues[si].at(pos));
        f.queues[si].erase(pos);
        obs::cellDequeued(forwarded_.back());
        cbr_sent += forwarded_.back().cls == TrafficClass::CBR;
    }
    crossFabric(vbr_match_, 0);
    return cbr_sent;
}

const std::vector<Cell>&
InputQueuedSwitch::runSlot(SlotTime slot)
{
    const int n = config_.n;
    forwarded_.clear();
    obs::slotBegin(slot);
    if (fifo_ != nullptr)
        return closeSlot(slot, forwarded_, crossFifo(), 0);

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
            for (PortId i = 0; i < n; ++i) {
                PortId j = vbr_match_.outputOf(i);
                if (j != kNoPort)
                    forwardVbr(fs, i, j);
            }
        } else {
            // The pipelined slot sets the crossbar to the pending
            // matching's surviving pairs, collected in vbr_match_.
            vbr_match_.reset(n, n);
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
                vbr_match_.add(i, j);
                forwardVbr(fs, i, j);
            }
        }
        // The CBR pairings (served only in single-phase slots) join the
        // VBR pairs: one matching sets the crossbar.
        for (size_t k = 0; k < n_cbr; ++k)
            vbr_match_.add(forwarded_[k].input, forwarded_[k].output);
        crossFabric(vbr_match_, phase_first);
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
    }

    // Departures: crossed cells leave at once, or join their output's
    // queue in crossing order, and then every live output sends one cell
    // (a dead output holds its queue until revival).
    const std::vector<Cell>* result = &forwarded_;
    int cbr_crossed = static_cast<int>(n_cbr);
    if (hasOutputQueues()) {
        for (const Cell& c : forwarded_) {
            fileCell(c);
            if (c.cls == TrafficClass::CBR)
                ++cbr_crossed;
        }
        serveOutputs();
        // The perfect fabric's cells leave their only queue here.
        if (matcher_ == nullptr)
            if (obs::Recorder* rec = obs::current())
                for (const Cell& c : departed_)
                    rec->cellDequeued(c);
        result = &departed_;
    }
    return closeSlot(slot, *result, cbr_crossed, n_cbr);
}

const std::vector<Cell>&
InputQueuedSwitch::closeSlot(SlotTime slot, const std::vector<Cell>& departed,
                             int cbr_crossed, size_t n_cbr)
{
    // Always-on invariant: the conservation ledger balances every slot.
    checker_.noteDeparted(static_cast<int64_t>(departed.size()));
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
    return departed;
}

void
InputQueuedSwitch::runSlots(SlotTime first, SlotTime count,
                            SlotDriver& driver)
{
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
    const auto n = static_cast<size_t>(config_.n);
    for (PortId j = 0; j < config_.n; ++j)
        backlog[j] = hasOutputQueues() ? outputBacklog(j) : 0;
    std::fill(voq, voq + n * n, 0);
    // The VBR and CBR input buffers, whichever this form builds.
    for (const auto* bufs : {&vbr_bufs_, &cbr_bufs_})
        for (size_t i = 0; i < bufs->size(); ++i)
            for (PortId j = 0; j < config_.n; ++j) {
                const int32_t cells = (*bufs)[i].cellCountFor(j);
                voq[i * n + static_cast<size_t>(j)] += cells;
                backlog[j] += cells;
            }
    if (fifo_ != nullptr)
        for (size_t i = 0; i < n; ++i) {
            const RingQueue<Cell>& q = fifo_->queues[i];
            for (size_t k = 0; k < q.size(); ++k) {
                ++voq[i * n + static_cast<size_t>(q.at(k).output)];
                ++backlog[q.at(k).output];
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
    if (vc_ != nullptr)
        for (const auto& heap : vc_->heaps)
            total += static_cast<int>(heap.size());
    if (fifo_ != nullptr)
        for (const auto& q : fifo_->queues)
            total += static_cast<int>(q.size());
    return total;
}

}  // namespace an2
