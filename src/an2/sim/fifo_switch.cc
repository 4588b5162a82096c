#include "an2/sim/fifo_switch.h"

#include <algorithm>
#include <sstream>

#include "an2/matching/windowed_fifo.h"
#include "an2/matching/wordset.h"
#include "an2/obs/recorder.h"

namespace an2 {

FifoSwitch::FifoSwitch(int n, uint64_t seed, int window, int rounds)
    : n_(requirePositive(n, "switch size")), window_(window),
      rounds_(rounds),
      queues_(static_cast<size_t>(n)), crossbar_(n), rng_(seed),
      dead_in_(static_cast<size_t>(wordset::numWords(n)), 0),
      dead_out_(static_cast<size_t>(wordset::numWords(n)), 0)
{
    AN2_REQUIRE(window >= 1, "window must be >= 1");
    AN2_REQUIRE(rounds >= 1, "rounds must be >= 1");
}

void
FifoSwitch::setInputPortLive(PortId i, bool live)
{
    AN2_REQUIRE(i >= 0 && i < n_, "input port " << i << " out of range");
    if (live)
        wordset::clearBit(dead_in_.data(), i);
    else
        wordset::setBit(dead_in_.data(), i);
    const int w = wordset::numWords(n_);
    any_dead_ = wordset::popcountAll(dead_in_.data(), w) +
                    wordset::popcountAll(dead_out_.data(), w) >
                0;
}

void
FifoSwitch::setOutputPortLive(PortId j, bool live)
{
    AN2_REQUIRE(j >= 0 && j < n_, "output port " << j << " out of range");
    if (live)
        wordset::clearBit(dead_out_.data(), j);
    else
        wordset::setBit(dead_out_.data(), j);
    const int w = wordset::numWords(n_);
    any_dead_ = wordset::popcountAll(dead_in_.data(), w) +
                    wordset::popcountAll(dead_out_.data(), w) >
                0;
}

bool
FifoSwitch::inputPortLive(PortId i) const
{
    return !wordset::testBit(dead_in_.data(), i);
}

bool
FifoSwitch::outputPortLive(PortId j) const
{
    return !wordset::testBit(dead_out_.data(), j);
}

void
FifoSwitch::acceptCell(const Cell& cell)
{
    AN2_REQUIRE(cell.input >= 0 && cell.input < n_,
                "cell input " << cell.input << " out of range");
    AN2_REQUIRE(cell.output >= 0 && cell.output < n_,
                "cell output " << cell.output << " out of range");
    if (any_dead_ && (wordset::testBit(dead_in_.data(), cell.input) ||
                      wordset::testBit(dead_out_.data(), cell.output))) {
        checker_.noteDropped();
        obs::count(obs::Counter::CellsDroppedByFaults);
        return;
    }
    checker_.noteAccepted();
    queues_[static_cast<size_t>(cell.input)].push_back(cell);
    obs::cellEnqueued(cell);
}

const std::vector<Cell>&
FifoSwitch::runSlot(SlotTime slot)
{
    departed_.clear();
    obs::slotBegin(slot);
    // Expose the first `window` destinations of each FIFO. A dead input
    // exposes nothing; a cell bound for a dead output cannot be served
    // and, being a FIFO, blocks everything behind it (the window is
    // truncated there — HOL blocking extends to failures).
    std::vector<std::vector<PortId>> window_dests(static_cast<size_t>(n_));
    for (PortId i = 0; i < n_; ++i) {
        if (any_dead_ && wordset::testBit(dead_in_.data(), i))
            continue;
        const auto& q = queues_[static_cast<size_t>(i)];
        auto take = std::min<size_t>(q.size(), static_cast<size_t>(window_));
        auto& dests = window_dests[static_cast<size_t>(i)];
        dests.reserve(take);
        for (size_t k = 0; k < take; ++k) {
            if (any_dead_ && wordset::testBit(dead_out_.data(), q[k].output))
                break;
            dests.push_back(q[k].output);
        }
    }

    WindowedFifoResult res = windowedFifoMatch(window_dests, n_, rounds_,
                                               rng_);
    crossbar_.configure(res.matching);

    int cbr_sent = 0;
    for (PortId i = 0; i < n_; ++i) {
        int pos = res.positions[static_cast<size_t>(i)];
        if (pos < 0)
            continue;
        auto& q = queues_[static_cast<size_t>(i)];
        AN2_ASSERT(pos < static_cast<int>(q.size()),
                   "matched position beyond queue");
        Cell c = q[static_cast<size_t>(pos)];
        q.erase(q.begin() + pos);
        crossbar_.forward(c);
        departed_.push_back(c);
        obs::cellDequeued(c);
        cbr_sent += c.cls == TrafficClass::CBR;
    }
    if (any_dead_)
        fault::InvariantChecker::checkMatchingAvoidsDead(
            res.matching, dead_in_.data(), dead_out_.data(), "FifoSwitch");
    checker_.noteDeparted(static_cast<int64_t>(departed_.size()));
    checker_.checkConservation(bufferedCells(), "FifoSwitch");

    // Slot-boundary probes; the periodic snapshot samples the post-slot
    // queue state.
    if (obs::Recorder* rec = obs::current()) {
        const int sent = static_cast<int>(departed_.size());
        rec->endSlot(sent, cbr_sent, sent);
        if (rec->snapshotDue(slot)) {
            AN2_REQUIRE(rec->ports() == n_, "snapshot ports != switch size");
            fillOccupancy(rec->voqMatrix(), rec->outputBacklog());
            rec->commitSnapshot(slot, bufferedCells());
        }
    }
    return departed_;
}

void
FifoSwitch::fillOccupancy(int32_t* voq, int32_t* backlog) const
{
    const auto n = static_cast<size_t>(n_);
    std::fill(voq, voq + n * n, 0);
    std::fill(backlog, backlog + n, 0);
    for (size_t i = 0; i < n; ++i)
        for (const Cell& c : queues_[i]) {
            ++voq[i * n + static_cast<size_t>(c.output)];
            ++backlog[c.output];
        }
}

int
FifoSwitch::bufferedCells() const
{
    int total = 0;
    for (const auto& q : queues_)
        total += static_cast<int>(q.size());
    return total;
}

std::string
FifoSwitch::name() const
{
    std::ostringstream oss;
    oss << "FIFO";
    if (window_ > 1)
        oss << "(window=" << window_ << ",rounds=" << rounds_ << ")";
    return oss.str();
}

}  // namespace an2
