#include "an2/cbr/frame_schedule.h"

#include <algorithm>

#include "an2/base/error.h"

namespace an2 {

FrameSchedule::FrameSchedule(int n, int frame_slots)
    : n_(requirePositive(n, "switch size")),
      frame_slots_(requirePositive(frame_slots, "frame slot count")),
      in2out_(static_cast<size_t>(frame_slots),
              std::vector<PortId>(static_cast<size_t>(n), kNoPort)),
      out2in_(static_cast<size_t>(frame_slots),
              std::vector<PortId>(static_cast<size_t>(n), kNoPort)),
      in_words_(wordset::numWords(n)),
      scheduled_(static_cast<size_t>(frame_slots) *
                     static_cast<size_t>(in_words_),
                 0)
{
}

void
FrameSchedule::checkSlot(int s) const
{
    AN2_REQUIRE(s >= 0 && s < frame_slots_, "slot " << s << " out of frame");
}

void
FrameSchedule::checkPorts(PortId i, PortId j) const
{
    AN2_REQUIRE(i >= 0 && i < n_, "input " << i << " out of range");
    AN2_REQUIRE(j >= 0 && j < n_, "output " << j << " out of range");
}

PortId
FrameSchedule::outputAt(int s, PortId i) const
{
    checkSlot(s);
    AN2_REQUIRE(i >= 0 && i < n_, "input " << i << " out of range");
    return in2out_[static_cast<size_t>(s)][static_cast<size_t>(i)];
}

PortId
FrameSchedule::inputAt(int s, PortId j) const
{
    checkSlot(s);
    AN2_REQUIRE(j >= 0 && j < n_, "output " << j << " out of range");
    return out2in_[static_cast<size_t>(s)][static_cast<size_t>(j)];
}

void
FrameSchedule::assign(int s, PortId i, PortId j)
{
    checkSlot(s);
    checkPorts(i, j);
    AN2_ASSERT(inputFree(s, i),
               "slot " << s << " input " << i << " already scheduled");
    AN2_ASSERT(outputFree(s, j),
               "slot " << s << " output " << j << " already scheduled");
    in2out_[static_cast<size_t>(s)][static_cast<size_t>(i)] = j;
    out2in_[static_cast<size_t>(s)][static_cast<size_t>(j)] = i;
    wordset::setBit(scheduledMut(s), i);
    ++total_;
}

void
FrameSchedule::clear(int s, PortId i, PortId j)
{
    checkSlot(s);
    checkPorts(i, j);
    AN2_ASSERT(outputAt(s, i) == j,
               "slot " << s << " does not schedule (" << i << "," << j << ")");
    in2out_[static_cast<size_t>(s)][static_cast<size_t>(i)] = kNoPort;
    out2in_[static_cast<size_t>(s)][static_cast<size_t>(j)] = kNoPort;
    wordset::clearBit(scheduledMut(s), i);
    --total_;
}

void
FrameSchedule::reset()
{
    for (auto& row : in2out_)
        std::fill(row.begin(), row.end(), kNoPort);
    for (auto& row : out2in_)
        std::fill(row.begin(), row.end(), kNoPort);
    std::fill(scheduled_.begin(), scheduled_.end(), 0);
    total_ = 0;
}

int
FrameSchedule::slotsFor(PortId i, PortId j) const
{
    checkPorts(i, j);
    int count = 0;
    for (int s = 0; s < frame_slots_; ++s)
        if (outputAt(s, i) == j)
            ++count;
    return count;
}

bool
FrameSchedule::realizes(const ReservationMatrix& res) const
{
    if (res.size() != n_ || res.frameSlots() != frame_slots_)
        return false;
    for (PortId i = 0; i < n_; ++i)
        for (PortId j = 0; j < n_; ++j)
            if (slotsFor(i, j) != res.reserved(i, j))
                return false;
    return true;
}

}  // namespace an2
