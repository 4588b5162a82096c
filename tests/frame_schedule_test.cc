// Tests for the frame schedule (an2/cbr/frame_schedule.h), including the
// paper's Figure 6 worked example.
#include "an2/cbr/frame_schedule.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "an2/base/rng.h"
#include "an2/cbr/slepian_duguid.h"

namespace an2 {
namespace {

// Recomputes every slot's scheduled-input set from outputAt() and
// compares it with the set the schedule keeps.
void
expectScheduledInputsMatch(const FrameSchedule& s)
{
    for (int slot = 0; slot < s.frameSlots(); ++slot) {
        std::vector<uint64_t> want(static_cast<size_t>(s.inputWords()), 0);
        for (PortId i = 0; i < s.size(); ++i)
            if (s.outputAt(slot, i) != kNoPort)
                wordset::setBit(want.data(), i);
        const uint64_t* got = s.scheduledInputs(slot);
        for (int w = 0; w < s.inputWords(); ++w)
            ASSERT_EQ(got[w], want[static_cast<size_t>(w)])
                << "slot " << slot << " word " << w;
    }
}

TEST(FrameScheduleTest, StartsEmpty)
{
    FrameSchedule s(4, 3);
    EXPECT_EQ(s.totalAssignments(), 0);
    for (int slot = 0; slot < 3; ++slot)
        for (PortId p = 0; p < 4; ++p) {
            EXPECT_TRUE(s.inputFree(slot, p));
            EXPECT_TRUE(s.outputFree(slot, p));
        }
}

TEST(FrameScheduleTest, AssignAndQuery)
{
    FrameSchedule s(4, 3);
    s.assign(1, 2, 3);
    EXPECT_EQ(s.outputAt(1, 2), 3);
    EXPECT_EQ(s.inputAt(1, 3), 2);
    EXPECT_FALSE(s.inputFree(1, 2));
    EXPECT_FALSE(s.outputFree(1, 3));
    EXPECT_TRUE(s.inputFree(0, 2));
    EXPECT_EQ(s.totalAssignments(), 1);
    EXPECT_EQ(s.slotsFor(2, 3), 1);
}

TEST(FrameScheduleTest, ConflictingAssignPanics)
{
    FrameSchedule s(4, 2);
    s.assign(0, 1, 1);
    EXPECT_THROW(s.assign(0, 1, 2), InternalError);  // input busy
    EXPECT_THROW(s.assign(0, 2, 1), InternalError);  // output busy
    EXPECT_NO_THROW(s.assign(1, 1, 1));  // other slot fine
}

TEST(FrameScheduleTest, ClearFreesPorts)
{
    FrameSchedule s(4, 2);
    s.assign(0, 1, 1);
    s.clear(0, 1, 1);
    EXPECT_TRUE(s.inputFree(0, 1));
    EXPECT_EQ(s.totalAssignments(), 0);
    EXPECT_THROW(s.clear(0, 1, 1), InternalError);
}

TEST(FrameScheduleTest, RealizesChecksExactCounts)
{
    // The Figure 6 example: 4x4 switch, frame of 3 slots.
    // Reservations (cells/frame):     rows = inputs 1..4 (0-based 0..3)
    //   in0: 2 to out0, 1 to out1
    //   in1: 1 to out0, 1 to out2
    //   in2: 2 to out2, 1 to out3
    //   in3: 1 to out1, 1 to out3
    ReservationMatrix res(4, 3);
    res.add(0, 0, 2);
    res.add(0, 1, 1);
    res.add(1, 0, 1);
    res.add(1, 2, 1);
    res.add(2, 2, 2);
    res.add(2, 3, 1);
    res.add(3, 1, 1);
    res.add(3, 3, 1);

    // One valid schedule (a Figure 6-style assignment):
    FrameSchedule s(4, 3);
    s.assign(0, 0, 0);
    s.assign(0, 1, 2);
    s.assign(0, 2, 3);
    s.assign(0, 3, 1);
    s.assign(1, 0, 0);
    s.assign(1, 2, 2);
    s.assign(1, 3, 3);
    s.assign(2, 0, 1);
    s.assign(2, 1, 0);
    s.assign(2, 2, 2);
    EXPECT_TRUE(s.realizes(res));

    // Removing one assignment breaks realization.
    s.clear(2, 2, 2);
    EXPECT_FALSE(s.realizes(res));
}

TEST(FrameScheduleTest, RealizesRejectsWrongShape)
{
    FrameSchedule s(4, 3);
    ReservationMatrix other_frame(4, 5);
    EXPECT_FALSE(s.realizes(other_frame));
    ReservationMatrix other_size(5, 3);
    EXPECT_FALSE(s.realizes(other_size));
}

TEST(FrameScheduleTest, ResetClearsEverything)
{
    FrameSchedule s(4, 3);
    s.assign(0, 0, 1);
    s.assign(1, 2, 3);
    s.assign(2, 1, 0);
    s.reset();
    EXPECT_EQ(s.totalAssignments(), 0);
    for (int slot = 0; slot < 3; ++slot)
        for (PortId p = 0; p < 4; ++p) {
            EXPECT_TRUE(s.inputFree(slot, p));
            EXPECT_TRUE(s.outputFree(slot, p));
        }
    // Fully reusable after reset.
    s.assign(0, 0, 1);
    EXPECT_EQ(s.totalAssignments(), 1);
}

TEST(FrameScheduleTest, ScheduledInputsTrackRandomEdits)
{
    for (int n : {3, 16, 70}) {
        FrameSchedule s(n, 5);
        Xoshiro256 rng(static_cast<uint64_t>(n));
        for (int op = 0; op < 3000; ++op) {
            const int slot = static_cast<int>(rng.nextBelow(5));
            const auto i = static_cast<PortId>(
                rng.nextBelow(static_cast<uint64_t>(n)));
            const auto j = static_cast<PortId>(
                rng.nextBelow(static_cast<uint64_t>(n)));
            const uint64_t kind = rng.nextBelow(100);
            if (kind == 0) {
                s.reset();
            } else if (s.outputAt(slot, i) != kNoPort) {
                s.clear(slot, i, s.outputAt(slot, i));
            } else if (s.inputAt(slot, j) == kNoPort) {
                s.assign(slot, i, j);
            }
            expectScheduledInputsMatch(s);
        }
    }
}

TEST(FrameScheduleTest, ScheduledInputsTrackSlepianDuguidChurn)
{
    // Adds move existing pairings between slots (the swap chains), so the
    // sets must follow assign and clear through every rearrangement.
    constexpr int kN = 70;
    constexpr int kFrame = 12;
    SlepianDuguidScheduler sd(kN, kFrame);
    Xoshiro256 rng(7);
    std::vector<std::pair<PortId, PortId>> booked;
    for (int op = 0; op < 2000; ++op) {
        if (!booked.empty() && rng.nextBelow(3) == 0) {
            const size_t k = rng.nextBelow(booked.size());
            sd.removeReservation(booked[k].first, booked[k].second, 1);
            booked[k] = booked.back();
            booked.pop_back();
        } else {
            const auto i = static_cast<PortId>(rng.nextBelow(kN));
            const auto j = static_cast<PortId>(rng.nextBelow(kN));
            if (sd.addReservation(i, j, 1))
                booked.emplace_back(i, j);
        }
        expectScheduledInputsMatch(sd.schedule());
    }
    EXPECT_GT(sd.totalSwaps(), 0);
}

TEST(FrameScheduleTest, BoundsChecked)
{
    FrameSchedule s(2, 2);
    EXPECT_THROW(s.outputAt(2, 0), UsageError);
    EXPECT_THROW(s.outputAt(0, 2), UsageError);
    EXPECT_THROW(s.assign(0, -1, 0), UsageError);
    // Sizes are checked before any table is sized from them.
    EXPECT_THROW(FrameSchedule(4, -1), UsageError);
    EXPECT_THROW(FrameSchedule(-1, 4), UsageError);
}

}  // namespace
}  // namespace an2
