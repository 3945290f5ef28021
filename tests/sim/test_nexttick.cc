/** @file Unit tests for EventQueue::nextTick() (peek without pop).
 *
 * The peek must be exact in every queue state -- empty, near wheel,
 * far wheel, overflow heap, and (the subtle one) from inside a
 * handler while same-tick events are still pending.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/eventq.hh"
#include "testutil.hh"

using namespace mspdsm;
using test::CallEvent;

namespace
{

struct Noop final : Event
{
    void process() override {}
};

} // namespace

TEST(NextTick, EmptyQueueReportsMaxTick)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextTick(), maxTick);
}

TEST(NextTick, ReportsEarliestWithoutPopping)
{
    EventQueue eq;
    int fired = 0;
    const auto count = [&] { ++fired; };
    CallEvent a(count), b(count);
    eq.schedule(30, a);
    eq.schedule(10, b);
    EXPECT_EQ(eq.nextTick(), 10u);
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_EQ(fired, 0); // peek must not execute anything
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(eq.nextTick(), maxTick);
}

TEST(NextTick, CoversFarWheelAndOverflowHeap)
{
    // Far wheel: a few gigaticks out. Overflow heap: beyond ~1M.
    Noop a, b, c;
    {
        EventQueue eq;
        eq.schedule(Tick{50} << 12, a);
        EXPECT_EQ(eq.nextTick(), Tick{50} << 12);
        eq.deschedule(a);
    }
    {
        EventQueue eq;
        eq.schedule(Tick{1} << 40, a);
        EXPECT_EQ(eq.nextTick(), Tick{1} << 40);
        eq.deschedule(a);
    }
    {
        // Both levels populated: the near one wins.
        EventQueue eq;
        eq.schedule(Tick{1} << 40, a);
        eq.schedule(Tick{50} << 12, b);
        eq.schedule(77, c);
        EXPECT_EQ(eq.nextTick(), 77u);
        eq.deschedule(a);
        eq.deschedule(b);
        eq.deschedule(c);
    }
}

TEST(NextTick, SeesRemainingSameTickEventsFromInsideHandler)
{
    EventQueue eq;
    std::vector<Tick> peeks;
    const auto peek = [&] { peeks.push_back(eq.nextTick()); };
    CallEvent a(peek), b(peek), c(peek);
    eq.schedule(5, a);
    eq.schedule(5, b);
    eq.schedule(40, c);
    EXPECT_TRUE(eq.run());
    // First handler still has a tick-5 sibling pending; the second
    // sees only the tick-40 event; the last sees an empty queue.
    EXPECT_EQ(peeks, (std::vector<Tick>{5, 40, maxTick}));
}

TEST(NextTick, SameTickScheduleFromHandlerIsVisible)
{
    EventQueue eq;
    std::vector<Tick> peeks;
    CallEvent inner([&] { peeks.push_back(eq.nextTick()); });
    CallEvent outer([&] {
        eq.scheduleAfter(0, inner);
        peeks.push_back(eq.nextTick());
    });
    Noop late;
    eq.schedule(9, outer);
    eq.schedule(25, late);
    EXPECT_TRUE(eq.run());
    // The outer handler's peek sees the same-tick event it just
    // scheduled; the inner one sees only the tick-25 event.
    EXPECT_EQ(peeks, (std::vector<Tick>{9, 25}));
}

TEST(NextTick, DescheduleUpdatesThePeek)
{
    Noop a, b;
    EventQueue eq;
    eq.schedule(3, a);
    eq.schedule(8, b);
    EXPECT_EQ(eq.nextTick(), 3u);
    EXPECT_TRUE(eq.deschedule(a));
    EXPECT_EQ(eq.nextTick(), 8u);
    EXPECT_TRUE(eq.deschedule(b));
    EXPECT_EQ(eq.nextTick(), maxTick);
}
