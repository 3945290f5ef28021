/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/eventq.hh"
#include "testutil.hh"

using namespace mspdsm;
using test::CallEvent;

namespace
{

/** Records its id into a shared order log when fired. */
struct LogEvent final : Event
{
    LogEvent(std::vector<int> &l, int i) : log(&l), id(i) {}

    void process() override { log->push_back(id); }

    std::vector<int> *log;
    int id;
};

struct Noop final : Event
{
    void process() override {}
};

} // namespace

TEST(EventQueue, StartsAtTickZeroEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.run());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    LogEvent a(order, 3), b(order, 1), c(order, 2);
    eq.schedule(30, a);
    eq.schedule(10, b);
    eq.schedule(20, c);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    std::vector<LogEvent> evs;
    evs.reserve(5);
    for (int i = 0; i < 5; ++i)
        eq.schedule(7, evs.emplace_back(order, i));
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, HandlerMaySchedule)
{
    EventQueue eq;
    int fired = 0;
    CallEvent inner([&] { ++fired; });
    CallEvent outer([&] {
        ++fired;
        eq.schedule(5, inner);
    });
    eq.schedule(1, outer);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.curTick(), 5u);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    CallEvent inner([&] { seen = eq.curTick(); });
    CallEvent outer([&] { eq.scheduleAfter(7, inner); });
    eq.schedule(10, outer);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(seen, 17u);
}

TEST(EventQueue, RunHonoursLimit)
{
    EventQueue eq;
    bool late = false;
    Noop early;
    CallEvent lateEv([&] { late = true; });
    eq.schedule(5, early);
    eq.schedule(100, lateEv);
    EXPECT_FALSE(eq.run(50));
    EXPECT_FALSE(late);
    EXPECT_EQ(eq.pending(), 1u);
    // Resume past the limit.
    EXPECT_TRUE(eq.run());
    EXPECT_TRUE(late);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    Noop evs[10];
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, evs[i]);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(eq.executed(), 10u);
}

TEST(EventQueue, ZeroDelaySelfScheduleChain)
{
    // An event rescheduling itself from its own handler: the pattern
    // the processor step event and the two-stage message event follow.
    struct Chain final : Event
    {
        void
        process() override
        {
            if (++depth < 1000)
                eq->scheduleAfter(0, *this);
        }

        EventQueue *eq = nullptr;
        int depth = 0;
    };

    EventQueue eq;
    Chain chain;
    chain.eq = &eq;
    eq.schedule(0, chain);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(chain.depth, 1000);
    EXPECT_EQ(eq.curTick(), 0u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    Noop past;
    CallEvent ev([&] {
        eq.schedule(50, past); // in the past relative to tick 100
    });
    eq.schedule(100, ev);
    EXPECT_DEATH(eq.run(), "past");
}
