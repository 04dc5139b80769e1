/**
 * @file
 * Process fan-out (src/par/procpool): forkMap returns the same
 * payloads in task order whatever the job count, runs child_init
 * once in each forked worker and never inline, survives payloads
 * larger than a pipe buffer, and treats a worker that dies before
 * delivering its payloads as fatal.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <vector>

#include "par/procpool.hh"

namespace nvo
{
namespace
{

/** child_init record of the current process. A forked worker starts
 *  from the parent's copy, so each worker reports only its own. */
unsigned initCalls = 0;
unsigned initWorker = ~0u;

TEST(ForkMap, InlineAndForkedAgree)
{
    auto fn = [](unsigned t) {
        return "task" + std::to_string(t * t);
    };
    auto init = [](unsigned w) {
        ++initCalls;
        initWorker = w;
    };
    // Each payload carries "|calls,worker" of the process that ran it.
    auto traced = [&fn](unsigned t) {
        return fn(t) + "|" + std::to_string(initCalls) + "," +
               std::to_string(initWorker);
    };
    const unsigned jobs = 3;
    auto inline_res = par::forkMap(7, 1, traced, init);
    auto forked_res = par::forkMap(7, jobs, traced, init);
    ASSERT_EQ(inline_res.size(), 7u);
    ASSERT_EQ(forked_res.size(), 7u);
    for (unsigned t = 0; t < 7; ++t) {
        EXPECT_EQ(inline_res[t],
                  fn(t) + "|0," + std::to_string(~0u))
            << "child_init ran on the inline path";
        EXPECT_EQ(forked_res[t],
                  fn(t) + "|1," + std::to_string(t % jobs))
            << "task " << t;
    }
    EXPECT_EQ(forked_res[3].substr(0, 5), "task9");
    // The parent itself never runs child_init.
    EXPECT_EQ(initCalls, 0u);
}

TEST(ForkMap, LargePayloadsSurviveThePipe)
{
    // Bigger than a pipe buffer, so partial reads/writes are hit.
    auto fn = [](unsigned t) {
        return std::string(300000 + t, static_cast<char>('a' + t));
    };
    auto res = par::forkMap(3, 2, fn);
    for (unsigned t = 0; t < 3; ++t) {
        ASSERT_EQ(res[t].size(), 300000u + t);
        EXPECT_EQ(res[t].back(), static_cast<char>('a' + t));
    }
}

TEST(ForkMapDeath, WorkerExitWithoutPayloadIsFatal)
{
    // Worker 1 of 2 owns task 1 and dies before sending it: the
    // parent must refuse the incomplete result vector.
    auto fn = [](unsigned t) {
        if (t == 1)
            ::_exit(1);
        return std::to_string(t);
    };
    EXPECT_DEATH(par::forkMap(4, 2, fn),
                 "exited abnormally|no result for task");
}

} // namespace
} // namespace nvo
