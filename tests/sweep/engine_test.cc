/**
 * @file
 * The sweep engine's contract: every task runs exactly once with the
 * seed of its key, records come back in task order whatever order the
 * workers finish in, tasks start in task order, and a failure stops
 * further tasks and is reported by the key of the first failing task.
 * No case starts more than 16 threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sweep/sweep.hh"

namespace morc {
namespace sweep {
namespace {

constexpr std::size_t kTasks = 10;

std::string
key(std::size_t i)
{
    return "t/" + std::to_string(i);
}

TEST(SweepEngine, RecordsComeBackInTaskOrderAndEachTaskRunsOnce)
{
    for (unsigned jobs : {1u, 2u, 3u, 16u}) {
        std::vector<std::atomic<int>> runs(kTasks);
        std::vector<Task> tasks;
        for (std::size_t i = 0; i < kTasks; i++) {
            tasks.push_back(Task{key(i), [i, &runs](std::uint64_t seed) {
                // Later tasks sleep less, so workers finish out of order.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2 * (kTasks - i)));
                runs[i]++;
                stats::RunRecord rec;
                rec.label("seed", std::to_string(seed));
                return rec;
            }});
        }
        const std::vector<stats::RunRecord> records =
            Engine(jobs).run(tasks);
        ASSERT_EQ(records.size(), kTasks) << "jobs " << jobs;
        for (std::size_t i = 0; i < kTasks; i++) {
            EXPECT_EQ(runs[i].load(), 1) << "jobs " << jobs << ", task " << i;
            EXPECT_EQ(records[i].key, key(i)) << "jobs " << jobs;
            EXPECT_EQ(records[i].labels.at(0).second,
                      std::to_string(stableSeed(key(i))))
                << "jobs " << jobs << ", task " << i;
        }
    }
}

TEST(SweepEngine, OneJobRunsInTaskOrderAndStopsAfterAFailure)
{
    // One job runs every task on the calling thread, so a plain vector
    // records the order.
    std::vector<std::size_t> order;
    std::size_t throwing = kTasks; // none
    std::vector<Task> tasks;
    for (std::size_t i = 0; i < kTasks; i++) {
        tasks.push_back(Task{key(i), [i, &order,
                                      &throwing](std::uint64_t) {
            order.push_back(i);
            if (i == throwing)
                throw std::runtime_error("synthetic failure");
            return stats::RunRecord{};
        }});
    }
    Engine(1).run(tasks);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8,
                                               9}));

    order.clear();
    throwing = 2;
    EXPECT_THROW(Engine(1).run(tasks), std::runtime_error);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(SweepEngine, FirstFailureInTaskOrderIsReportedAtEveryJobCount)
{
    // Task 2 fails late and task 7 at once, so with several jobs task 7
    // usually fails first in time; the report must still name task 2.
    std::vector<Task> tasks;
    for (std::size_t i = 0; i < kTasks; i++) {
        tasks.push_back(Task{key(i), [i](std::uint64_t) {
            if (i == 2)
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            if (i == 2 || i == 7)
                throw std::runtime_error("synthetic failure");
            return stats::RunRecord{};
        }});
    }
    for (unsigned jobs = 1; jobs <= 8; jobs++) {
        try {
            Engine(jobs).run(tasks);
            ADD_FAILURE() << "jobs " << jobs << ": the sweep did not fail";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()),
                      "sweep task 't/2': synthetic failure")
                << "jobs " << jobs;
        }
    }
}

} // namespace
} // namespace sweep
} // namespace morc
