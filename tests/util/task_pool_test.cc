/**
 * @file
 * Tests for the persistent worker pool behind parallel component
 * fills: exact index coverage, worker-id ranges, job reuse, and the
 * degenerate sizes the flow scheduler actually hits (empty solves,
 * single-component regions, serial pools).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <vector>

#include "util/task_pool.hh"

namespace dstrain {
namespace {

TEST(TaskPoolTest, CoversEveryIndexExactlyOnce)
{
    TaskPool pool(3);
    EXPECT_EQ(pool.workers(), 4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(hits.size(), [&](std::size_t i, int) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(TaskPoolTest, WorkerIdsStayInRange)
{
    TaskPool pool(2);
    std::atomic<bool> bad{false};
    pool.parallelFor(500, [&](std::size_t, int worker) {
        if (worker < 0 || worker >= pool.workers())
            bad.store(true, std::memory_order_relaxed);
    });
    EXPECT_FALSE(bad.load());
}

TEST(TaskPoolTest, ZeroIndicesIsANoop)
{
    TaskPool pool(2);
    std::atomic<int> calls{0};
    pool.parallelFor(0, [&](std::size_t, int) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);
}

TEST(TaskPoolTest, SerialPoolRunsEverythingOnTheCaller)
{
    // threads == 0 still yields a working pool: the calling thread is
    // always executor 0, exactly the shape solver_threads=1 builds.
    TaskPool pool(0);
    EXPECT_EQ(pool.workers(), 1);
    std::vector<int> hits(64, 0);
    pool.parallelFor(hits.size(), [&](std::size_t i, int worker) {
        EXPECT_EQ(worker, 0);
        hits[i] += 1;
    });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(TaskPoolTest, ReusableAcrossManyJobs)
{
    // The scheduler issues one parallelFor per solved event; the pool
    // must survive thousands of wake/drain cycles without losing
    // indices.
    TaskPool pool(2);
    std::atomic<long> sum{0};
    long expected = 0;
    for (int job = 0; job < 200; ++job) {
        const std::size_t n = static_cast<std::size_t>(1 + job % 7);
        for (std::size_t i = 0; i < n; ++i)
            expected += static_cast<long>(i);
        pool.parallelFor(n, [&](std::size_t i, int) {
            sum.fetch_add(static_cast<long>(i),
                          std::memory_order_relaxed);
        });
    }
    EXPECT_EQ(sum.load(), expected);
}

TEST(TaskPoolTest, PerWorkerScratchSeesNoSharing)
{
    // Callers key per-thread scratch off the worker id; two indices
    // running on the same worker must observe each other's writes in
    // program order (the drain loop is sequential per worker).
    TaskPool pool(3);
    std::vector<std::vector<std::size_t>> per_worker(
        static_cast<std::size_t>(pool.workers()));
    pool.parallelFor(300, [&](std::size_t i, int worker) {
        per_worker[static_cast<std::size_t>(worker)].push_back(i);
    });
    std::size_t total = 0;
    for (const auto &v : per_worker)
        total += v.size();
    EXPECT_EQ(total, 300u);
}

TEST(TaskPoolDeathTest, NegativeThreadCountAsserts)
{
    // The count is exact: "one per hardware thread" is the caller's
    // decision, not a sentinel value.
    EXPECT_DEATH(TaskPool(-1), "negative TaskPool thread count");
}

} // namespace
} // namespace dstrain
