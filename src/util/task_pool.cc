/**
 * @file
 * Implementation of the persistent worker pool.
 */

#include "util/task_pool.hh"

#include "util/logging.hh"

namespace dstrain {

TaskPool::TaskPool(int threads)
{
    DSTRAIN_ASSERT(threads >= 0, "negative TaskPool thread count %d",
                   threads);
    threads_.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
        threads_.emplace_back([this, t] { workerLoop(t + 1); });
}

TaskPool::~TaskPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void TaskPool::drain(const Body &body, std::size_t n, int worker)
{
    for (;;) {
        const std::size_t i =
            cursor_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            break;
        body(i, worker);
    }
}

void TaskPool::workerLoop(int worker)
{
    std::uint64_t seen = 0;
    for (;;) {
        const Body *body = nullptr;
        std::size_t n = 0;
        {
            std::unique_lock<std::mutex> lock(mu_);
            wake_cv_.wait(lock, [&] {
                return stop_ || (job_ != nullptr && job_id_ != seen);
            });
            if (stop_)
                return;
            seen = job_id_;
            body = job_;
            n = job_n_;
            ++busy_;
        }
        drain(*body, n, worker);
        std::lock_guard<std::mutex> lock(mu_);
        if (--busy_ == 0)
            done_cv_.notify_all();
    }
}

void TaskPool::parallelFor(std::size_t n, const Body &body)
{
    if (n == 0)
        return;
    if (threads_.empty() || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i, 0);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        job_ = &body;
        job_n_ = n;
        cursor_.store(0, std::memory_order_relaxed);
        ++job_id_;
    }
    wake_cv_.notify_all();
    // Once the caller's drain returns every index is claimed; once no
    // worker is inside drain() every claimed index is done. Waiting
    // for both keeps a late worker of this job from claiming indices
    // of the next one off the shared cursor.
    drain(body, n, 0);
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return busy_ == 0; });
    job_ = nullptr;
}

} // namespace dstrain
