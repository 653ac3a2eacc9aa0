/**
 * @file
 * TaskPool: a small persistent worker pool for index-parallel loops.
 *
 * SweepRunner spawned fresh threads per sweep, which is fine at that
 * granularity, but the flow scheduler wants to fan independent
 * connected-component fills out *per event* — thread creation there
 * would dwarf the solve. TaskPool keeps its workers parked on a
 * condition variable between jobs, so a parallelFor() costs one
 * notify + one join handshake.
 *
 * The pool is deliberately minimal: one blocking parallelFor at a
 * time, indices claimed from an atomic cursor, the calling thread
 * participates as worker 0. Callers that need per-thread scratch
 * space key it off the `worker` argument, which is always in
 * [0, workers()).
 */

#ifndef DSTRAIN_UTIL_TASK_POOL_HH
#define DSTRAIN_UTIL_TASK_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dstrain {

/** A persistent pool running fn(index, worker) over [0, n). */
class TaskPool
{
  public:
    /** Loop body; must not throw. Called once per index. */
    using Body = std::function<void(std::size_t index, int worker)>;

    /**
     * @param threads extra worker threads to spawn, exactly; 0 means
     * the caller runs everything. Must be >= 0. The calling thread
     * always participates, so workers() == threads + 1.
     */
    explicit TaskPool(int threads);
    ~TaskPool();

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    /** Total executors, including the calling thread (>= 1). */
    int workers() const
    {
        return static_cast<int>(threads_.size()) + 1;
    }

    /**
     * Run body(i, worker) for every i in [0, n); blocks until all
     * indices complete. Bodies for distinct indices may run
     * concurrently; the same body is never invoked twice for one
     * index. Not reentrant: bodies must not call parallelFor on the
     * same pool.
     */
    void parallelFor(std::size_t n, const Body &body);

  private:
    /** @param worker this thread's worker id (>= 1; caller is 0). */
    void workerLoop(int worker);
    /** Claim and run indices until the current job is exhausted. */
    void drain(const Body &body, std::size_t n, int worker);

    std::vector<std::thread> threads_;
    std::mutex mu_;
    std::condition_variable wake_cv_;   // workers wait for a new job
    std::condition_variable done_cv_;   // parallelFor waits for drain
    const Body *job_ = nullptr;         // guarded by mu_
    std::size_t job_n_ = 0;             // guarded by mu_
    std::uint64_t job_id_ = 0;          // guarded by mu_
    std::atomic<std::size_t> cursor_{0};
    int busy_ = 0;                      // workers in drain(); mu_
    bool stop_ = false;                 // guarded by mu_
};

} // namespace dstrain

#endif // DSTRAIN_UTIL_TASK_POOL_HH
