/**
 * @file
 * Lazily-initialized persistent worker pool behind parallelFor().
 *
 * The experiment fleet issues thousands of short parallelFor calls
 * (one simulation per index). Spawning hardware_concurrency threads
 * per call costs a clone/join round-trip per simulation; the pool
 * pays that once for the process lifetime. Work distribution stays
 * what it was: a shared atomic cursor that workers race on, so any
 * imbalance between simulations self-levels.
 *
 * Nested calls are safe: a parallelFor issued from inside a pool
 * worker runs inline on that worker (the pool never blocks one job
 * waiting for another, so there is no deadlock and no thread
 * explosion).
 */

#ifndef ATHENA_SIM_THREAD_POOL_HH
#define ATHENA_SIM_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace athena
{

class ThreadPool
{
  public:
    /** The process-wide pool, created on first use. */
    static ThreadPool &instance();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;
    ~ThreadPool();

    /**
     * Run fn(i) for i in [0, n), distributing indices over the pool
     * workers plus the calling thread. Returns when every index has
     * completed. Reentrant calls from a worker run serially inline.
     */
    void run(std::size_t n,
             const std::function<void(std::size_t)> &fn);

    /** Persistent worker threads (excludes the calling thread). */
    unsigned workerCount() const { return static_cast<unsigned>(workers.size()); }

    /** Total run() jobs executed (pool-reuse diagnostics/tests). */
    std::uint64_t jobsExecuted() const { return jobCounter.load(); }

  private:
    ThreadPool();

    void workerLoop();

    struct Job
    {
        /** Borrowed from run()'s caller; only dereferenced for
         *  indices < n, which run() outlives by construction. */
        const std::function<void(std::size_t)> *fn = nullptr;
        std::size_t n = 0;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> completed{0};
    };

    std::vector<std::thread> workers;

    /** Serializes whole run() submissions from external threads. */
    std::mutex submitMtx;
    std::mutex mtx;
    std::condition_variable wake;  ///< Workers wait for a new job.
    std::condition_variable done;  ///< run() waits for completion.
    /** Job being drained, or null. shared_ptr so a straggler
     *  worker's final empty cursor probe outlives run(). */
    std::shared_ptr<Job> current;
    std::uint64_t generation = 0;  ///< Bumped per job (wakeup token).
    bool stopping = false;

    std::atomic<std::uint64_t> jobCounter{0};
};

} // namespace athena

#endif // ATHENA_SIM_THREAD_POOL_HH
