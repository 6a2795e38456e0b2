/**
 * @file
 * ThreadPool implementation.
 */

#include "sim/thread_pool.hh"

#include <cstdint>

namespace athena
{

namespace
{

/** True on a pool worker thread. */
thread_local bool tls_on_worker = false;
/** True while THIS thread is inside a pooled run() submission —
 *  covers the submitting thread, which participates in draining
 *  and must not re-enter the pool from a nested call (it already
 *  holds the submission lock). */
thread_local bool tls_in_run = false;

} // namespace

ThreadPool &
ThreadPool::instance()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::ThreadPool()
{
    unsigned hw = std::thread::hardware_concurrency();
    // The calling thread always participates in run(), so the pool
    // holds hw - 1 workers (and none on a single-core host, where
    // extra threads only add scheduling noise).
    unsigned n = hw > 1 ? hw - 1 : 0;
    workers.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping = true;
    }
    wake.notify_all();
    for (auto &t : workers)
        t.join();
}

void
ThreadPool::workerLoop()
{
    tls_on_worker = true;
    std::uint64_t seen = 0;
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mtx);
            wake.wait(lock, [&] {
                return stopping || (current && generation != seen);
            });
            if (stopping)
                return;
            job = current;
            seen = generation;
        }
        // Drain the shared cursor alongside the other workers and
        // the submitting thread.
        for (;;) {
            std::size_t i =
                job->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= job->n)
                break;
            (*job->fn)(i);
            if (job->completed.fetch_add(
                    1, std::memory_order_acq_rel) +
                    1 ==
                job->n) {
                // Last index overall: wake the submitter.
                std::lock_guard<std::mutex> lock(mtx);
                done.notify_all();
            }
        }
    }
}

void
ThreadPool::run(std::size_t n,
                const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    jobCounter.fetch_add(1, std::memory_order_relaxed);
    if (n == 1 || workers.empty() || tls_on_worker || tls_in_run) {
        // Serial fast path: single index, no workers to share
        // with, or a nested call — from inside a pool worker OR
        // from the submitting thread while it drains its own job
        // (it holds the submission lock; re-entering would
        // self-deadlock).
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // One fleet-level job at a time; a second external submitter
    // queues here until the first drains (its indices still run at
    // full pool width, so nothing is lost).
    std::lock_guard<std::mutex> submit(submitMtx);
    struct InRunGuard
    {
        ~InRunGuard() { tls_in_run = false; }
    } in_run_guard;
    tls_in_run = true;

    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->n = n;
    {
        std::lock_guard<std::mutex> lock(mtx);
        current = job;
        ++generation;
    }
    wake.notify_all();

    // Participate: the submitting thread drains the same cursor.
    for (;;) {
        std::size_t i =
            job->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= job->n)
            break;
        fn(i);
        job->completed.fetch_add(1, std::memory_order_acq_rel);
    }

    {
        std::unique_lock<std::mutex> lock(mtx);
        done.wait(lock, [&] {
            return job->completed.load(std::memory_order_acquire) ==
                   job->n;
        });
        current = nullptr;
    }
}

} // namespace athena
