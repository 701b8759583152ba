#include "support/thread_pool.hh"

#include <algorithm>
#include <climits>
#include <cstdlib>

#include "support/logging.hh"

namespace yasim {

namespace {

std::atomic<unsigned> workerOverride{0};

} // namespace

unsigned
parallelWorkers()
{
    unsigned n = workerOverride.load();
    if (n > 0)
        return n;
    if (const char *env = std::getenv("YASIM_WORKERS")) {
        // A malformed or zero value is ignored, as if unset.
        uint64_t v = 0;
        if (parseDecimal(env, v) && v > 0 && v <= UINT_MAX)
            return unsigned(v);
    }
    n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

void
setParallelWorkers(unsigned n)
{
    workerOverride.store(n);
}

bool &
ThreadPool::inTask()
{
    thread_local bool in_task = false;
    return in_task;
}

ThreadPool::ThreadPool(unsigned worker_threads)
{
    threads.reserve(worker_threads);
    for (unsigned slot = 0; slot < worker_threads; ++slot)
        threads.emplace_back([this, slot] { workerLoop(slot); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(poolMutex);
        stopping = true;
    }
    workCv.notify_all();
    for (std::thread &t : threads)
        t.join();
}

ThreadPool::Stats
ThreadPool::stats() const
{
    Stats s;
    s.batches = statBatches.load();
    s.tasks = statTasks.load();
    s.callerTasks = statCallerTasks.load();
    s.steals = statSteals.load();
    return s;
}

void
ThreadPool::runBatch(Batch &batch, size_t count)
{
    std::lock_guard<std::mutex> serialize(batchMutex);

    // One contiguous chunk per participant (workers + this caller).
    size_t participants =
        std::min<size_t>(size_t(workerThreads()) + 1, count);
    batch.numChunks = participants;
    batch.chunks = std::make_unique<Chunk[]>(participants);
    batch.total = count;
    size_t base = count / participants;
    size_t extra = count % participants;
    size_t start = 0;
    for (size_t c = 0; c < participants; ++c) {
        size_t len = base + (c < extra ? 1 : 0);
        batch.chunks[c].next.store(start, std::memory_order_relaxed);
        batch.chunks[c].end = start + len;
        start += len;
    }

    {
        std::lock_guard<std::mutex> lock(poolMutex);
        current = &batch;
        ++generation;
    }
    statBatches.fetch_add(1, std::memory_order_relaxed);
    workCv.notify_all();

    // The caller owns chunk 0 and helps until nothing is claimable.
    drain(batch, 0, /*is_caller=*/true);

    // Wait for completion AND for every worker to have released the
    // batch — a worker can still be scanning the chunks after the last
    // task finishes, and the batch lives on the caller's stack.
    std::unique_lock<std::mutex> lock(poolMutex);
    doneCv.wait(lock, [&] {
        return batch.completed.load(std::memory_order_acquire) ==
                   batch.total &&
               batch.active.load(std::memory_order_acquire) == 0;
    });
    if (current == &batch)
        current = nullptr;
    if (batch.error)
        std::rethrow_exception(batch.error);
}

void
ThreadPool::workerLoop(unsigned slot)
{
    uint64_t seen = 0;
    for (;;) {
        Batch *batch = nullptr;
        size_t home = 0;
        {
            std::unique_lock<std::mutex> lock(poolMutex);
            workCv.wait(lock, [&] {
                return stopping || (current && generation != seen);
            });
            if (stopping)
                return;
            batch = current;
            seen = generation;
            batch->active.fetch_add(1, std::memory_order_acq_rel);
            // Chunk 0 is the caller's; workers start at 1 + slot.
            home = (1 + slot) % batch->numChunks;
        }
        drain(*batch, home, /*is_caller=*/false);
        {
            std::lock_guard<std::mutex> lock(poolMutex);
            batch->active.fetch_sub(1, std::memory_order_acq_rel);
            doneCv.notify_all();
        }
    }
}

void
ThreadPool::cancelSweep(Batch &batch)
{
    // Swallow every unclaimed index so completed still reaches total
    // and runBatch's wait terminates. exchange() serializes against
    // concurrent fetch_add claims, so each index is counted exactly
    // once — either run by whoever claimed it first or skipped here.
    size_t skipped = 0;
    for (size_t c = 0; c < batch.numChunks; ++c) {
        Chunk &chunk = batch.chunks[c];
        size_t prev = chunk.next.exchange(chunk.end,
                                          std::memory_order_acq_rel);
        if (prev < chunk.end)
            skipped += chunk.end - prev;
    }
    if (skipped == 0)
        return;
    size_t done = skipped + batch.completed.fetch_add(
                                skipped, std::memory_order_acq_rel);
    if (done == batch.total) {
        std::lock_guard<std::mutex> lock(poolMutex);
        doneCv.notify_all();
    }
}

size_t
ThreadPool::claim(Batch &batch, size_t home, bool *stolen)
{
    if (batch.cancel.cancelled()) {
        cancelSweep(batch);
        return SIZE_MAX;
    }
    Chunk &own = batch.chunks[home];
    size_t i = own.next.fetch_add(1, std::memory_order_relaxed);
    if (i < own.end) {
        *stolen = false;
        return i;
    }
    // Own chunk dry: steal from the chunk with the most work left.
    for (;;) {
        size_t victim = SIZE_MAX, best_left = 0;
        for (size_t c = 0; c < batch.numChunks; ++c) {
            if (c == home)
                continue;
            size_t next = batch.chunks[c].next.load(
                std::memory_order_relaxed);
            size_t left =
                next < batch.chunks[c].end ? batch.chunks[c].end - next
                                           : 0;
            if (left > best_left) {
                best_left = left;
                victim = c;
            }
        }
        if (victim == SIZE_MAX)
            return SIZE_MAX;
        Chunk &v = batch.chunks[victim];
        size_t j = v.next.fetch_add(1, std::memory_order_relaxed);
        if (j < v.end) {
            *stolen = true;
            return j;
        }
        // Lost the race on that chunk; rescan.
    }
}

void
ThreadPool::drain(Batch &batch, size_t home, bool is_caller)
{
    inTask() = true;
    for (;;) {
        bool stolen = false;
        size_t i = claim(batch, home, &stolen);
        if (i == SIZE_MAX)
            break;
        try {
            batch.invoke(batch.ctx, i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(poolMutex);
            if (!batch.error)
                batch.error = std::current_exception();
        }
        statTasks.fetch_add(1, std::memory_order_relaxed);
        if (is_caller)
            statCallerTasks.fetch_add(1, std::memory_order_relaxed);
        if (stolen)
            statSteals.fetch_add(1, std::memory_order_relaxed);
        size_t done = 1 + batch.completed.fetch_add(
                              1, std::memory_order_acq_rel);
        if (done == batch.total) {
            // Lock before notifying so the caller can't re-check the
            // predicate and sleep between our increment and notify.
            std::lock_guard<std::mutex> lock(poolMutex);
            doneCv.notify_all();
        }
    }
    inTask() = false;
}

ThreadPool &
globalPool()
{
    static ThreadPool pool(parallelWorkers() - 1);
    return pool;
}

} // namespace yasim
