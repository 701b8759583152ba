// Fixture for C2: this file includes the executor header, so its
// static-storage state is reachable from pool tasks. One unguarded
// namespace-scope variable and two unguarded function-local statics
// (one in an out-of-line const member) are the positives; the
// guarded / atomic / const declarations are the sanctioned forms.
#include <atomic>
#include <mutex>

#include "support/thread_pool.hh"

namespace yasim {

int unguardedHits = 0;

std::mutex stateMutex;
int guardedHits = 0; // yasim-lint: guarded(stateMutex)

std::atomic<int> atomicHits{0};

const int kHitLimit = 16;

int
countCalls()
{
    static int calls = 0;
    ++calls;
    return calls;
}

struct HitCounter
{
    int total() const;
};

int
HitCounter::total() const
{
    static int totals = 0;
    return ++totals;
}

void
dispatchHits()
{
    ThreadPool pool;
    pool.submit();
}

} // namespace yasim
