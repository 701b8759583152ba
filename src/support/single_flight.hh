/**
 * @file
 * SingleFlight: at most one computation per key at a time.
 *
 * The engine's results, the trace store's recordings and SimPoint's
 * points are each computed once per key. Each of those callers keeps
 * its own cache of finished values under its own mutex; SingleFlight
 * holds only the computations in flight, under that same mutex. A
 * caller that misses its cache calls run() without unlocking, and
 * publishes a value it computed before unlocking again, so a miss
 * either joins the computation of its key or finds its value.
 *
 * The first caller computes. Callers that arrive meanwhile wait for its
 * value, each polling its own CancelToken. A computation that throws,
 * CancelledError included, throws to its own caller only, and one
 * waiter computes in its place.
 */

#ifndef YASIM_SUPPORT_SINGLE_FLIGHT_HH
#define YASIM_SUPPORT_SINGLE_FLIGHT_HH

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "support/cancel.hh"
#include "support/check.hh"

namespace yasim {

/** Keyed single-flight table over text keys. See file comment. */
template <typename Value>
class SingleFlight
{
  public:
    /** What run() hands back. */
    struct Outcome
    {
        Value value;
        /** The value came from another caller's computation. */
        bool joined = false;
    };

    /** @p guard is the caller's cache mutex; it guards this table. */
    explicit SingleFlight(std::mutex &guard) : guard(guard) {}

    /** A computation of @p key is in flight. Needs the lock held. */
    bool running(const std::string &key) const
    {
        return flights.count(key) != 0;
    }

    /**
     * The value of @p key, which the caller's cache has just missed
     * under @p lock. With no computation of the key in flight, runs
     * @p compute with the lock released. Otherwise waits for that
     * computation's value, polling @p cancel every 20 ms and throwing
     * CancelledError when it fires, and computes in its place if it
     * throws. Returns and throws with @p lock held.
     */
    template <typename Compute>
    Outcome run(std::unique_lock<std::mutex> &lock, const std::string &key,
                const CancelToken &cancel, Compute &&compute)
    {
        YASIM_CHECK(lock.mutex() == &guard && lock.owns_lock(),
                    "SingleFlight::run for '%s' without its lock held",
                    key.c_str());
        std::shared_ptr<Flight> flight;
        auto it = flights.find(key);
        if (it == flights.end()) {
            flight = std::make_shared<Flight>();
            flights.emplace(key, flight);
        } else {
            flight = it->second;
            if (await(lock, *flight, cancel))
                return {flight->value, true};
        }

        Value value;
        lock.unlock();
        try {
            value = compute();
        } catch (...) {
            lock.lock();
            // Hand the flight to a waiter, or drop it if none waits.
            flight->owned = false;
            if (flight->waiters == 0)
                flights.erase(key);
            changed.notify_all();
            throw;
        }
        lock.lock();
        if (flight->waiters)
            flight->value = value;
        flight->done = true;
        flights.erase(key);
        changed.notify_all();
        return {std::move(value), false};
    }

  private:
    struct Flight
    {
        /** A caller is computing the value. */
        bool owned = true;
        bool done = false;
        /** Callers waiting for the value. */
        size_t waiters = 0;
        Value value{};
    };

    /**
     * Wait on @p flight: true once its value is ready, false when its
     * computation threw and this caller now owns it.
     */
    bool await(std::unique_lock<std::mutex> &lock, Flight &flight,
               const CancelToken &cancel)
    {
        ++flight.waiters;
        while (!changed.wait_for(lock, std::chrono::milliseconds(20), [&] {
            return flight.done || !flight.owned;
        })) {
            if (cancel.cancelled()) {
                --flight.waiters;
                CancelledError err;
                err.cause = cancel.cause();
                throw err;
            }
        }
        --flight.waiters;
        if (flight.done)
            return true;
        flight.owned = true;
        return false;
    }

    std::mutex &guard;
    std::condition_variable changed;
    std::map<std::string, std::shared_ptr<Flight>> flights;
};

} // namespace yasim

#endif // YASIM_SUPPORT_SINGLE_FLIGHT_HH
