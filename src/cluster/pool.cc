/**
 * @file
 * EpochPool implementation.
 */

#include "cluster/pool.hh"

#include <algorithm>
#include <utility>

#include "util/logging.hh"

namespace iat::cluster {

std::vector<unsigned>
claimOrder(const std::vector<double> &costs,
           const std::vector<char> &runs)
{
    std::vector<unsigned> order;
    order.reserve(costs.size());
    for (std::size_t s = 0; s < costs.size(); ++s)
        if (runs[s])
            order.push_back(static_cast<unsigned>(s));
    // Stable on the ascending ids, so equal costs keep id order.
    std::stable_sort(order.begin(), order.end(),
                     [&costs](unsigned a, unsigned b) {
                         return costs[a] > costs[b];
                     });
    return order;
}

EpochPool::EpochPool(unsigned executors) : executors_(executors)
{
    IAT_ASSERT(executors >= 2, "a pool needs at least two executors");
}

EpochPool::~EpochPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
EpochPool::run(const std::vector<unsigned> &order,
               const std::function<void(unsigned)> &job)
{
    // Lazy start keeps thread creation out of world construction.
    if (workers_.empty()) {
        workers_.reserve(executors_ - 1);
        for (unsigned w = 1; w < executors_; ++w)
            workers_.emplace_back([this] { workerLoop(); });
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        order_ = &order;
        job_ = &job;
        next_.store(0, std::memory_order_relaxed);
        busy_ = static_cast<unsigned>(workers_.size());
        ++generation_;
    }
    wake_.notify_all();
    drain();

    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return busy_ == 0; });
    order_ = nullptr;
    job_ = nullptr;
    if (error_)
        std::rethrow_exception(std::exchange(error_, nullptr));
}

void
EpochPool::drain()
{
    const std::vector<unsigned> &order = *order_;
    for (;;) {
        const std::size_t i =
            next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= order.size())
            return;
        // A throw must not leave a thread's entry function, nor
        // leave the caller while workers still use order and job.
        try {
            (*job_)(order[i]);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!error_)
                error_ = std::current_exception();
        }
    }
}

void
EpochPool::workerLoop()
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock,
                   [&] { return stop_ || generation_ != seen; });
        if (stop_)
            return;
        seen = generation_;
        lock.unlock();
        drain();
        lock.lock();
        if (--busy_ == 0)
            done_.notify_one();
    }
}

} // namespace iat::cluster
