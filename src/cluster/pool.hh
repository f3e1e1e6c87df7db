/**
 * @file
 * The executor pool behind step 2 of ClusterWorld::run: T threads
 * run one epoch's shards, the calling thread being one of them, and
 * the other T - 1 live as long as the world.
 *
 * One epoch is one generation. The caller publishes the claim order
 * and bumps the generation counter under the pool mutex, wakes the
 * workers, and then claims work like any of them: every executor
 * takes the next entry of the order from one atomic index until the
 * order runs out. The caller returns once every worker has reported
 * the generation finished, again under the mutex.
 *
 * That mutex is the whole happens-before story. Everything the
 * caller wrote before bumping the generation (the barrier steps of
 * the previous epoch included) is visible to a worker that observed
 * the bump, and everything a worker wrote while running its shards
 * is visible to the caller once it has seen the worker's finish.
 * The atomic index only makes each claim unique; it orders nothing.
 */

#ifndef IATSIM_CLUSTER_POOL_HH
#define IATSIM_CLUSTER_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace iat::cluster {

/**
 * The order executors claim shards in: ids sorted by @p costs (the
 * wall time each shard took last epoch), longest first, ties to the
 * lower id. Only ids with @p runs[s] set are listed.
 */
std::vector<unsigned> claimOrder(const std::vector<double> &costs,
                                 const std::vector<char> &runs);

/** T executors: the caller plus T - 1 persistent workers. */
class EpochPool
{
  public:
    /** @p executors >= 2; the workers start with the first run(). */
    explicit EpochPool(unsigned executors);
    ~EpochPool();

    EpochPool(const EpochPool &) = delete;
    EpochPool &operator=(const EpochPool &) = delete;

    /** Call @p job(id) once for every id of @p order, spread over
     *  all executors; returns when every call has returned. The
     *  first exception a call throws is rethrown here, after that. */
    void run(const std::vector<unsigned> &order,
             const std::function<void(unsigned)> &job);

  private:
    void workerLoop();
    void drain();

    unsigned executors_;

    std::mutex mutex_;
    std::condition_variable wake_;  ///< generation bumped or stopping
    std::condition_variable done_;  ///< busy_ reached zero
    std::uint64_t generation_ = 0;
    unsigned busy_ = 0; ///< workers still inside this generation
    bool stop_ = false;
    std::exception_ptr error_; ///< first throw of this generation

    const std::vector<unsigned> *order_ = nullptr;
    const std::function<void(unsigned)> *job_ = nullptr;
    std::atomic<std::size_t> next_{0}; ///< next claim in *order_

    std::vector<std::thread> workers_; ///< last: they use all above
};

} // namespace iat::cluster

#endif // IATSIM_CLUSTER_POOL_HH
