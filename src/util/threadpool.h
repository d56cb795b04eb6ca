#ifndef VLQ_UTIL_THREADPOOL_H
#define VLQ_UTIL_THREADPOOL_H

#include <functional>
#include <thread>
#include <vector>

namespace vlq {

/**
 * The Monte-Carlo engine's workers for one point. The constructor
 * starts `workers` threads, worker w running body(w) on trace lane w+1
 * (lane 0 is the calling thread), and returns at once: the calling
 * thread keeps running beside its workers -- the engine builds the
 * next point's set-up there -- until join(). The workers share
 * nothing through the pool; body hands them their work.
 */
class ThreadPool
{
  public:
    ThreadPool(unsigned workers, std::function<void(unsigned)> body);

    /** Joins every worker that join() has not. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Block until every worker has returned from body. */
    void join();

  private:
    const std::function<void(unsigned)> body_;
    std::vector<std::thread> threads_;
};

} // namespace vlq

#endif // VLQ_UTIL_THREADPOOL_H
