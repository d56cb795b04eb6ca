#include "util/threadpool.h"

#include <utility>

#include "obs/trace.h"

namespace vlq {

ThreadPool::ThreadPool(unsigned workers, std::function<void(unsigned)> body)
    : body_(std::move(body))
{
    threads_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        threads_.emplace_back([this, w] {
            // Worker w always renders on trace lane w+1, so the
            // short-lived workers of successive points share stable
            // timeline lanes.
            obs::traceSetThreadLane(w + 1);
            body_(w);
        });
    }
}

ThreadPool::~ThreadPool()
{
    join();
}

void
ThreadPool::join()
{
    for (std::thread& t : threads_)
        if (t.joinable())
            t.join();
}

} // namespace vlq
