#include "common/threading.h"

#ifdef __linux__
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <thread>
#include <vector>

namespace vero {
namespace {

// True on the runtime's helper threads: a ParallelFor issued from inside a
// helper runs inline, so nesting can never wait on a busy helper.
thread_local bool t_is_helper = false;

// One ParallelFor call in flight. It lives on the caller's stack; the
// runtime's mutex guards every field except `next`.
struct Job {
  const std::function<void(size_t)>* fn = nullptr;
  size_t n = 0;
  std::atomic<size_t> next{0};
  size_t open_slots = 0;       // Helper slots no helper has taken yet.
  size_t running_helpers = 0;  // Helpers still claiming indices.
  std::exception_ptr error;    // First exception fn threw.
  std::condition_variable done;
};

// Claims indices until the counter passes n; returns what fn threw, if
// anything, after the claimed index finished.
std::exception_ptr Drain(Job& job) {
  try {
    for (;;) {
      const size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.n) return nullptr;
      (*job.fn)(i);
    }
  } catch (...) {
    return std::current_exception();
  }
}

int CurrentCpu() {
#ifdef __linux__
  return sched_getcpu();
#else
  return -1;
#endif
}

// Starts a new helper on the (k+1)-th CPU after its creator's in the
// helper's allowed set, then releases it to the whole set. A thread starts
// on its creator's CPU; where the kernel balances load it moves on, but
// where it does not (a cpuset with sched_load_balance off) it would stay
// there for good, and every helper would timeslice with the caller.
void SpreadFromCreator(int creator_cpu, size_t k) {
#ifdef __linux__
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int cpus[CPU_SETSIZE];
  size_t count = 0;
  size_t base = 0;  // The creator's position in `cpus`.
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (cpu == creator_cpu) base = count;
    cpus[count++] = cpu;
  }
  if (count <= 1) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[(base + 1 + k) % count], &one);
  if (sched_setaffinity(0, sizeof(one), &one) == 0) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
  }
#else
  (void)creator_cpu;
  (void)k;
#endif
}

// The process-wide pool of persistent helper threads behind ParallelFor.
class Runtime {
 public:
  static Runtime& Get() {
    static Runtime runtime;
    return runtime;
  }

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  ~Runtime() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& helper : helpers_) helper.join();
  }

  void Run(size_t n, size_t width, const std::function<void(size_t)>& fn) {
    Job job;
    job.fn = &fn;
    job.n = n;
    const size_t slots = width - 1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Each idle helper takes one open slot; grow only for the excess.
      // Helpers start before the job is published, so a failed thread
      // creation throws with nothing left pointing at this frame.
      while (idle_ < open_slots_ + slots) {
        helpers_.emplace_back([this, cpu = CurrentCpu(), k = helpers_.size()] {
          SpreadFromCreator(cpu, k);
          HelperLoop();
        });
        ++idle_;
      }
      job.open_slots = slots;
      open_.push_back(&job);
      open_slots_ += slots;
    }
    for (size_t s = 0; s < slots; ++s) work_cv_.notify_one();

    std::exception_ptr error = Drain(job);
    std::unique_lock<std::mutex> lock(mu_);
    if (job.open_slots > 0) {
      // The counter is exhausted: slots no helper has taken are withdrawn.
      open_slots_ -= job.open_slots;
      job.open_slots = 0;
      open_.erase(std::find(open_.begin(), open_.end(), &job));
    }
    job.done.wait(lock, [&] { return job.running_helpers == 0; });
    if (error == nullptr) error = job.error;
    lock.unlock();
    if (error != nullptr) std::rethrow_exception(error);
  }

 private:
  Runtime() = default;

  void HelperLoop() {
    t_is_helper = true;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return shutdown_ || !open_.empty(); });
      if (shutdown_) return;
      Job& job = *open_.front();
      --idle_;
      --open_slots_;
      if (--job.open_slots == 0) open_.pop_front();
      ++job.running_helpers;
      lock.unlock();
      std::exception_ptr error = Drain(job);
      lock.lock();
      if (error != nullptr && job.error == nullptr) job.error = error;
      ++idle_;
      // Notify under the lock: once it is released the caller may return
      // and destroy the job.
      if (--job.running_helpers == 0 && job.open_slots == 0) {
        job.done.notify_one();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;  // Parked helpers wait here.
  std::deque<Job*> open_;            // Jobs with open slots, oldest first.
  size_t open_slots_ = 0;            // Sum of open_slots over open_.
  size_t idle_ = 0;                  // Helpers parked or about to park.
  bool shutdown_ = false;
  std::vector<std::thread> helpers_;
};

}  // namespace

void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t)>& fn) {
  const size_t width = std::min(num_threads, n);
  if (width <= 1 || t_is_helper) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Runtime::Get().Run(n, width, fn);
}

}  // namespace vero
