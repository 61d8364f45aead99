#include "util/parallel.hpp"

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "util/error.hpp"

namespace mgt::util {

namespace {

std::atomic<std::uint64_t> g_env_rejections{0};

std::size_t env_thread_count() {
  const std::optional<std::size_t> parsed =
      parse_thread_count(std::getenv("MGT_THREADS"));
  if (!parsed.has_value()) {
    // Misconfiguration falls back to the serial path (always correct) and
    // is counted so metrics snapshots / self_test can surface it.
    g_env_rejections.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  return *parsed;
}

// Override state: -1 = no override, >= 0 = forced worker count.
long long g_override = -1;

}  // namespace

std::optional<std::size_t> parse_thread_count(const char* raw) {
  if (raw == nullptr || *raw == '\0') {
    return 0;  // unset, not malformed
  }
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0') {
    return std::nullopt;  // no digits, or trailing garbage ("8x", "8 ")
  }
  if (errno == ERANGE || parsed < 0) {
    return std::nullopt;  // strtol saturated at LONG_MIN/MAX, or negative
  }
  return static_cast<std::size_t>(parsed);
}

std::uint64_t thread_env_rejections() {
  return g_env_rejections.load(std::memory_order_relaxed);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t task_index) {
  // Two dependent splitmix64 rounds: the first whitens the seed, the second
  // folds in the index, so (s, 0) and (s+1, ...) streams stay decorrelated.
  std::uint64_t x = seed;
  const std::uint64_t whitened = splitmix64(x);
  x = whitened ^ (task_index * 0xBF58476D1CE4E5B9ULL + 0x94D049BB133111EBULL);
  return splitmix64(x);
}

Rng task_rng(std::uint64_t seed, std::uint64_t task_index) {
  return Rng(mix_seed(seed, task_index));
}

std::size_t thread_count() {
  if (g_override >= 0) {
    return static_cast<std::size_t>(g_override);
  }
  static const std::size_t env = env_thread_count();
  return env;
}

void set_thread_override(std::size_t n) {
  g_override = static_cast<long long>(n);
}

void clear_thread_override() { g_override = -1; }

ScopedThreads::ScopedThreads(std::size_t n)
    : previous_(g_override >= 0 ? static_cast<std::size_t>(g_override) : 0),
      had_previous_(g_override >= 0) {
  set_thread_override(n);
}

ScopedThreads::~ScopedThreads() {
  if (had_previous_) {
    set_thread_override(previous_);
  } else {
    clear_thread_override();
  }
}

// ---------------------------------------------------------------- pool ----

struct ThreadPool::Impl {
  explicit Impl(std::size_t n_workers) : workers(n_workers == 0 ? 1 : n_workers) {
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      shutdown = true;
    }
    wake.notify_all();
    for (auto& t : threads) {
      // Shutdown is already signalled; workers exit their loop on the next
      // wake, so this join is bounded in practice and must not time out
      // (losing a worker mid-teardown would leak the pool's state).
      t.join();  // mgtlint:allow(no-unbounded-wait)
    }
  }

  void run(std::size_t n, const std::function<void(std::size_t)>& task) {
    std::unique_lock<std::mutex> lock(mutex);
    current_task = &task;
    task_total = n;
    ++generation;
    pending = workers;
    first_error = nullptr;
    wake.notify_all();
    // The chunk tasks are finite and exceptions are captured per worker, so
    // completion is guaranteed; a timeout here could only hide a real bug
    // by returning with tasks still running on the pool.
    done.wait(lock, [this] { return pending == 0; });  // mgtlint:allow(no-unbounded-wait)
    current_task = nullptr;
    if (first_error) {
      std::exception_ptr err = first_error;
      first_error = nullptr;
      std::rethrow_exception(err);
    }
  }

  void worker_loop(std::size_t worker_index) {
    std::uint64_t seen_generation = 0;
    while (true) {
      const std::function<void(std::size_t)>* task = nullptr;
      std::size_t n = 0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        // Idle workers are *meant* to park indefinitely between batches;
        // shutdown wakes them, so the wait cannot outlive the pool.
        wake.wait(lock, [&] {  // mgtlint:allow(no-unbounded-wait)
          return shutdown || generation != seen_generation;
        });
        if (shutdown) {
          return;
        }
        seen_generation = generation;
        task = current_task;
        n = task_total;
      }
      // Static chunk assignment: worker w always owns [w*n/W, (w+1)*n/W).
      const std::size_t begin = worker_index * n / workers;
      const std::size_t end = (worker_index + 1) * n / workers;
      std::exception_ptr err = nullptr;
      for (std::size_t i = begin; i < end; ++i) {
        try {
          (*task)(i);
        } catch (...) {
          if (!err) {
            err = std::current_exception();
          }
        }
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (err && !first_error) {
          first_error = err;
        }
        if (--pending == 0) {
          done.notify_all();
        }
      }
    }
  }

  const std::size_t workers;
  std::vector<std::thread> threads;
  std::mutex mutex;
  std::condition_variable wake;
  std::condition_variable done;
  const std::function<void(std::size_t)>* current_task = nullptr;
  std::size_t task_total = 0;
  std::uint64_t generation = 0;
  std::size_t pending = 0;
  bool shutdown = false;
  std::exception_ptr first_error = nullptr;
};

ThreadPool::ThreadPool(std::size_t workers)
    : impl_(std::make_unique<Impl>(workers)) {}

ThreadPool::~ThreadPool() = default;

std::size_t ThreadPool::workers() const { return impl_->workers; }

void ThreadPool::run(std::size_t n,
                     const std::function<void(std::size_t)>& task) {
  if (n == 0) {
    return;
  }
  impl_->run(n, task);
}

namespace {

/// Shared pool, rebuilt when the configured worker count changes. Guarded
/// by a mutex so nested/concurrent parallel_for calls from different
/// threads serialize on pool access rather than racing pool recreation.
std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& task) {
  const std::size_t workers = thread_count();
  if (workers <= 1 || n < 2) {
    // Serial fallback: identical results by construction, since the task
    // decomposition never depends on the worker count.
    for (std::size_t i = 0; i < n; ++i) {
      task(i);
    }
    return;
  }
  std::unique_lock<std::mutex> lock(g_pool_mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    // A parallel section is already active (nested call from inside a
    // task): run inline rather than deadlocking on the shared pool.
    for (std::size_t i = 0; i < n; ++i) {
      task(i);
    }
    return;
  }
  if (!g_pool || g_pool->workers() != workers) {
    g_pool = std::make_unique<ThreadPool>(workers);
  }
  g_pool->run(n, task);
}

}  // namespace mgt::util
