/**
 * @file
 * Annotated synchronization primitives and the one thread spawn: the
 * only sanctioned doorway to raw std::mutex and std::thread in this
 * codebase.
 *
 * Every lock in src/ goes through morc::sync so that Clang's
 * -Wthread-safety capability analysis can prove, at compile time, that
 * guarded state is only touched under its lock. The macros expand to
 * Clang capability attributes and compile away on other compilers, so
 * the annotated tree builds identically under GCC; the `analyze` CMake
 * preset (CI job `analyze`) turns the analysis on as errors.
 *
 * Conventions (DESIGN.md §12):
 *   - shared mutable state is a member annotated MORC_GUARDED_BY(mu_),
 *   - scope-based locking uses LockGuard (MORC_SCOPED_CAPABILITY),
 *     never manual lock()/unlock() pairs,
 *   - threads are started only by runOnThreads(), which joins them
 *     before it returns,
 *   - `// morc-analyze: allow(raw-sync)` is the escape hatch for the
 *     rare raw primitive (none today outside this header).
 *
 * The raw-sync ban itself is enforced by tools/morc_analyze.py, so a
 * std::mutex added anywhere else fails the `analyze` gate even under
 * GCC.
 */

#ifndef MORC_UTIL_SYNC_HH
#define MORC_UTIL_SYNC_HH

#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

// ---------------------------------------------------------------------
// Clang thread-safety attribute macros (no-ops elsewhere).
// ---------------------------------------------------------------------

#if defined(__clang__)
#define MORC_TS_ATTR(x) __attribute__((x))
#else
#define MORC_TS_ATTR(x) // capability analysis is Clang-only
#endif

#define MORC_CAPABILITY(x) MORC_TS_ATTR(capability(x))
#define MORC_SCOPED_CAPABILITY MORC_TS_ATTR(scoped_lockable)
#define MORC_GUARDED_BY(x) MORC_TS_ATTR(guarded_by(x))
#define MORC_ACQUIRE(...) MORC_TS_ATTR(acquire_capability(__VA_ARGS__))
#define MORC_RELEASE(...) MORC_TS_ATTR(release_capability(__VA_ARGS__))

namespace morc {
namespace sync {

/** std::mutex as a named capability the analysis can track. */
class MORC_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() MORC_ACQUIRE() { mu_.lock(); }
    void unlock() MORC_RELEASE() { mu_.unlock(); }

  private:
    std::mutex mu_;
};

/** std::lock_guard over a Mutex; acquisition is scoped to the block. */
class MORC_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &mu) MORC_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~LockGuard() MORC_RELEASE() { mu_.unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex &mu_;
};

/** std::thread::hardware_concurrency without naming std::thread at the
 *  call site (keeps the raw-sync ban grep-clean outside this header). */
inline unsigned
hardwareConcurrency()
{
    return std::thread::hardware_concurrency();
}

/**
 * Call @p body once on each of @p threads threads — the calling thread
 * and threads - 1 new ones — and return when every call has returned
 * (none for threads = 0). @p body must not throw: an exception that
 * leaves it on a new thread ends the program.
 */
template <typename F>
void
runOnThreads(std::size_t threads, const F &body)
{
    if (threads == 0)
        return;
    std::vector<std::jthread> helpers; // joined on every exit path
    helpers.reserve(threads - 1);
    for (std::size_t i = 1; i < threads; i++)
        helpers.emplace_back(std::cref(body));
    body();
}

} // namespace sync
} // namespace morc

#endif // MORC_UTIL_SYNC_HH
