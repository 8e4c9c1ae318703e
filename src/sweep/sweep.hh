/**
 * @file
 * Deterministic parallel sweep engine.
 *
 * A sweep is a vector of independent tasks, each identified by a stable
 * string key (e.g. "fig6/gcc/MORC") and producing one stats::RunRecord.
 * The engine's workers claim tasks in task order from one shared
 * counter and return the records in task order, so the assembled
 * stats::Report — and its JSON serialization — is bit-identical
 * regardless of thread count or the order in which workers happen to
 * finish.
 *
 * Any randomness a task needs must come from the seed the engine hands
 * it, which is derived purely from the task key (stableSeed). Identical
 * key => identical seed => identical record, on 1 thread or 64.
 */

#ifndef MORC_SWEEP_SWEEP_HH
#define MORC_SWEEP_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "stats/report.hh"
#include "util/rng.hh"

namespace morc {
namespace sweep {

/** Deterministic 64-bit seed from a stable task key (FNV-1a + mix). */
constexpr std::uint64_t
stableSeed(std::string_view key)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : key) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return splitmix64(h);
}

/** One unit of sweep work. */
struct Task
{
    /** Stable unique key; becomes the record key and the seed source. */
    std::string key;

    /** Body; must depend only on its arguments and immutable state. */
    std::function<stats::RunRecord(std::uint64_t seed)> run;
};

/** Parallel executor for Task vectors. */
class Engine
{
  public:
    /** @param jobs Worker threads, the calling thread among them;
     *  0 means hardware_concurrency. A run starts no more workers than
     *  it has tasks. */
    explicit Engine(unsigned jobs = 0) : jobs_(jobs) {}

    /**
     * Run every task and return records in task order. Tasks start in
     * task order at every job count. A throwing task aborts the sweep:
     * once it has thrown no further task starts, the tasks already
     * running finish, and the first failure in task order is rethrown
     * wrapped with its key.
     */
    std::vector<stats::RunRecord> run(const std::vector<Task> &tasks) const;

  private:
    unsigned jobs_;
};

} // namespace sweep
} // namespace morc

#endif // MORC_SWEEP_SWEEP_HH
