#include "sweep/sweep.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>

#include "util/sync.hh"

namespace morc {
namespace sweep {

std::vector<stats::RunRecord>
Engine::run(const std::vector<Task> &tasks) const
{
    std::vector<stats::RunRecord> records(tasks.size());
    std::vector<std::exception_ptr> errors(tasks.size());
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    // Each worker claims the next index until none is left or a task
    // has failed; slot i is written only by the worker that claimed i.
    const auto claim = [&] {
        while (!failed) {
            const std::size_t i = next++;
            if (i >= tasks.size())
                return;
            try {
                records[i] = tasks[i].run(stableSeed(tasks[i].key));
                records[i].key = tasks[i].key; // the key is authoritative
            } catch (...) {
                errors[i] = std::current_exception();
                failed = true;
            }
        }
    };
    const unsigned jobs =
        jobs_ ? jobs_ : std::max(1u, sync::hardwareConcurrency());
    sync::runOnThreads(std::min<std::size_t>(jobs, tasks.size()), claim);

    // Claims go in task order, so no failure can stop them before the
    // first failing task is claimed: it is the one reported, at every
    // job count.
    for (std::size_t i = 0; i < tasks.size(); i++) {
        if (!errors[i])
            continue;
        try {
            std::rethrow_exception(errors[i]);
        } catch (const std::exception &e) {
            throw std::runtime_error("sweep task '" + tasks[i].key +
                                     "': " + e.what());
        }
    }
    return records;
}

} // namespace sweep
} // namespace morc
