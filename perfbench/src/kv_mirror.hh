/**
 * @file
 * A request-for-request replica of kv::Service assembled from the
 * layers' public classes (Generator, the front cache::Llc, TieredStore,
 * KvValueModel), with a span around every call into them. Its fidelity
 * is checked against the Service: every reply's latency and FNV digest,
 * and the front and tier counters, must match.
 */

#ifndef PERFBENCH_KV_MIRROR_HH
#define PERFBENCH_KV_MIRROR_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "kv/service.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench {

/** Fold one reply (request, size, latency, digest) into @p h. */
std::uint64_t foldReply(std::uint64_t h, const morc::kv::Service::Reply &r);

/** The counters the mirror must match after the same requests. */
struct KvCounters
{
    std::uint64_t replies = 0; // foldReply() chain over every reply
    std::uint64_t requests = 0;
    morc::cache::LlcStats front;
    morc::kv::TierStats tier;
    std::uint64_t dramBytes = 0;
    std::uint64_t ssdBytes = 0;
};

KvCounters kvCountersOf(const morc::cache::LlcStats &front,
                        const morc::kv::TieredStore &tiers,
                        std::uint64_t requests, std::uint64_t replies);

/** Name of the first field where @p a and @p b differ ("" if none). */
std::string diffKvCounters(const KvCounters &a, const KvCounters &b);

/** FNV-1a over every counter, for pass-to-pass determinism checks. */
std::uint64_t digestKvCounters(const KvCounters &c);

class KvMirror
{
  public:
    KvMirror(const KvJob &job, SpanTracer &tracer);

    /** Self-test hook: silently drop the @p n-th tier write-back. */
    void dropWriteback(std::uint64_t n) { dropAt_ = n; }

    /** Service::step(). */
    morc::kv::Service::Reply step();

    const morc::cache::Llc &front() const { return *front_; }
    const morc::kv::TieredStore &tiers() const { return tiers_; }
    std::uint64_t requests() const { return requests_; }

    /** Front-cache write-backs seen so far (dropped one included). */
    std::uint64_t writebacks() const { return writebacks_; }

    /** Front hits whose line differed from the value model. */
    std::uint64_t valueMismatches() const { return valueMismatches_; }

  private:
    morc::Addr addrOf(std::uint32_t tenant, std::uint64_t key,
                      std::uint32_t line_idx) const;
    void writeback(const morc::cache::FillResult &fill);

    morc::kv::ServiceConfig cfg_;
    SpanTracer &tr_;
    morc::kv::Generator gen_;
    std::unique_ptr<morc::cache::Llc> front_;
    morc::kv::TieredStore tiers_;
    std::vector<morc::trace::KvValueModel> values_;
    std::uint64_t requests_ = 0;
    std::uint64_t writebacks_ = 0;
    std::uint64_t dropAt_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t valueMismatches_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_KV_MIRROR_HH
