#include "sweep/journal.hh"

#include <cstdio>
#include <filesystem>
#include <system_error>
#include <vector>

namespace morc {
namespace sweep {

namespace {

/** The record's one walk (see snapshot/snapshot.hh). */
template <typename Rec, typename IO>
void
walkRunRecord(Rec &rec, IO &io)
{
    io.section("RREC", [&] {
        io.str(rec.key);
        io.vec(rec.labels, 8 + 8, [&](auto &kv) {
            io.str(kv.first);
            io.str(kv.second);
        });
        const auto points = [&](auto &list) {
            io.vec(list, 8 + 8, [&](auto &kv) {
                io.str(kv.first);
                io.f64(kv.second);
            });
        };
        points(rec.metrics);
        io.vec(rec.histograms, 8 + 8 + 8 + 8, [&](auto &kv) {
            io.str(kv.first);
            stats::Histogram::walk(kv.second, io, true);
        });
        io.vec(rec.percentiles, 8 + 8, [&](auto &group) {
            io.str(group.first);
            points(group.second);
        });
        points(rec.lifetime);
        io.u64(rec.series.epochCycles);
        io.u64(rec.series.samples);
        io.u64(rec.series.droppedEpochs);
        io.vec(rec.series.series, 8 + 1 + 8, [&](auto &ser) {
            telemetry::Series::walk(ser, io, true);
        });
        io.vec(rec.trace.tracks, 8, [&](auto &t) { io.str(t); });
        io.vec(rec.trace.events, 8 + 1 + 2 + 8 + 8, [&](auto &e) {
            telemetry::Event::walk(e, io, rec.trace.tracks.size());
        });
        io.u64(rec.trace.dropped);
    });
}

} // namespace

void
saveRunRecord(snap::Serializer &s, const stats::RunRecord &rec)
{
    walkRunRecord(rec, s);
}

stats::RunRecord
loadRunRecord(snap::Deserializer &d)
{
    stats::RunRecord rec;
    walkRunRecord(rec, d);
    return rec;
}

std::size_t
Journal::load()
{
    sync::LockGuard lock(mu_);
    records_.clear();
    std::vector<std::uint8_t> buf;
    if (!snap::readFile(path_, buf))
        return 0; // no journal yet: fresh sweep
    std::size_t pos = 0;
    while (const std::size_t n =
               snap::frameSize(buf.data() + pos, buf.size() - pos)) {
        const auto at = buf.begin() + static_cast<std::ptrdiff_t>(pos);
        snap::Deserializer d({at, at + static_cast<std::ptrdiff_t>(n)});
        stats::RunRecord rec = loadRunRecord(d);
        if (!d.ok() || rec.key.empty())
            break; // damaged entry: keep everything before it
        records_[rec.key] = std::move(rec);
        pos += n;
    }
    // Appends must follow the last intact entry: written after a
    // damaged one, no later load would reach them.
    std::error_code ec;
    if (pos < buf.size())
        std::filesystem::resize_file(path_, pos, ec);
    if (ec && !writeFailed_) {
        writeFailed_ = true; // warn once; the sweep itself continues
        std::fprintf(stderr,
                     "[checkpoint] cannot cut the damaged tail of "
                     "journal %s (%s); this run will not be resumable\n",
                     path_.c_str(), ec.message().c_str());
    }
    return records_.size();
}

const stats::RunRecord *
Journal::lookup(const std::string &key) const
{
    sync::LockGuard lock(mu_);
    auto it = records_.find(key);
    return it == records_.end() ? nullptr : &it->second;
}

void
Journal::append(const stats::RunRecord &rec)
{
    snap::Serializer s;
    saveRunRecord(s, rec);
    const std::vector<std::uint8_t> entry = s.frame();

    sync::LockGuard lock(mu_);
    records_[rec.key] = rec;
    std::FILE *f = std::fopen(path_.c_str(), "ab");
    bool ok = f != nullptr;
    if (f) {
        ok = std::fwrite(entry.data(), 1, entry.size(), f) ==
             entry.size();
        ok = std::fflush(f) == 0 && ok;
        std::fclose(f);
    }
    if (!ok && !writeFailed_) {
        writeFailed_ = true; // warn once; the sweep itself continues
        std::fprintf(stderr,
                     "[checkpoint] cannot append to journal %s; this "
                     "run will not be resumable\n",
                     path_.c_str());
    }
}

std::size_t
Journal::size() const
{
    sync::LockGuard lock(mu_);
    return records_.size();
}

} // namespace sweep
} // namespace morc
