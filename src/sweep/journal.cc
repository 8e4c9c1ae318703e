#include "sweep/journal.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <vector>

namespace morc {
namespace sweep {

namespace {

constexpr char kEntryMagic[4] = {'J', 'R', 'E', 'C'};
constexpr std::size_t kEntryHeaderBytes = 4 + 8;

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; i++)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; i++)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

} // namespace

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
    while (pos + kEntryHeaderBytes + 4 <= buf.size()) {
        if (std::memcmp(buf.data() + pos, kEntryMagic, 4) != 0)
            break;
        const std::uint64_t len = getU64(buf.data() + pos + 4);
        if (len > buf.size() - pos - kEntryHeaderBytes - 4)
            break; // torn tail: entry extends past EOF
        const std::uint8_t *payload = buf.data() + pos + kEntryHeaderBytes;
        const std::uint32_t crc =
            getU32(payload + static_cast<std::size_t>(len));
        if (snap::crc32(payload, static_cast<std::size_t>(len)) != crc)
            break; // damaged entry: keep everything before it
        // Re-frame the payload so the Deserializer's validation
        // machinery (sections, bounds) applies unchanged.
        snap::Serializer s;
        s.bytes(payload, static_cast<std::size_t>(len));
        snap::Deserializer d(s.frame());
        stats::RunRecord rec = loadRunRecord(d);
        if (!d.ok() || rec.key.empty())
            break;
        records_[rec.key] = std::move(rec);
        pos += kEntryHeaderBytes + static_cast<std::size_t>(len) + 4;
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
    const std::vector<std::uint8_t> &payload = s.payload();
    const std::uint32_t crc = snap::crc32(payload.data(), payload.size());

    std::vector<std::uint8_t> entry;
    entry.reserve(kEntryHeaderBytes + payload.size() + 4);
    for (char c : kEntryMagic)
        entry.push_back(static_cast<std::uint8_t>(c));
    const std::uint64_t len = payload.size();
    for (unsigned i = 0; i < 8; i++)
        entry.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    entry.insert(entry.end(), payload.begin(), payload.end());
    for (unsigned i = 0; i < 4; i++)
        entry.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));

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
