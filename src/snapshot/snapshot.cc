/**
 * @file
 * Snapshot serialization implementation. See snapshot.hh for the
 * format contract; nothing here aborts on malformed input.
 */

#include "snapshot/snapshot.hh"

#include <array>
#include <cstdio>
#include <cstring>

#include "check/check.hh"

namespace morc {
namespace snap {

namespace {

constexpr std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; i++) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; k++)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = makeCrcTable();

constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8; // magic+ver+endian+len
constexpr std::size_t kFooterBytes = 4;             // crc

std::uint32_t
readLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t
readLe64(const std::uint8_t *p)
{
    return static_cast<std::uint64_t>(readLe32(p)) |
           static_cast<std::uint64_t>(readLe32(p + 4)) << 32;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t n, std::uint32_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; i++)
        c = kCrcTable[(c ^ p[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

bool
atomicWriteFile(const std::string &path, const void *data, std::size_t n)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return false;
    const bool wrote = n == 0 || std::fwrite(data, 1, n, f) == n;
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
readFile(const std::string &path, std::vector<std::uint8_t> &out)
{
    out.clear();
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    bool good = true;
    std::uint8_t chunk[1 << 16];
    for (;;) {
        const std::size_t got = std::fread(chunk, 1, sizeof chunk, f);
        out.insert(out.end(), chunk, chunk + got);
        if (got < sizeof chunk) {
            good = std::ferror(f) == 0;
            break;
        }
    }
    std::fclose(f);
    if (!good)
        out.clear();
    return good;
}

// --- Serializer ---------------------------------------------------------

void
Serializer::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
}

void
Serializer::str(std::string_view v)
{
    u64(v.size());
    bytes(v.data(), v.size());
}

void
Serializer::bytes(const void *p, std::size_t n)
{
    const auto *b = static_cast<const std::uint8_t *>(p);
    buf_.insert(buf_.end(), b, b + n);
}

void
Serializer::vecU8(const std::vector<std::uint8_t> &v)
{
    u64(v.size());
    bytes(v.data(), v.size());
}

void
Serializer::vecU32(const std::vector<std::uint32_t> &v)
{
    u64(v.size());
    for (std::uint32_t e : v)
        u32(e);
}

void
Serializer::vecU64(const std::vector<std::uint64_t> &v)
{
    u64(v.size());
    for (std::uint64_t e : v)
        u64(e);
}

void
Serializer::vecF64(const std::vector<double> &v)
{
    u64(v.size());
    for (double e : v)
        f64(e);
}

void
Serializer::beginSection(const char *tag)
{
    MORC_CHECK(tag && std::strlen(tag) == 4,
               "section tag must be a 4-character fourcc");
    bytes(tag, 4);
    sectionStack_.push_back(buf_.size());
    u64(0); // length, patched by endSection()
}

void
Serializer::endSection()
{
    MORC_CHECK(!sectionStack_.empty(),
               "endSection() without a matching beginSection()");
    const std::size_t lenOff = sectionStack_.back();
    sectionStack_.pop_back();
    const std::uint64_t len = buf_.size() - (lenOff + 8);
    for (unsigned i = 0; i < 8; i++)
        buf_[lenOff + i] = static_cast<std::uint8_t>(len >> (8 * i));
}

std::vector<std::uint8_t>
Serializer::frame() const
{
    MORC_CHECK(sectionStack_.empty(),
               "framing a snapshot with %zu unclosed section(s)",
               sectionStack_.size());
    std::vector<std::uint8_t> out;
    out.reserve(kHeaderBytes + buf_.size() + kFooterBytes);
    for (char c : kMagic)
        out.push_back(static_cast<std::uint8_t>(c));
    for (unsigned i = 0; i < 4; i++)
        out.push_back(static_cast<std::uint8_t>(kFormatVersion >> (8 * i)));
    for (unsigned i = 0; i < 4; i++)
        out.push_back(static_cast<std::uint8_t>(kEndianTag >> (8 * i)));
    const std::uint64_t len = buf_.size();
    for (unsigned i = 0; i < 8; i++)
        out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    out.insert(out.end(), buf_.begin(), buf_.end());
    const std::uint32_t crc = crc32(out.data(), out.size());
    for (unsigned i = 0; i < 4; i++)
        out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    return out;
}

bool
Serializer::writeFile(const std::string &path) const
{
    const std::vector<std::uint8_t> framed = frame();
    return atomicWriteFile(path, framed.data(), framed.size());
}

std::size_t
frameSize(const std::uint8_t *data, std::size_t n)
{
    if (n < kHeaderBytes + kFooterBytes)
        return 0;
    const std::uint64_t len = readLe64(data + 16);
    if (len > n - kHeaderBytes - kFooterBytes)
        return 0;
    return kHeaderBytes + static_cast<std::size_t>(len) + kFooterBytes;
}

// --- Deserializer -------------------------------------------------------

Deserializer::Deserializer(std::vector<std::uint8_t> framed)
    : buf_(std::move(framed))
{
    if (buf_.size() < kHeaderBytes + kFooterBytes) {
        fail("truncated snapshot: " + std::to_string(buf_.size()) +
             " bytes is smaller than the fixed frame");
        return;
    }
    if (std::memcmp(buf_.data(), kMagic, 8) != 0) {
        fail("bad snapshot magic (not a MORCSNP1 stream)");
        return;
    }
    const std::uint32_t version = readLe32(buf_.data() + 8);
    if (version != kFormatVersion) {
        fail("unsupported snapshot format version " +
             std::to_string(version) + " (this build reads version " +
             std::to_string(kFormatVersion) + ")");
        return;
    }
    if (readLe32(buf_.data() + 12) != kEndianTag) {
        fail("snapshot endianness tag mismatch");
        return;
    }
    const std::uint64_t len = readLe64(buf_.data() + 16);
    if (len != buf_.size() - kHeaderBytes - kFooterBytes) {
        fail("snapshot payload length mismatch (header says " +
             std::to_string(len) + ", file holds " +
             std::to_string(buf_.size() - kHeaderBytes - kFooterBytes) +
             ")");
        return;
    }
    const std::uint32_t want =
        readLe32(buf_.data() + buf_.size() - kFooterBytes);
    const std::uint32_t got =
        crc32(buf_.data(), buf_.size() - kFooterBytes);
    if (want != got) {
        fail("snapshot CRC mismatch (stored " + std::to_string(want) +
             ", computed " + std::to_string(got) + ")");
        return;
    }
    pos_ = kHeaderBytes;
    end_ = buf_.size() - kFooterBytes;
}

Deserializer
Deserializer::fromFile(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    if (!readFile(path, bytes)) {
        Deserializer d{std::vector<std::uint8_t>{}};
        d.error_.clear();
        d.fail("cannot read snapshot file: " + path);
        return d;
    }
    return Deserializer(std::move(bytes));
}

void
Deserializer::fail(const std::string &why)
{
    if (error_.empty())
        error_ = why;
}

bool
Deserializer::need(std::size_t nbytes)
{
    if (!ok())
        return false;
    const std::size_t limit =
        sectionEnds_.empty() ? end_ : sectionEnds_.back();
    if (pos_ + nbytes > limit) {
        fail("snapshot read overruns " +
             std::string(sectionEnds_.empty() ? "payload" : "section") +
             " end (want " + std::to_string(nbytes) + " bytes, have " +
             std::to_string(limit - pos_) + ")");
        return false;
    }
    return true;
}

std::uint64_t
Deserializer::getLe(unsigned nbytes)
{
    if (!need(nbytes))
        return 0;
    std::uint64_t v = 0;
    for (unsigned i = 0; i < nbytes; i++)
        v |= static_cast<std::uint64_t>(buf_[pos_ + i]) << (8 * i);
    pos_ += nbytes;
    return v;
}

std::uint8_t
Deserializer::u8()
{
    return static_cast<std::uint8_t>(getLe(1));
}

std::uint16_t
Deserializer::u16()
{
    return static_cast<std::uint16_t>(getLe(2));
}

std::uint32_t
Deserializer::u32()
{
    return static_cast<std::uint32_t>(getLe(4));
}

std::uint64_t
Deserializer::u64()
{
    return getLe(8);
}

double
Deserializer::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

bool
Deserializer::boolean()
{
    const std::uint8_t v = u8();
    if (ok() && v > 1)
        fail("snapshot boolean holds value " + std::to_string(v));
    return v == 1;
}

std::string
Deserializer::str()
{
    const std::uint64_t n = arrayLen(1);
    std::string v;
    if (!ok() || !need(static_cast<std::size_t>(n)))
        return v;
    v.assign(reinterpret_cast<const char *>(buf_.data() + pos_),
             static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return v;
}

void
Deserializer::bytes(void *p, std::size_t n)
{
    if (!need(n)) {
        std::memset(p, 0, n);
        return;
    }
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
}

std::uint64_t
Deserializer::arrayLen(std::size_t min_elem_bytes)
{
    const std::uint64_t n = u64();
    if (!ok())
        return 0;
    const std::size_t limit =
        sectionEnds_.empty() ? end_ : sectionEnds_.back();
    const std::uint64_t room = limit - pos_;
    if (min_elem_bytes > 0 && n > room / min_elem_bytes) {
        fail("snapshot array length " + std::to_string(n) +
             " exceeds the " + std::to_string(room) +
             " bytes left in its region");
        return 0;
    }
    return n;
}

void
Deserializer::vecU8(std::vector<std::uint8_t> &v)
{
    const std::uint64_t n = arrayLen(1);
    v.assign(static_cast<std::size_t>(n), 0);
    if (n)
        bytes(v.data(), v.size());
    if (!ok())
        v.clear();
}

void
Deserializer::vecU32(std::vector<std::uint32_t> &v)
{
    vec(v, 4, [&](std::uint32_t &e) { u32(e); });
}

void
Deserializer::vecU64(std::vector<std::uint64_t> &v)
{
    vec(v, 8, [&](std::uint64_t &e) { u64(e); });
}

void
Deserializer::vecF64(std::vector<double> &v)
{
    vec(v, 8, [&](double &e) { f64(e); });
}

bool
Deserializer::beginSection(const char *tag)
{
    MORC_CHECK(tag && std::strlen(tag) == 4,
               "section tag must be a 4-character fourcc");
    if (!need(4 + 8))
        return false;
    char got[5] = {};
    std::memcpy(got, buf_.data() + pos_, 4);
    if (std::memcmp(got, tag, 4) != 0) {
        fail(std::string("snapshot section mismatch: expected '") + tag +
             "', found '" + got + "'");
        return false;
    }
    pos_ += 4;
    const std::uint64_t len = getLe(8);
    const std::size_t limit =
        sectionEnds_.empty() ? end_ : sectionEnds_.back();
    if (!ok() || len > limit - pos_) {
        fail(std::string("snapshot section '") + tag +
             "' length overruns its enclosing region");
        return false;
    }
    sectionEnds_.push_back(pos_ + static_cast<std::size_t>(len));
    return true;
}

void
Deserializer::endSection()
{
    MORC_CHECK(!sectionEnds_.empty(),
               "endSection() without a matching beginSection()");
    const std::size_t sectionEnd = sectionEnds_.back();
    sectionEnds_.pop_back();
    if (ok() && pos_ != sectionEnd) {
        fail("snapshot section not fully consumed (" +
             std::to_string(sectionEnd - pos_) + " bytes left over)");
    }
    pos_ = sectionEnd;
}

std::uint64_t
Deserializer::remaining() const
{
    if (!ok())
        return 0;
    const std::size_t limit =
        sectionEnds_.empty() ? end_ : sectionEnds_.back();
    return limit - pos_;
}

} // namespace snap
} // namespace morc
