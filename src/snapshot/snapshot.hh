/**
 * @file
 * Versioned, CRC-guarded binary serialization for simulator snapshots.
 *
 * Every stateful component implements save/restore over the Serializer /
 * Deserializer pair below, so a whole sim::System round-trips through one
 * byte buffer (and from there to disk). The format is deliberately dumb:
 *
 *   - explicit little-endian scalar encoding (portable across hosts),
 *   - a fixed frame: magic "MORCSNP1", u32 format version, u32 endian
 *     tag, u64 payload length, payload, u32 CRC32 over everything
 *     before the checksum,
 *   - tagged sections (fourcc + u64 byte length) inside the payload so
 *     a reader can pinpoint *which* component diverged or got truncated.
 *
 * A component spells its layout once, as a walk: a static member
 * template over `Self` (const T when saving, T when restoring) and the
 * stream type, called by both its save and its restore entry point.
 * Serializer and Deserializer share the walk vocabulary — scalars and
 * raw bytes by reference, vectors (length capped through arrayLen on
 * load), key-sorted maps, sections, nested parts, expect() for config
 * and geometry values (written on save, compared on load) and check()
 * for range checks (load only) — so the same walk writes the bytes and
 * reads them back into the live object in place:
 *
 *   template <typename Self, typename IO>
 *   void Foo::walk(Self &self, IO &io)
 *   {
 *       io.section("FOO ", [&] {
 *           io.expect(self.cfg_.ways, "foo geometry mismatch");
 *           io.u64(self.clock_);
 *           io.vec(self.lines_, 8, [&](auto &l) { io.u64(l.tag); });
 *       });
 *   }
 *
 * Restore must never abort on bad input: a snapshot file is external
 * data (possibly from a crashed writer, an older binary, or a fuzzer).
 * The Deserializer therefore fails *softly* — the first malformed read
 * latches an error flag plus a message, every subsequent read returns
 * zeros, and the caller checks ok() once at the end, discards the
 * half-restored object and falls back to cold simulation. MORC_CHECK
 * is reserved for caller bugs (unbalanced sections), never for
 * byte-stream content.
 */

#ifndef MORC_SNAPSHOT_SNAPSHOT_HH
#define MORC_SNAPSHOT_SNAPSHOT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/sorted_view.hh"

namespace morc {
namespace snap {

/** Frame magic: identifies a snapshot byte stream. */
inline constexpr char kMagic[8] = {'M', 'O', 'R', 'C', 'S', 'N', 'P', '1'};

/** Bumped whenever the payload layout changes incompatibly. */
inline constexpr std::uint32_t kFormatVersion = 1;

/** Written little-endian; a reader seeing any other value is decoding
 *  with broken byte order (or reading garbage). */
inline constexpr std::uint32_t kEndianTag = 0x01020304u;

/** CRC32 (IEEE 802.3, polynomial 0xEDB88320) of @p n bytes, continuing
 *  from @p seed so checksums can be computed incrementally. */
std::uint32_t crc32(const void *data, std::size_t n,
                    std::uint32_t seed = 0);

/**
 * Write @p data to @p path atomically: the bytes go to "<path>.tmp"
 * first and are renamed over the target only after a successful close,
 * so a crash mid-write never leaves a truncated file at @p path.
 */
bool atomicWriteFile(const std::string &path, const void *data,
                     std::size_t n);

/** Read a whole file into @p out; false (and empty @p out) on error. */
bool readFile(const std::string &path, std::vector<std::uint8_t> &out);

/** Bytes of the frame starting at @p data, from its header's payload
 *  length (for walking concatenated frames); 0 when the @p n bytes
 *  hold no header or end before that frame does. A Deserializer over
 *  the span validates the rest. */
std::size_t frameSize(const std::uint8_t *data, std::size_t n);

/**
 * Append-only little-endian payload writer. Scalars are fixed-width;
 * strings and blobs carry a u64 length prefix; sections wrap a region
 * in a fourcc tag plus a back-patched byte length.
 */
class Serializer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        putLe(v, 2);
    }

    void
    u32(std::uint32_t v)
    {
        putLe(v, 4);
    }

    void
    u64(std::uint64_t v)
    {
        putLe(v, 8);
    }

    void
    i64(std::int64_t v)
    {
        putLe(static_cast<std::uint64_t>(v), 8);
    }

    /** IEEE-754 bit pattern, so doubles round-trip exactly. */
    void f64(double v);

    void
    boolean(bool v)
    {
        buf_.push_back(v ? 1 : 0);
    }

    /** u64 length + raw bytes. */
    void str(std::string_view v);

    /** Raw bytes, no length prefix (caller knows the count). */
    void bytes(const void *p, std::size_t n);

    void vecU8(const std::vector<std::uint8_t> &v);
    void vecU32(const std::vector<std::uint32_t> &v);
    void vecU64(const std::vector<std::uint64_t> &v);
    void vecF64(const std::vector<double> &v);

    // --- Walk vocabulary (mirrored by Deserializer) --------------------

    /** Walks branch on this only to rebuild derived state on load. */
    static constexpr bool kLoading = false;

    /** A field of another integer or enum type, on the wire as the
     *  named width; on load it must be below @p limit. */
    template <typename T>
    void
    u8(const T &v, std::uint64_t /*limit*/, const char * /*why*/)
    {
        u8(static_cast<std::uint8_t>(v));
    }

    template <typename T>
    void
    u16(const T &v, std::uint64_t /*limit*/, const char * /*why*/)
    {
        u16(static_cast<std::uint16_t>(v));
    }

    template <typename T>
    void
    u32(const T &v, std::uint64_t /*limit*/, const char * /*why*/)
    {
        u32(static_cast<std::uint32_t>(v));
    }

    /** u64 count + @p per(element) for each element of a vector or
     *  deque. @p min_elem_bytes caps the count on load. */
    template <typename Seq, typename Fn>
    void
    vec(const Seq &v, std::size_t /*min_elem_bytes*/, Fn &&per)
    {
        u64(v.size());
        for (const auto &e : v)
            per(e);
    }

    /** vec() whose length is pinned to the live object's geometry: on
     *  load a different count fails with @p why. Same bytes as vec(). */
    template <typename T, typename Fn>
    void
    fixedVec(const std::vector<T> &v, std::size_t min_elem_bytes,
             const char * /*why*/, Fn &&per)
    {
        vec(v, min_elem_bytes, per);
    }

    /** u64 count + @p per(key, value) for each entry of a map, in key
     *  order so the bytes never depend on hash iteration order. */
    template <typename Map, typename Fn>
    void
    sortedMap(const Map &m, std::size_t /*min_entry_bytes*/, Fn &&per)
    {
        u64(m.size());
        for (const auto *kv : util::sortedView(m))
            per(kv->first, kv->second);
    }

    /** @p body inside a tagged section. */
    template <typename Fn>
    void
    section(const char *tag, Fn &&body)
    {
        beginSection(tag);
        body();
        endSection();
    }

    /** A nested component's own save entry point. */
    template <typename T>
    void
    part(const T &x)
    {
        if constexpr (requires { x.saveState(*this); })
            x.saveState(*this);
        else
            x.save(*this);
    }

    /** Config/geometry fingerprint: written here, compared on load. */
    void expect(std::uint8_t v, const char * /*why*/) { u8(v); }
    void expect(std::uint32_t v, const char * /*why*/) { u32(v); }
    void expect(std::uint64_t v, const char * /*why*/) { u64(v); }
    void expect(bool v, const char * /*why*/) { boolean(v); }
    void expect(double v, const char * /*why*/) { f64(v); }
    void expect(const std::string &v, const char * /*why*/) { str(v); }
    void
    expect(const std::vector<std::uint64_t> &v, const char * /*why*/)
    {
        vecU64(v);
    }
    void
    expect(const std::vector<std::string> &v, const char * /*why*/)
    {
        vec(v, 8, [&](const std::string &e) { str(e); });
    }

    /** Load-time range check; nothing to do on save. */
    void check(bool /*cond*/, const char * /*why*/) {}

    /** Open a tagged section; @p tag is a 4-character fourcc. */
    void beginSection(const char *tag);

    /** Close the innermost section, back-patching its byte length. */
    void endSection();

    /** Payload bytes written so far (no frame). */
    const std::vector<std::uint8_t> &payload() const { return buf_; }

    /** Frame the payload: magic + version + endian tag + length +
     *  payload + CRC32. All sections must be closed. */
    std::vector<std::uint8_t> frame() const;

    /** frame() + atomicWriteFile(). */
    bool writeFile(const std::string &path) const;

  private:
    void
    putLe(std::uint64_t v, unsigned nbytes)
    {
        for (unsigned i = 0; i < nbytes; i++)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    std::vector<std::uint8_t> buf_;
    std::vector<std::size_t> sectionStack_; // offsets of length fields
};

/**
 * Little-endian payload reader over a framed snapshot. The constructor
 * validates the frame (magic, version, endianness, length, CRC); any
 * mismatch — and any later overrun, tag mismatch, or explicit fail() —
 * latches an error and turns every subsequent read into a zero-valued
 * no-op. Callers check ok() once after restoring.
 */
class Deserializer
{
  public:
    /** Take ownership of framed bytes (as produced by frame()). */
    explicit Deserializer(std::vector<std::uint8_t> framed);

    /** Read and validate @p path; io errors latch into the error
     *  state just like malformed bytes. */
    static Deserializer fromFile(const std::string &path);

    bool ok() const { return error_.empty(); }

    /** First error encountered; empty while ok(). */
    const std::string &error() const { return error_; }

    /** Latch a caller-detected error (e.g. config mismatch). Only the
     *  first failure is kept — it names the root cause. */
    void fail(const std::string &why);

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    bool boolean();
    std::string str();

    /** Raw bytes into @p p (caller-known count); zero-fills on error. */
    void bytes(void *p, std::size_t n);

    void vecU8(std::vector<std::uint8_t> &v);
    void vecU32(std::vector<std::uint32_t> &v);
    void vecU64(std::vector<std::uint64_t> &v);
    void vecF64(std::vector<double> &v);

    /**
     * Read a u64 element count, sanity-capped against the bytes left
     * in the stream (each element occupies at least @p min_elem_bytes)
     * so a corrupt length can never drive a multi-gigabyte resize.
     */
    std::uint64_t arrayLen(std::size_t min_elem_bytes);

    // --- Walk vocabulary (mirrors Serializer) --------------------------
    //
    // Each reads into the live object in place. After the first failure
    // every read is a zero-valued no-op and per-element loops stop; the
    // caller discards the object.

    static constexpr bool kLoading = true;

    void u32(std::uint32_t &v) { v = u32(); }
    void u64(std::uint64_t &v) { v = u64(); }
    void i64(std::int64_t &v) { v = i64(); }
    void f64(double &v) { v = f64(); }
    void boolean(bool &v) { v = boolean(); }
    /** A std::vector<bool> element (a proxy, not a bool&). */
    void boolean(std::vector<bool>::reference v) { v = boolean(); }
    void str(std::string &v) { v = str(); }

    template <typename T>
    void
    u8(T &v, std::uint64_t limit, const char *why)
    {
        v = narrow<T>(u8(), limit, why);
    }

    template <typename T>
    void
    u16(T &v, std::uint64_t limit, const char *why)
    {
        v = narrow<T>(u16(), limit, why);
    }

    template <typename T>
    void
    u32(T &v, std::uint64_t limit, const char *why)
    {
        v = narrow<T>(u32(), limit, why);
    }

    template <typename Seq, typename Fn>
    void
    vec(Seq &v, std::size_t min_elem_bytes, Fn &&per)
    {
        const std::uint64_t n = arrayLen(min_elem_bytes);
        v.clear();
        if constexpr (requires { v.reserve(std::size_t{}); })
            v.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n && ok(); i++)
            per(v.emplace_back());
    }

    template <typename T, typename Fn>
    void
    fixedVec(std::vector<T> &v, std::size_t min_elem_bytes,
             const char *why, Fn &&per)
    {
        const std::uint64_t n = arrayLen(min_elem_bytes);
        if (ok() && n != v.size())
            fail(why);
        for (std::uint64_t i = 0; i < n && ok(); i++)
            per(v[static_cast<std::size_t>(i)]);
    }

    /** Rebuilt fresh: reserve(count) where the map has it, then entries
     *  in stream order, which must be strictly ascending by key. */
    template <typename Map, typename Fn>
    void
    sortedMap(Map &m, std::size_t min_entry_bytes, Fn &&per)
    {
        const std::uint64_t n = arrayLen(min_entry_bytes);
        Map fresh;
        if constexpr (requires { fresh.reserve(std::size_t{}); })
            fresh.reserve(static_cast<std::size_t>(n));
        typename Map::key_type prev{};
        for (std::uint64_t i = 0; i < n && ok(); i++) {
            typename Map::key_type key{};
            typename Map::mapped_type value{};
            per(key, value);
            if (ok() && i > 0 && !(prev < key))
                fail("snapshot map keys are not strictly ascending");
            prev = key;
            fresh.emplace(key, std::move(value));
        }
        m = std::move(fresh);
    }

    template <typename Fn>
    void
    section(const char *tag, Fn &&body)
    {
        if (!beginSection(tag))
            return;
        body();
        endSection();
    }

    template <typename T>
    void
    part(T &x)
    {
        if constexpr (requires { x.restoreState(*this); })
            x.restoreState(*this);
        else
            x.restore(*this);
    }

    void expect(std::uint8_t v, const char *why) { same(u8(), v, why); }
    void expect(std::uint32_t v, const char *why) { same(u32(), v, why); }
    void expect(std::uint64_t v, const char *why) { same(u64(), v, why); }
    void expect(bool v, const char *why) { same(boolean(), v, why); }
    void expect(double v, const char *why) { same(f64(), v, why); }

    void
    expect(const std::string &v, const char *why)
    {
        same(str(), v, why);
    }

    void
    expect(const std::vector<std::uint64_t> &live, const char *why)
    {
        std::vector<std::uint64_t> got;
        vecU64(got);
        same(got, live, why);
    }

    void
    expect(const std::vector<std::string> &live, const char *why)
    {
        std::vector<std::string> got;
        vec(got, 8, [&](std::string &e) { str(e); });
        same(got, live, why);
    }

    void
    check(bool cond, const char *why)
    {
        if (ok() && !cond)
            fail(why);
    }

    /** Enter a section; fails (returning false) unless the next bytes
     *  are @p tag's fourcc and a plausible length. */
    bool beginSection(const char *tag);

    /** Leave the innermost section; the cursor must have consumed it
     *  exactly — anything else means reader/writer drift. */
    void endSection();

    /** Bytes left before the payload end (or innermost section end). */
    std::uint64_t remaining() const;

  private:
    std::uint64_t getLe(unsigned nbytes);
    bool need(std::size_t nbytes);

    template <typename T>
    T
    narrow(std::uint64_t wire, std::uint64_t limit, const char *why)
    {
        check(wire < limit, why);
        return static_cast<T>(ok() ? wire : 0);
    }

    template <typename T>
    void
    same(const T &got, const T &live, const char *why)
    {
        if (ok() && got != live)
            fail(why);
    }

    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
    std::size_t end_ = 0; // payload end within buf_
    std::vector<std::size_t> sectionEnds_;
    std::string error_;
};

/**
 * Interface for components that round-trip through a snapshot. Both
 * entry points run the component's one walk (see the file comment).
 */
class Snapshottable
{
  public:
    virtual ~Snapshottable() = default;

    /** Append this component's complete mutable state. */
    virtual void saveState(Serializer &s) const = 0;

    /** Restore state written by saveState() into this object in place,
     *  then rebuild derived state. Config and geometry mismatches,
     *  out-of-range values and malformed bytes latch into @p d and may
     *  leave the object half-written: the caller discards it when
     *  !d.ok(). */
    virtual void restoreState(Deserializer &d) = 0;
};

} // namespace snap
} // namespace morc

#endif // MORC_SNAPSHOT_SNAPSHOT_HH
