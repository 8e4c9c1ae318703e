#include "trace/value_model.hh"

#include <algorithm>


namespace morc {
namespace trace {

namespace {

/** Domain-separation salts for the hash cascade. */
constexpr std::uint64_t kSaltLine = 0x11c7;
constexpr std::uint64_t kSaltChunk = 0xc256;
constexpr std::uint64_t kSaltWord = 0x3091d;
constexpr std::uint64_t kSaltPool = 0x9001;
constexpr std::uint64_t kSaltGlobal = 0x91084;
constexpr std::uint64_t kSaltFresh = 0xf4e5;

/** Salt folding chunk vocabularies into their owning region: repeated
 *  records are local to the data structure (region) that holds them, so
 *  a log capturing a phase's regions learns their chunks, while a
 *  global dictionary cannot hold every region's chunk vocabulary. */
constexpr std::uint64_t kChunkRegionSalt = 0xc09c09;

} // namespace

ValueModel::Cuts::Cuts(const DataProfile &p)
    : zeroLine(unitThreshold(p.zeroLineFrac)),
      chunk256(unitThreshold(p.chunk256Frac)),
      zeroHalf(unitThreshold(p.zeroHalfFrac)),
      chunk128(unitThreshold(p.chunk128Frac)),
      zeroWord(unitThreshold(p.zeroWordFrac)),
      poolWord(unitThreshold(p.zeroWordFrac + p.poolWordFrac)),
      smallWord(unitThreshold(p.zeroWordFrac + p.poolWordFrac +
                              p.smallWordFrac)),
      fpWord(unitThreshold(p.zeroWordFrac + p.poolWordFrac +
                           p.smallWordFrac + p.fpWordFrac)),
      globalPool(unitThreshold(p.globalPoolFrac)),
      chunkSmall(unitThreshold(p.zeroWordFrac + p.smallWordFrac)),
      storeChurn(unitThreshold(p.storeChurn))
{}

ValueModel::ValueModel(const DataProfile &profile)
    : profile_(profile),
      cut_(profile),
      regionPool_(std::max<std::uint32_t>(profile.regionPoolSize, 1),
                  profile.poolTheta),
      globalPool_(std::max<std::uint32_t>(profile.globalPoolSize, 1), 0.9),
      chunk256Pool_(std::max<std::uint32_t>(profile.chunk256Pool, 1), 0.8),
      chunk128Pool_(std::max<std::uint32_t>(profile.chunk128Pool, 1), 0.8)
{}

std::uint32_t
ValueModel::poolWord(std::uint64_t region, std::uint64_t index) const
{
    const std::uint64_t h =
        mix64(profile_.seed ^ kSaltPool, mix64(region, index));
    // Pool values mimic pointers/indices: word-aligned, medium width.
    return static_cast<std::uint32_t>(h) & ~0x3u;
}

std::uint32_t
ValueModel::freshWord(std::uint64_t h, std::uint64_t region) const
{
    if (unitBelow(h, cut_.zeroWord))
        return 0;
    if (unitBelow(h, cut_.poolWord)) {
        const std::uint64_t h2 = splitmix64(h ^ 0x9a7);
        if (unitBelow(h2, cut_.globalPool)) {
            return poolWord(kSaltGlobal,
                            globalPool_.sampleHashed(splitmix64(h2)));
        }
        return poolWord(region,
                        regionPool_.sampleHashed(splitmix64(h2 + 1)));
    }
    if (unitBelow(h, cut_.smallWord)) {
        // Small integers: diverse (counters, sizes, coordinates) — too
        // many distinct values for a frequent-value dictionary, but
        // ideal for significance truncation (u8/u16).
        const std::uint64_t h2 = splitmix64(h);
        return (h2 & 7) < 2
                   ? static_cast<std::uint32_t>(h2 >> 3) & 0xff
                   : static_cast<std::uint32_t>(h2 >> 3) & 0xffff;
    }
    if (unitBelow(h, cut_.fpWord)) {
        // Double-precision style: a handful of common exponents over a
        // random mantissa. Two consecutive words form one double; this
        // word-level model keeps the high-entropy property that matters.
        const std::uint64_t h2 = splitmix64(h);
        const std::uint32_t exponents[4] = {0x3fe00000, 0x40080000,
                                            0xbfe00000, 0x3ff00000};
        return exponents[h2 & 3] | (static_cast<std::uint32_t>(h2 >> 2) &
                                    0x000fffffu);
    }
    // Residual "fresh" words are pointer-styled: the high half is
    // shared within a region (heap addresses, indices into nearby
    // structures), the low half is unique. C-Pack's partial-match
    // patterns (mmxx/mmmx) exploit exactly this; LBE does not, matching
    // the paper's characterization of both.
    const std::uint64_t h2 = splitmix64(h ^ kSaltFresh);
    if (h2 & 1) {
        const std::uint32_t high = static_cast<std::uint32_t>(
            mix64(profile_.seed ^ 0xb45e, region)) & 0x7fffu;
        return (high << 17) | (static_cast<std::uint32_t>(h2 >> 8) &
                               0x1ffffu);
    }
    return static_cast<std::uint32_t>(h2 >> 8);
}

void
ValueModel::chunkWords(std::uint64_t region, std::uint64_t chunk_id,
                       unsigned n, std::uint64_t salt,
                       std::uint32_t *out) const
{
    // Chunk contents are sequences over a compact, *region-scoped*
    // vocabulary (zeros, small integers, and the region's chunk pool):
    // repeated records reuse a narrow set of member values local to the
    // structure that holds them. A log that captures a phase's regions
    // learns their chunks (tree nodes form, m128/m256 land); a single
    // global dictionary cannot hold every region's vocabulary.
    const std::uint64_t base = mix64(
        profile_.seed ^ kSaltChunk ^ salt, mix64(region, chunk_id));
    for (unsigned i = 0; i < n; i++) {
        const std::uint64_t h = mix64(base, i);
        if (unitBelow(h, cut_.zeroWord)) {
            out[i] = 0;
        } else if (unitBelow(h, cut_.chunkSmall)) {
            out[i] = static_cast<std::uint32_t>(splitmix64(h) >> 1) &
                     0xffffu;
        } else {
            out[i] = poolWord(kChunkRegionSalt ^ salt ^ region,
                              regionPool_.sampleHashed(splitmix64(h)));
        }
    }
}

CacheLine
ValueModel::line(std::uint64_t line_number, std::uint32_t version) const
{
    CacheLine l;
    const std::uint64_t hline =
        mix64(profile_.seed ^ kSaltLine, mix64(line_number, version));

    if (unitBelow(hline, cut_.zeroLine))
        return l; // all-zero line

    const std::uint64_t region =
        line_number / (profile_.regionBytes / kLineSize);

    std::uint32_t words[kWordsPerLine];
    for (unsigned chunk = 0; chunk < 2; chunk++) {
        const std::uint64_t hchunk = mix64(hline, chunk + 1);
        if (unitBelow(hchunk, cut_.chunk256)) {
            const std::uint64_t id =
                chunk256Pool_.sampleHashed(splitmix64(hchunk));
            chunkWords(region, id, 8, 0x256, words + chunk * 8);
            continue;
        }
        for (unsigned half = 0; half < 2; half++) {
            const std::uint64_t hhalf = mix64(hchunk, half + 3);
            std::uint32_t *out = words + chunk * 8 + half * 4;
            if (unitBelow(splitmix64(hhalf ^ 0x2e20), cut_.zeroHalf)) {
                for (unsigned w = 0; w < 4; w++)
                    out[w] = 0;
                continue;
            }
            if (unitBelow(hhalf, cut_.chunk128)) {
                const std::uint64_t id =
                    chunk128Pool_.sampleHashed(splitmix64(hhalf));
                chunkWords(region, id, 4, 0x128, out);
                continue;
            }
            for (unsigned w = 0; w < 4; w++)
                out[w] = freshWord(mix64(hhalf, kSaltWord + w), region);
        }
    }

    // Stores only churn part of a line: splice un-churned words from
    // version 0 so dirty data stays related to its original contents.
    if (version != 0 && profile_.storeChurn < 1.0) {
        const CacheLine base = line(line_number, 0);
        for (unsigned i = 0; i < kWordsPerLine; i++) {
            const std::uint64_t hw = mix64(hline, 0xc4u + i);
            if (!unitBelow(hw, cut_.storeChurn))
                words[i] = base.word32(i);
        }
    }

    for (unsigned i = 0; i < kWordsPerLine; i++)
        l.setWord32(i, words[i]);
    return l;
}

// ------------------------------------------------------------------
// KvValueModel
// ------------------------------------------------------------------

namespace {

/** Domain-separation salts for the KV hash cascade (disjoint from the
 *  SPEC ValueModel salts above). */
constexpr std::uint64_t kSaltKvClass = 0x6b76c1a5;
constexpr std::uint64_t kSaltKvLine = 0x6b76117e;
constexpr std::uint64_t kSaltKvToken = 0x6b76706b;
constexpr std::uint64_t kSaltKvChurn = 0x6b76c402;

/** jsonWord()'s cumulative bands and CounterDense's word density, as
 *  unitThreshold()s. */
const std::uint64_t kJsonPadding = unitThreshold(0.15);
const std::uint64_t kJsonToken = unitThreshold(0.70);
const std::uint64_t kJsonSmall = unitThreshold(0.90);
const std::uint64_t kCounterWord = unitThreshold(0.25);

} // namespace

const char *
valueClassName(ValueClass c)
{
    switch (c) {
    case ValueClass::JsonLike:
        return "json";
    case ValueClass::CounterDense:
        return "counter";
    case ValueClass::Blob:
        return "blob";
    }
    return "?";
}

KvValueModel::KvValueModel(const KvProfile &profile)
    : profile_(profile),
      tokenPool_(std::max<std::uint32_t>(profile.tokenPoolSize, 1),
                 profile.tokenTheta)
{
    deriveCuts();
}

void
KvValueModel::deriveCuts()
{
    jsonCut_ = unitThreshold(profile_.jsonFrac);
    counterCut_ = unitThreshold(profile_.jsonFrac + profile_.counterFrac);
    setChurnCut_ = unitThreshold(profile_.setChurn);
}

ValueClass
KvValueModel::classOf(std::uint64_t key) const
{
    const std::uint64_t h = mix64(profile_.seed ^ kSaltKvClass, key);
    if (unitBelow(h, jsonCut_))
        return ValueClass::JsonLike;
    if (unitBelow(h, counterCut_))
        return ValueClass::CounterDense;
    return ValueClass::Blob;
}

std::uint32_t
KvValueModel::valueLines(std::uint64_t key) const
{
    switch (classOf(key)) {
    case ValueClass::JsonLike:
        return std::max<std::uint32_t>(profile_.jsonLines, 1);
    case ValueClass::CounterDense:
        return std::max<std::uint32_t>(profile_.counterLines, 1);
    case ValueClass::Blob:
        return std::max<std::uint32_t>(profile_.blobLines, 1);
    }
    return 1;
}

std::uint32_t
KvValueModel::maxValueLines() const
{
    return std::max<std::uint32_t>(
        {profile_.jsonLines, profile_.counterLines, profile_.blobLines,
         1});
}

std::uint32_t
KvValueModel::version(std::uint64_t key) const
{
    const auto it = versions_.find(key);
    return it == versions_.end() ? 0 : it->second;
}

std::uint32_t
KvValueModel::bump(std::uint64_t key)
{
    return ++versions_[key];
}

std::uint32_t
KvValueModel::tokenWord(std::uint64_t index) const
{
    // Token values mimic interned field names / enum constants: a
    // compact corpus-wide vocabulary of word-aligned identifiers.
    const std::uint64_t h =
        mix64(profile_.seed ^ kSaltKvToken, index);
    return static_cast<std::uint32_t>(h) & ~0x3u;
}

std::uint32_t
KvValueModel::jsonWord(std::uint64_t h) const
{
    if (unitBelow(h, kJsonPadding))
        return 0; // padding / null fields
    if (unitBelow(h, kJsonToken))
        return tokenWord(tokenPool_.sampleHashed(splitmix64(h)));
    if (unitBelow(h, kJsonSmall)) {
        // Small scalar fields (counts, timestamps deltas, enum tags).
        const std::uint64_t h2 = splitmix64(h);
        return (h2 & 7) < 3
                   ? static_cast<std::uint32_t>(h2 >> 3) & 0xff
                   : static_cast<std::uint32_t>(h2 >> 3) & 0xffff;
    }
    // Unique payload words (ids, hashes).
    return static_cast<std::uint32_t>(splitmix64(h ^ 0x77) >> 13);
}

CacheLine
KvValueModel::line(std::uint64_t key, std::uint32_t line_idx,
                   std::uint32_t version) const
{
    CacheLine l;
    const ValueClass cls = classOf(key);
    const std::uint64_t hline = mix64(profile_.seed ^ kSaltKvLine,
                                      mix64(key, line_idx));
    switch (cls) {
    case ValueClass::JsonLike: {
        std::uint32_t words[kWordsPerLine];
        for (unsigned w = 0; w < kWordsPerLine; w++)
            words[w] = jsonWord(mix64(hline, w + 1));
        // SETs rewrite a churn-fraction of the words; the rest keep
        // their version-0 contents so dirty data stays related.
        if (version != 0) {
            const std::uint64_t hv =
                mix64(hline ^ kSaltKvChurn, version);
            for (unsigned w = 0; w < kWordsPerLine; w++) {
                if (unitBelow(mix64(hv, w), setChurnCut_))
                    words[w] = jsonWord(mix64(hv, 0x50 + w));
            }
        }
        for (unsigned w = 0; w < kWordsPerLine; w++)
            l.setWord32(w, words[w]);
        return l;
    }
    case ValueClass::CounterDense: {
        // Sparse counters: a few small integers over zeros; the values
        // track the version so every SET perturbs the line.
        for (unsigned w = 0; w < kWordsPerLine; w++) {
            const std::uint64_t h = mix64(hline, 0x90 + w);
            if (unitBelow(h, kCounterWord)) {
                l.setWord32(w, (static_cast<std::uint32_t>(h >> 40) +
                                version) &
                                   0xffffu);
            }
        }
        return l;
    }
    case ValueClass::Blob: {
        // High-entropy payload; version folds into every word.
        for (unsigned w = 0; w < kWordsPerLine / 2; w++) {
            l.setWord64(w, splitmix64(mix64(hline ^ (0xb10bull << 32),
                                            mix64(version, w))));
        }
        return l;
    }
    }
    return l;
}

template <typename Self, typename IO>
void
KvValueModel::walk(Self &self, IO &io)
{
    // Redundancy knobs first: the version map is meaningless against a
    // differently shaped corpus, so the knobs travel with the state.
    auto &p = self.profile_;
    io.u64(p.seed);
    io.f64(p.jsonFrac);
    io.f64(p.counterFrac);
    io.u32(p.jsonLines);
    io.u32(p.counterLines);
    io.u32(p.blobLines);
    io.u32(p.tokenPoolSize);
    io.check(p.tokenPoolSize <= kMaxTokenPoolSize,
             "KV token pool too large");
    io.check(std::max({p.jsonLines, p.counterLines, p.blobLines}) <=
                 kMaxValueLines,
             "KV value line count too large");
    io.f64(p.tokenTheta);
    io.f64(p.setChurn);
    io.sortedMap(self.versions_, 8 + 4, [&](auto &key, auto &version) {
        io.u64(key);
        io.u32(version);
    });
}

void
KvValueModel::save(snap::Serializer &s) const
{
    walk(*this, s);
}

void
KvValueModel::restore(snap::Deserializer &d)
{
    walk(*this, d);
    if (!d.ok())
        return;
    tokenPool_ = ZipfSampler(
        std::max<std::uint32_t>(profile_.tokenPoolSize, 1),
        profile_.tokenTheta);
    deriveCuts();
}

} // namespace trace
} // namespace morc
