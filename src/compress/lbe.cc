#include "compress/lbe.hh"

#include <algorithm>
#include <bit>
#include <iterator>

#include "check/check.hh"
#include "util/simd.hh"

namespace morc {
namespace comp {

namespace {

/** Prefix codes from Table 3, written MSB-first so a decoder can walk
 *  the code trie bit by bit. `rev` holds the bit-reversed value so the
 *  whole code goes out in one BitWriter::put (which emits LSB-first) —
 *  the emitted stream is identical to the historical bit-by-bit loop. */
struct Code
{
    std::uint8_t value;
    std::uint8_t len;
    std::uint8_t rev;
};

constexpr std::uint8_t
reverseBits(std::uint8_t v, unsigned len)
{
    std::uint8_t r = 0;
    for (unsigned i = 0; i < len; i++)
        r = static_cast<std::uint8_t>(r | (((v >> i) & 1) << (len - 1 - i)));
    return r;
}

constexpr Code
makeCode(std::uint8_t value, std::uint8_t len)
{
    return {value, len, reverseBits(value, len)};
}

constexpr Code kCodeU32 = makeCode(0b00, 2);
constexpr Code kCodeM32 = makeCode(0b01, 2);
constexpr Code kCodeU16 = makeCode(0b100, 3);
constexpr Code kCodeZ32 = makeCode(0b1010, 4);
constexpr Code kCodeU8 = makeCode(0b1011, 4);
constexpr Code kCodeM64 = makeCode(0b1100, 4);
constexpr Code kCodeZ64 = makeCode(0b1101, 4);
constexpr Code kCodeM128 = makeCode(0b11100, 5);
constexpr Code kCodeZ128 = makeCode(0b11101, 5);
constexpr Code kCodeM256 = makeCode(0b11110, 5);
constexpr Code kCodeZ256 = makeCode(0b11111, 5);

/** Index 0 is the hardwired zero entry at every granularity. */
constexpr std::uint32_t kZeroIdx = 0;
constexpr std::uint32_t kNoIdx = ~0u;

/**
 * A tree node packed for flat SIMD scanning: children (indices one
 * granularity smaller) as left | right << 32. The snapshot format
 * still writes the two u32 halves, unchanged.
 */
constexpr std::uint64_t
nodeKey(std::uint32_t left, std::uint32_t right)
{
    return static_cast<std::uint64_t>(left) |
           (static_cast<std::uint64_t>(right) << 32);
}

/** encodeLine output that keeps nothing (trial scoring). */
struct NoOutput
{
    void put(std::uint64_t, unsigned) {}
};

/** encodeLine output that counts the 1 bits a BitWriter would hold. */
struct OnesCounter
{
    std::uint64_t ones = 0;

    void
    put(std::uint64_t value, unsigned nbits)
    {
        // Operands are at most 32 bits wide; mask as BitWriter::put does.
        ones += static_cast<unsigned>(
            std::popcount(value & ((1ull << nbits) - 1)));
    }
};

} // namespace

// Static and small, so the guard checks inline into encodeLine:
// lookupNode runs up to 7 times per chunk.
inline std::uint32_t
LbeEncoder::lookupNode(std::uint32_t left, std::uint32_t right,
                       const NodeTable &committed,
                       const std::vector<std::uint64_t> &pending)
{
    if (left == kNoIdx || right == kNoIdx)
        return kNoIdx;
    if (left == kZeroIdx && right == kZeroIdx)
        return kZeroIdx;
    const std::uint64_t key = nodeKey(left, right);
    if (committed.mayHold(key)) {
        const int i = simd::findU64(committed.keys.data(),
                                    committed.keys.size(), key);
        if (i >= 0)
            return static_cast<std::uint32_t>(i) + 1;
    }
    // The pending overlay holds at most this line's few new nodes;
    // a direct scan beats an out-of-line vector kernel call.
    for (std::size_t p = 0; p < pending.size(); p++) {
        if (pending[p] == key) {
            return static_cast<std::uint32_t>(committed.keys.size() + p) +
                   1;
        }
    }
    return kNoIdx;
}

inline std::uint32_t
LbeEncoder::insertNode(std::uint32_t left, std::uint32_t right,
                       const NodeTable &committed,
                       std::vector<std::uint64_t> &pending, unsigned cap)
{
    if (left == kNoIdx || right == kNoIdx)
        return kNoIdx;
    const std::size_t total = committed.keys.size() + pending.size();
    if (total >= cap)
        return kNoIdx;
    pending.push_back(nodeKey(left, right));
    return static_cast<std::uint32_t>(total + 1);
}

void
LbeEncoder::NodeTable::clear()
{
    keys.clear();
    std::fill(std::begin(filter), std::end(filter), 0ull);
}

void
LbeEncoder::NodeTable::refilter()
{
    std::fill(std::begin(filter), std::end(filter), 0ull);
    for (const std::uint64_t key : keys)
        mark(key);
}

const char *
LbeStats::name(LbeSymbol s)
{
    switch (s) {
      case LbeSymbol::U32: return "u32";
      case LbeSymbol::M32: return "m32";
      case LbeSymbol::Z32: return "z32";
      case LbeSymbol::U8: return "u8";
      case LbeSymbol::U16: return "u16";
      case LbeSymbol::M64: return "m64";
      case LbeSymbol::Z64: return "z64";
      case LbeSymbol::M128: return "m128";
      case LbeSymbol::Z128: return "z128";
      case LbeSymbol::M256: return "m256";
      case LbeSymbol::Z256: return "z256";
      default: return "?";
    }
}

LbeLinePlan
LbeLinePlan::of(const CacheLine &line)
{
    LbeLinePlan p;
    for (unsigned c = 0; c < 2; c++) {
        Chunk &ch = p.chunk[c];
        for (unsigned i = 0; i < 8; i++)
            ch.w[i] = line.word32(c * 8 + i);
        ch.zeroMask = simd::zeroMask8(ch.w);
    }
    return p;
}

unsigned
LbeConfig::chunkFloorBits() const
{
    // Bottom up, the cheapest a sub-chunk holding a non-zero word can
    // cost: its match, or a descent into one such half and a sibling
    // that is either zero or another such half. A non-zero word's
    // cheapest literal is a u8.
    const unsigned word = std::min(kCodeM32.len + ptrBits32(),
                                   kCodeU8.len + 8u);
    const unsigned quarter =
        std::min(kCodeM64.len + ptrBits64(),
                 word + std::min<unsigned>(kCodeZ32.len, word));
    const unsigned half =
        std::min(kCodeM128.len + ptrBits128(),
                 quarter + std::min<unsigned>(kCodeZ64.len, quarter));
    return std::min(kCodeM256.len + ptrBits256(),
                    half + std::min<unsigned>(kCodeZ128.len, half));
}

std::uint32_t
LbeLinePlan::floorBits(unsigned chunk_floor_bits) const
{
    std::uint32_t bits = 0;
    for (const Chunk &ch : chunk)
        bits += ch.allZero() ? kCodeZ256.len : chunk_floor_bits;
    return bits;
}

LbeEncoder::LbeEncoder(const LbeConfig &cfg) : cfg_(cfg)
{
    MORC_CHECK(cfg_.entries32() >= 2,
               "LBE dictionary of %u bytes holds fewer than 2 words",
               cfg_.dictBytes);
    values32_.reserve(cfg_.entries32());
    nodes64_.keys.reserve(cfg_.nodes64);
    nodes128_.keys.reserve(cfg_.nodes128);
    nodes256_.keys.reserve(cfg_.nodes256);
    // Hash index sized to at most 50% load (capacity >= 2x the
    // dictionary) so probe chains stay short and insertion always
    // terminates.
    hashGroupsLog2_ = ceilLog2(divCeil(2 * cfg_.entries32(), 8));
    hashSlots_.assign(std::size_t{8} << hashGroupsLog2_, 0);
    hashPos_.assign(hashSlots_.size(), 0);
}

void
LbeEncoder::hashInsert(std::uint32_t v, std::uint32_t pos)
{
    const unsigned gmask = (1u << hashGroupsLog2_) - 1;
    unsigned g = simd::hashGroup(v, hashGroupsLog2_);
    for (;;) {
        const std::size_t base = std::size_t{g} * 8;
        for (unsigned k = 0; k < 8; k++) {
            if (hashSlots_[base + k] == 0) {
                hashSlots_[base + k] = v;
                hashPos_[base + k] = pos;
                return;
            }
        }
        g = (g + 1) & gmask;
    }
}

void
LbeEncoder::reset()
{
    values32_.clear();
    nodes64_.clear();
    nodes128_.clear();
    nodes256_.clear();
    std::fill(hashSlots_.begin(), hashSlots_.end(), 0u);
}

template <typename Self, typename IO>
void
LbeEncoder::walk(Self &self, IO &io)
{
    io.section("LBE ", [&] {
        const char *config = "LBE configuration mismatch (dictionary/"
                             "table sizing differs from the live encoder)";
        io.expect(self.cfg_.dictBytes, config);
        io.expect(self.cfg_.nodes64, config);
        io.expect(self.cfg_.nodes128, config);
        io.expect(self.cfg_.nodes256, config);
        for (auto &c : self.stats_.count)
            io.u64(c);
        for (auto &c : self.stats_.zeroCount)
            io.u64(c);
        io.vecU32(self.values32_);
        // A packed node is left | right << 32, so as one u64 it has the
        // bytes of the two u32 children this layout was defined with.
        const auto nodes = [&](auto &table, unsigned cap) {
            io.vec(table.keys, 8, [&](auto &n) { io.u64(n); });
            io.check(table.keys.size() <= cap,
                     "LBE node table overflows its configured capacity");
        };
        nodes(self.nodes64_, self.cfg_.nodes64);
        nodes(self.nodes128_, self.cfg_.nodes128);
        nodes(self.nodes256_, self.cfg_.nodes256);
        io.check(self.values32_.size() <= self.cfg_.entries32(),
                 "LBE dictionary overflows its configured capacity");
    });
}

void
LbeEncoder::save(snap::Serializer &s) const
{
    walk(*this, s);
}

void
LbeEncoder::restore(snap::Deserializer &d)
{
    walk(*this, d);
    if (!d.ok())
        return;
    // Rebuild the hash index from the committed sequence (insertion
    // order fixes the layout, so this is deterministic).
    std::fill(hashSlots_.begin(), hashSlots_.end(), 0u);
    for (std::size_t i = 0; i < values32_.size(); i++)
        hashInsert(values32_[i], static_cast<std::uint32_t>(i + 1));
    nodes64_.refilter();
    nodes128_.refilter();
    nodes256_.refilter();
}

template <bool kStats, bool kTrial, typename Out>
std::uint32_t
LbeEncoder::encodeLine(const LbeLinePlan &plan, Overlay &ov, Out &out,
                       LbeStats *stats, std::uint32_t limit) const
{
    std::uint32_t bits = 0;
    const auto note = [&](LbeSymbol s, bool zero) {
        if constexpr (kStats)
            stats->add(s, zero);
    };
    const auto emit = [&](Code c) { out.put(c.rev, c.len); };
    const auto emitOperand = [&](std::uint64_t v, unsigned nbits) {
        out.put(v, nbits);
    };
    // Hoist the pointer widths out of the per-symbol paths (the
    // compiler cannot, past opaque calls).
    const unsigned ptr32 = cfg_.ptrBits32();
    const unsigned ptr64 = cfg_.ptrBits64();
    const unsigned ptr128 = cfg_.ptrBits128();
    const unsigned ptr256 = cfg_.ptrBits256();

    // Two 256-bit chunks per 64-byte line, pre-decomposed (words and
    // zero masks) by the shared LbeLinePlan.
    for (unsigned chunk = 0; chunk < 2; chunk++) {
        const LbeLinePlan::Chunk &ch = plan.chunk[chunk];
        const std::uint32_t *w = ch.w;

        if (ch.allZero()) {
            emit(kCodeZ256);
            bits += kCodeZ256.len;
            note(LbeSymbol::Z256, true);
            continue;
        }

        // One batched probe of the committed-dictionary hash index
        // scores every nonzero word of the chunk at once. The
        // committed dictionary cannot change mid-line, so these
        // positions stay valid for the emit phase below — only the
        // (tiny) overlay needs a per-word rescan there.
        int cpos[8];
        simd::hashFind8(hashSlots_.data(), hashGroupsLog2_, w,
                        ch.zeroMask, cpos);

        // Committed + overlay lookup for a nonzero word, reusing the
        // batched committed-dictionary probe.
        const auto lookupWord = [&](unsigned i) -> std::uint32_t {
            if (cpos[i] >= 0)
                return hashPos_[static_cast<unsigned>(cpos[i])];
            // The overlay holds at most this line's few insertions;
            // a direct first-match scan (identical semantics) beats
            // an out-of-line vector kernel call. Read size and data
            // fresh each call: the overlay grows mid-line.
            for (std::size_t p = 0; p < ov.words.size(); p++) {
                if (ov.words[p] == w[i]) {
                    return static_cast<std::uint32_t>(values32_.size() +
                                                      p) + 1;
                }
            }
            return kNoIdx;
        };

        // Content indices for match checks at >=64-bit granularity.
        // These reflect state at the start of the chunk plus earlier
        // overlay insertions; tree nodes for this chunk are only
        // allocated after it is fully encoded.
        std::uint32_t c32[8], c64[4], c128[2];
        for (unsigned i = 0; i < 8; i++)
            c32[i] = ch.zero(i) ? kZeroIdx : lookupWord(i);
        for (unsigned q = 0; q < 4; q++) {
            c64[q] = lookupNode(c32[2 * q], c32[2 * q + 1], nodes64_,
                                ov.nodes64);
        }
        for (unsigned h = 0; h < 2; h++) {
            c128[h] = lookupNode(c64[2 * h], c64[2 * h + 1], nodes128_,
                                 ov.nodes128);
        }
        const std::uint32_t c256 =
            lookupNode(c128[0], c128[1], nodes256_, ov.nodes256);

        if (c256 != kNoIdx) {
            emit(kCodeM256);
            emitOperand(c256, ptr256);
            bits += kCodeM256.len + ptr256;
            note(LbeSymbol::M256, false);
            continue; // matched: no tree-node allocation for this chunk
        }

        // Coverage bookkeeping for post-chunk node allocation. An index
        // of kNoIdx in idx64/idx128 means the sub-chunk has no usable
        // dictionary identity yet. e32 records each descended word's
        // dictionary index as of its emission; insertions only append,
        // so the index a post-chunk lookup would find is the same one —
        // node allocation below needs no dictionary rescans.
        std::uint32_t idx64[4], idx128[2];
        std::uint32_t e32[8];
        bool descended64[4] = {false, false, false, false};
        bool descended128[2] = {false, false};

        for (unsigned h = 0; h < 2; h++) {
            if (ch.zero128(h)) {
                emit(kCodeZ128);
                bits += kCodeZ128.len;
                note(LbeSymbol::Z128, true);
                idx128[h] = kZeroIdx;
                continue;
            }
            if (c128[h] != kNoIdx) {
                emit(kCodeM128);
                emitOperand(c128[h], ptr128);
                bits += kCodeM128.len + ptr128;
                note(LbeSymbol::M128, false);
                idx128[h] = c128[h];
                continue;
            }
            descended128[h] = true;
            for (unsigned qq = 0; qq < 2; qq++) {
                const unsigned q = 2 * h + qq;
                if (ch.zero64(q)) {
                    emit(kCodeZ64);
                    bits += kCodeZ64.len;
                    note(LbeSymbol::Z64, true);
                    idx64[q] = kZeroIdx;
                    continue;
                }
                if (c64[q] != kNoIdx) {
                    emit(kCodeM64);
                    emitOperand(c64[q], ptr64);
                    bits += kCodeM64.len + ptr64;
                    note(LbeSymbol::M64, false);
                    idx64[q] = c64[q];
                    continue;
                }
                descended64[q] = true;
                for (unsigned ww = 0; ww < 2; ww++) {
                    const unsigned i = 2 * q + ww;
                    if (ch.zero(i)) {
                        emit(kCodeZ32);
                        bits += kCodeZ32.len;
                        note(LbeSymbol::Z32, true);
                        e32[i] = kZeroIdx;
                        continue;
                    }
                    // Emit-time lookup: words inserted earlier in this
                    // very line are already visible (C-Pack-style
                    // immediate insertion).
                    const std::uint32_t m = lookupWord(i);
                    if (m != kNoIdx) {
                        emit(kCodeM32);
                        emitOperand(m, ptr32);
                        bits += kCodeM32.len + ptr32;
                        note(LbeSymbol::M32, false);
                        e32[i] = m;
                        continue;
                    }
                    // Insert directly: the lookup above just proved a
                    // miss in both the committed dictionary and the
                    // overlay, so insert32's own scan is redundant.
                    const std::size_t total =
                        values32_.size() + ov.words.size();
                    if (total + 1 < cfg_.entries32()) {
                        ov.words.push_back(w[i]);
                        e32[i] = static_cast<std::uint32_t>(total + 1);
                    } else {
                        e32[i] = kNoIdx; // dictionary full
                    }
                    if (w[i] < 0x100u) {
                        emit(kCodeU8);
                        emitOperand(w[i], 8);
                        bits += kCodeU8.len + 8;
                        note(LbeSymbol::U8, false);
                    } else if (w[i] < 0x10000u) {
                        emit(kCodeU16);
                        emitOperand(w[i], 16);
                        bits += kCodeU16.len + 16;
                        note(LbeSymbol::U16, false);
                    } else {
                        emit(kCodeU32);
                        emitOperand(w[i], 32);
                        bits += kCodeU32.len + 32;
                        note(LbeSymbol::U32, false);
                    }
                }
            }
        }

        // A trial is never committed, so it skips the allocation below
        // when no later chunk of this line can use it: after the last
        // chunk, or once the score has passed the limit (the caller
        // discards the score then; it only grows from here).
        if constexpr (kTrial) {
            if (chunk == 1 || bits > limit)
                return bits;
        }

        // Post-chunk tree-node allocation for the sub-chunks that
        // failed to match (Section 3.2.5).
        for (unsigned q = 0; q < 4; q++) {
            if (!descended128[q / 2] || !descended64[q])
                continue;
            const std::uint32_t l = e32[2 * q];
            const std::uint32_t r = e32[2 * q + 1];
            idx64[q] = lookupNode(l, r, nodes64_, ov.nodes64);
            if (idx64[q] == kNoIdx) {
                idx64[q] =
                    insertNode(l, r, nodes64_, ov.nodes64, cfg_.nodes64);
            }
        }
        for (unsigned h = 0; h < 2; h++) {
            if (!descended128[h])
                continue;
            idx128[h] = lookupNode(idx64[2 * h], idx64[2 * h + 1],
                                   nodes128_, ov.nodes128);
            if (idx128[h] == kNoIdx) {
                idx128[h] = insertNode(idx64[2 * h], idx64[2 * h + 1],
                                       nodes128_, ov.nodes128,
                                       cfg_.nodes128);
            }
        }
        if (lookupNode(idx128[0], idx128[1], nodes256_, ov.nodes256) ==
            kNoIdx) {
            insertNode(idx128[0], idx128[1], nodes256_, ov.nodes256,
                       cfg_.nodes256);
        }
    }
    return bits;
}

void
LbeEncoder::commit(const Overlay &ov)
{
    for (std::uint32_t w : ov.words) {
        values32_.push_back(w);
        hashInsert(w, static_cast<std::uint32_t>(values32_.size()));
    }
    for (std::uint64_t n : ov.nodes64)
        nodes64_.push(n);
    for (std::uint64_t n : ov.nodes128)
        nodes128_.push(n);
    for (std::uint64_t n : ov.nodes256)
        nodes256_.push(n);
}

std::uint32_t
LbeEncoder::measure(const CacheLine &line, LbeStats *stats) const
{
    return measure(LbeLinePlan::of(line), stats);
}

std::uint32_t
LbeEncoder::measure(const LbeLinePlan &plan, LbeStats *stats,
                    std::uint32_t limit) const
{
    scratch_.clear();
    NoOutput none;
    if (stats)
        return encodeLine<true, true>(plan, scratch_, none, stats, limit);
    return encodeLine<false, true>(plan, scratch_, none, nullptr, limit);
}

std::uint32_t
LbeEncoder::append(const CacheLine &line, BitWriter *out)
{
    return append(LbeLinePlan::of(line), out);
}

std::uint32_t
LbeEncoder::append(const LbeLinePlan &plan, BitWriter *out)
{
    scratch_.clear();
    NoOutput none;
    const std::uint32_t bits =
        out ? encodeLine<true, false>(plan, scratch_, *out, &stats_, kNoLimit)
            : encodeLine<true, false>(plan, scratch_, none, &stats_,
                                      kNoLimit);
    commit(scratch_);
    return bits;
}

std::uint32_t
LbeEncoder::appendCountingOnes(const LbeLinePlan &plan, std::uint64_t &ones)
{
    scratch_.clear();
    OnesCounter counter;
    const std::uint32_t bits =
        encodeLine<true, false>(plan, scratch_, counter, &stats_, kNoLimit);
    commit(scratch_);
    ones += counter.ones;
    return bits;
}

// ---------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------

LbeDecoder::LbeDecoder(const LbeConfig &cfg) : cfg_(cfg) {}

void
LbeDecoder::reset()
{
    ok_ = true;
    values32_.clear();
    map32_.clear();
    for (int l = 0; l < 3; l++) {
        nodes_[l].clear();
        nodeMap_[l].clear();
    }
}

std::uint32_t
LbeDecoder::value32(std::uint32_t idx) const
{
    return idx == 0 ? 0u : values32_[idx - 1];
}

void
LbeDecoder::gather(unsigned level, std::uint32_t idx,
                   std::uint32_t *out) const
{
    const unsigned words = 2u << level; // 2, 4, 8 words
    if (idx == 0) {
        for (unsigned i = 0; i < words; i++)
            out[i] = 0;
        return;
    }
    const std::uint64_t packed = nodes_[level][idx - 1];
    const std::uint32_t left = static_cast<std::uint32_t>(packed >> 32);
    const std::uint32_t right = static_cast<std::uint32_t>(packed);
    if (level == 0) {
        out[0] = value32(left);
        out[1] = value32(right);
    } else {
        gather(level - 1, left, out);
        gather(level - 1, right, out + words / 2);
    }
}

CacheLine
LbeDecoder::decodeLine(BitReader &in)
{
    CacheLine line;
    if (!ok_)
        return line;

    const auto nodeKey = [](std::uint32_t l, std::uint32_t r) {
        return (static_cast<std::uint64_t>(l) << 32) | r;
    };
    constexpr std::uint32_t noIdx = ~0u;

    const auto lookupOrInsertNode = [&](unsigned level, std::uint32_t l,
                                        std::uint32_t r,
                                        unsigned cap) -> std::uint32_t {
        if (l == noIdx || r == noIdx)
            return noIdx;
        if (l == 0 && r == 0)
            return 0;
        const std::uint64_t key = nodeKey(l, r);
        auto it = nodeMap_[level].find(key);
        if (it != nodeMap_[level].end())
            return it->second;
        if (nodes_[level].size() >= cap)
            return noIdx;
        nodes_[level].push_back(key);
        const auto idx = static_cast<std::uint32_t>(nodes_[level].size());
        nodeMap_[level].emplace(key, idx);
        return idx;
    };

    for (unsigned chunk = 0; chunk < 2; chunk++) {
        std::uint32_t w[8];
        unsigned pos = 0; // next 32-bit word to fill within the chunk

        // Coverage state mirrored from the encoder for post-chunk
        // tree-node allocation.
        bool chunkMatched = false;
        std::uint32_t idx64[4] = {noIdx, noIdx, noIdx, noIdx};
        std::uint32_t idx128[2] = {noIdx, noIdx};
        bool descended64[4] = {false, false, false, false};
        bool descended128[2] = {false, false};

        while (pos < 8) {
            // Walk the Table 3 prefix-code trie.
            if (in.get(1) == 0) {
                if (in.get(1) == 0) { // u32
                    const auto v =
                        static_cast<std::uint32_t>(in.get(32));
                    w[pos] = v;
                    if (map32_.find(v) == map32_.end() &&
                        values32_.size() + 1 < cfg_.entries32()) {
                        values32_.push_back(v);
                        map32_.emplace(
                            v,
                            static_cast<std::uint32_t>(values32_.size()));
                    }
                    descended64[pos / 2] = true;
                    descended128[pos / 4] = true;
                    pos++;
                } else { // m32
                    const auto idx = static_cast<std::uint32_t>(
                        in.get(cfg_.ptrBits32()));
                    if (idx > values32_.size()) {
                        ok_ = false;
                        return CacheLine{};
                    }
                    w[pos] = value32(idx);
                    descended64[pos / 2] = true;
                    descended128[pos / 4] = true;
                    pos++;
                }
            } else if (in.get(1) == 0) {
                if (in.get(1) == 0) { // u16 (code 100)
                    const auto v =
                        static_cast<std::uint32_t>(in.get(16));
                    w[pos] = v;
                    if (map32_.find(v) == map32_.end() &&
                        values32_.size() + 1 < cfg_.entries32()) {
                        values32_.push_back(v);
                        map32_.emplace(
                            v,
                            static_cast<std::uint32_t>(values32_.size()));
                    }
                    descended64[pos / 2] = true;
                    descended128[pos / 4] = true;
                    pos++;
                } else if (in.get(1) == 0) { // z32 (1010)
                    w[pos] = 0;
                    descended64[pos / 2] = true;
                    descended128[pos / 4] = true;
                    pos++;
                } else { // u8 (1011)
                    const auto v = static_cast<std::uint32_t>(in.get(8));
                    w[pos] = v;
                    if (map32_.find(v) == map32_.end() &&
                        values32_.size() + 1 < cfg_.entries32()) {
                        values32_.push_back(v);
                        map32_.emplace(
                            v,
                            static_cast<std::uint32_t>(values32_.size()));
                    }
                    descended64[pos / 2] = true;
                    descended128[pos / 4] = true;
                    pos++;
                }
            } else if (in.get(1) == 0) {
                if (in.get(1) == 0) { // m64 (1100)
                    const auto idx = static_cast<std::uint32_t>(
                        in.get(cfg_.ptrBits64()));
                    if (idx > nodes_[0].size()) {
                        ok_ = false;
                        return CacheLine{};
                    }
                    gather(0, idx, w + pos);
                    idx64[pos / 2] = idx;
                    descended128[pos / 4] = true;
                    pos += 2;
                } else { // z64 (1101)
                    w[pos] = w[pos + 1] = 0;
                    idx64[pos / 2] = 0;
                    descended128[pos / 4] = true;
                    pos += 2;
                }
            } else if (in.get(1) == 0) {
                if (in.get(1) == 0) { // m128 (11100)
                    const auto idx = static_cast<std::uint32_t>(
                        in.get(cfg_.ptrBits128()));
                    if (idx > nodes_[1].size()) {
                        ok_ = false;
                        return CacheLine{};
                    }
                    gather(1, idx, w + pos);
                    idx128[pos / 4] = idx;
                    pos += 4;
                } else { // z128 (11101)
                    for (unsigned i = 0; i < 4; i++)
                        w[pos + i] = 0;
                    idx128[pos / 4] = 0;
                    pos += 4;
                }
            } else {
                if (in.get(1) == 0) { // m256 (11110)
                    const auto idx = static_cast<std::uint32_t>(
                        in.get(cfg_.ptrBits256()));
                    if (idx > nodes_[2].size()) {
                        ok_ = false;
                        return CacheLine{};
                    }
                    gather(2, idx, w);
                } else { // z256 (11111)
                    for (unsigned i = 0; i < 8; i++)
                        w[i] = 0;
                }
                pos = 8;
                chunkMatched = true;
            }
        }

        for (unsigned i = 0; i < 8; i++)
            line.setWord32(chunk * 8 + i, w[i]);

        if (chunkMatched)
            continue;

        // Mirror the encoder's post-chunk tree-node allocation.
        const auto wordIdx = [&](unsigned i) -> std::uint32_t {
            if (w[i] == 0)
                return 0;
            auto it = map32_.find(w[i]);
            return it == map32_.end() ? noIdx : it->second;
        };
        for (unsigned q = 0; q < 4; q++) {
            if (!descended128[q / 2] || !descended64[q])
                continue;
            idx64[q] = lookupOrInsertNode(0, wordIdx(2 * q),
                                          wordIdx(2 * q + 1), cfg_.nodes64);
        }
        for (unsigned h = 0; h < 2; h++) {
            if (!descended128[h])
                continue;
            idx128[h] = lookupOrInsertNode(1, idx64[2 * h],
                                           idx64[2 * h + 1], cfg_.nodes128);
        }
        lookupOrInsertNode(2, idx128[0], idx128[1], cfg_.nodes256);
    }
    return line;
}

} // namespace comp
} // namespace morc
