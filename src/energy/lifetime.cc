#include "energy/lifetime.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "check/check.hh"

namespace morc {
namespace energy {

std::uint64_t
popcountBits(const std::vector<std::uint64_t> &words, std::uint64_t bits)
{
    MORC_DCHECK(bits <= words.size() * 64,
                "popcount of %llu bits over %zu words",
                static_cast<unsigned long long>(bits), words.size());
    std::uint64_t count = 0;
    std::uint64_t i = 0;
    for (; (i + 1) * 64 <= bits; i++)
        count += std::popcount(words[i]);
    const unsigned tail = static_cast<unsigned>(bits - i * 64);
    if (tail > 0)
        count += std::popcount(words[i] & ((1ull << tail) - 1));
    return count;
}

std::uint64_t
popcountRange(const std::vector<std::uint64_t> &words,
              std::uint64_t start_bit, std::uint64_t end_bit)
{
    MORC_DCHECK(start_bit <= end_bit, "inverted bit range %llu..%llu",
                static_cast<unsigned long long>(start_bit),
                static_cast<unsigned long long>(end_bit));
    std::uint64_t count = 0;
    for (std::uint64_t bit = start_bit; bit < end_bit;) {
        const std::uint64_t word = bit >> 6;
        const unsigned off = bit & 63;
        const unsigned take = static_cast<unsigned>(
            std::min<std::uint64_t>(64 - off, end_bit - bit));
        std::uint64_t chunk = words[word] >> off;
        if (take < 64)
            chunk &= (1ull << take) - 1;
        count += std::popcount(chunk);
        bit += take;
    }
    return count;
}

std::uint64_t
flipBits(const std::vector<std::uint64_t> &a, std::uint64_t a_bits,
         const std::vector<std::uint64_t> &b, std::uint64_t b_bits)
{
    const std::uint64_t bits = std::max(a_bits, b_bits);
    std::uint64_t count = 0;
    for (std::uint64_t bit = 0; bit < bits; bit += 64) {
        const std::uint64_t word = bit >> 6;
        std::uint64_t av = word < a.size() ? a[word] : 0;
        std::uint64_t bv = word < b.size() ? b[word] : 0;
        if (bit + 64 > a_bits) {
            av &= a_bits > bit ? (1ull << (a_bits - bit)) - 1 : 0;
        }
        if (bit + 64 > b_bits) {
            bv &= b_bits > bit ? (1ull << (b_bits - bit)) - 1 : 0;
        }
        count += std::popcount(av ^ bv);
    }
    return count;
}

std::uint64_t
linePopcount(const CacheLine &line)
{
    std::uint64_t count = 0;
    for (unsigned i = 0; i < kLineSize / 8; i++)
        count += std::popcount(line.word64(i));
    return count;
}

std::uint64_t
lineFlips(const CacheLine &before, const CacheLine &after)
{
    std::uint64_t count = 0;
    for (unsigned i = 0; i < kLineSize / 8; i++)
        count += std::popcount(before.word64(i) ^ after.word64(i));
    return count;
}

void
rawImage(const CacheLine &line, BitWriter &out)
{
    for (unsigned i = 0; i < kLineSize / 8; i++)
        out.put(line.word64(i), 64);
}

void
WearTracker::configure(std::uint64_t sets, std::uint64_t ways)
{
    sets_ = sets;
    ways_ = ways;
    frameWrites_.assign(sets * ways, 0);
    setFlips_.assign(sets, 0);
    totalWrites_ = 0;
    totalBits_ = 0;
    totalFlips_ = 0;
}

void
WearTracker::recordWrite(std::uint64_t set, std::uint64_t way,
                         std::uint64_t bits_written,
                         std::uint64_t bit_flips)
{
    MORC_DCHECK(set < sets_ && way < ways_,
                "wear write to frame (%llu, %llu) outside %llu x %llu",
                static_cast<unsigned long long>(set),
                static_cast<unsigned long long>(way),
                static_cast<unsigned long long>(sets_),
                static_cast<unsigned long long>(ways_));
    frameWrites_[set * ways_ + way]++;
    setFlips_[set] += bit_flips;
    totalWrites_++;
    totalBits_ += bits_written;
    totalFlips_ += bit_flips;
}

double
WearTracker::meanSetFlips() const
{
    if (sets_ == 0)
        return 0;
    return static_cast<double>(totalFlips_) /
           static_cast<double>(sets_);
}

std::uint64_t
WearTracker::maxSetFlips() const
{
    std::uint64_t max = 0;
    for (std::uint64_t f : setFlips_)
        max = std::max(max, f);
    return max;
}

double
WearTracker::imbalance() const
{
    const double mean = meanSetFlips();
    if (mean <= 0)
        return 1.0;
    return static_cast<double>(maxSetFlips()) / mean;
}

double
WearTracker::setVariance() const
{
    const double mean = meanSetFlips();
    if (sets_ == 0 || mean <= 0)
        return 0;
    double sum = 0;
    for (std::uint64_t f : setFlips_) {
        const double d = static_cast<double>(f) - mean;
        sum += d * d;
    }
    return sum / static_cast<double>(sets_) / (mean * mean);
}

void
WearTracker::clearCounts()
{
    std::fill(frameWrites_.begin(), frameWrites_.end(), 0);
    std::fill(setFlips_.begin(), setFlips_.end(), 0);
    totalWrites_ = 0;
    totalBits_ = 0;
    totalFlips_ = 0;
}

void
WearTracker::merge(const WearTracker &other)
{
    if (other.sets_ == 0)
        return;
    if (sets_ == 0) {
        *this = other;
        return;
    }
    MORC_CHECK(ways_ == other.ways_,
               "cannot merge wear trackers of %llu and %llu ways",
               static_cast<unsigned long long>(ways_),
               static_cast<unsigned long long>(other.ways_));
    sets_ += other.sets_;
    frameWrites_.insert(frameWrites_.end(), other.frameWrites_.begin(),
                        other.frameWrites_.end());
    setFlips_.insert(setFlips_.end(), other.setFlips_.begin(),
                     other.setFlips_.end());
    totalWrites_ += other.totalWrites_;
    totalBits_ += other.totalBits_;
    totalFlips_ += other.totalFlips_;
}

template <typename Self, typename IO>
void
WearTracker::walk(Self &self, IO &io)
{
    io.section("WEAR", [&] {
        const char *geometry = "wear tracker geometry mismatch";
        io.expect(self.sets_, geometry);
        io.expect(self.ways_, geometry);
        io.fixedVec(self.frameWrites_, 8, geometry,
                    [&](auto &w) { io.u64(w); });
        io.fixedVec(self.setFlips_, 8, geometry,
                    [&](auto &f) { io.u64(f); });
        io.u64(self.totalWrites_);
        io.u64(self.totalBits_);
        io.u64(self.totalFlips_);
    });
}

void
WearTracker::save(snap::Serializer &s) const
{
    walk(*this, s);
}

void
WearTracker::restore(snap::Deserializer &d)
{
    walk(*this, d);
}

LifetimeForecast
forecastLifetime(const WearTracker &wear, std::uint64_t cycles,
                 std::uint64_t capacity_bits,
                 const LifetimeParams &params)
{
    constexpr double kSecondsPerYear = 365.25 * 24 * 3600;
    LifetimeForecast f;
    f.imbalance = wear.imbalance();
    f.setVariance = wear.setVariance();
    const double seconds =
        static_cast<double>(cycles) / params.clockHz;
    if (seconds <= 0 || capacity_bits == 0) {
        f.years = std::numeric_limits<double>::infinity();
        return f;
    }
    f.writeBitsPerSec =
        static_cast<double>(wear.totalBitsWritten()) / seconds;
    f.flipsPerCellPerSec =
        static_cast<double>(wear.totalBitFlips()) /
        static_cast<double>(capacity_bits) / seconds;
    const double worstCellPerSec = f.flipsPerCellPerSec * f.imbalance;
    if (worstCellPerSec <= 0) {
        f.years = std::numeric_limits<double>::infinity();
        return f;
    }
    f.years =
        params.cellEnduranceWrites / worstCellPerSec / kSecondsPerYear;
    return f;
}

} // namespace energy
} // namespace morc
