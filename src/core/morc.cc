#include "core/morc.hh"

#include <algorithm>
#include <cstdlib>
#include <unordered_set>

#include "check/check.hh"
#include "util/rng.hh"
#include "util/sorted_view.hh"

namespace morc {
namespace core {

namespace {

/** Uncompressed per-line tag footprint (tag + state bits). */
constexpr unsigned kRawTagBits = comp::TagCodec::kFullTagBits + 2;

/** Uncompressed line size in bits (compression-disabled mode). */
constexpr unsigned kRawLineBits = kLineSize * 8;

constexpr std::uint64_t kNoFit = ~0ull;

} // namespace

LogCache::LogCache() : LogCache(MorcConfig{}) {}

LogCache::LogCache(const MorcConfig &cfg)
    : cfg_(cfg), chunkFloorBits_(cfg.lbe.chunkFloorBits())
{
    MORC_CHECK(cfg_.numLogs() >= cfg_.activeLogs + 1,
               "need at least one closed log: %u logs for %u active",
               cfg_.numLogs(), cfg_.activeLogs);
    MORC_CHECK(cfg_.lmtWays >= 1 && cfg_.lmtWays <= 2,
               "LMT supports 1 or 2 ways, not %u", cfg_.lmtWays);
    logs_.reserve(cfg_.numLogs());
    for (unsigned i = 0; i < cfg_.numLogs(); i++)
        logs_.emplace_back(cfg_.lbe, cfg_.tagBases);
    for (unsigned i = 0; i < cfg_.activeLogs; i++) {
        logs_[i].open = true;
        active_.push_back(i);
    }
    // Never-used logs start on the closed FIFO (all trivially
    // reusable).
    for (std::uint32_t i = cfg_.activeLogs; i < cfg_.numLogs(); i++)
        closedFifo_.push_back(i);
    if (!cfg_.unlimitedMeta) {
        std::uint64_t entries = cfg_.lmtEntries();
        // Round down to a power of two for cheap masking.
        entries = 1ull << floorLog2(entries);
        lmt_.resize(entries);
        lmtMask_ = entries - 1;
    }
    // The physical write granule is a log: appends program fresh cells
    // at the tail. Log erasure on reuse is folded into the per-cell
    // endurance budget rather than charged as flips.
    wear_.configure(cfg_.numLogs(), 1);
}

void
LogCache::slotsFor(Addr line_num, std::uint64_t *out) const
{
    const std::uint64_t h = splitmix64(line_num);
    out[0] = h & lmtMask_;
    if (cfg_.lmtWays > 1) {
        // Column-associative rehash: an independent hash of the line.
        out[1] = (h >> 32) & lmtMask_;
        if (out[1] == out[0])
            out[1] = (out[0] + 1) & lmtMask_;
    }
}

bool
LogCache::findResident(Addr line_num, std::uint64_t *slot_out,
                       std::uint32_t *log_out, std::size_t *pos_out)
{
    const auto locate = [&](const LmtEntry &e, std::uint64_t slot) {
        const Log &g = logs_[e.logIdx];
        for (std::size_t p = 0; p < g.lines.size(); p++) {
            if (g.lines[p].valid && g.lines[p].lineNum == line_num) {
                *slot_out = slot;
                *log_out = e.logIdx;
                *pos_out = p;
                return true;
            }
        }
        MORC_CHECK_FAIL("LMT entry for line %llu points at log %u with "
                        "no resident copy",
                        static_cast<unsigned long long>(line_num),
                        e.logIdx);
        return false;
    };

    if (cfg_.unlimitedMeta) {
        auto it = lmtMap_.find(line_num);
        if (it == lmtMap_.end() || !it->second.valid)
            return false;
        return locate(it->second, line_num);
    }
    std::uint64_t slots[2];
    slotsFor(line_num, slots);
    for (unsigned w = 0; w < cfg_.lmtWays; w++) {
        const LmtEntry &e = lmt_[slots[w]];
        if (e.valid && e.lineNum == line_num)
            return locate(e, slots[w]);
    }
    return false;
}

void
LogCache::invalidateEntry(std::uint64_t slot, cache::FillResult &result)
{
    LmtEntry &e = cfg_.unlimitedMeta ? lmtMap_[slot] : lmt_[slot];
    MORC_CHECK(e.valid, "invalidating invalid LMT slot %llu",
               static_cast<unsigned long long>(slot));
    Log &g = logs_[e.logIdx];
    for (auto &line : g.lines) {
        if (line.valid && line.lineNum == e.lineNum) {
            if (e.modified) {
                // Modified data must be decompressed and written back
                // (LMT-conflict eviction, Section 3.1).
                result.writebacks.push_back(
                    {e.lineNum << kLineShift, line.data});
                stats_.victimWritebacks++;
                chargeDecompression(result, 1, divCeil(g.dataBits, 8));
            }
            line.valid = false;
            g.validCount--;
            valid_--;
            e.valid = false;
            if (cfg_.unlimitedMeta)
                lmtMap_.erase(slot);
            return;
        }
    }
    MORC_CHECK_FAIL("dangling LMT entry: slot %llu names line %llu in "
                    "log %u but the log holds no valid copy",
                    static_cast<unsigned long long>(slot),
                    static_cast<unsigned long long>(e.lineNum), e.logIdx);
}

std::uint64_t
LogCache::trialBits(const Log &g, const comp::LbeLinePlan &plan,
                    std::uint64_t floor_bits, Addr line_num) const
{
    const std::uint64_t t_bits =
        cfg_.compressionEnabled ? g.tags.measure(line_num) : kRawTagBits;
    const std::uint64_t log_bits = static_cast<std::uint64_t>(cfg_.logBytes) * 8;
    // Data bits the line may still take. An empty log always accepts
    // one line, even when the compressed size exceeds a
    // (pathologically small) log: progress must be possible for
    // incompressible data. Otherwise the budgets that need no LBE work
    // are checked first, and an overfull log (one such oversized line)
    // is rejected before the subtraction could wrap.
    std::uint64_t room = ~0ull;
    if (!g.lines.empty()) {
        if (!cfg_.mergedTags && !cfg_.unlimitedMeta &&
            g.tagBits + t_bits > cfg_.tagBudgetBits()) {
            return kNoFit;
        }
        // A MORCMerged log also holds its tags, this line's included.
        const std::uint64_t used =
            g.dataBits + (cfg_.mergedTags ? g.tagBits + t_bits : 0);
        if (used > log_bits)
            return kNoFit;
        room = log_bits - used;
    }
    // No encoding of the line is smaller than its floor, so a log with
    // less room left cannot take it: no LBE work needed.
    if (floor_bits > room)
        return kNoFit;
    // The trial stops encoding once its score passes the room left:
    // such a score is only compared against the room, never read.
    const auto limit = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(room, comp::LbeEncoder::kNoLimit));
    const std::uint64_t d_bits = cfg_.compressionEnabled
                                     ? g.lbe.measure(plan, nullptr, limit)
                                     : kRawLineBits;
    if (d_bits > room)
        return kNoFit;
    return d_bits + t_bits;
}

void
LogCache::flushLog(std::uint32_t log_idx, cache::FillResult &result)
{
    Log &g = logs_[log_idx];
    stats_.logFlushes++;
    if (tracer_) {
        tracer_->record(telemetry::EventKind::LogFlush, traceTrack_,
                        log_idx, g.validCount);
    }
    // A whole-log eviction decompresses the entire stream once.
    chargeDecompression(result, g.lines.size(), divCeil(g.dataBits, 8));

    for (const auto &line : g.lines) {
        if (!line.valid)
            continue;
        // Find and clear the owning LMT entry.
        LmtEntry *e = nullptr;
        std::uint64_t slot = 0;
        if (cfg_.unlimitedMeta) {
            auto it = lmtMap_.find(line.lineNum);
            MORC_CHECK(it != lmtMap_.end(),
                       "flushing log %u: valid line %llu missing from "
                       "the unlimited LMT map",
                       log_idx,
                       static_cast<unsigned long long>(line.lineNum));
            e = &it->second;
            slot = line.lineNum;
        } else {
            std::uint64_t slots[2];
            slotsFor(line.lineNum, slots);
            for (unsigned w = 0; w < cfg_.lmtWays; w++) {
                LmtEntry &cand = lmt_[slots[w]];
                if (cand.valid && cand.lineNum == line.lineNum &&
                    cand.logIdx == log_idx) {
                    e = &cand;
                    break;
                }
            }
            MORC_CHECK(e != nullptr,
                       "flushing log %u: valid line %llu has no LMT "
                       "entry in either column-associative way",
                       log_idx,
                       static_cast<unsigned long long>(line.lineNum));
        }
        if (!e)
            continue; // unreachable when checks are compiled out

        if (e->modified) {
            result.writebacks.push_back(
                {line.lineNum << kLineShift, line.data});
            stats_.victimWritebacks++;
        }
        e->valid = false;
        if (cfg_.unlimitedMeta)
            lmtMap_.erase(slot);
        valid_--;
    }
    g.lines.clear();
    g.dataBits = 0;
    g.tagBits = 0;
    g.validCount = 0;
    g.lbe.reset();
    g.tags.reset();
    g.tagStream.clear();
}

void
LogCache::rotateLog(unsigned active_slot, cache::FillResult &result)
{
    Log &closing = logs_[active_[active_slot]];
    closing.open = false;
    closing.closedSeq = ++seqCounter_;

    closedFifo_.push_back(active_[active_slot]);

    // Priority 1: reuse a closed log whose lines are all invalid (no
    // flush needed, Section 3.2.1). Scan a bounded prefix of the FIFO:
    // all-invalid logs are overwhelmingly near its head (they are the
    // oldest), and a bounded scan keeps rotation O(1)-ish even with
    // tens of thousands of logs.
    std::uint32_t chosen = ~0u;
    const std::size_t scan =
        std::min<std::size_t>(closedFifo_.size(), 64);
    for (std::size_t k = 0; k < scan; k++) {
        const std::uint32_t idx = closedFifo_[k];
        Log &g = logs_[idx];
        if (g.validCount != 0)
            continue;
        chosen = idx;
        closedFifo_.erase(closedFifo_.begin() +
                          static_cast<std::ptrdiff_t>(k));
        if (!g.lines.empty()) {
            stats_.logReuses++;
            if (tracer_) {
                tracer_->record(telemetry::EventKind::LogReuse,
                                traceTrack_, idx, g.lines.size());
            }
            g.lines.clear();
            g.dataBits = 0;
            g.tagBits = 0;
            g.lbe.reset();
            g.tags.reset();
            g.tagStream.clear();
        }
        break;
    }

    // Priority 2: FIFO victim among closed logs.
    if (chosen == ~0u) {
        MORC_CHECK(!closedFifo_.empty(),
                   "no closed log to victimize: %zu logs, %zu active",
                   logs_.size(), active_.size());
        chosen = closedFifo_.front();
        closedFifo_.pop_front();
        flushLog(chosen, result);
    }

    logs_[chosen].open = true;
    active_[active_slot] = chosen;
}

void
LogCache::appendLine(std::uint32_t log_idx, Addr line_num,
                     const CacheLine &data, const comp::LbeLinePlan &plan,
                     bool dirty, std::uint64_t slot)
{
    Log &g = logs_[log_idx];
    std::uint32_t d_bits, t_bits;
    std::uint64_t flips;
    if (cfg_.compressionEnabled) {
        // Wear counts the 1 bits the append programs into previously
        // erased cells: the data stream's (counted, not emitted) and
        // the tag stream's.
        flips = 0;
        const std::uint64_t tag_start = g.tagStream.sizeBits();
        d_bits = g.lbe.appendCountingOnes(plan, flips);
        t_bits = g.tags.append(line_num, &g.tagStream);
        flips += energy::popcountRange(g.tagStream.words(), tag_start,
                                       g.tagStream.sizeBits());
    } else {
        d_bits = kRawLineBits;
        t_bits = kRawTagBits;
        flips = energy::linePopcount(data) +
                energy::popcountBits({line_num}, comp::TagCodec::kFullTagBits);
    }
    chargeWear(log_idx, 0, d_bits + t_bits, flips);
    g.lines.push_back({line_num, true, d_bits, t_bits, data});
    g.dataBits += d_bits;
    g.tagBits += t_bits;
    g.validCount++;

    LmtEntry &e = cfg_.unlimitedMeta ? lmtMap_[slot] : lmt_[slot];
    e.valid = true;
    e.modified = dirty;
    e.logIdx = log_idx;
    e.lineNum = line_num;

    valid_++;
    appended_++;
    stats_.linesCompressed++;
}

cache::ReadResult
LogCache::read(Addr addr)
{
    stats_.reads++;
    cache::ReadResult r;
    const Addr line_num = lineNumber(addr);

    const auto serveHit = [&](const LmtEntry &e) {
        Log &g = logs_[e.logIdx];
        std::size_t pos = 0;
        std::uint64_t prefix_bits = 0;
        for (; pos < g.lines.size(); pos++) {
            prefix_bits += g.lines[pos].dataBits;
            if (g.lines[pos].valid && g.lines[pos].lineNum == line_num)
                break;
        }
        MORC_CHECK(pos < g.lines.size(),
                   "hit line %llu vanished from log %u (%zu lines)",
                   static_cast<unsigned long long>(line_num), e.logIdx,
                   g.lines.size());
        const std::uint64_t bytes = divCeil(prefix_bits, 8);
        const auto tag_cycles = static_cast<std::uint32_t>(
            divCeil(pos + 1, cfg_.tagsPerCycle));
        const auto data_cycles = static_cast<std::uint32_t>(
            divCeil(bytes, cfg_.decompressBytesPerCycle));
        r.hit = true;
        r.data = g.lines[pos].data;
        r.extraLatency += cfg_.parallelTagData
                              ? std::max(tag_cycles, data_cycles)
                              : tag_cycles + data_cycles;
        stats_.readHits++;
        chargeDecompression(r, pos + 1, bytes);
    };

    if (cfg_.unlimitedMeta) {
        auto it = lmtMap_.find(line_num);
        if (it != lmtMap_.end() && it->second.valid)
            serveHit(it->second);
        return r;
    }

    std::uint64_t slots[2];
    slotsFor(line_num, slots);
    for (unsigned w = 0; w < cfg_.lmtWays; w++) {
        const LmtEntry &e = lmt_[slots[w]];
        if (!e.valid)
            continue;
        if (e.lineNum == line_num) {
            serveHit(e);
            return r;
        }
        // LMT aliased-miss: the pointed-to log's tags must be fully
        // decoded to discover the miss (Section 3.1).
        const Log &g = logs_[e.logIdx];
        r.extraLatency += static_cast<std::uint32_t>(
            divCeil(g.lines.size(), cfg_.tagsPerCycle));
        stats_.lmtAliasedMisses++;
    }
    return r;
}

cache::FillResult
LogCache::insert(Addr addr, const CacheLine &data, bool dirty)
{
    stats_.inserts++;
    cache::FillResult result;
    const Addr line_num = lineNumber(addr);

    // Re-append of a resident line (write-back): invalidate the old
    // copy without writing it to memory — the new data supersedes it.
    std::uint64_t slot = 0;
    {
        std::uint64_t old_slot;
        std::uint32_t old_log;
        std::size_t old_pos;
        if (findResident(line_num, &old_slot, &old_log, &old_pos)) {
            Log &g = logs_[old_log];
            g.lines[old_pos].valid = false;
            g.validCount--;
            valid_--;
            if (cfg_.unlimitedMeta) {
                lmtMap_.erase(line_num);
            } else {
                lmt_[old_slot].valid = false;
            }
            slot = old_slot;
        } else if (cfg_.unlimitedMeta) {
            slot = line_num;
        } else {
            // Allocate an LMT slot: prefer an invalid way; otherwise
            // conflict-evict the secondary way's occupant.
            std::uint64_t slots[2];
            slotsFor(line_num, slots);
            bool found = false;
            for (unsigned w = 0; w < cfg_.lmtWays; w++) {
                if (!lmt_[slots[w]].valid) {
                    slot = slots[w];
                    found = true;
                    break;
                }
            }
            if (!found) {
                // Column-associative relocation: before evicting, try
                // to move the secondary way's occupant to its own
                // alternate slot (hash-rehash style).
                slot = slots[cfg_.lmtWays - 1];
                bool relocated = false;
                if (cfg_.lmtWays > 1) {
                    const LmtEntry occupant = lmt_[slot];
                    std::uint64_t occ_slots[2];
                    slotsFor(occupant.lineNum, occ_slots);
                    for (unsigned w = 0; w < cfg_.lmtWays; w++) {
                        if (occ_slots[w] != slot &&
                            !lmt_[occ_slots[w]].valid) {
                            lmt_[occ_slots[w]] = occupant;
                            lmt_[slot].valid = false;
                            relocated = true;
                            break;
                        }
                    }
                }
                if (!relocated) {
                    stats_.lmtConflictEvicts++;
                    if (tracer_) {
                        tracer_->record(
                            telemetry::EventKind::LmtConflictEvict,
                            traceTrack_, slot, lmt_[slot].lineNum);
                    }
                    invalidateEntry(slot, result);
                }
            }
        }
    }

    // Content-aware multi-log selection: trial-compress against every
    // active log, commit to the best; within the fudge margin, seed the
    // least-used log to keep streams diverse (Section 3.2.3). The line
    // is decomposed once (LbeLinePlan), and that plan and its floor are
    // shared by all trials and the final append. choose() reads only
    // the cached scores, so the near-tie pass costs no further trials.
    const comp::LbeLinePlan plan = comp::LbeLinePlan::of(data);
    const std::uint64_t floor_bits = cfg_.compressionEnabled
                                         ? plan.floorBits(chunkFloorBits_)
                                         : kRawLineBits;
    const auto score = [&](unsigned i) {
        trialScores_[i] =
            trialBits(logs_[active_[i]], plan, floor_bits, line_num);
    };
    const auto choose = [&]() -> int {
        std::uint64_t best = kNoFit, worst = 0;
        int best_slot = -1;
        for (unsigned i = 0; i < active_.size(); i++) {
            const std::uint64_t bits = trialScores_[i];
            if (bits == kNoFit)
                continue;
            if (bits < best) {
                best = bits;
                best_slot = static_cast<int>(i);
            }
            if (bits > worst)
                worst = bits;
        }
        if (best_slot < 0)
            return -1;
        if (worst > 0 &&
            static_cast<double>(worst - best) <=
                cfg_.fudge * static_cast<double>(worst)) {
            // Near-tie: pick the least-used fitting log.
            std::uint64_t least = ~0ull;
            for (unsigned i = 0; i < active_.size(); i++) {
                const Log &g = logs_[active_[i]];
                if (trialScores_[i] == kNoFit)
                    continue;
                const std::uint64_t used = g.dataBits + g.tagBits;
                if (used < least) {
                    least = used;
                    best_slot = static_cast<int>(i);
                }
            }
            if (tracer_) {
                tracer_->record(telemetry::EventKind::FudgeNearTie,
                                traceTrack_,
                                active_[static_cast<unsigned>(best_slot)],
                                worst - best);
            }
        }
        return best_slot;
    };

    trialScores_.resize(active_.size());
    for (unsigned i = 0; i < active_.size(); i++)
        score(i);
    int pick = choose();
    if (pick < 0) {
        // Nothing fits: retire the fullest active log and try again
        // with its fresh replacement. Rotation changes no other active
        // log, so their scores (all no-fits) stand; only the new log is
        // scored.
        unsigned fullest = 0;
        std::uint64_t most = 0;
        for (unsigned i = 0; i < active_.size(); i++) {
            const Log &g = logs_[active_[i]];
            const std::uint64_t used = g.dataBits + g.tagBits;
            if (used >= most) {
                most = used;
                fullest = i;
            }
        }
        rotateLog(fullest, result);
        score(fullest);
        pick = choose();
        MORC_CHECK(pick >= 0,
                   "line %llu fits no active log even after rotating in "
                   "an empty one",
                   static_cast<unsigned long long>(line_num));
        if (pick < 0)
            std::abort(); // an empty log must accept any line
    }

    appendLine(active_[static_cast<unsigned>(pick)], line_num, data, plan,
               dirty, slot);
    result.linesCompressed++;
    return result;
}

std::uint64_t
LogCache::liveLogs() const
{
    std::uint64_t n = 0;
    for (const auto &g : logs_)
        n += g.validCount > 0 ? 1 : 0;
    return n;
}

std::uint64_t
LogCache::allInvalidLogs() const
{
    std::uint64_t n = 0;
    for (const auto &g : logs_)
        n += (!g.lines.empty() && g.validCount == 0) ? 1 : 0;
    return n;
}

double
LogCache::lmtOccupancy() const
{
    const double entries = cfg_.unlimitedMeta
                               ? static_cast<double>(cfg_.lmtEntries())
                               : static_cast<double>(lmt_.size());
    return entries == 0.0 ? 0.0
                          : static_cast<double>(valid_) / entries;
}

double
LogCache::activeFillRatio() const
{
    const double data_budget =
        static_cast<double>(cfg_.logBytes) * 8.0;
    const double budget =
        cfg_.mergedTags
            ? data_budget
            : data_budget + static_cast<double>(cfg_.tagBudgetBits());
    if (budget == 0.0 || active_.empty())
        return 0.0;
    double sum = 0.0;
    for (const std::uint32_t idx : active_) {
        const Log &g = logs_[idx];
        sum += static_cast<double>(g.dataBits + g.tagBits) / budget;
    }
    return sum / static_cast<double>(active_.size());
}

std::uint64_t
LogCache::compressedBytesResident() const
{
    std::uint64_t bits = 0;
    for (const auto &g : logs_)
        bits += g.dataBits + g.tagBits;
    return divCeil(bits, 8);
}

void
LogCache::registerProbes(telemetry::Registry &reg,
                         const std::string &prefix)
{
    cache::Llc::registerProbes(reg, prefix);
    reg.gauge(prefix + ".live_logs",
              [this](Cycles) { return double(liveLogs()); });
    reg.gauge(prefix + ".all_invalid_logs",
              [this](Cycles) { return double(allInvalidLogs()); });
    reg.gauge(prefix + ".lmt_occupancy",
              [this](Cycles) { return lmtOccupancy(); });
    reg.gauge(prefix + ".active_fill_ratio",
              [this](Cycles) { return activeFillRatio(); });
    reg.gauge(prefix + ".compressed_bytes", [this](Cycles) {
        return double(compressedBytesResident());
    });
    reg.counter(prefix + ".log_flushes",
                [this](Cycles) { return double(stats_.logFlushes); });
    reg.counter(prefix + ".log_reuses",
                [this](Cycles) { return double(stats_.logReuses); });
    reg.counter(prefix + ".lmt_conflict_evicts", [this](Cycles) {
        return double(stats_.lmtConflictEvicts);
    });
}

double
LogCache::invalidLineFraction() const
{
    std::uint64_t total = 0, valid = 0;
    for (const auto &g : logs_) {
        total += g.lines.size();
        valid += g.validCount;
    }
    return total == 0
               ? 0.0
               : static_cast<double>(total - valid) /
                     static_cast<double>(total);
}

LogCache::LogSnapshot
LogCache::snapshot() const
{
    LogSnapshot s;
    s.logs = logs_.size();
    const std::uint64_t data_budget =
        static_cast<std::uint64_t>(cfg_.logBytes) * 8;
    const std::uint64_t tag_budget = cfg_.tagBudgetBits();
    for (const auto &g : logs_) {
        s.linesTotal += g.lines.size();
        s.linesValid += g.validCount;
        s.dataBits += g.dataBits;
        s.tagBits += g.tagBits;
        if (10 * g.dataBits > 9 * data_budget)
            s.dataFullLogs++;
        if (!cfg_.mergedTags && 10 * g.tagBits > 9 * tag_budget)
            s.tagFullLogs++;
        s.tagNewBases += g.tags.newBaseCount();
        s.tagDeltas += g.tags.deltaCount();
        s.tagDeltaBits += g.tags.deltaBitsTotal();
    }
    return s;
}

check::AuditReport
LogCache::audit() const
{
    check::AuditReport r;
    const std::uint64_t log_bits =
        static_cast<std::uint64_t>(cfg_.logBytes) * 8;
    const std::uint64_t tag_budget = cfg_.tagBudgetBits();

    // --- Per-log space accounting, budgets, and tag-stream decode. ---
    std::uint64_t lines_valid = 0;
    std::uint64_t lines_total = 0;
    std::unordered_set<Addr> seen_valid; // duplicate-residency detector
    for (std::uint32_t i = 0; i < logs_.size(); i++) {
        const Log &g = logs_[i];
        std::uint64_t data_bits = 0, tag_bits = 0;
        std::uint32_t valid_count = 0;
        for (const auto &line : g.lines) {
            data_bits += line.dataBits;
            tag_bits += line.tagBits;
            if (!line.valid)
                continue;
            valid_count++;
            r.require(seen_valid.insert(line.lineNum).second,
                      "line %llu is valid in log %u but already valid "
                      "elsewhere",
                      static_cast<unsigned long long>(line.lineNum), i);
        }
        lines_valid += valid_count;
        lines_total += g.lines.size();
        r.require(data_bits == g.dataBits,
                  "log %u accounts %llu data bits, lines sum to %llu", i,
                  static_cast<unsigned long long>(g.dataBits),
                  static_cast<unsigned long long>(data_bits));
        r.require(tag_bits == g.tagBits,
                  "log %u accounts %llu tag bits, lines sum to %llu", i,
                  static_cast<unsigned long long>(g.tagBits),
                  static_cast<unsigned long long>(tag_bits));
        r.require(valid_count == g.validCount,
                  "log %u counts %u valid lines, walk found %u", i,
                  g.validCount, valid_count);
        // Budget enforcement. A single line may overflow a
        // (pathologically small) log: progress must stay possible for
        // incompressible data (see trialBits).
        if (g.lines.size() > 1) {
            if (cfg_.mergedTags) {
                r.require(g.dataBits + g.tagBits <= log_bits,
                          "merged log %u holds %llu data + %llu tag "
                          "bits, budget %llu",
                          i, static_cast<unsigned long long>(g.dataBits),
                          static_cast<unsigned long long>(g.tagBits),
                          static_cast<unsigned long long>(log_bits));
            } else {
                r.require(g.dataBits <= log_bits,
                          "log %u holds %llu data bits, budget %llu", i,
                          static_cast<unsigned long long>(g.dataBits),
                          static_cast<unsigned long long>(log_bits));
                if (!cfg_.unlimitedMeta) {
                    r.require(g.tagBits <= tag_budget,
                              "log %u holds %llu tag bits, budget %llu",
                              i,
                              static_cast<unsigned long long>(g.tagBits),
                              static_cast<unsigned long long>(tag_budget));
                }
            }
        }
        // The compressed tag stream must decode back to exactly the
        // appended line numbers, valid and invalidated alike (the
        // hardware's tag walk sees both).
        if (cfg_.compressionEnabled) {
            const bool sized =
                r.require(g.tagStream.sizeBits() == g.tagBits,
                          "log %u tag stream holds %llu bits, "
                          "accounting says %llu",
                          i,
                          static_cast<unsigned long long>(
                              g.tagStream.sizeBits()),
                          static_cast<unsigned long long>(g.tagBits));
            if (sized) {
                BitReader in(g.tagStream);
                comp::TagDecoder dec(cfg_.tagBases);
                bool decoded = true;
                for (std::size_t p = 0; p < g.lines.size(); p++) {
                    const std::uint64_t want = g.lines[p].lineNum;
                    const std::uint64_t got = dec.next(in);
                    if (!r.require(got == want,
                                   "log %u tag %zu decodes to line "
                                   "%llu, appended line %llu",
                                   i, p,
                                   static_cast<unsigned long long>(got),
                                   static_cast<unsigned long long>(want))) {
                        decoded = false;
                        break;
                    }
                }
                if (decoded) {
                    r.require(in.remaining() == 0,
                              "log %u tag stream has %llu undecoded "
                              "bits after %zu tags",
                              i,
                              static_cast<unsigned long long>(
                                  in.remaining()),
                              g.lines.size());
                }
            }
        }
    }
    r.require(lines_valid == valid_,
              "valid-line counter %llu disagrees with %llu valid log "
              "lines",
              static_cast<unsigned long long>(valid_),
              static_cast<unsigned long long>(lines_valid));
    r.require(appended_ >= lines_total,
              "append counter %llu below %llu resident line records",
              static_cast<unsigned long long>(appended_),
              static_cast<unsigned long long>(lines_total));

    // --- Active set / closed-FIFO partition. ---
    r.require(active_.size() == cfg_.activeLogs,
              "%zu active logs, configured %u", active_.size(),
              cfg_.activeLogs);
    // 1 = active, 2 = on the closed FIFO.
    std::vector<std::uint8_t> membership(logs_.size(), 0);
    for (std::uint32_t idx : active_) {
        if (!r.require(idx < logs_.size(),
                       "active log index %u out of range (%zu logs)", idx,
                       logs_.size()))
            continue;
        r.require(logs_[idx].open, "active log %u is not open", idx);
        r.require(membership[idx] == 0, "log %u active twice", idx);
        membership[idx] |= 1;
    }
    std::uint64_t prev_seq = 0;
    for (std::size_t k = 0; k < closedFifo_.size(); k++) {
        const std::uint32_t idx = closedFifo_[k];
        if (!r.require(idx < logs_.size(),
                       "FIFO log index %u out of range (%zu logs)", idx,
                       logs_.size()))
            continue;
        const Log &g = logs_[idx];
        r.require(!g.open, "closed-FIFO log %u is open", idx);
        r.require(membership[idx] == 0,
                  "log %u appears twice in active/FIFO bookkeeping", idx);
        membership[idx] |= 2;
        // Victims are taken oldest-first, so close sequence numbers
        // must be non-decreasing front to back.
        r.require(g.closedSeq >= prev_seq,
                  "FIFO position %zu: log %u closed at seq %llu after a "
                  "predecessor closed at %llu",
                  k, idx, static_cast<unsigned long long>(g.closedSeq),
                  static_cast<unsigned long long>(prev_seq));
        prev_seq = g.closedSeq;
        r.require(g.closedSeq <= seqCounter_,
                  "log %u closed at seq %llu beyond counter %llu", idx,
                  static_cast<unsigned long long>(g.closedSeq),
                  static_cast<unsigned long long>(seqCounter_));
    }
    for (std::uint32_t i = 0; i < logs_.size(); i++) {
        r.require(membership[i] != 0,
                  "log %u is neither active nor on the closed FIFO", i);
        r.require(logs_[i].open == (membership[i] == 1),
                  "log %u open flag %d disagrees with its membership", i,
                  logs_[i].open ? 1 : 0);
    }

    // --- LMT <-> log cross-consistency, both directions. ---
    std::uint64_t lmt_valid = 0;
    const auto check_entry = [&](const LmtEntry &e, const char *where,
                                 unsigned long long slot) {
        lmt_valid++;
        if (!r.require(e.logIdx < logs_.size(),
                       "%s %llu points at log %u out of range", where,
                       slot, e.logIdx))
            return;
        const Log &g = logs_[e.logIdx];
        std::uint32_t copies = 0;
        for (const auto &line : g.lines) {
            if (line.valid && line.lineNum == e.lineNum)
                copies++;
        }
        r.require(copies == 1,
                  "%s %llu names line %llu in log %u, which holds %u "
                  "valid copies",
                  where, slot,
                  static_cast<unsigned long long>(e.lineNum), e.logIdx,
                  copies);
    };
    if (cfg_.unlimitedMeta) {
        // Sorted so multi-failure audit reports list entries in a
        // stable order (AuditReport keeps every message).
        for (const auto *kv : util::sortedView(lmtMap_)) {
            const Addr line_num = kv->first;
            const LmtEntry &e = kv->second;
            r.require(e.valid,
                      "unlimited LMT retains invalid entry for line %llu",
                      static_cast<unsigned long long>(line_num));
            r.require(e.lineNum == line_num,
                      "unlimited LMT key %llu stores entry for line %llu",
                      static_cast<unsigned long long>(line_num),
                      static_cast<unsigned long long>(e.lineNum));
            check_entry(e, "map entry",
                        static_cast<unsigned long long>(line_num));
        }
    } else {
        for (std::uint64_t slot = 0; slot < lmt_.size(); slot++) {
            const LmtEntry &e = lmt_[slot];
            if (!e.valid)
                continue;
            // Column-associativity: an entry must live in one of its
            // line's two candidate slots.
            std::uint64_t slots[2] = {0, 0};
            slotsFor(e.lineNum, slots);
            bool placed = slot == slots[0];
            for (unsigned w = 1; w < cfg_.lmtWays; w++)
                placed = placed || slot == slots[w];
            r.require(placed,
                      "LMT slot %llu holds line %llu whose ways are "
                      "%llu/%llu",
                      static_cast<unsigned long long>(slot),
                      static_cast<unsigned long long>(e.lineNum),
                      static_cast<unsigned long long>(slots[0]),
                      static_cast<unsigned long long>(
                          cfg_.lmtWays > 1 ? slots[1] : slots[0]));
            check_entry(e, "LMT slot",
                        static_cast<unsigned long long>(slot));
        }
    }
    r.require(lmt_valid == valid_,
              "%llu valid LMT entries for %llu valid lines",
              static_cast<unsigned long long>(lmt_valid),
              static_cast<unsigned long long>(valid_));
    // Reverse direction: every valid line is reachable through the LMT.
    for (std::uint32_t i = 0; i < logs_.size(); i++) {
        for (const auto &line : logs_[i].lines) {
            if (!line.valid)
                continue;
            std::uint32_t owners = 0;
            if (cfg_.unlimitedMeta) {
                const auto it = lmtMap_.find(line.lineNum);
                if (it != lmtMap_.end() && it->second.valid &&
                    it->second.logIdx == i &&
                    it->second.lineNum == line.lineNum) {
                    owners++;
                }
            } else {
                std::uint64_t slots[2] = {0, 0};
                slotsFor(line.lineNum, slots);
                for (unsigned w = 0; w < cfg_.lmtWays; w++) {
                    const LmtEntry &e = lmt_[slots[w]];
                    if (e.valid && e.lineNum == line.lineNum &&
                        e.logIdx == i) {
                        owners++;
                    }
                }
            }
            r.require(owners == 1,
                      "valid line %llu in log %u has %u owning LMT "
                      "entries",
                      static_cast<unsigned long long>(line.lineNum), i,
                      owners);
        }
    }
    return r;
}

bool
LogCache::debugCorruptLmt(std::uint64_t seed)
{
    if (cfg_.unlimitedMeta) {
        const LmtEntry *target = nullptr;
        Addr best = 0;
        // Deterministic victim: the smallest resident line number. A
        // pure min-reduction is order-invariant, so the hash-order walk
        // cannot escape. morc-analyze: allow(unordered-iteration-escape)
        for (const auto &[line_num, e] : lmtMap_) {
            if (!e.valid)
                continue;
            if (!target || line_num < best) {
                target = &e;
                best = line_num;
            }
        }
        if (!target)
            return false;
        lmtMap_[best].lineNum ^= 1;
        return true;
    }
    const std::uint64_t n = lmt_.size();
    const std::uint64_t start = splitmix64(seed) & lmtMask_;
    for (std::uint64_t off = 0; off < n; off++) {
        LmtEntry &e = lmt_[(start + off) & lmtMask_];
        if (e.valid) {
            e.lineNum ^= 1;
            return true;
        }
    }
    return false;
}

comp::LbeStats
LogCache::lbeStats() const
{
    comp::LbeStats sum;
    for (const auto &g : logs_) {
        const comp::LbeStats &s = g.lbe.stats();
        for (int i = 0; i < static_cast<int>(comp::LbeSymbol::NumSymbols);
             i++) {
            sum.count[i] += s.count[i];
            sum.zeroCount[i] += s.zeroCount[i];
        }
    }
    return sum;
}

template <typename Self, typename IO>
void
LogCache::walk(Self &self, IO &io)
{
    io.section("MORC", [&] {
        // Structural + policy fingerprint: everything that shapes state
        // layout or future behavior. Doubles compare bit-exactly.
        const MorcConfig &cfg = self.cfg_;
        const char *config = "MORC configuration mismatch (snapshot was "
                             "taken with different log/LMT sizing or "
                             "policy knobs)";
        io.expect(cfg.capacityBytes, config);
        io.expect(cfg.logBytes, config);
        io.expect(cfg.activeLogs, config);
        io.expect(cfg.lmtFactor, config);
        io.expect(cfg.lmtWays, config);
        io.expect(cfg.mergedTags, config);
        io.expect(cfg.tagStoreFactor, config);
        io.expect(cfg.tagBases, config);
        io.expect(cfg.fudge, config);
        io.expect(cfg.compressionEnabled, config);
        io.expect(cfg.unlimitedMeta, config);

        io.u64(self.valid_);
        io.u64(self.appended_);
        io.u64(self.seqCounter_);
        io.part(self.stats_);
        io.part(self.wear_);

        io.fixedVec(self.logs_, 8, "MORC log count mismatch", [&](auto &g) {
            io.u64(g.dataBits);
            io.u64(g.tagBits);
            io.u32(g.validCount);
            io.boolean(g.open);
            io.u64(g.closedSeq);
            io.vec(g.lines, 8 + 1 + 4 + 4 + kLineSize, [&](auto &l) {
                io.u64(l.lineNum);
                io.boolean(l.valid);
                io.u32(l.dataBits);
                io.u32(l.tagBits);
                io.bytes(l.data.bytes.data(), kLineSize);
            });
            io.part(g.lbe);
            io.part(g.tags);
            BitWriter::walk(g.tagStream, io, false);
        });

        // Bounds: every log reference must stay inside logs_ so a
        // restored instance can never index out of range.
        const std::uint64_t num_logs = self.logs_.size();
        const char *sizing = "MORC active-set or LMT sizing mismatch";
        io.fixedVec(self.active_, 4, sizing, [&](auto &a) {
            io.u32(a, num_logs, "MORC active log index out of range");
        });
        io.vec(self.closedFifo_, 4, [&](auto &f) {
            io.u32(f, num_logs, "MORC FIFO log index out of range");
        });
        const auto lmtEntry = [&](auto &e) {
            io.boolean(e.valid);
            io.boolean(e.modified);
            io.u32(e.logIdx);
            io.u64(e.lineNum);
            io.check(!e.valid || e.logIdx < num_logs,
                     "MORC LMT entry log index out of range");
        };
        io.fixedVec(self.lmt_, 1 + 1 + 4 + 8, sizing, lmtEntry);
        // Unlimited-metadata map, sorted by line number for determinism.
        io.sortedMap(self.lmtMap_, 8 + 1 + 1 + 4 + 8,
                     [&](auto &line_num, auto &e) {
                         io.u64(line_num);
                         lmtEntry(e);
                     });
    });
}

bool
LogCache::lmtReachesLines() const
{
    const auto holds = [&](const LmtEntry &e) {
        for (const LogLine &line : logs_[e.logIdx].lines) {
            if (line.valid && line.lineNum == e.lineNum)
                return true;
        }
        return false;
    };
    if (!cfg_.unlimitedMeta) {
        for (const LmtEntry &e : lmt_) {
            if (e.valid && !holds(e))
                return false;
        }
        return true;
    }
    for (const auto &[line_num, e] : lmtMap_) {
        if (e.valid && (e.lineNum != line_num || !holds(e)))
            return false;
    }
    // A log flush looks every valid line up in the map.
    for (const Log &g : logs_) {
        for (const LogLine &line : g.lines) {
            if (line.valid && !lmtMap_.count(line.lineNum))
                return false;
        }
    }
    return true;
}

void
LogCache::saveState(snap::Serializer &s) const
{
    walk(*this, s);
}

void
LogCache::restoreState(snap::Deserializer &d)
{
    walk(*this, d);
    if (d.ok() && !lmtReachesLines())
        d.fail("MORC LMT names a line its log does not hold, or a valid "
               "line has no map entry");
}

} // namespace core
} // namespace morc
