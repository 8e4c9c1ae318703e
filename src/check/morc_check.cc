/**
 * @file
 * morc_check: differential model checker / structural-invariant fuzzer.
 *
 * Replays seeded adversarial access streams through each cache scheme in
 * lockstep with a reference uncompressed memory model (a functional map
 * of what every line must contain). Compressed caches fail by silently
 * corrupting data far more often than by crashing, so the checker trips
 * on *observable* divergence:
 *
 *   - a read hit returning contents that differ from the reference,
 *   - a hit on an address that was never inserted,
 *   - a write-back whose payload differs from the reference,
 *   - a write-back of a line that was never dirty,
 *   - a dirty line vanishing without a write-back: a read miss on an
 *     address the model still holds dirty, during the stream or in the
 *     final sweep, which reads every line the model still holds dirty
 *     once the lockstep, event and exclusivity checks are done, so a
 *     dropped dirty victim fails even if the stream never re-reads it.
 *
 * In addition the scheme's structural auditor (check/auditor.hh) runs
 * every --audit-every operations and once more at the end, so internal
 * corruption is caught close to the operation that caused it even when
 * it has not yet surfaced at the interface.
 *
 * --inject-lmt-corruption is the mutation test for the auditor itself:
 * it flips one bit in a valid MORC LMT entry and demands that the next
 * audit *fails*. A checker that cannot see injected faults proves
 * nothing about the absence of real ones.
 *
 * --mesh WxH shards the scheme into W*H address-interleaved banks
 * behind a mesh::BankedLlc front (the tiled-substrate LLC), replays the
 * same stream through the sharded instance, and additionally enforces
 * the cross-bank exclusivity invariant: an address may be resident only
 * in its home bank. Each audit probes every *foreign* bank for a ring
 * of recently touched addresses (a hit is a violation), and the final
 * audit sweeps the entire reference model the same way. With
 * --inject-lmt-corruption the fault is injected into one bank's LMT and
 * the merged banked audit must still catch it.
 *
 * --snapshot is the differential test for the checkpoint subsystem
 * (src/snapshot): halfway through the stream the cache's state is
 * serialized, restored into a freshly constructed twin, and both are
 * audited and re-serialized (the twin's bytes must equal the
 * original's). The remainder of the stream then drives cache and twin
 * in lockstep — any divergence in hit/miss outcome, returned contents,
 * latency annotation, or write-back set means save/restore lost state.
 * At the end both serialize byte-identically once more, and a
 * one-byte-tampered copy of the snapshot must be *rejected* by the
 * frame CRC — a restore path that accepts corrupted bytes proves
 * nothing.
 *
 * --events attaches the telemetry event tracer (telemetry/tracer.hh)
 * to the cache under test and cross-checks it against the counters the
 * same run maintains: the traced log_flush, log_reuse and
 * lmt_conflict_evict event counts must equal LlcStats::logFlushes,
 * logReuses and lmtConflictEvicts, no event may be dropped (the buffer
 * is sized to the stream), and stamps must be monotone. This pins the
 * tracer to the model the auditor already trusts — a tracer that lies
 * about flushes fails here, not in a Perfetto screenshot.
 *
 * --kv swaps the bare-cache stream for the KV serving subsystem
 * (src/kv): a multi-tenant Zipf request stream drives generator ->
 * front cache -> DRAM/SSD tiered store, while an independent version
 * ledger plus twin value models recompute the content digest every
 * reply must carry. A digest mismatch means some layer of the stack
 * (front scheme, tier promotion/demotion, writeback plumbing, value
 * churn) silently corrupted data. Audits of every layer run on the
 * same --audit-every cadence, and --kv --snapshot forks the *whole
 * service* (generator RNGs, front cache, both tiers, histograms,
 * telemetry) mid-stream with the same restore / tamper-reject /
 * lockstep-to-identical-final-bytes discipline. A --kv run whose
 * tiers never demoted, hit in SSD or dropped from SSD fails: it would
 * pass without testing the placement paths.
 *
 * Exit codes: 0 = clean, 1 = divergence / audit failure / undetected
 * injected fault, 2 = usage error.
 */

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/adaptive.hh"
#include "cache/decoupled.hh"
#include "cache/ideal.hh"
#include "cache/llc.hh"
#include "cache/sc2.hh"
#include "cache/touche.hh"
#include "cache/uncompressed.hh"
#include "core/morc.hh"
#include "kv/service.hh"
#include "mesh/banked_llc.hh"
#include "mesh/topology.hh"
#include "sim/scheme.hh"
#include "snapshot/snapshot.hh"
#include "sweep/sweep.hh"
#include "telemetry/tracer.hh"
#include "util/parse.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace morc {
namespace {

struct Options
{
    std::string scheme = "all";
    std::uint64_t ops = 100000;
    std::uint64_t seed = 7;
    std::uint64_t auditEvery = 64;
    /** 0 = flat scheme instance; WxH = banked behind mesh::BankedLlc. */
    unsigned meshWidth = 0;
    unsigned meshHeight = 0;
    bool injectLmtCorruption = false;
    bool injectSigCorruption = false;
    bool events = false;
    bool snapshot = false;
    bool kv = false;
    bool verbose = false;

    bool mesh() const { return meshWidth != 0 && meshHeight != 0; }
};

/** Build by CLI name from the shared scheme registry (sim/scheme.hh),
 *  so a scheme registered once is fuzzed here without a second list. */
std::unique_ptr<cache::Llc>
makeScheme(const std::string &name, std::uint64_t capacity = 128 * 1024)
{
    sim::Scheme s;
    if (!sim::schemeFromCliName(name, &s))
        return nullptr;
    return sim::makeLlc(s, capacity);
}

/** Per-bank data capacity under --mesh. Small enough that each bank
 *  churns through evictions (the stressful regime), large enough for
 *  every scheme's structural minimums (power-of-two set counts, MORC's
 *  activeLogs <= numLogs). */
constexpr std::uint64_t kMeshBankBytes = 16 * 1024;

/** The cache under test: either a flat scheme instance or the same
 *  scheme sharded into one bank per mesh tile. */
std::unique_ptr<cache::Llc>
makeCache(const std::string &scheme, const Options &opt)
{
    if (!opt.mesh())
        return makeScheme(scheme);
    if (!makeScheme(scheme)) // validate the name before sharding
        return nullptr;
    mesh::MeshConfig mc;
    mc.width = opt.meshWidth;
    mc.height = opt.meshHeight;
    return std::make_unique<mesh::BankedLlc>(
        mc, kMeshBankBytes * mc.tiles(),
        [&scheme](unsigned, std::uint64_t bank_capacity) {
            return makeScheme(scheme, bank_capacity);
        });
}

/** Reference state for one line: last contents handed to the cache and
 *  whether the cache currently owes memory a write-back for it. */
struct ModelLine
{
    CacheLine data;
    bool dirty = false;
};

/* ------------------------------------------------------------------ */
/* Adversarial stream generation                                      */
/* ------------------------------------------------------------------ */

/** Data content classes; each stresses a different codec path. */
enum class DataKind
{
    Zero,           //< all-zero lines (best case for every codec)
    Pooled,         //< zeros + a small value pool (LBE's sweet spot)
    Ramp,           //< arithmetic word sequence (base-delta friendly)
    Incompressible, //< random words (forces raw storage / evictions)
};

CacheLine
makeLine(Rng &rng, DataKind kind, std::uint32_t salt)
{
    CacheLine l;
    switch (kind) {
    case DataKind::Zero:
        break;
    case DataKind::Pooled:
        for (unsigned i = 0; i < kWordsPerLine; i++) {
            l.setWord32(
                i, rng.chance(0.3)
                       ? 0
                       : salt + static_cast<std::uint32_t>(rng.below(32)) *
                                    4);
        }
        break;
    case DataKind::Ramp:
        for (unsigned i = 0; i < kWordsPerLine; i++)
            l.setWord32(i, salt + i * 8);
        break;
    case DataKind::Incompressible:
        for (unsigned i = 0; i < kLineSize / 8; i++)
            l.setWord64(i, rng.next());
        break;
    }
    return l;
}

/** Access-pattern classes; each stresses a different structure. */
enum class PatternKind
{
    Sequential, //< streaming fill: log rotation, FIFO eviction churn
    HotSet,     //< small working set: hits, in-place-update paths
    Sparse,     //< wide random: LMT/tag conflicts, aliasing
    Rewrite,    //< hammer few addresses with dirty inserts: re-append,
                //  invalidation, write-back ordering
};

/** One ~phase-length burst of related accesses. */
struct Phase
{
    PatternKind pattern = PatternKind::Sequential;
    DataKind data = DataKind::Pooled;
    Addr baseLine = 0;
    std::uint64_t span = 1;
    std::uint32_t salt = 0;
    std::uint64_t step = 0;
};

constexpr std::uint64_t kPhaseOps = 256;

Phase
nextPhase(Rng &rng)
{
    Phase p;
    switch (rng.below(4)) {
    case 0:
        p.pattern = PatternKind::Sequential;
        p.span = kPhaseOps;
        break;
    case 1:
        p.pattern = PatternKind::HotSet;
        p.span = 16 + rng.below(112); // well under any scheme's capacity
        break;
    case 2:
        p.pattern = PatternKind::Sparse;
        p.span = 1ull << 22; // far beyond every LMT / tag store
        break;
    default:
        p.pattern = PatternKind::Rewrite;
        p.span = 1 + rng.below(4);
        break;
    }
    p.data = static_cast<DataKind>(rng.below(4));
    p.baseLine = rng.below(1ull << 20);
    p.salt = static_cast<std::uint32_t>(rng.next());
    return p;
}

Addr
nextAddr(Rng &rng, Phase &p)
{
    Addr line;
    if (p.pattern == PatternKind::Sequential)
        line = p.baseLine + p.step++;
    else
        line = p.baseLine + rng.below(p.span);
    return line << kLineShift;
}

/* ------------------------------------------------------------------ */
/* Differential replay                                                */
/* ------------------------------------------------------------------ */

struct RunStats
{
    std::uint64_t reads = 0;
    std::uint64_t hits = 0;
    std::uint64_t inserts = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t audits = 0;
    std::uint64_t auditChecks = 0;
    std::uint64_t exclusivityProbes = 0;
    std::uint64_t dirtySwept = 0;
};

/** Per-divergence context printer. Returns false for chaining. */
bool
diverged(const std::string &scheme, std::uint64_t op, const char *fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 3, 4)))
#endif
    ;

bool
diverged(const std::string &scheme, std::uint64_t op, const char *fmt, ...)
{
    std::fprintf(stderr, "morc_check: DIVERGENCE scheme=%s op=%" PRIu64
                         ": ",
                 scheme.c_str(), op);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
    return false;
}

/** Validate one FillResult's write-backs against the pre-insert model
 *  and mark the written-back lines clean. */
bool
checkWritebacks(const std::string &scheme, std::uint64_t op,
                const cache::FillResult &fr,
                std::map<Addr, ModelLine> &model, RunStats &st)
{
    bool ok = true;
    for (const auto &wb : fr.writebacks) {
        st.writebacks++;
        auto it = model.find(wb.addr);
        if (it == model.end()) {
            ok = diverged(scheme, op,
                          "write-back of never-inserted address 0x%" PRIx64,
                          wb.addr);
            continue;
        }
        if (!it->second.dirty)
            ok = diverged(scheme, op,
                          "write-back of clean line 0x%" PRIx64
                          " (already written back or never dirty)",
                          wb.addr);
        if (!(wb.data == it->second.data))
            ok = diverged(scheme, op,
                          "write-back of 0x%" PRIx64
                          " carries corrupted contents (word0 "
                          "0x%08x, expected 0x%08x)",
                          wb.addr, wb.data.word32(0),
                          it->second.data.word32(0));
        it->second.dirty = false;
    }
    return ok;
}

/** Audit a cache or a KV service; false after reporting a violation. */
bool
runAudit(const std::string &label, std::uint64_t op,
         const check::Auditable &x, RunStats &st)
{
    const check::AuditReport r = x.audit();
    st.audits++;
    st.auditChecks += r.checksRun();
    if (r.ok())
        return true;
    std::fprintf(stderr,
                 "morc_check: AUDIT FAILURE scheme=%s op=%" PRIu64
                 " (%" PRIu64 " violation(s) in %" PRIu64 " checks)\n%s",
                 label.c_str(), op, r.violations(), r.checksRun(),
                 r.str().c_str());
    return false;
}

/** Cross-bank exclusivity: @p addr must miss in every bank except its
 *  home bank. Foreign-bank probes only bump that bank's miss counter —
 *  read() never mutates contents — so the differential model is
 *  unaffected. A foreign-bank *hit* is the violation. */
bool
checkExclusivity(const std::string &scheme, std::uint64_t op,
                 mesh::BankedLlc &banked, Addr addr, RunStats &st)
{
    const unsigned home = banked.homeBank(addr);
    bool ok = true;
    for (unsigned b = 0; b < banked.numBanks(); b++) {
        if (b == home)
            continue;
        st.exclusivityProbes++;
        if (banked.bank(b).read(addr).hit)
            ok = diverged(scheme, op,
                          "cross-bank exclusivity violation: 0x%" PRIx64
                          " (home bank %u) is resident in bank %u",
                          addr, home, b);
    }
    return ok;
}

/** Cross-check the traced event stream against the counters the cache
 *  maintained over the same run. Tracer and counters are independent
 *  observers of the same structural transitions, so any disagreement
 *  means one of them lies. */
bool
checkEvents(const std::string &scheme, const telemetry::Tracer &tracer,
            const cache::Llc &c, std::uint64_t ops)
{
    bool ok = true;
    if (tracer.dropped() != 0)
        ok = diverged(scheme, ops,
                      "event tracer dropped %" PRIu64
                      " events despite a buffer sized to the stream",
                      tracer.dropped());
    const telemetry::TraceBuffer buf = tracer.snapshot();
    const cache::LlcStats &st = c.stats();
    const std::pair<telemetry::EventKind, std::uint64_t> counted[] = {
        {telemetry::EventKind::LogFlush, st.logFlushes},
        {telemetry::EventKind::LogReuse, st.logReuses},
        {telemetry::EventKind::LmtConflictEvict, st.lmtConflictEvicts},
    };
    std::string seen;
    for (const auto &[kind, count] : counted) {
        const std::uint64_t events = buf.countKind(kind);
        if (events != count)
            ok = diverged(scheme, ops,
                          "tracer saw %" PRIu64
                          " %s events but LlcStats counted %" PRIu64,
                          events, telemetry::eventName(kind), count);
        seen += (seen.empty() ? "" : ", ") + std::to_string(events) +
                " " + telemetry::eventName(kind);
    }
    Cycles prev = 0;
    for (const auto &e : buf.events) {
        if (e.cycles < prev) {
            ok = diverged(scheme, ops,
                          "event stamps went backwards (%" PRIu64
                          " after %" PRIu64 ")",
                          e.cycles, prev);
            break;
        }
        prev = e.cycles;
    }
    if (ok)
        std::printf("%-13s events: %" PRIu64
                    " recorded (%s) consistent with counters\n",
                    scheme.c_str(), tracer.recorded(), seen.c_str());
    return ok;
}

/** Serialize a cache or a KV service into a sealed frame. */
std::vector<std::uint8_t>
snapshotBytes(const snap::Snapshottable &x)
{
    snap::Serializer s;
    x.saveState(s);
    return s.frame();
}

/** Two FillResults must agree exactly: same victims (order included,
 *  eviction order is deterministic), same codec work. */
bool
sameFill(const cache::FillResult &a, const cache::FillResult &b)
{
    if (a.writebacks.size() != b.writebacks.size() ||
        a.linesCompressed != b.linesCompressed ||
        a.linesDecompressed != b.linesDecompressed ||
        a.bytesDecompressed != b.bytesDecompressed)
        return false;
    for (std::size_t i = 0; i < a.writebacks.size(); i++) {
        if (a.writebacks[i].addr != b.writebacks[i].addr ||
            !(a.writebacks[i].data == b.writebacks[i].data))
            return false;
    }
    return true;
}

/**
 * --snapshot fork of a cache or a KV service: serialize @p live,
 * restore it into a fresh twin from @p make, audit the twin, verify it
 * re-serializes to the very same bytes, and verify a one-byte-tampered
 * frame is rejected. Returns the twin (to be driven in lockstep for
 * the rest of the stream), or nullptr after reporting a failure.
 */
template <typename T, typename Make>
std::unique_ptr<T>
forkViaSnapshot(const std::string &label, std::uint64_t op, const T &live,
                Make &&make, RunStats &st)
{
    const std::vector<std::uint8_t> frame = snapshotBytes(live);

    std::unique_ptr<T> twin = make();
    snap::Deserializer d(frame);
    twin->restoreState(d);
    if (!d.ok()) {
        diverged(label, op, "snapshot restore rejected its own bytes: %s",
                 d.error().c_str());
        return nullptr;
    }
    if (!runAudit(label + "(restored)", op, *twin, st))
        return nullptr;
    if (snapshotBytes(*twin) != frame) {
        diverged(label, op,
                 "restored twin re-serializes to different bytes");
        return nullptr;
    }

    // A flipped byte anywhere in the frame must fail the CRC (or the
    // header checks) — silently accepting tampered state would defeat
    // the whole guard.
    std::vector<std::uint8_t> tampered = frame;
    tampered[tampered.size() / 2] ^= 0x01;
    snap::Deserializer dt(std::move(tampered));
    make()->restoreState(dt);
    if (dt.ok()) {
        diverged(label, op, "tampered snapshot was accepted");
        return nullptr;
    }

    std::printf("%-13s snapshot fork at op=%" PRIu64 ": %zu bytes, "
                "restore + audit + tamper-reject OK\n",
                label.c_str(), op, frame.size());
    return twin;
}

/** Replay @p opt.ops operations; true when no divergence was observed. */
bool
runScheme(const std::string &scheme, const Options &opt)
{
    auto cache = makeCache(scheme, opt);
    if (!cache) {
        std::fprintf(stderr, "morc_check: unknown scheme '%s'\n",
                     scheme.c_str());
        return false;
    }
    auto *banked = dynamic_cast<mesh::BankedLlc *>(cache.get());
    const std::string label =
        opt.mesh() ? scheme + "@" + std::to_string(opt.meshWidth) + "x" +
                         std::to_string(opt.meshHeight)
                   : scheme;

    // --events: trace with a buffer sized so nothing can drop (each op
    // records at most a handful of events), stamped with the op index
    // as the "cycle" — monotone, deterministic, and meaningful for a
    // cycle-less replay.
    std::unique_ptr<telemetry::Tracer> tracer;
    if (opt.events) {
        tracer = std::make_unique<telemetry::Tracer>(
            static_cast<std::size_t>(opt.ops) * 4 + 64);
        cache->attachTracer(tracer.get(), tracer->track("llc"));
    }

    // Same key discipline as the sweep engine: the stream depends only
    // on (label, seed), never on host state.
    Rng rng(sweep::stableSeed("check/" + label + "/" +
                              std::to_string(opt.seed)));
    std::map<Addr, ModelLine> model;
    RunStats st;
    Phase phase = nextPhase(rng);
    bool ok = true;

    /** --snapshot: mid-stream fork restored from serialized state,
     *  driven in lockstep with the primary for the rest of the run. */
    std::unique_ptr<cache::Llc> twin;
    const std::uint64_t snapOp =
        opt.snapshot ? opt.ops / 2 : ~std::uint64_t{0};

    /** Ring of the most recently touched addresses; each audit probes
     *  all of them for cross-bank residency. */
    constexpr std::size_t kRecentRing = 64;
    std::vector<Addr> recent;
    std::size_t recentNext = 0;

    for (std::uint64_t op = 0; op < opt.ops && ok; op++) {
        if (op == snapOp) {
            twin = forkViaSnapshot(
                label, op, *cache, [&] { return makeCache(scheme, opt); },
                st);
            if (!twin) {
                ok = false;
                break;
            }
        }
        if (tracer)
            tracer->setNow(op);
        if (op % kPhaseOps == kPhaseOps - 1)
            phase = nextPhase(rng);
        const Addr addr = nextAddr(rng, phase);
        const bool write = phase.pattern == PatternKind::Rewrite
                               ? rng.chance(0.7)
                               : rng.chance(0.3);

        if (write) {
            // Dirty insert: a write-back arriving from a private cache.
            const CacheLine data = makeLine(
                rng, phase.data, phase.salt + static_cast<std::uint32_t>(op));
            const auto fr = cache->insert(addr, data, true);
            st.inserts++;
            ok = checkWritebacks(label, op, fr, model, st) && ok;
            if (twin && !sameFill(fr, twin->insert(addr, data, true)))
                ok = diverged(label, op,
                              "restored twin diverged on dirty insert "
                              "of 0x%" PRIx64,
                              addr) &&
                     ok;
            model[addr] = ModelLine{data, true};
        } else {
            const auto rr = cache->read(addr);
            st.reads++;
            if (twin) {
                const auto rr2 = twin->read(addr);
                if (rr2.hit != rr.hit ||
                    (rr.hit && !(rr2.data == rr.data)) ||
                    rr2.extraLatency != rr.extraLatency ||
                    rr2.bytesDecompressed != rr.bytesDecompressed ||
                    rr2.linesDecompressed != rr.linesDecompressed)
                    ok = diverged(label, op,
                                  "restored twin diverged on read of "
                                  "0x%" PRIx64 " (hit %d vs %d)",
                                  addr, rr.hit ? 1 : 0,
                                  rr2.hit ? 1 : 0) &&
                         ok;
            }
            const auto it = model.find(addr);
            if (rr.hit) {
                st.hits++;
                if (it == model.end()) {
                    ok = diverged(label, op,
                                  "hit on never-inserted address 0x%" PRIx64,
                                  addr);
                } else if (!(rr.data == it->second.data)) {
                    ok = diverged(label, op,
                                  "hit on 0x%" PRIx64
                                  " returned corrupted contents (word0 "
                                  "0x%08x, expected 0x%08x)",
                                  addr, rr.data.word32(0),
                                  it->second.data.word32(0));
                }
            } else {
                if (it != model.end() && it->second.dirty)
                    ok = diverged(label, op,
                                  "dirty line 0x%" PRIx64
                                  " vanished without a write-back",
                                  addr);
                // Fill from memory: reuse the reference contents when
                // the line exists, otherwise materialize a fresh line.
                const CacheLine data =
                    it != model.end()
                        ? it->second.data
                        : makeLine(rng, phase.data, phase.salt);
                const auto fr = cache->insert(addr, data, false);
                st.inserts++;
                ok = checkWritebacks(label, op, fr, model, st) && ok;
                if (twin &&
                    !sameFill(fr, twin->insert(addr, data, false)))
                    ok = diverged(label, op,
                                  "restored twin diverged on fill of "
                                  "0x%" PRIx64,
                                  addr) &&
                         ok;
                model[addr] = ModelLine{data, false};
            }
        }

        if (banked) {
            if (recent.size() < kRecentRing) {
                recent.push_back(addr);
            } else {
                recent[recentNext] = addr;
                recentNext = (recentNext + 1) % kRecentRing;
            }
        }

        if (opt.auditEvery != 0 && (op + 1) % opt.auditEvery == 0) {
            ok = runAudit(label, op, *cache, st) && ok;
            if (banked) {
                // The twin mirrors the probes too: they validate its
                // exclusivity as well, and they bump foreign-bank
                // counters — skipping them would break the final
                // byte-for-byte state comparison.
                auto *twin_banked =
                    dynamic_cast<mesh::BankedLlc *>(twin.get());
                for (const Addr a : recent) {
                    ok = checkExclusivity(label, op, *banked, a, st) && ok;
                    if (twin_banked)
                        ok = checkExclusivity(label + "(twin)", op,
                                              *twin_banked, a, st) &&
                             ok;
                }
            }
        }
    }

    if (ok)
        ok = runAudit(label, opt.ops, *cache, st);

    // Post-lockstep: the twin must have tracked the primary perfectly,
    // down to its serialized bytes.
    if (ok && twin) {
        ok = runAudit(label + "(twin)", opt.ops, *twin, st);
        if (ok && snapshotBytes(*cache) != snapshotBytes(*twin))
            ok = diverged(label, opt.ops,
                          "primary and restored twin serialize to "
                          "different bytes after lockstep replay");
        if (ok)
            std::printf("%-13s snapshot lockstep: twin stayed "
                        "byte-identical through op=%" PRIu64 "\n",
                        label.c_str(), opt.ops);
    }

    if (ok && tracer)
        ok = checkEvents(label, *tracer, *cache, opt.ops);

    // Final exhaustive exclusivity sweep: every address the reference
    // model has ever seen must be absent from all foreign banks.
    if (ok && banked)
        for (const auto &entry : model)
            ok = checkExclusivity(label, opt.ops, *banked, entry.first, st) &&
                 ok;

    // Final dirty sweep: the cache still owes memory every line the
    // model holds dirty, so each must hit with the model's bytes.
    if (ok) {
        for (const auto &[addr, line] : model) {
            if (!line.dirty)
                continue;
            st.dirtySwept++;
            const auto rr = cache->read(addr);
            if (!rr.hit || !(rr.data == line.data))
                ok = diverged(label, opt.ops,
                              "dirty line 0x%" PRIx64
                              " vanished without a write-back (final "
                              "sweep: %s)",
                              addr, rr.hit ? "wrong bytes" : "miss") &&
                     ok;
        }
    }

    // Wear/counter cross-check: the stats counters and the wear
    // tracker are charged by the same chargeWear() call but stored
    // separately, so a missed charge or a bad snapshot restore shows
    // up as a disagreement between the two totals.
    if (ok) {
        const energy::WearTracker wear = cache->wearSnapshot();
        const cache::LlcStats &cs = cache->stats();
        if (wear.totalBitsWritten() != cs.cellBitsWritten ||
            wear.totalBitFlips() != cs.cellBitFlips) {
            ok = diverged(label, opt.ops,
                          "wear tracker totals disagree with the "
                          "cell_bits_written/cell_bit_flips counters");
        }
    }

    if (ok && opt.injectSigCorruption) {
        auto *touche = dynamic_cast<cache::ToucheCache *>(cache.get());
        if (!touche) {
            std::fprintf(stderr,
                         "morc_check: --inject-signature-corruption "
                         "requires the touche scheme, not %s\n",
                         label.c_str());
            return false;
        }
        if (!touche->debugCorruptSignature(opt.seed)) {
            std::fprintf(stderr,
                         "morc_check: no valid slot to corrupt (stream "
                         "left the cache empty?)\n");
            return false;
        }
        const auto r = cache->audit();
        if (r.ok()) {
            std::fprintf(stderr,
                         "morc_check: MUTATION ESCAPED scheme=%s: auditor "
                         "reported a clean structure after signature "
                         "corruption was injected\n",
                         label.c_str());
            return false;
        }
        std::printf("%-13s injected signature corruption detected: "
                    "%" PRIu64 " violation(s)\n",
                    label.c_str(), r.violations());
        if (opt.verbose)
            std::fputs(r.str().c_str(), stdout);
        return true;
    }

    if (ok && opt.injectLmtCorruption) {
        bool injected = false;
        if (banked) {
            injected = banked->debugCorruptLmt(opt.seed);
        } else if (auto *log_cache =
                       dynamic_cast<core::LogCache *>(cache.get())) {
            injected = log_cache->debugCorruptLmt(opt.seed);
        } else {
            std::fprintf(stderr,
                         "morc_check: --inject-lmt-corruption requires a "
                         "MORC scheme, not %s\n",
                         label.c_str());
            return false;
        }
        if (!injected) {
            std::fprintf(stderr,
                         "morc_check: no valid LMT entry to corrupt "
                         "(stream left the cache empty?)\n");
            return false;
        }
        const auto r = cache->audit();
        if (r.ok()) {
            std::fprintf(stderr,
                         "morc_check: MUTATION ESCAPED scheme=%s: auditor "
                         "reported a clean structure after LMT "
                         "corruption was injected\n",
                         label.c_str());
            return false;
        }
        std::printf("%-13s injected LMT corruption detected: %" PRIu64
                    " violation(s)\n",
                    label.c_str(), r.violations());
        if (opt.verbose)
            std::fputs(r.str().c_str(), stdout);
        return true;
    }

    if (ok)
        std::printf("%-13s ops=%" PRIu64 " reads=%" PRIu64 " hits=%" PRIu64
                    " inserts=%" PRIu64 " writebacks=%" PRIu64
                    " audits=%" PRIu64 " checks=%" PRIu64
                    " xprobes=%" PRIu64 " dirty_swept=%" PRIu64 " OK\n",
                    label.c_str(), opt.ops, st.reads, st.hits, st.inserts,
                    st.writebacks, st.audits, st.auditChecks,
                    st.exclusivityProbes, st.dirtySwept);
    return ok;
}

// --------------------------------------------------------------------
// --kv: differential fuzz of the KV serving subsystem (src/kv).
// --------------------------------------------------------------------

bool
kvSchemeOf(const std::string &name, sim::Scheme *out)
{
    return sim::schemeFromCliName(name, out);
}

/** A deliberately tight service: small front and tiers over small,
 *  set-heavy tenant key spaces, so every layer churns (evictions,
 *  demotions, SSD hits and drops, version churn) within a few thousand
 *  ops. runKvScheme() fails a run whose tiers never demoted, hit in
 *  SSD or dropped from it. */
kv::ServiceConfig
kvConfig(sim::Scheme scheme, const Options &opt)
{
    kv::ServiceConfig cfg;
    cfg.scheme = scheme;
    cfg.frontBytes = 128 << 10;
    cfg.tier.dramBytes = 512 << 10;
    cfg.tier.ssdBytes = 128 << 10;
    cfg.seed = opt.seed;
    cfg.values.seed = mix64(opt.seed, 0x6b76);
    cfg.values.setChurn = 0.5;
    cfg.tenants = {
        {"alpha", 2048, 1.2, 4, 0.25, 512, 97},
        {"beta", 4096, 0.9, 2, 0.4, 0, 0},
        {"gamma", 8192, 0.7, 1, 0.5, 1024, 257},
        {"delta", 3072, 1.05, 3, 0.1, 0, 0},
    };
    return cfg;
}

/**
 * Drive a full kv::Service (generator -> front Llc -> tiered store)
 * in lockstep with an independent reference: a version ledger per
 * (tenant, key) plus a twin KvValueModel per tenant that recomputes
 * the exact contents every reply must have digested. Any corruption
 * anywhere in the stack — front cache, tier promotion/demotion,
 * writeback plumbing, value churn — surfaces as a digest mismatch.
 * Structural audits of every layer run each --audit-every ops, and
 * --snapshot forks the whole service mid-stream exactly like the
 * flat-cache path (restore, re-serialize identical, tamper-reject,
 * lockstep to identical final bytes).
 */
bool
runKvScheme(const std::string &scheme, const Options &opt)
{
    sim::Scheme s;
    if (!kvSchemeOf(scheme, &s)) {
        std::fprintf(stderr, "morc_check: unknown scheme '%s'\n",
                     scheme.c_str());
        return false;
    }
    const std::string label = "kv:" + scheme;
    const kv::ServiceConfig cfg = kvConfig(s, opt);
    kv::Service svc(cfg);

    // The reference: per-tenant value models with the same derived
    // profiles, consulted with an explicitly tracked version ledger
    // (std::map: deterministic and independent of the service's own
    // bookkeeping).
    std::vector<trace::KvValueModel> ref;
    for (std::size_t t = 0; t < cfg.tenants.size(); t++)
        ref.emplace_back(svc.values(static_cast<unsigned>(t)).profile());
    std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t>
        versions;

    std::unique_ptr<kv::Service> twin;
    RunStats st;
    std::uint64_t gets = 0, sets = 0;
    bool ok = true;

    for (std::uint64_t op = 0; op < opt.ops && ok; op++) {
        if (opt.snapshot && op == opt.ops / 2) {
            twin = forkViaSnapshot(
                label, op, svc,
                [&] { return std::make_unique<kv::Service>(cfg); }, st);
            if (!twin) {
                ok = false;
                break;
            }
        }

        const kv::Service::Reply r = svc.step();
        const std::uint32_t t = r.req.tenant;
        std::uint32_t &ver = versions[{t, r.req.key}];
        if (r.req.isSet) {
            ver++;
            sets++;
        } else {
            gets++;
        }

        const trace::KvValueModel &vm = ref[t];
        const std::uint32_t lines = vm.valueLines(r.req.key);
        if (lines != r.lines)
            ok = diverged(label, op,
                          "tenant %u key 0x%" PRIx64
                          " spans %u lines, reply carries %u",
                          t, r.req.key, lines, r.lines);
        std::uint64_t want = kv::kDigestBasis;
        for (std::uint32_t i = 0; i < lines; i++)
            want = kv::digestLine(want, svc.addrOf(t, r.req.key, i),
                                  vm.line(r.req.key, i, ver));
        if (ok && want != r.digest)
            ok = diverged(label, op,
                          "%s tenant %u key 0x%" PRIx64
                          " v%u returned corrupted contents (digest "
                          "0x%" PRIx64 ", expected 0x%" PRIx64 ")",
                          r.req.isSet ? "SET" : "GET", t, r.req.key,
                          ver, r.digest, want);

        if (twin) {
            const kv::Service::Reply tr = twin->step();
            if (tr.req.tenant != r.req.tenant ||
                tr.req.key != r.req.key || tr.req.isSet != r.req.isSet)
                ok = diverged(label, op,
                              "restored kv twin drew a different "
                              "request (tenant %u key 0x%" PRIx64 ")",
                              tr.req.tenant, tr.req.key);
            else if (tr.digest != r.digest || tr.lines != r.lines)
                ok = diverged(label, op,
                              "restored kv twin returned different "
                              "contents for tenant %u key 0x%" PRIx64,
                              t, r.req.key);
            else if (tr.latency != r.latency ||
                     twin->cycles() != svc.cycles())
                ok = diverged(label, op,
                              "restored kv twin diverged in timing "
                              "(latency %" PRIu64 " vs %" PRIu64 ")",
                              tr.latency, r.latency);
        }

        if (opt.auditEvery && (op + 1) % opt.auditEvery == 0) {
            ok = runAudit(label, op, svc, st) && ok;
            if (twin)
                ok = runAudit(label + "(twin)", op, *twin, st) && ok;
        }
    }

    if (ok)
        ok = runAudit(label, opt.ops, svc, st);
    if (ok && twin) {
        ok = runAudit(label + "(twin)", opt.ops, *twin, st);
        if (ok && snapshotBytes(*twin) != snapshotBytes(svc))
            ok = diverged(label, opt.ops,
                          "kv twin's final serialized bytes differ "
                          "from the primary's");
    }

    const kv::TierStats &ts = svc.tiers().stats();
    if (ok && (ts.demotions == 0 || ts.ssdHits == 0 || ts.ssdDrops == 0)) {
        std::fprintf(stderr,
                     "morc_check: VACUOUS scheme=%s: the tiers saw %" PRIu64
                     " demotions, %" PRIu64 " SSD hits and %" PRIu64
                     " SSD drops; the run must exercise all three\n",
                     label.c_str(), ts.demotions, ts.ssdHits, ts.ssdDrops);
        ok = false;
    }
    if (ok) {
        std::printf("%-13s ops=%" PRIu64 " gets=%" PRIu64
                    " sets=%" PRIu64 " cycles=%" PRIu64
                    " dramHits=%" PRIu64 " ssdHits=%" PRIu64
                    " origin=%" PRIu64 " promo=%" PRIu64
                    " demo=%" PRIu64 " drops=%" PRIu64 " audits=%" PRIu64
                    " checks=%" PRIu64 " OK\n",
                    label.c_str(), opt.ops, gets, sets, svc.cycles(),
                    ts.dramHits, ts.ssdHits, ts.originFetches,
                    ts.promotions, ts.demotions, ts.ssdDrops, st.audits,
                    st.auditChecks);
    }
    return ok;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--scheme NAME|all] [--ops N] [--seed S]\n"
        "          [--audit-every N] [--mesh WxH] [--events] [--kv]\n"
        "          [--snapshot] [--inject-lmt-corruption]\n"
        "          [--inject-signature-corruption] [--verbose]\n"
        "\n"
        "Differential fuzz: replay a seeded adversarial access stream\n"
        "through a cache scheme in lockstep with a reference memory\n"
        "model, auditing structural invariants every N operations\n"
        "(N = 0: one final audit). Numbers are decimal; --ops is at\n"
        "least 1.\n"
        "\n"
        "--mesh WxH shards the scheme into W*H address-interleaved\n"
        "banks (the tiled-substrate LLC, W and H in 1..64) and\n"
        "additionally enforces cross-bank exclusivity: a hit on any\n"
        "foreign bank is a divergence.\n"
        "\n"
        "--events attaches the telemetry event tracer and cross-checks\n"
        "traced log_flush / lmt_conflict_evict counts against the\n"
        "scheme's own counters at the end of the run.\n"
        "\n"
        "--snapshot serializes the cache halfway through the stream,\n"
        "restores it into a fresh twin, rejects a tampered copy, and\n"
        "drives both in lockstep for the rest of the run: outcomes and\n"
        "final serialized bytes must match exactly.\n"
        "\n"
        "--kv fuzzes the KV serving subsystem instead of a bare cache:\n"
        "a multi-tenant Zipf stream drives generator -> front cache ->\n"
        "DRAM/SSD tiered store, and every reply's content digest is\n"
        "checked against an independent version ledger + value model.\n"
        "Composes with --snapshot (mid-run fork of the whole service).\n"
        "A --kv run fails unless its tiers demote, hit in SSD and drop\n"
        "from SSD.\n"
        "\n"
        "schemes: all",
        argv0);
    for (const sim::SchemeInfo &info : sim::allSchemes())
        std::fprintf(stderr, " %s", info.cliName);
    std::fputc('\n', stderr);
    return 2;
}

int
run(int argc, char **argv)
{
    constexpr std::uint64_t kMax = UINT64_MAX;
    constexpr std::uint64_t kMaxMeshSide = 64;
    Options opt;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--scheme") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            opt.scheme = v;
        } else if (arg == "--ops") {
            const char *v = value();
            if (!v || !util::parseCount("--ops", v, 1, kMax, opt.ops))
                return usage(argv[0]);
        } else if (arg == "--seed") {
            const char *v = value();
            if (!v || !util::parseCount("--seed", v, 0, kMax, opt.seed))
                return usage(argv[0]);
        } else if (arg == "--audit-every") {
            const char *v = value();
            if (!v || !util::parseCount("--audit-every", v, 0, kMax,
                                        opt.auditEvery))
                return usage(argv[0]);
        } else if (arg == "--mesh") {
            const char *v = value();
            if (!v)
                return usage(argv[0]);
            const char *x = std::strchr(v, 'x');
            std::uint64_t w = 0;
            std::uint64_t h = 0;
            if (!x ||
                !util::parseCount(
                    std::string_view(v, static_cast<std::size_t>(x - v)),
                    1, kMaxMeshSide, w) ||
                !util::parseCount(x + 1, 1, kMaxMeshSide, h)) {
                std::fprintf(stderr, "--mesh: bad value '%s'\n", v);
                return usage(argv[0]);
            }
            opt.meshWidth = static_cast<unsigned>(w);
            opt.meshHeight = static_cast<unsigned>(h);
        } else if (arg == "--events") {
            opt.events = true;
        } else if (arg == "--snapshot") {
            opt.snapshot = true;
        } else if (arg == "--kv") {
            opt.kv = true;
        } else if (arg == "--inject-lmt-corruption") {
            opt.injectLmtCorruption = true;
        } else if (arg == "--inject-signature-corruption") {
            opt.injectSigCorruption = true;
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "morc_check: unknown option '%s'\n",
                         arg.c_str());
            return usage(argv[0]);
        }
    }

    if (opt.kv &&
        (opt.mesh() || opt.events || opt.injectLmtCorruption ||
         opt.injectSigCorruption)) {
        std::fprintf(stderr, "morc_check: --kv composes only with "
                             "--snapshot\n");
        return usage(argv[0]);
    }
    if (opt.injectLmtCorruption && opt.injectSigCorruption) {
        std::fprintf(stderr, "morc_check: pick one corruption "
                             "injection per run\n");
        return usage(argv[0]);
    }

    std::vector<std::string> schemes;
    if (opt.scheme == "all") {
        if (opt.injectLmtCorruption) {
            schemes = {"morc", "morc-merged"};
        } else if (opt.injectSigCorruption) {
            schemes = {"touche"};
        } else {
            for (const sim::SchemeInfo &info : sim::allSchemes())
                schemes.emplace_back(info.cliName);
        }
    } else {
        schemes.push_back(opt.scheme);
    }

    bool ok = true;
    for (const auto &s : schemes) {
        const bool r = opt.kv ? runKvScheme(s, opt) : runScheme(s, opt);
        ok = r && ok;
    }
    return ok ? 0 : 1;
}

} // namespace
} // namespace morc

int
main(int argc, char **argv)
{
    return morc::run(argc, argv);
}
