/**
 * @file
 * Crash-safe journal of finished sweep tasks.
 *
 * A sweep with --checkpoint-dir appends every finished RunRecord to a
 * per-figure journal file the moment it completes. A killed run can
 * then resume: load() recovers every intact record, the driver skips
 * the corresponding tasks (their journaled records are returned
 * verbatim), and only unfinished work is simulated. Because records
 * round-trip bit-exactly — doubles travel as IEEE-754 bit patterns —
 * the resumed report is byte-identical to an uninterrupted run's.
 *
 * File layout: a sequence of snapshot frames (snapshot/snapshot.hh),
 * one per record, each holding the record's "RREC" section. A frame
 * checks its own length and CRC, so a torn tail (the process died
 * mid-append), a corrupt entry or a frame that holds no record simply
 * ends recovery there: every entry before it is kept, the damaged
 * suffix is cut from the file so that new entries follow the intact
 * ones, and the tasks it covered are re-simulated. Appends are
 * serialized by a mutex and flushed per record, so concurrent sweep
 * workers can journal safely.
 */

#ifndef MORC_SWEEP_JOURNAL_HH
#define MORC_SWEEP_JOURNAL_HH

#include <cstddef>
#include <string>
#include <unordered_map>

#include "snapshot/snapshot.hh"
#include "stats/report.hh"
#include "util/sync.hh"

namespace morc {
namespace sweep {

/** Serialize one RunRecord (key, labels, metrics, histograms, series,
 *  trace) into @p s. Shared by the journal and its tests. */
void saveRunRecord(snap::Serializer &s, const stats::RunRecord &rec);

/** Inverse of saveRunRecord(); check @p d.ok() before trusting the
 *  result. */
stats::RunRecord loadRunRecord(snap::Deserializer &d);

/** Append-only, CRC-guarded store of finished RunRecords, keyed by the
 *  task key. */
class Journal
{
  public:
    explicit Journal(std::string path) : path_(std::move(path)) {}

    /** Recover intact records from an existing journal file (missing
     *  file = empty journal). A torn or corrupt entry, or a frame
     *  that holds no record, ends recovery:
     *  everything before it is kept, and the file is cut back to the
     *  end of the last intact entry, so later appends stay reachable.
     *  A failed cut is reported once on stderr, as append() reports a
     *  failed write. @return Number of records recovered. */
    std::size_t load();

    /** Journaled record for @p key, or nullptr. The pointer stays
     *  valid for the journal's lifetime. */
    const stats::RunRecord *lookup(const std::string &key) const;

    /** Append one finished record (rec.key must be set) and flush it
     *  to disk. Thread-safe; failures to write are reported once on
     *  stderr but never abort the sweep. */
    void append(const stats::RunRecord &rec);

    std::size_t size() const;
    const std::string &path() const { return path_; }

  private:
    std::string path_;
    mutable sync::Mutex mu_;
    // Keyed store of recovered + appended records. Never iterated —
    // reports are rebuilt in task order by the sweep driver — so the
    // unordered layout cannot reach an artifact.
    std::unordered_map<std::string, stats::RunRecord> records_
        MORC_GUARDED_BY(mu_);
    // Journal file handle is opened per append under mu_; the
    // warn-once latch (a failed append or tail cut) shares its
    // critical section.
    bool writeFailed_ MORC_GUARDED_BY(mu_) = false;
};

} // namespace sweep
} // namespace morc

#endif // MORC_SWEEP_JOURNAL_HH
