/**
 * @file
 * Bank director: the sharded LLC of the tiled substrate.
 *
 * The LLC is split into one bank per tile; each bank is a complete
 * cache::Llc scheme instance (for MORC: its own log store, tag store,
 * and LMT), so compressed capacity scales with tiles exactly as the
 * paper's distributed design intends. The director owns the banks,
 * routes every access to the home bank (MeshConfig::homeBank — a pure
 * address hash), and aggregates per-bank statistics so the rest of the
 * system sees one Llc.
 *
 * The fundamental structural invariant the banking layer adds is
 * cross-bank exclusivity: an address may only ever be resident in its
 * home bank. Routing enforces it by construction here; morc_check
 * --mesh additionally *verifies* it from the outside by probing foreign
 * banks, so a future placement/migration bug cannot silently alias a
 * line into two banks.
 */

#ifndef MORC_MESH_BANKED_LLC_HH
#define MORC_MESH_BANKED_LLC_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/llc.hh"
#include "mesh/topology.hh"

namespace morc {
namespace mesh {

/** Address-interleaved collection of per-tile LLC bank slices. */
class BankedLlc : public cache::Llc
{
  public:
    /** Builds the scheme instance of one bank slice. */
    using BankFactory = std::function<std::unique_ptr<cache::Llc>(
        unsigned bank, std::uint64_t bank_capacity_bytes)>;

    /**
     * @param mesh           Topology (bank count and address hash).
     * @param total_capacity Uncompressed data capacity summed over all
     *                       banks; must divide evenly.
     * @param make_bank      Factory invoked once per bank.
     */
    BankedLlc(const MeshConfig &mesh, std::uint64_t total_capacity,
              const BankFactory &make_bank);

    cache::ReadResult read(Addr addr) override;
    cache::FillResult insert(Addr addr, const CacheLine &data,
                             bool dirty) override;
    std::uint64_t validLines() const override;
    std::uint64_t capacityBytes() const override;
    std::string name() const override;

    /** Merge of every bank's audit (issues prefixed "bankN:") plus the
     *  director's own capacity-partition checks. */
    check::AuditReport audit() const override;

    /** Aggregate probes: the base Llc catalog reads the director's
     *  accumulated stats (sum over banks), and when the banks are MORC
     *  instances the scheme gauges (live_logs, lmt_occupancy, ...) are
     *  published as cross-bank aggregates under the same names the flat
     *  scheme uses, so series stay comparable flat vs. banked. */
    void registerProbes(telemetry::Registry &reg,
                        const std::string &prefix) override;

    /** Fan the tracer out: each bank records onto its own
     *  "<base>.bankN" track so per-bank event timelines stay separable
     *  in the exported trace. */
    void attachTracer(telemetry::Tracer *tracer,
                      std::uint16_t track) override;

    unsigned numBanks() const
    {
        return static_cast<unsigned>(banks_.size());
    }

    unsigned homeBank(Addr addr) const { return mesh_.homeBank(addr); }

    cache::Llc &bank(unsigned i) { return *banks_[i]; }
    const cache::Llc &bank(unsigned i) const { return *banks_[i]; }

    const MeshConfig &mesh() const { return mesh_; }

    /** Clear the aggregate and every bank's counters (end of warm-up). */
    void clearAllStats();

    /** Merge of every bank's wear histogram: bank frames stack as
     *  additional sets, in bank order. */
    energy::WearTracker wearSnapshot() const override;

    /** Zero the wear counters of every bank (and the unused director
     *  tracker), keeping frame geometry. */
    void clearWear() override;

    /** Director stats + every bank's state, in bank order. */
    void saveState(snap::Serializer &s) const override;

    /** Restore into an identically configured director (same mesh and
     *  bank scheme); each bank restores its own section. */
    void restoreState(snap::Deserializer &d) override;

    /** Mean invalid-line fraction over MORC banks (0 for other
     *  schemes); mirrors core::LogCache::invalidLineFraction. */
    double invalidLineFraction() const;

    /**
     * Corrupt one valid LMT entry in some bank (seed-selected, first
     * non-empty bank wins) for auditor mutation testing. Returns false
     * when no bank is a MORC instance holding a valid entry.
     */
    bool debugCorruptLmt(std::uint64_t seed);

  private:
    template <typename Self, typename IO>
    static void walk(Self &self, IO &io);

    MeshConfig mesh_;
    std::vector<std::unique_ptr<cache::Llc>> banks_;
};

} // namespace mesh
} // namespace morc

#endif // MORC_MESH_BANKED_LLC_HH
