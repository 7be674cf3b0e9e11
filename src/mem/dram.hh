/**
 * @file
 * DRAM timing and activity model in the spirit of DRAMSim2: channel
 * data buses with peak-bandwidth-accurate occupancy, per-bank row
 * buffers with activate/precharge penalties, and per-event activity
 * counters the energy model converts into joules (Micron-style).
 */

#ifndef SCUSIM_MEM_DRAM_HH
#define SCUSIM_MEM_DRAM_HH

#include <string>
#include <vector>

#include "common/bits.hh"
#include "common/types.hh"
#include "mem/request.hh"
#include "sim/clock.hh"
#include "stats/stats.hh"

namespace scusim::sim
{
class FaultInjector;
}

namespace scusim::mem
{

/** Timing/organization parameters of a DRAM device. */
struct DramParams
{
    std::string name = "GDDR5";
    unsigned channels = 8;          ///< independent channels
    unsigned banksPerChannel = 16;  ///< banks per channel
    unsigned rowBytes = 2048;       ///< row-buffer size
    unsigned lineBytes = 128;       ///< transfer granule (L2 line)
    double peakBytesPerSec = 224e9; ///< aggregate peak bandwidth
    double tCasNs = 14.0;           ///< column access (row hit)
    double tRcdNs = 14.0;           ///< activate-to-column
    double tRpNs = 14.0;            ///< precharge
    double ioNs = 6.0;              ///< pin/PHY crossing per access

    /** GTX980-class 4 GB GDDR5 @ 224 GB/s (Table 3). */
    static DramParams gddr5();
    /** TX1-class 4 GB LPDDR4 @ 25.6 GB/s (Table 4). */
    static DramParams lpddr4();
};

/**
 * The DRAM model. Implements MemLevel; every access is a full line
 * transfer. Thread-unsafe by design — the simulation is single
 * threaded.
 */
class Dram : public MemLevel
{
  public:
    Dram(const DramParams &params, const sim::ClockDomain &clock,
         stats::StatGroup *parent);

    MemResult access(Tick issue, Addr addr, AccessKind kind,
                     unsigned bytes) override;

    const DramParams &params() const { return p; }

    /**
     * Attach the run's fault injector (non-owning, null detaches) so
     * DramRefreshStorm faults can park a bank and close its row.
     */
    void setFaultInjector(sim::FaultInjector *inj) { faultInj = inj; }

    /** Total bytes moved on the pins (reads + writes). */
    double bytesMoved() const { return movedBytes.value(); }

    /** Row-buffer hit rate over all accesses. */
    double
    rowHitRate() const
    {
        double total = rowHits.value() + rowMisses.value();
        return total > 0 ? rowHits.value() / total : 0;
    }

    /** Activity counts consumed by the energy model. */
    double numActivates() const { return rowMisses.value(); }
    double numReads() const { return reads.value(); }
    double numWrites() const { return writes.value(); }

  private:
    struct Bank
    {
        std::uint64_t openRow = static_cast<std::uint64_t>(-1);
        Tick readyAt = 0;
    };

    /** Decompose an address into channel/bank/row coordinates. */
    void map(Addr addr, unsigned &channel, unsigned &bank,
             std::uint64_t &row) const;

    DramParams p;
    FixedDivisor lineDiv, chanDiv, rowDiv, bankDiv;
    Tick tCas, tRcd, tRp, tIo;
    Tick busCyclesPerLine;
    /** Every bank, indexed channel * banksPerChannel + bank. */
    std::vector<Bank> banks;
    /** Tick each channel's data bus is next free. */
    std::vector<Tick> busFree;

    stats::StatGroup grp;
    stats::Scalar reads, writes, rowHits, rowMisses;
    stats::Scalar busBusyCycles;
    stats::Scalar movedBytes;
    sim::FaultInjector *faultInj = nullptr;
};

} // namespace scusim::mem

#endif // SCUSIM_MEM_DRAM_HH
