/**
 * @file
 * Timing model of one SCU operation in flight. Mirrors the hardware
 * pipeline of Figures 7/8: the Address Generator produces element
 * slots at the configured pipeline width; the Data Fetch unit issues
 * reads through a read Coalescing Unit (sequential-stream merging,
 * bounded in-flight window); the Data Store write-combines the
 * sequential output; the Filtering/Grouping unit issues its own hash
 * probes through a second coalescing unit.
 *
 * The model is throughput-oriented: thanks to the deep request FIFO
 * (38 KB, Table 1) the unit is limited by pipeline width, by the
 * in-flight request window and by memory bandwidth — not by single
 * access latency. The operation's completion tick is the max of the
 * compute-throughput time and the last memory completion, plus a
 * drain constant.
 */

#ifndef SCUSIM_SCU_PIPELINE_HH
#define SCUSIM_SCU_PIPELINE_HH

#include <array>

#include "common/types.hh"
#include "mem/mem_system.hh"
#include "scu/scu_config.hh"
#include "sim/tick_queue.hh"

namespace scusim::scu
{

/** Identifiers of the sequential input streams an operation reads. */
enum class Stream : unsigned
{
    Data = 0,    ///< sparse/source data vector
    Bitmask = 1, ///< valid-flag vector
    Indexes = 2, ///< gather index vector
    Count = 3,   ///< replication/expansion count vector
    Order = 4,   ///< grouping order vector
    NumStreams = 5
};

/** Traffic counters of one operation. */
struct PipelineTraffic
{
    std::uint64_t readTxns = 0;
    std::uint64_t writeTxns = 0;
    std::uint64_t hashReadTxns = 0;
    std::uint64_t hashWriteTxns = 0;
    std::uint64_t elements = 0;
    std::uint64_t maxInflight = 0; ///< in-flight read window peak
};

class ScuPipeline
{
  public:
    /**
     * @p window holds the operation's in-flight read completions; it
     * is emptied here and reused by the owner's next operation so its
     * storage is allocated once.
     */
    ScuPipeline(const ScuParams &params, mem::MemSystem &mem,
                sim::TickQueue &window, Tick start);

    /** Account @p n element slots through the pipeline. */
    void
    elements(std::uint64_t n = 1)
    {
        traffic.elements += n;
    }

    /**
     * Read @p bytes at @p addr from sequential stream @p s; only a
     * line change issues a transaction (the read coalescing unit
     * merges the rest).
     */
    void seqRead(Stream s, Addr addr, unsigned bytes = 4);

    /**
     * Random-access read (gather). Consecutive addresses within the
     * merge window still coalesce via the line check.
     */
    void gatherRead(Addr addr, unsigned bytes = 4);

    /** Write-combined store to the (sequential) output array. */
    void seqWrite(Addr addr, unsigned bytes = 4);

    /**
     * One filtering/grouping hash probe at set address @p addr,
     * reading @p read_bytes (the probed set) and optionally writing
     * the updated entry (one 32 B sector).
     */
    void hashAccess(Addr addr, bool write, unsigned read_bytes = 64);

    /** Complete the operation; returns the end tick. */
    Tick finish();

    const PipelineTraffic &counters() const { return traffic; }

  private:
    /** Issue one read transaction respecting the in-flight window. */
    void issueRead(Addr line_addr, unsigned bytes);

    /** Issue tick of the n-th transaction of a width-scaled port. */
    Tick portTick(std::uint64_t issued) const;

    const ScuParams &p;
    mem::MemSystem &mem;
    /** L2 line size: the read and write coalescing granule. */
    const unsigned lineBytes;
    Tick startTick;

    /** Last read-issue tick (for in-flight window accounting). */
    Tick txnIssue;
    /** Per-port issued-transaction counters. */
    std::uint64_t readsIssued = 0;
    std::uint64_t storesIssued = 0;
    std::uint64_t hashIssued = 0;
    /** Latest read-data completion seen. */
    Tick memReady;
    /** Per-stream last line, for sequential merge. */
    std::array<Addr, static_cast<unsigned>(Stream::NumStreams)>
        lastLine;
    Addr lastGatherLine;
    Addr lastWriteLine;
    Addr lastHashLine;

    /** Completion ticks of reads in flight. */
    sim::TickQueue &inflight;
    /** Outstanding-read budget, from the request FIFO capacity. */
    const std::size_t windowSlots;

    PipelineTraffic traffic;
};

} // namespace scusim::scu

#endif // SCUSIM_SCU_PIPELINE_HH
