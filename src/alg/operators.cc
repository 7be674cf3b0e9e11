#include "alg/operators.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"

namespace scusim::alg
{

namespace
{
constexpr unsigned scanBlock = 256;
} // namespace

gpu::KernelStats
gpuStreamKernel(harness::System &sys, const std::string &name,
                gpu::Phase phase, std::uint64_t threads,
                std::function<void(std::uint64_t,
                                   gpu::ThreadRecorder &)> body,
                DeviceId dev)
{
    gpu::KernelLaunch k;
    k.name = name;
    k.phase = phase;
    k.numThreads = threads;
    k.body = std::move(body);
    return sys.gpuDevice(dev).launch(k);
}

Operators::Operators(harness::System &s, DeviceId d,
                     std::size_t capacity)
    : sys(s), dev(d)
{
    scanned.allocate(s.addressSpace(d), "scan_scratch", capacity + 1);
    blockSums.allocate(s.addressSpace(d), "scan_block_sums",
                       capacity / 256 + 2);
}

void
Operators::begin(harness::ScuMode mode)
{
    runMode = mode;
    if (offloaded())
        sys.scuDevice(dev).resetFilterTables();
}

void
Operators::gpuScan(
    const std::string &name, std::size_t n,
    const std::function<void(std::uint64_t, gpu::ThreadRecorder &)>
        &load_input,
    const std::function<std::uint32_t(std::size_t)> &value_of)
{
    panic_if(scanned.size() < n + 1, "scan scratch too small (%zu < %zu)",
             scanned.size(), n + 1);

    // Functional exclusive scan.
    std::uint32_t running = 0;
    for (std::size_t i = 0; i < n; ++i) {
        scanned[i] = running;
        running += value_of(i);
    }
    scanned[n] = running;

    // Kernel 1: block-local scan. Each thread loads its input,
    // participates in a shared-memory tree scan (~8 ops) and stores
    // its local prefix.
    gpuStreamKernel(
        sys, name + "_scan_local", gpu::Phase::Compaction, n,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            load_input(t, rec);
            rec.compute(18);
            rec.store(scanned.addrOf(t), 4);
            if (t % scanBlock == scanBlock - 1 || t == n - 1)
                rec.store(blockSums.addrOf(t / scanBlock), 4);
        },
        dev);

    // Kernel 2: scan of the per-block sums + propagation. One thread
    // per block: loads its block sum, adds the running offset and
    // rewrites the block's prefix base.
    const std::uint64_t blocks = divCeil(n, scanBlock);
    gpuStreamKernel(
        sys, name + "_scan_blocks", gpu::Phase::Compaction, blocks,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            rec.load(blockSums.addrOf(t), 4);
            rec.compute(12);
            rec.store(blockSums.addrOf(t), 4);
        },
        dev);
}

std::size_t
Operators::scuRun(std::size_t streams, std::size_t &out_n,
                  const Refine &refine, AlgMetrics &m,
                  const StreamOp &op)
{
    std::vector<std::uint8_t> keep;
    std::vector<std::uint32_t> order;
    std::vector<std::uint32_t> costs;
    scu::OpOptions apply;
    std::size_t landed = out_n;

    sys.scuSection(dev, [&] {
        auto &scu = sys.scuDevice(dev);
        const bool enhanced = runMode == harness::ScuMode::ScuEnhanced;
        // Each metadata pass resets its hash table first, so the
        // Table 2-sized region stays L2-resident.
        if (enhanced && (refine.unique || refine.bestCost)) {
            scu::OpOptions pass;
            pass.writeOutput = false;
            pass.keepOut = &keep;
            if (refine.unique) {
                scu.uniqueFilter().reset();
                pass.filterMode = scu::FilterMode::Unique;
            } else {
                costs = refine.bestCost();
                scu.costFilter().reset();
                pass.filterMode = scu::FilterMode::BestCost;
                pass.costs = costs;
            }
            std::size_t ignore = 0;
            m.scuFiltered += op(0, pass, ignore).filtered;
            apply.keep = &keep;
        }
        if (enhanced && refine.group) {
            scu.groupingTable().reset();
            scu::OpOptions pass;
            pass.writeOutput = false;
            pass.makeGroups = true;
            pass.orderOut = &order;
            std::size_t ignore = 0;
            op(0, pass, ignore);
            apply.order = &order;
        }
        for (std::size_t s = 0; s < streams; ++s) {
            std::size_t n = out_n;
            op(s, apply, n);
            panic_if(s > 0 && n != landed,
                     "stream %zu landed %zu elements, stream 0 %zu", s,
                     n - out_n, landed - out_n);
            landed = n;
        }
    });

    const std::size_t kept = landed - out_n;
    out_n = landed;
    return kept;
}

std::size_t
Operators::expand(const std::string &name, const Elems &indexes,
                  const Elems &counts, std::size_t n,
                  std::span<const ExpandOutput> outputs,
                  const Refine &refine, AlgMetrics &m)
{
    panic_if(outputs.empty(), "expand with no outputs");
    for (std::size_t i = 0; i < n; ++i)
        m.rawExpanded += counts[i];

    if (offloaded()) {
        auto &scu = sys.scuDevice(dev);
        std::size_t landed = 0;
        return scuRun(
            outputs.size(), landed, refine, m,
            [&](std::size_t s, const scu::OpOptions &opt,
                std::size_t &out_n) {
                const ExpandOutput &o = outputs[s];
                panic_if(o.gather && o.replicate,
                         "the SCU cannot sum two streams");
                if (o.gather)
                    return scu.accessExpansionCompaction(
                        *o.gather, indexes, counts, n, nullptr, *o.out,
                        out_n, opt);
                return scu.replicationCompaction(*o.replicate, counts,
                                                 n, nullptr, *o.out,
                                                 out_n, opt);
            });
    }

    gpuScan(
        name, n,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            rec.load(counts.addrOf(t), 4);
        },
        [&](std::size_t i) -> std::uint32_t { return counts[i]; });
    const std::size_t total = scanned[n];

    // Gather kernel: one thread per produced element. The Merrill
    // load-balancing search is CTA-cooperative: a coarse partition
    // is found once per CTA and refined in shared memory, so each
    // thread pays a couple of probing loads into the scanned
    // offsets plus the refinement compute — not a full per-thread
    // binary search over global memory.
    gpuStreamKernel(
        sys, name + "_gather", gpu::Phase::Compaction, total,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            // Owner lookup (functional, exact).
            auto it = std::upper_bound(
                scanned.host().begin(),
                scanned.host().begin() +
                    static_cast<std::ptrdiff_t>(n) + 1,
                static_cast<std::uint32_t>(t));
            std::size_t i = static_cast<std::size_t>(
                it - scanned.host().begin()) - 1;
            const auto j = static_cast<std::uint32_t>(t - scanned[i]);

            // Timing: two probes into the scanned array around the
            // owning run plus the shared-memory refinement.
            rec.load(scanned.addrOf(i), 4);
            if (i + 1 <= n)
                rec.load(scanned.addrOf(i + 1), 4);
            rec.compute(24);

            for (const auto &o : outputs) {
                std::uint32_t v = 0;
                if (o.gather) {
                    const std::uint32_t e = indexes[i] + j;
                    rec.load(o.gather->addrOf(e), 4);
                    v = (*o.gather)[e];
                }
                if (o.replicate) {
                    rec.load(o.replicate->addrOf(i), 4);
                    v += (*o.replicate)[i];
                }
                panic_if(t >= o.out->size(), "%s output overflow",
                         name.c_str());
                (*o.out)[t] = v;
                rec.store(o.out->addrOf(t), 4);
            }
        },
        dev);
    return total;
}

void
Operators::compact(const std::string &name,
                   std::span<const CompactStream> streams,
                   const Flags &flags, std::size_t n,
                   std::size_t &out_n, const Refine &refine,
                   AlgMetrics &m)
{
    panic_if(streams.empty(), "compact with no streams");

    if (offloaded()) {
        auto &scu = sys.scuDevice(dev);
        scuRun(streams.size(), out_n, refine, m,
               [&](std::size_t s, const scu::OpOptions &opt,
                   std::size_t &n_out) {
                   return scu.dataCompaction(*streams[s].in, n, &flags,
                                             *streams[s].out, n_out,
                                             opt);
               });
        return;
    }

    gpuScan(
        name, n,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            rec.load(flags.addrOf(t), 1);
        },
        [&](std::size_t i) -> std::uint32_t { return flags[i] ? 1 : 0; });

    // Scatter kernel: every flagged element copies each stream's
    // value to the packed position.
    const std::size_t base = out_n;
    gpuStreamKernel(
        sys, name + "_scatter", gpu::Phase::Compaction, n,
        [&](std::uint64_t t, gpu::ThreadRecorder &rec) {
            rec.load(flags.addrOf(t), 1);
            rec.load(scanned.addrOf(t), 4);
            rec.compute(12);
            if (!flags[t])
                return;
            const std::size_t pos = base + scanned[t];
            for (const auto &s : streams) {
                rec.load(s.in->addrOf(t), 4);
                panic_if(pos >= s.out->size(), "%s output overflow",
                         name.c_str());
                (*s.out)[pos] = (*s.in)[t];
                rec.store(s.out->addrOf(pos), 4);
            }
        },
        dev);

    out_n += scanned[n];
}

} // namespace scusim::alg
