#include "alg/operators.hh"

#include <algorithm>
#include <array>

#include "common/bits.hh"
#include "common/logging.hh"

namespace scusim::alg
{

namespace
{
constexpr unsigned scanBlock = 256;

/** What a scan input element adds: a flag counts as 0 or 1. */
std::uint32_t
scanValue(std::uint8_t flag)
{
    return flag ? 1 : 0;
}

std::uint32_t
scanValue(std::uint32_t count)
{
    return count;
}
} // namespace

gpu::KernelStats
gpuStreamKernel(harness::System &sys, const std::string &name,
                gpu::Phase phase, std::uint64_t threads,
                gpu::KernelBody body, DeviceId dev)
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

template <class T>
void
Operators::gpuScan(const std::string &name,
                   const mem::DeviceArray<T> &input, std::size_t n)
{
    panic_if(scanned.size() < n + 1, "scan scratch too small (%zu < %zu)",
             scanned.size(), n + 1);

    // Functional exclusive scan.
    std::uint32_t running = 0;
    for (std::size_t i = 0; i < n; ++i) {
        scanned[i] = running;
        running += scanValue(input[i]);
    }
    scanned[n] = running;

    // Kernel 1: block-local scan. Each thread loads its input,
    // participates in a shared-memory tree scan (~8 ops) and stores
    // its local prefix; the last thread of each block, and of the
    // scan, stores the block sum.
    gpuStreamKernel(
        sys, name + "_scan_local", gpu::Phase::Compaction, n,
        [&](std::uint64_t, unsigned, gpu::WarpRecorder &rec) {
            rec.load(input, sizeof(T));
            rec.compute(18);
            rec.store(scanned);
            rec.store(
                [&](std::uint64_t t) {
                    return blockSums.addrOf(t / scanBlock);
                },
                4, rec.lanesWhere([&](std::uint64_t t) {
                    return t % scanBlock == scanBlock - 1 || t == n - 1;
                }));
        },
        dev);

    // Kernel 2: scan of the per-block sums + propagation. One thread
    // per block: loads its block sum, adds the running offset and
    // rewrites the block's prefix base.
    const std::uint64_t blocks = divCeil(n, scanBlock);
    gpuStreamKernel(
        sys, name + "_scan_blocks", gpu::Phase::Compaction, blocks,
        [&](std::uint64_t, unsigned, gpu::WarpRecorder &rec) {
            rec.load(blockSums);
            rec.compute(12);
            rec.store(blockSums);
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

    gpuScan(name, counts, n);
    const std::size_t total = scanned[n];

    // Functional gather: output element t belongs to the last input
    // element i with scanned[i] <= t.
    for (const auto &o : outputs) {
        panic_if(total > 0 && total - 1 >= o.out->size(),
                 "%s output overflow", name.c_str());
    }
    for (std::size_t t = 0, i = 0; t < total; ++t) {
        while (scanned[i + 1] <= t)
            ++i;
        const std::uint32_t e =
            indexes[i] + static_cast<std::uint32_t>(t - scanned[i]);
        for (const auto &o : outputs) {
            std::uint32_t v = 0;
            if (o.gather)
                v = (*o.gather)[e];
            if (o.replicate)
                v += (*o.replicate)[i];
            (*o.out)[t] = v;
        }
    }

    // Gather kernel: one thread per produced element. The Merrill
    // load-balancing search is CTA-cooperative: a coarse partition
    // is found once per CTA and refined in shared memory, so each
    // thread pays a couple of probing loads into the scanned
    // offsets plus the refinement compute — not a full per-thread
    // binary search over global memory.
    gpuStreamKernel(
        sys, name + "_gather", gpu::Phase::Compaction, total,
        [&](std::uint64_t first, unsigned lanes, gpu::WarpRecorder &rec) {
            // Owner of each lane's element: one search for the
            // warp's first element, then a walk forward.
            std::array<std::uint32_t, 64> owner{};
            const auto &sc = scanned.host();
            auto i = static_cast<std::uint32_t>(
                std::upper_bound(sc.begin(),
                                 sc.begin() +
                                     static_cast<std::ptrdiff_t>(n) + 1,
                                 static_cast<std::uint32_t>(first)) -
                sc.begin() - 1);
            for (unsigned l = 0; l < lanes; ++l) {
                while (sc[i + 1] <= first + l)
                    ++i;
                owner[l] = i;
            }
            const auto owner_of = [&](std::uint64_t t) {
                return owner[t - first];
            };

            // Timing: two probes into the scanned array around the
            // owning run plus the shared-memory refinement.
            rec.load([&](std::uint64_t t) {
                return scanned.addrOf(owner_of(t));
            });
            rec.load([&](std::uint64_t t) {
                return scanned.addrOf(owner_of(t) + 1);
            });
            rec.compute(24);
            for (const auto &o : outputs) {
                if (o.gather) {
                    rec.load([&](std::uint64_t t) {
                        const std::uint32_t own = owner_of(t);
                        return o.gather->addrOf(
                            indexes[own] +
                            static_cast<std::uint32_t>(t - sc[own]));
                    });
                }
                if (o.replicate) {
                    rec.load([&](std::uint64_t t) {
                        return o.replicate->addrOf(owner_of(t));
                    });
                }
                rec.store(*o.out);
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

    gpuScan(name, flags, n);

    // Functional scatter: every flagged element copies each stream's
    // value to the packed position.
    const std::size_t base = out_n;
    for (const auto &s : streams) {
        panic_if(scanned[n] > 0 && base + scanned[n] - 1 >= s.out->size(),
                 "%s output overflow", name.c_str());
    }
    for (std::size_t t = 0; t < n; ++t) {
        if (!flags[t])
            continue;
        for (const auto &s : streams)
            (*s.out)[base + scanned[t]] = (*s.in)[t];
    }

    // Scatter kernel: every thread loads its flag and scan offset,
    // and the flagged ones copy each stream's element.
    gpuStreamKernel(
        sys, name + "_scatter", gpu::Phase::Compaction, n,
        [&](std::uint64_t, unsigned, gpu::WarpRecorder &rec) {
            rec.load(flags, 1);
            rec.load(scanned);
            rec.compute(12);
            const std::uint64_t flagged = rec.lanesWhere(
                [&](std::uint64_t t) { return flags[t] != 0; });
            for (const auto &s : streams) {
                rec.load(*s.in, 4, flagged);
                rec.store(
                    [&](std::uint64_t t) {
                        return s.out->addrOf(base + scanned[t]);
                    },
                    4, flagged);
            }
        },
        dev);

    out_n += scanned[n];
}

} // namespace scusim::alg
