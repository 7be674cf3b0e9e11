/**
 * @file
 * Measurement binary of the perfbench benchmark. It runs one named
 * workload through the public harness API and writes what it measured
 * as JSON to --out; perfbench/run.py turns that into the benchmark's
 * metrics. This binary only measures: every ratio, median and layer
 * attribution is computed by run.py (and unit-tested there).
 *
 *   perfbench_measure --workload fig10|gpu-only|scu-offload
 *                     --seed N --workers K --setup-reps R
 *                     --sample 0|1 --out FILE
 *
 * One process makes one timed pass over the workload's runs. Datasets
 * are synthesised before the pass: R timed makeDataset() repetitions,
 * then the timed cachedDataset() calls that build the graphs the runs
 * use, give the set-up samples. With --sample 1 a second pass follows,
 * during which a SIGPROF handler records the program counter every
 * millisecond of process CPU time. Both passes run in one process so
 * that their ratio (the probe's overhead) does not carry the host's
 * process-to-process noise.
 */

#include <link.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "graph/datasets.hh"
#include "harness/executor.hh"
#include "harness/plan.hh"
#include "harness/runner.hh"

namespace
{

using namespace scusim;
using harness::Primitive;
using harness::ScuMode;

constexpr double kScale = 0.05;

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** 64-bit FNV-1a over @p s. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out + "\"";
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ---------------------------------------------------------------
// SIGPROF program-counter sampler.
//
// The handler only appends the interrupted PC to a preallocated
// buffer; everything else (histogram, symbolisation, layer mapping)
// happens after the timer is stopped.

constexpr long kSampleIntervalUs = 1000;
constexpr std::size_t kSampleCapacity = std::size_t{1} << 21;

std::uintptr_t *sampleBuf = nullptr;
std::atomic<std::size_t> sampleCount{0};

void
onSigprof(int, siginfo_t *, void *ctx)
{
    std::uintptr_t pc = 0;
#if defined(__x86_64__)
    pc = static_cast<std::uintptr_t>(
        static_cast<ucontext_t *>(ctx)->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    pc = static_cast<std::uintptr_t>(
        static_cast<ucontext_t *>(ctx)->uc_mcontext.pc);
#else
    (void)ctx;
#endif
    std::size_t i = sampleCount.fetch_add(1, std::memory_order_relaxed);
    if (i < kSampleCapacity)
        sampleBuf[i] = pc;
}

void
setProfTimer(long usec)
{
    itimerval it{};
    it.it_interval.tv_usec = usec;
    it.it_value.tv_usec = usec;
    setitimer(ITIMER_PROF, &it, nullptr);
}

void
startSampler()
{
    static std::vector<std::uintptr_t> buf(kSampleCapacity);
    sampleBuf = buf.data();
    sampleCount.store(0);
    struct sigaction sa{};
    sa.sa_sigaction = onSigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    setProfTimer(kSampleIntervalUs);
}

void
stopSampler()
{
    setProfTimer(0);
}

/** Load bias and executable segments of the main program. */
struct ExeImage
{
    std::uintptr_t bias = 0;
    std::vector<std::pair<std::uintptr_t, std::uintptr_t>> text;

    bool
    contains(std::uintptr_t pc) const
    {
        for (const auto &[lo, hi] : text) {
            if (pc >= lo && pc < hi)
                return true;
        }
        return false;
    }
};

ExeImage
mainImage()
{
    ExeImage img;
    dl_iterate_phdr(
        [](dl_phdr_info *info, std::size_t, void *data) {
            auto *im = static_cast<ExeImage *>(data);
            im->bias = info->dlpi_addr;
            for (int i = 0; i < info->dlpi_phnum; ++i) {
                const auto &ph = info->dlpi_phdr[i];
                if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X)) {
                    auto lo = info->dlpi_addr + ph.p_vaddr;
                    im->text.emplace_back(lo, lo + ph.p_memsz);
                }
            }
            return 1; // the first object is the main program
        },
        &img);
    return img;
}

// ---------------------------------------------------------------
// Workloads.

/** PR does not use the enhanced capabilities (paper, Section 4.6). */
ScuMode
paperScuMode(Primitive p)
{
    return p == Primitive::Pr ? ScuMode::ScuBasic
                              : ScuMode::ScuEnhanced;
}

const std::vector<std::string> kFig10Datasets{
    "ca", "cond", "delaunay", "human", "kron", "msdoor"};
/** The datasets whose edge arrays exceed the GTX980's 2 MB L2. */
const std::vector<std::string> kSerialDatasets{"human", "kron",
                                               "msdoor"};

/** One finished run of a pass. */
struct RunOut
{
    std::string label;
    std::string system;
    std::string primitive;
    std::string dataset;
    std::string mode;
    bool ok = false;
    bool validated = false;
    std::string error;
    double hostSeconds = -1; ///< span around runPrimitive; serial only
    Tick cycles = 0;
    std::string dump;
};

RunOut
describe(const harness::RunConfig &cfg)
{
    RunOut o;
    o.label = harness::runLabel(cfg);
    o.system = cfg.systemName;
    o.primitive = harness::to_string(cfg.primitive);
    o.dataset = cfg.dataset;
    o.mode = harness::to_string(cfg.mode);
    return o;
}

/** The Figure 10 matrix on the worker pool, memo and disk cache off. */
std::vector<RunOut>
runFig10Pass(std::uint64_t seed, unsigned workers)
{
    auto runs = harness::ExperimentPlan()
                    .systems({"GTX980", "TX1"})
                    .primitives({Primitive::Bfs, Primitive::Sssp,
                                 Primitive::Pr})
                    .datasets(kFig10Datasets)
                    .modesFor([](Primitive p) {
                        return std::vector<ScuMode>{ScuMode::GpuOnly,
                                                    paperScuMode(p)};
                    })
                    .scale(kScale)
                    .seed(seed)
                    .expand();
    std::vector<std::ostringstream> dumps(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        runs[i].cfg.dumpStatsTo = &dumps[i];

    harness::ExecutorOptions opts;
    opts.jobs = workers;
    opts.memoize = false;
    opts.diskCache = false;
    auto res = harness::runPlan(runs, opts);

    std::vector<RunOut> out;
    for (std::size_t i = 0; i < res.records().size(); ++i) {
        const auto &rec = res.records()[i];
        RunOut o = describe(rec.run.cfg);
        o.ok = rec.ok;
        o.error = rec.error;
        o.validated = rec.ok && rec.result.validated;
        o.cycles = rec.result.totalCycles;
        o.dump = dumps[i].str();
        out.push_back(std::move(o));
    }
    return out;
}

/** One serial run, with a span around runPrimitive. */
RunOut
runOne(harness::RunConfig cfg)
{
    const auto &g =
        harness::cachedDataset(cfg.dataset, cfg.scale, cfg.seed);
    std::ostringstream dump;
    cfg.dumpStatsTo = &dump;
    RunOut o = describe(cfg);
    const double t0 = wallNow();
    try {
        auto r = harness::runPrimitive(cfg, g);
        o.ok = true;
        o.validated = r.validated;
        o.cycles = r.totalCycles;
    } catch (const std::exception &e) {
        o.error = e.what();
    }
    o.hostSeconds = wallNow() - t0;
    o.dump = dump.str();
    return o;
}

/**
 * BFS and SSSP on human, kron and msdoor on both systems in one mode,
 * one runPrimitive call after another.
 */
std::vector<RunOut>
runSerialPass(ScuMode mode, std::uint64_t seed)
{
    std::vector<RunOut> out;
    for (Primitive prim : {Primitive::Bfs, Primitive::Sssp}) {
        for (const char *sys : {"GTX980", "TX1"}) {
            for (const auto &ds : kSerialDatasets) {
                harness::RunConfig cfg;
                cfg.systemName = sys;
                cfg.primitive = prim;
                cfg.dataset = ds;
                cfg.mode = mode;
                cfg.scale = kScale;
                cfg.seed = seed;
                out.push_back(runOne(cfg));
            }
        }
    }
    return out;
}

struct Pass
{
    double wall = 0;
    double cpu = 0;
    std::vector<RunOut> runs;
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    unsigned workers = 1;
    unsigned setupReps = 0;
    bool sample = false;
    std::string out;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload fig10|gpu-only|scu-offload "
                 "--seed N --workers K --setup-reps R "
                 "--sample 0|1 --out FILE\n",
                 argv0);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    std::map<std::string, std::string> kv;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k.rfind("--", 0) != 0 || i + 1 >= argc)
            usage(argv[0]);
        kv[k.substr(2)] = argv[++i];
    }
    try {
        for (const auto &[k, v] : kv) {
            if (k == "workload")
                a.workload = v;
            else if (k == "seed")
                a.seed = std::stoull(v);
            else if (k == "workers")
                a.workers = static_cast<unsigned>(std::stoul(v));
            else if (k == "setup-reps")
                a.setupReps = static_cast<unsigned>(std::stoul(v));
            else if (k == "sample")
                a.sample = v == "1";
            else if (k == "out")
                a.out = v;
            else
                usage(argv[0]);
        }
    } catch (const std::exception &) {
        usage(argv[0]);
    }
    if ((a.workload != "fig10" && a.workload != "gpu-only" &&
         a.workload != "scu-offload") ||
        a.workers == 0 || a.out.empty())
        usage(argv[0]);
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const auto &datasets =
        args.workload == "fig10" ? kFig10Datasets : kSerialDatasets;
    // The serial workloads run on the calling thread only.
    const unsigned workers =
        args.workload == "fig10" ? args.workers : 1;

    // Set-up: repeated synthesis for the set-up time, then the
    // process-wide dataset cache every run reads from (timed too).
    std::vector<double> setup;
    for (unsigned r = 0; r < args.setupReps; ++r) {
        double t0 = wallNow();
        for (const auto &ds : datasets)
            graph::makeDataset(ds, kScale, args.seed);
        setup.push_back(wallNow() - t0);
    }
    double t0 = wallNow();
    for (const auto &ds : datasets)
        harness::cachedDataset(ds, kScale, args.seed);
    setup.push_back(wallNow() - t0);

    std::vector<Pass> passes;
    for (bool sampled : {false, true}) {
        if (sampled && !args.sample)
            break;
        if (sampled)
            startSampler();
        Pass p;
        const double w0 = wallNow(), c0 = cpuNow();
        p.runs = args.workload == "fig10"
                     ? runFig10Pass(args.seed, workers)
                     : runSerialPass(args.workload == "gpu-only"
                                         ? ScuMode::GpuOnly
                                         : ScuMode::ScuEnhanced,
                                     args.seed);
        p.wall = wallNow() - w0;
        p.cpu = cpuNow() - c0;
        if (sampled)
            stopSampler();
        passes.push_back(std::move(p));
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::ofstream os(args.out);
    if (!os) {
        std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
        return 1;
    }
    os.precision(17);
    os << "{\"workload\": " << jsonString(args.workload)
       << ", \"seed\": " << args.seed << ", \"workers\": " << workers
       << ", \"scale\": " << kScale
       << ", \"peak_rss_kb\": " << ru.ru_maxrss
       << ", \"dataset_s\": " << setup.back() << ", \"setup_s\": [";
    for (std::size_t i = 0; i < setup.size(); ++i)
        os << (i ? ", " : "") << setup[i];
    os << "],\n\"passes\": [";
    for (std::size_t pi = 0; pi < passes.size(); ++pi) {
        const Pass &p = passes[pi];
        os << (pi ? ",\n" : "\n") << "{\"sampled\": "
           << (pi ? "true" : "false") << ", \"wall_s\": " << p.wall
           << ", \"cpu_s\": " << p.cpu << ", \"runs\": [";
        for (std::size_t i = 0; i < p.runs.size(); ++i) {
            const RunOut &r = p.runs[i];
            os << (i ? ",\n" : "\n") << "{\"label\": "
               << jsonString(r.label)
               << ", \"system\": " << jsonString(r.system)
               << ", \"primitive\": " << jsonString(r.primitive)
               << ", \"dataset\": " << jsonString(r.dataset)
               << ", \"mode\": " << jsonString(r.mode)
               << ", \"ok\": " << (r.ok ? "true" : "false")
               << ", \"validated\": "
               << (r.validated ? "true" : "false")
               << ", \"error\": " << jsonString(r.error)
               << ", \"host_s\": " << r.hostSeconds
               << ", \"cycles\": " << r.cycles
               << ", \"digest\": " << jsonString(hex64(fnv1a(r.dump)))
               << ", \"dump\": " << jsonString(r.dump) << "}";
        }
        os << "]}";
    }
    os << "]";

    if (args.sample) {
        const ExeImage img = mainImage();
        const std::size_t n =
            std::min(sampleCount.load(), kSampleCapacity);
        std::map<std::uintptr_t, std::uint64_t> hist;
        std::uint64_t outside = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (img.contains(sampleBuf[i]))
                ++hist[sampleBuf[i] - img.bias];
            else
                ++outside;
        }
        os << ",\n\"samples\": {\"interval_us\": " << kSampleIntervalUs
           << ", \"taken\": " << sampleCount.load()
           << ", \"lost\": " << sampleCount.load() - n
           << ", \"outside\": " << outside << ", \"pcs\": [";
        bool first = true;
        for (const auto &[off, cnt] : hist) {
            os << (first ? "" : ", ") << "[" << off << ", " << cnt
               << "]";
            first = false;
        }
        os << "]}";
    }
    os << "}\n";
    return os ? 0 : 1;
}
