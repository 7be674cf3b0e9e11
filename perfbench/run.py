#!/usr/bin/env python3
"""Benchmark of the scusim simulator: host time per modelled run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fig10|gpu-only|scu-offload \
        [--seed N] [--seconds S] [--trace 0|1]

The script builds perfbench_measure (this directory's CMake package,
which compiles the simulator from ../src), runs the workload and prints
one result line of JSON as the last line of its standard output.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it
makes one process with an untraced and then a PC-sampled pass and
reports the per-layer metrics. The exit code is non-zero when a run
fails validation or its stats dump changes between passes. README.md
in this directory says why each workload exists.
"""

import argparse
import bisect
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

WORKLOADS = ("fig10", "gpu-only", "scu-offload")
RUNS_PER_PASS = {"fig10": 72, "gpu-only": 12, "scu-offload": 12}
MAX_WORKERS = 4
# Timed makeDataset() rounds per process, besides the timed
# cachedDataset() build every process does.
SETUP_REPS = 1

# The paper's mean SCU speedups over the Figure 10 matrix.
PAPER_SPEEDUP = {"GTX980": 1.37, "TX1": 2.32}

LAYERS = ("graph", "harness", "alg", "gpu", "mem", "scu", "sim",
          "energy", "stats", "trace")
LAYER_RE = re.compile(r"scusim::(%s)::" % "|".join(LAYERS))

# Sub-layers: a sample counts toward one when the sampled function's
# qualified name matches. They are subsets of their parent layer.
SUBLAYERS = (
    ("gpu.buildwarp", re.compile(r"scusim::gpu::Gpu::buildWarp\b")),
    ("scu.hash", re.compile(
        r"scusim::scu::(HashTableBase|UniqueFilterTable|"
        r"BestCostFilterTable|GroupingTable)\b")),
    ("mem.cache", re.compile(r"scusim::mem::Cache\b")),
    ("mem.dram", re.compile(r"scusim::mem::Dram\b")),
    ("mem.coalescer", re.compile(
        r"scusim::mem::(detail::)?(appendMappedUnique|appendUniqueAddrs|"
        r"coalesceLanes|MembershipWord)\b")),
    ("alg.serial", re.compile(r"scusim::alg::serial\w*\b")),
)

# Every environment knob of the simulator changes what is measured:
# the run cache and dataset store serve work instead of doing it, the
# scheduler and SM-path switches pick other code, the profiler and
# tracing add work, SCUSIM_JOBS and SCUSIM_SCALE change the workload.
FORBIDDEN_ENV_PREFIX = "SCUSIM_"

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

OPERATOR_RE = re.compile(
    r"operator(\(\)|\[\]|<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|<|>)")


# ------------------------------------------------------------------
# Layer attribution of sampled functions.

def qualified_name(demangled):
    """The function's scope-qualified name from a demangled symbol:
    drops the return type, the parameter list and clone suffixes, and
    keeps template arguments (where lambdas of std::function live)."""
    s = demangled.replace("(anonymous namespace)", "{anon}")
    s = OPERATOR_RE.sub("operator@", s)
    depth = 0
    last_space = -1
    for i, c in enumerate(s):
        if c in "<{[":
            depth += 1
        elif c in ">}]":
            depth -= 1
        elif depth == 0 and c == "(":
            return s[last_space + 1:i]
        elif depth == 0 and c == " ":
            last_space = i
    return s[last_space + 1:] if depth == 0 else s


def layer_of(demangled):
    """The module layer a sampled function counts toward: the first
    scusim::<module>:: scope in its qualified name, else "other"."""
    m = LAYER_RE.search(qualified_name(demangled))
    return m.group(1) if m else "other"


def sublayers_of(demangled):
    q = qualified_name(demangled)
    return [name for name, rx in SUBLAYERS if rx.search(q)]


class SymbolTable:
    """Function symbols of the measurement binary, as `nm -C -S` lists
    them, for address -> name lookup."""

    def __init__(self, nm_lines):
        syms = []
        for line in nm_lines:
            parts = line.split(" ", 3)
            if len(parts) != 4 or parts[2] not in ("t", "T", "w", "W"):
                continue
            try:
                addr, size = int(parts[0], 16), int(parts[1], 16)
            except ValueError:
                continue
            syms.append((addr, size, parts[3]))
        syms.sort()
        self.addrs = [s[0] for s in syms]
        self.syms = syms

    @classmethod
    def from_binary(cls, path):
        out = subprocess.run(["nm", "-C", "-S", "--defined-only", path],
                             check=True, capture_output=True, text=True)
        return cls(out.stdout.splitlines())

    def lookup(self, offset):
        i = bisect.bisect_right(self.addrs, offset) - 1
        if i < 0:
            return None
        addr, size, name = self.syms[i]
        return name if offset < addr + size else None


def attribute_samples(samples, table):
    """Sample counts per layer and sub-layer. Samples outside the
    binary (libc, libstdc++, the kernel) and outside any symbol are
    "other", so the layers plus "other" hold every sample."""
    layers = dict.fromkeys(LAYERS + ("other",), 0)
    subs = dict.fromkeys((n for n, _ in SUBLAYERS), 0)
    layers["other"] += samples["outside"] + samples["lost"]
    for offset, count in samples["pcs"]:
        name = table.lookup(offset)
        if name is None:
            layers["other"] += count
            continue
        layers[layer_of(name)] += count
        for sub in sublayers_of(name):
            subs[sub] += count
    return layers, subs


# ------------------------------------------------------------------
# Modelled work, parsed from each run's stats dump.

DUMP_COUNTERS = (
    ("gpu.issued_instrs", re.compile(r"(^|\.)sm\d+\.issued_instrs$")),
    ("l1.hits", re.compile(r"(^|\.)l1\.hits$")),
    ("l1.misses", re.compile(r"(^|\.)l1\.misses$")),
    ("l2.hits", re.compile(r"(^|\.)l2\.hits$")),
    ("l2.misses", re.compile(r"(^|\.)l2\.misses$")),
    ("dram.lines", re.compile(r"(^|\.)dram\.(reads|writes)$")),
    ("mshr_stall_cycles", re.compile(r"\.mshr_stall_cycles$")),
    ("scu.ops", re.compile(r"(^|\.)scu\.ops$")),
    ("scu.elements", re.compile(r"(^|\.)scu\.elements$")),
    ("scu.filtered", re.compile(r"(^|\.)scu\.filtered$")),
    ("scu.busy_cycles", re.compile(r"(^|\.)scu\.busy_cycles$")),
)


def parse_dump(text):
    """Sum the counters of one stats dump ("path value # desc")."""
    totals = dict.fromkeys((n for n, _ in DUMP_COUNTERS), 0.0)
    for line in text.splitlines():
        fields = line.split()
        if len(fields) < 2:
            continue
        for name, rx in DUMP_COUNTERS:
            if rx.search(fields[0]):
                totals[name] += float(fields[1])
    return totals


def ratio(num, den):
    return num / den if den else 0.0


def modelled_counts(runs):
    t = dict.fromkeys((n for n, _ in DUMP_COUNTERS), 0.0)
    for r in runs:
        for k, v in parse_dump(r["dump"]).items():
            t[k] += v
    l2 = t["l2.hits"] + t["l2.misses"]
    return {
        "sim.cycles": float(sum(r["cycles"] for r in runs)),
        "gpu.issued_instrs": t["gpu.issued_instrs"],
        "mem.l1_accesses": t["l1.hits"] + t["l1.misses"],
        "mem.l2_accesses": l2,
        "mem.l2_hit_rate": ratio(t["l2.hits"], l2),
        "mem.dram_lines": t["dram.lines"],
        "mem.mshr_stall_cycles": t["mshr_stall_cycles"],
        "scu.ops": t["scu.ops"],
        "scu.elements": t["scu.elements"],
        "scu.busy_cycles": t["scu.busy_cycles"],
        "scu.filter_ratio": ratio(t["scu.filtered"], t["scu.elements"]),
    }


def per_work(self_s, counts):
    """Host nanoseconds per unit of modelled work, per layer."""
    accesses = counts["mem.l1_accesses"] + counts["mem.l2_accesses"]
    return {
        "gpu.ns_per_instr": ratio(1e9 * self_s["gpu"],
                                  counts["gpu.issued_instrs"]),
        "mem.ns_per_access": ratio(1e9 * self_s["mem"], accesses),
        "scu.ns_per_element": ratio(1e9 * self_s["scu"],
                                    counts["scu.elements"]),
        "sim.ns_per_cycle": ratio(1e9 * self_s["sim"],
                                  counts["sim.cycles"]),
    }


def paper_errors(runs):
    """|mean modelled SCU speedup / paper speedup - 1| per system,
    over the system's (primitive, dataset) pairs of one fig10 pass."""
    base, scu = {}, {}
    for r in runs:
        key = (r["system"], r["primitive"], r["dataset"])
        (base if r["mode"] == "gpu-only" else scu)[key] = r["cycles"]
    out = {}
    for system, paper in PAPER_SPEEDUP.items():
        speedups = [base[k] / scu[k] for k in base
                    if k[0] == system and scu.get(k)]
        if speedups:
            mean = statistics.mean(speedups)
            out[system] = (abs(mean / paper - 1), mean, len(speedups))
    return out


# ------------------------------------------------------------------
# Correctness of one measurement output.

def check_runs(raws, workload):
    """(attempted, failed, digests) over measurement outputs of one seed: a
    run fails when it threw, when it did not validate against its
    serial reference, or when its stats dump differs from the first
    pass's dump of the same run."""
    digests = {r["label"]: r["digest"]
               for r in raws[0]["passes"][0]["runs"]}
    attempted = failed = 0
    for p in (p for raw in raws for p in raw["passes"]):
        failed += max(RUNS_PER_PASS[workload] - len(p["runs"]), 0)
        for r in p["runs"]:
            attempted += 1
            if not (r["ok"] and r["validated"] and
                    digests.get(r["label"]) == r["digest"]):
                failed += 1
                print("perfbench: FAILED %s: %s" %
                      (r["label"], r["error"] or "invalid or changed"),
                      file=sys.stderr)
    return max(attempted, 1), failed, digests


# ------------------------------------------------------------------
# Metrics.

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raws):
    """Medians over the measurement processes of one run."""
    passes = [r["passes"][0] for r in raws]
    return {
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes),
                         "s"),
        "sim_mcycles_per_s": metric(statistics.median(
            sum(x["cycles"] for x in p["runs"]) / p["wall_s"] / 1e6
            for p in passes), "Mcycles/s"),
        "setup_s": metric(statistics.median(
            t for r in raws for t in r["setup_s"]), "s"),
        "peak_rss_mb": metric(statistics.median(
            r["peak_rss_kb"] for r in raws) / 1024.0, "MB"),
    }


def per_layer(raw, table, fail_frac):
    """Metrics of one measurement process that made an untraced and then a
    sampled pass."""
    untraced, p = raw["passes"]
    samples = raw["samples"]
    layers, subs = attribute_samples(samples, table)
    total = sum(layers.values())
    # Samples count CPU time at the timer's granularity; scale their
    # shares by the CPU time the pass actually used.
    per_sample = ratio(p["cpu_s"], total)
    self_s = {k: v * per_sample for k, v in layers.items()}
    counts = modelled_counts(p["runs"])
    spans = [r["host_s"] for r in p["runs"] if r["host_s"] >= 0]

    m = {}
    for layer in LAYERS + ("other",):
        m[layer + ".self_s"] = metric(self_s[layer], "s")
    for sub, n in subs.items():
        m[sub + ".self_s"] = metric(n * per_sample, "s")
    m["graph.dataset_s"] = metric(raw["dataset_s"], "s")
    for k, v in counts.items():
        unit = "ratio" if k.endswith(("_rate", "_ratio")) else "count"
        m[k] = metric(v, unit)
    for k, v in per_work(self_s, counts).items():
        m[k] = metric(v, "ns")
    m["harness.run_s.p50"] = metric(
        statistics.median(spans) if spans else 0.0, "s")
    m["harness.run_s.max"] = metric(max(spans) if spans else 0.0, "s")
    m["harness.pool_util"] = metric(
        ratio(p["cpu_s"], p["wall_s"] * raw["workers"]), "ratio")
    m["probe.overhead"] = metric(
        p["wall_s"] / untraced["wall_s"] - 1, "ratio")
    m["probe.samples"] = metric(total, "count")
    m["fail_frac"] = metric(fail_frac, "ratio")
    return m, layers


def check_names(metrics):
    bad = [k for k in metrics if not NAME_RE.fullmatch(k)]
    if bad:
        raise ValueError("bad metric names: %s" % bad)


# ------------------------------------------------------------------
# Build and run.

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(REPO, target, "perfbench")


def workers():
    return min(MAX_WORKERS, len(os.sched_getaffinity(0)))


def build(bdir):
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target",
                    "perfbench_measure", "-j", str(workers())],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "perfbench_measure")


def measure(binary, out_dir, args, tag, setup_reps, sample):
    out = os.path.join(out_dir, "%s.seed%d.%s.json" %
                       (args.workload, args.seed, tag))
    cmd = [binary, "--workload", args.workload,
           "--seed", str(args.seed), "--workers", str(workers()),
           "--setup-reps", str(setup_reps),
           "--sample", "1" if sample else "0", "--out", out]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    with open(out) as f:
        return json.load(f)


def summary_line(name, m):
    print("%-28s %14.6g %s" % (name, m["value"], m["unit"]))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    knobs = sorted(k for k in os.environ
                   if k.startswith(FORBIDDEN_ENV_PREFIX))
    if knobs:
        print("perfbench: refusing to run with %s set: each changes "
              "the program being measured" % ", ".join(knobs),
              file=sys.stderr)
        return 2

    bdir = build_dir()
    # The compiler's and the measurement binary's temporary files stay
    # in the build tree too.
    os.environ["TMPDIR"] = os.path.join(bdir, "tmp")
    out_dir = os.path.join(bdir, "out")
    for d in (os.environ["TMPDIR"], out_dir):
        os.makedirs(d, exist_ok=True)
    binary = build(bdir)

    if args.trace == 0:
        # Whole processes are the unit of repetition: on a shared host
        # the speed of one process varies more than that of the passes
        # inside it.
        raws = []
        start = time.monotonic()
        while not raws or time.monotonic() - start < args.seconds:
            raws.append(measure(binary, out_dir, args,
                                "e2e%d" % len(raws), SETUP_REPS, False))
        attempted, failed, _ = check_runs(raws, args.workload)
        metrics = end_to_end(raws)
        for k, m in metrics.items():
            summary_line(k, m)
        summary_line("fail_frac", metric(failed / attempted, "ratio"))
        if args.workload == "fig10":
            for system, (err, mean, n) in paper_errors(
                    raws[0]["passes"][0]["runs"]).items():
                summary_line("paper_err." + system,
                             metric(err, "ratio"))
                print("  (mean modelled SCU speedup %.3fx over %d "
                      "cells; paper %.2fx)" %
                      (mean, n, PAPER_SPEEDUP[system]))
    else:
        raw = measure(binary, out_dir, args, "traced", 0, True)
        attempted, failed, digests = check_runs([raw], args.workload)
        table = SymbolTable.from_binary(binary)
        metrics, layers = per_layer(raw, table, failed / attempted)
        digest_file = os.path.join(out_dir, "%s.seed%d.digests.txt" %
                                   (args.workload, args.seed))
        with open(digest_file, "w") as f:
            for label, d in sorted(digests.items()):
                f.write("%s %s\n" % (d, label))
        total = sum(layers.values())
        for k, m in metrics.items():
            summary_line(k, m)
        print("sample shares: " + ", ".join(
            "%s %.1f%%" % (k, 100.0 * v / total)
            for k, v in sorted(layers.items(), key=lambda kv: -kv[1])
            if v))
        print("stats digests (FNV-1a per run): " + digest_file)

    check_names(metrics)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
