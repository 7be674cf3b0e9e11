"""Unit tests of the benchmark's own logic (no build, no simulation).

Run from the root of the repository:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

import run  # noqa: E402


FUNCTION_HANDLER = (
    "std::_Function_handler<void (), scusim::alg::BfsRunner::run("
    "scusim::alg::AlgOptions const&)::{lambda()#1}>::_M_invoke("
    "std::_Any_data const&)")


class LayerOfTest(unittest.TestCase):
    def test_module_functions(self):
        self.assertEqual(run.layer_of(
            "scusim::mem::Cache::access(unsigned long, unsigned long, "
            "scusim::mem::AccessKind, unsigned int)"), "mem")
        self.assertEqual(run.layer_of(
            "scusim::gpu::Gpu::buildWarp(scusim::gpu::KernelLaunch "
            "const&, unsigned long, scusim::gpu::Warp&)"), "gpu")
        self.assertEqual(run.layer_of(
            "scusim::harness::(anonymous namespace)::validateBfs("
            "scusim::graph::CsrGraph const&)"), "harness")

    def test_function_handler_counts_toward_the_lambda(self):
        self.assertEqual(run.layer_of(FUNCTION_HANDLER), "alg")

    def test_clone_suffixes(self):
        for suffix in (" [clone .part.0]", " [clone .cold]",
                       " [clone .isra.0] [clone .cold]"):
            self.assertEqual(run.layer_of(
                "scusim::scu::GroupingTable::insert(unsigned long)" +
                suffix), "scu")

    def test_return_type_and_parameters_are_ignored(self):
        self.assertEqual(run.layer_of(
            "scusim::stats::Scalar& scusim::sim::pick<int>("
            "scusim::mem::Cache&)"), "sim")
        self.assertEqual(run.layer_of(
            "std::sort(scusim::mem::Line*, scusim::mem::Line*)"),
            "other")

    def test_templates_over_module_types(self):
        self.assertEqual(run.layer_of(
            "std::vector<scusim::gpu::Warp, std::allocator<"
            "scusim::gpu::Warp> >::_M_realloc_insert(unsigned long)"),
            "gpu")

    def test_operators(self):
        self.assertEqual(run.layer_of(
            "scusim::energy::operator-(scusim::energy::Activity const&,"
            " scusim::energy::Activity const&)"), "energy")
        self.assertEqual(run.layer_of(
            "scusim::trace::operator<<(std::ostream&, int)"), "trace")
        self.assertEqual(run.layer_of(
            "scusim::harness::runPlan(int)::{lambda()#1}::operator()() "
            "const"), "harness")

    def test_outside_modules_is_other(self):
        for name in ("memcpy", "__memmove_avx_unaligned_erms",
                     "operator new(unsigned long)",
                     "scusim::logWarn(std::string const&)",
                     "scusim::store::MappedGraph::graph() const",
                     "(anonymous namespace)::onSigprof(int)"):
            self.assertEqual(run.layer_of(name), "other", name)

    def test_sublayers(self):
        self.assertEqual(run.sublayers_of(
            "scusim::mem::Cache::fill(unsigned long) [clone .part.0]"),
            ["mem.cache"])
        self.assertEqual(run.sublayers_of(
            "scusim::alg::serialDijkstra(scusim::graph::CsrGraph "
            "const&, unsigned int)"), ["alg.serial"])
        self.assertEqual(run.sublayers_of(
            "scusim::mem::MemSystem::access(unsigned long)"), [])


NM_LINES = [
    "0000000000001000 0000000000000100 T scusim::mem::Cache::access("
    "unsigned long)",
    "0000000000001100 0000000000000080 t scusim::gpu::Gpu::buildWarp("
    "int) [clone .part.0]",
    "0000000000002000 0000000000000040 W " + FUNCTION_HANDLER,
    "0000000000003000 0000000000000008 b guard variable for x",
    "0000000000000400 T _start",
]


class SymbolTableTest(unittest.TestCase):
    def setUp(self):
        self.table = run.SymbolTable(NM_LINES)

    def test_lookup(self):
        self.assertIn("Cache::access", self.table.lookup(0x1000))
        self.assertIn("Cache::access", self.table.lookup(0x10ff))
        self.assertIn("buildWarp", self.table.lookup(0x1100))
        self.assertIn("_Function_handler", self.table.lookup(0x2010))

    def test_gaps_and_data_are_unknown(self):
        self.assertIsNone(self.table.lookup(0x500))
        self.assertIsNone(self.table.lookup(0x1180))
        self.assertIsNone(self.table.lookup(0x3000))

    def test_every_sample_lands_in_one_layer(self):
        samples = {"outside": 7, "lost": 1,
                   "pcs": [[0x1010, 5], [0x1110, 3], [0x2000, 2],
                           [0x1180, 4]]}
        layers, subs = run.attribute_samples(samples, self.table)
        self.assertEqual(sum(layers.values()), 7 + 1 + 5 + 3 + 2 + 4)
        self.assertEqual(layers["mem"], 5)
        self.assertEqual(layers["gpu"], 3)
        self.assertEqual(layers["alg"], 2)
        self.assertEqual(layers["other"], 7 + 1 + 4)
        self.assertEqual(subs["mem.cache"], 5)
        self.assertEqual(subs["gpu.buildwarp"], 3)


DUMP_GPU = """\
memsys.requests 100 # transactions entering the L2 side
memsys.dram.reads 30 # line reads serviced
memsys.dram.writes 5 # line writes serviced
memsys.l2.hits 60 # accesses serviced by this level
memsys.l2.misses 40 # accesses forwarded downstream
memsys.l2.mshr_stall_cycles 1000 # cycles accesses waited
gpu.l1.hits 8 # accesses serviced by this level
gpu.l1.misses 2 # accesses forwarded downstream
gpu.l1.mshr_stall_cycles 10 # cycles accesses waited
gpu.l1.hits 6 # accesses serviced by this level
gpu.l1.misses 4 # accesses forwarded downstream
gpu.sm0.issued_instrs 500 # warp instructions issued
gpu.sm1.issued_instrs 1.5e+03 # warp instructions issued
"""

DUMP_SCU = DUMP_GPU + """\
scu.ops 4 # SCU operations executed
scu.elements 200 # pipeline element slots
scu.filtered 50 # duplicates removed by filtering
scu.busy_cycles 300 # cycles the SCU was active
"""


class CountsTest(unittest.TestCase):
    def test_modelled_counts(self):
        c = run.modelled_counts([{"dump": DUMP_GPU, "cycles": 1000},
                                 {"dump": DUMP_SCU, "cycles": 3000}])
        self.assertEqual(c["sim.cycles"], 4000)
        self.assertEqual(c["gpu.issued_instrs"], 4000)
        self.assertEqual(c["mem.l1_accesses"], 40)
        self.assertEqual(c["mem.l2_accesses"], 200)
        self.assertAlmostEqual(c["mem.l2_hit_rate"], 0.6)
        self.assertEqual(c["mem.dram_lines"], 70)
        self.assertEqual(c["mem.mshr_stall_cycles"], 2020)
        self.assertEqual(c["scu.ops"], 4)
        self.assertEqual(c["scu.elements"], 200)
        self.assertEqual(c["scu.busy_cycles"], 300)
        self.assertAlmostEqual(c["scu.filter_ratio"], 0.25)

    def test_no_scu_means_zero_elements_and_ratio(self):
        c = run.modelled_counts([{"dump": DUMP_GPU, "cycles": 1}])
        self.assertEqual(c["scu.elements"], 0)
        self.assertEqual(c["scu.filter_ratio"], 0)

    def test_per_work_ratios(self):
        counts = {"gpu.issued_instrs": 4000, "mem.l1_accesses": 40,
                  "mem.l2_accesses": 160, "scu.elements": 0,
                  "sim.cycles": 2e9}
        self_s = {"gpu": 2e-3, "mem": 1e-3, "scu": 0.5, "sim": 1.0}
        w = run.per_work(self_s, counts)
        self.assertAlmostEqual(w["gpu.ns_per_instr"], 500)
        self.assertAlmostEqual(w["mem.ns_per_access"], 5000)
        self.assertEqual(w["scu.ns_per_element"], 0)
        self.assertAlmostEqual(w["sim.ns_per_cycle"], 0.5)

    def test_paper_errors(self):
        runs = []
        for system, cycles in (("GTX980", 137), ("TX1", 116)):
            for ds in ("a", "b"):
                runs.append({"system": system, "primitive": "BFS",
                             "dataset": ds, "mode": "gpu-only",
                             "cycles": cycles})
                runs.append({"system": system, "primitive": "BFS",
                             "dataset": ds, "mode": "scu-enhanced",
                             "cycles": 100})
        errs = run.paper_errors(runs)
        self.assertAlmostEqual(errs["GTX980"][0], 0.0)
        self.assertAlmostEqual(errs["TX1"][0], 0.5)
        self.assertEqual(errs["TX1"][2], 2)


def fake_runs(workload):
    return [{"label": "R%d" % i, "ok": True, "validated": True,
             "error": "", "host_s": 0.5 + i, "cycles": 1000,
             "digest": "%016x" % i, "dump": DUMP_SCU}
            for i in range(run.RUNS_PER_PASS[workload])]


def fake_raw(workload, *walls):
    """A measurement output with one pass per wall time; a second pass is
    the sampled one."""
    raw = {"workload": workload, "workers": 1, "peak_rss_kb": 2048,
           "dataset_s": 0.3, "setup_s": [0.2, 0.3],
           "passes": [{"sampled": i > 0, "wall_s": w, "cpu_s": w,
                       "runs": fake_runs(workload)}
                      for i, w in enumerate(walls)]}
    if len(walls) > 1:
        raw["samples"] = {"outside": 3, "lost": 0,
                          "pcs": [[0x1010, 5], [0x2000, 2]]}
    return raw


class MetricsTest(unittest.TestCase):
    def test_end_to_end(self):
        raws = [fake_raw("gpu-only", w) for w in (2.0, 4.0, 3.0)]
        raws[1]["setup_s"] = [0.5, 0.6]
        m = run.end_to_end(raws)
        self.assertEqual(m["wall_s"], {"value": 3.0, "unit": "s"})
        self.assertAlmostEqual(m["sim_mcycles_per_s"]["value"],
                               12000 / 3.0 / 1e6)
        self.assertEqual(m["setup_s"]["value"], 0.3)
        self.assertEqual(m["peak_rss_mb"]["value"], 2.0)

    def test_per_layer(self):
        m, layers = run.per_layer(fake_raw("scu-offload", 10.0, 11.0),
                                  run.SymbolTable(NM_LINES), 0.0)
        self.assertEqual(sum(layers.values()), 10)
        self.assertAlmostEqual(m["mem.self_s"]["value"], 5.5)
        self.assertAlmostEqual(m["alg.self_s"]["value"], 2.2)
        self.assertAlmostEqual(m["other.self_s"]["value"], 3.3)
        self.assertAlmostEqual(m["probe.overhead"]["value"], 0.1)
        self.assertAlmostEqual(m["harness.run_s.p50"]["value"], 6.0)
        self.assertAlmostEqual(m["harness.run_s.max"]["value"], 11.5)
        self.assertAlmostEqual(m["harness.pool_util"]["value"], 1.0)

    def test_metric_names_match_the_contract(self):
        m = run.end_to_end([fake_raw("fig10", 1.0)])
        pl, _ = run.per_layer(fake_raw("fig10", 1.0, 1.0),
                              run.SymbolTable(NM_LINES), 0.0)
        m.update(pl)
        for name in m:
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
            self.assertRegex(m[name]["unit"], r"^[A-Za-z0-9_/%.-]+$")
        run.check_names(m)
        with self.assertRaises(ValueError):
            run.check_names({"bad name": {}})

    def test_metrics_are_the_ones_benchmark_json_declares(self):
        with open(os.path.join(run.REPO, "BENCHMARK.json")) as f:
            spec = json.load(f)
        e2e = run.end_to_end([fake_raw("gpu-only", 1.0)])
        pl, _ = run.per_layer(fake_raw("gpu-only", 1.0, 1.0),
                              run.SymbolTable(NM_LINES), 0.0)
        for declared, emitted in ((spec["end_to_end"], e2e),
                                  (spec["per_layer"], pl)):
            self.assertEqual({m["name"]: m["unit"] for m in declared},
                             {k: v["unit"] for k, v in emitted.items()})

    def test_check_runs_counts_changed_digests(self):
        raws = [fake_raw("gpu-only", 1.0), fake_raw("gpu-only", 1.0)]
        runs = raws[1]["passes"][0]["runs"]
        runs[3]["digest"] = "changed"
        runs[4]["validated"] = False
        del runs[5]
        attempted, failed, _ = run.check_runs(raws, "gpu-only")
        self.assertEqual(attempted, 23)
        self.assertEqual(failed, 3)


if __name__ == "__main__":
    unittest.main()
