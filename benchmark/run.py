#!/usr/bin/env python3
"""Host-time benchmark of the GAMMA engine: build, generate, run, check.

One command builds benchmark/ (which compiles ../src), writes each
workload's inputs from the seed, runs every workload in its own process,
checks the results against the CPU oracles, prints every metric with its
unit and writes a results JSON that benchmark/compare.py reads.

    python3 benchmark/run.py                  # every workload, untraced
    python3 benchmark/run.py --trace 1        # ... plus the traced runs
    python3 benchmark/run.py --smoke          # quick plumbing check
    python3 benchmark/run.py --workload kcl-CL --seed 8 --seconds 16 --trace 0

With --workload the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Everything the benchmark writes goes under build-benchmark/.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
OBSERVERS = ["command_log", "timeline", "plan_profiler", "adaptivity_audit",
             "metrics_sampler", "sanitizer"]
# Workloads whose passes run observers; only their traced runs measure
# each observer alone (the ablation).
OBSERVED = {"sm-CL8-observed"}
THREADED = {"kcl-CL-mt"}
THREADED_HOST_THREADS = 2  # kThreadedHostThreads in gamma_benchmark.cc
ABLATION_REPS = 3
DRIVER_TIMEOUT_S = 170
SCHEMA = "gamma.benchmark.results.v1"


class BenchError(Exception):
    """A failure that must end the run without printing a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd, timeout, log_path=None):
    """Runs cmd from the checkout root; raises BenchError if it fails."""
    out = open(log_path, "w") if log_path else subprocess.DEVNULL
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT if log_path else None,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out after {timeout}s: {' '.join(cmd)}") from e
    finally:
        if log_path:
            out.close()
    if proc.returncode != 0:
        detail = ""
        if log_path:
            detail = "\n" + Path(log_path).read_text()[-4000:]
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}{detail}")


# -- Build ---------------------------------------------------------------------

def cache_value(build_dir, key):
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        return None
    m = re.search(rf"^{key}:[A-Z]+=(.*)$", cache.read_text(), re.M)
    return m.group(1) if m else None


def build(build_dir):
    """Configures a Release tree on first use and builds the driver."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError("no src/ next to benchmark/: nothing to build")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    build_dir.mkdir(parents=True, exist_ok=True)
    if cache_value(build_dir, "CMAKE_BUILD_TYPE") is None:
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"], 300,
                    build_dir / "configure.log")
    build_type = cache_value(build_dir, "CMAKE_BUILD_TYPE")
    if build_type != "Release":
        raise BenchError(f"{build_dir} is a '{build_type}' build; timings "
                         "need Release")
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", str(build_dir), "--target",
                 "gamma_benchmark", "-j", jobs], 850, build_dir / "build.log")
    return build_dir / "gamma_benchmark"


# -- Driver processes ----------------------------------------------------------

def generate(driver, workload, seed, input_dir):
    input_dir.mkdir(parents=True, exist_ok=True)
    run_checked([str(driver), "gen", "--workload", workload, "--seed",
                 str(seed), "--dir", str(input_dir)], 120)


def drive(driver, workload, input_dir, out, *extra):
    run_checked([str(driver), "run", "--workload", workload, "--dir",
                 str(input_dir), "--out", str(out), *extra], DRIVER_TIMEOUT_S)
    return json.loads(Path(out).read_text())


def twin_threads(workload):
    """Host threads of the executor twin: serial for a threaded workload."""
    return 1 if workload in THREADED else THREADED_HOST_THREADS


# -- Metrics -------------------------------------------------------------------

# Seconds the driver's reference workload takes on the quiet 4-vCPU Intel
# Xeon (2.1 GHz) test machine. Timings are reported at that machine speed.
#
# Other tenants of a shared machine slow every instruction, by up to 1.7x
# for seconds to minutes at a time: on the test machine, run medians of
# the raw pass time spread by 14-40% over ten seeds. The driver runs a
# fixed reference workload before the first timed pass and after every
# one, and a slowdown shows in both, so a pass measured in reference
# workloads spreads by 1-12% instead (see README.md).
REFERENCE_S = 0.085


def timing(scaled, unit, raw, reference):
    """The median of a run's timed samples, already scaled to REFERENCE_S,
    with their quartiles (statistics.quantiles, n=4) and count; the raw
    median and the reference median go beside them."""
    if len(scaled) >= 2:
        p25, _, p75 = statistics.quantiles(scaled, n=4)
    else:
        p25 = p75 = scaled[0]
    return {"value": statistics.median(scaled), "unit": unit, "p25": p25,
            "p75": p75, "n": len(scaled),
            "raw_median": statistics.median(raw),
            "reference_s": statistics.median(reference)}


def pass_timing(doc):
    """Each untraced timed pass over the mean of the references run just
    before and just after it, times REFERENCE_S."""
    ref = doc["reference_s"]
    loop = [p for p in doc["passes"] if p["config"] == "workload"]
    raw, scaled = [], []
    for i, p in enumerate(loop):
        if p["traced"]:
            continue
        raw.append(p["wall_s"])
        scaled.append(p["wall_s"] * 2 * REFERENCE_S / (ref[i] + ref[i + 1]))
    return timing(scaled, "s", raw, ref)


def setup_timing(doc):
    """The set-up repetitions, which run beside the passes, scaled by the
    median reference of the run."""
    raw, ref = doc["setup"]["setup_s"], doc["reference_s"]
    scale = REFERENCE_S / statistics.median(ref)
    return timing([v * scale for v in raw], "s", raw, ref)


def exact(value, unit):
    return {"value": value, "unit": unit, "p25": value, "p75": value, "n": 1}


def walls(doc, config="workload"):
    """Wall times of the untraced passes run with `config`."""
    return [p["wall_s"] for p in doc["passes"]
            if p["config"] == config and not p["traced"]]


def end_to_end(doc):
    c = doc["counters"]
    return {
        "pass_s": pass_timing(doc),
        "setup_s": setup_timing(doc),
        "peak_rss_mib": exact(doc["peak_rss_mib"], "MiB"),
        "sim_ms": exact(c["sim_ms"], "ms"),
        "sim_peak_mib": exact(c["sim_peak_mib"], "MiB"),
        "error_rate": exact(doc["failed"] / doc["attempted"], "fraction"),
    }


def span_totals(doc):
    """Sums span durations and self times per pass.

    Returns ({pass: {name: seconds}}, {pass: self seconds}, {name: [setup
    span seconds]}). A span's self time is its duration minus the time its
    children cover; children never overlap, so that is the duration minus
    their sum. Setup spans carry pass -1.
    """
    spans = doc["spans"]
    child = [0] * len(spans)
    for _name, parent, _q, _p, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    totals, selfs, setup = {}, {}, {}
    for i, (name, _parent, _q, p, start, end) in enumerate(spans):
        seconds = (end - start) * 1e-9
        if p < 0:
            setup.setdefault(name, []).append(seconds)
            continue
        by_name = totals.setdefault(p, {})
        by_name[name] = by_name.get(name, 0.0) + seconds
        selfs[p] = selfs.get(p, 0.0) + (end - start - child[i]) * 1e-9
    return totals, selfs, setup


def per_layer(doc, twin):
    """Per-layer metrics of one traced workload process and its twin."""
    c = doc["counters"]
    traced = [i for i, p in enumerate(doc["passes"]) if p["traced"]]
    if not traced:
        raise BenchError("traced run recorded no traced pass")
    totals, selfs, setup = span_totals(doc)
    wall = {i: doc["passes"][i]["wall_s"] for i in traced}

    def span_s(name):
        """Median over traced passes of the pass's summed `name` spans."""
        return statistics.median(totals[i].get(name, 0.0) for i in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    m["graph.load_s"] = statistics.median(setup["graph.load"])
    m["graph.edge_index_s"] = statistics.median(setup["graph.edge_index"])
    m["gpusim.device_init_s"] = span_s("gpusim.device_init")
    m["gpusim.teardown_s"] = span_s("gpusim.teardown")
    m["gpusim.kernel_launches"] = c["kernel_launches"]
    m["gpusim.warp_tasks"] = c["warp_tasks"]
    m["core.execute_s"] = span_s("core.execute")
    m["gpusim.warp_tasks_per_s"] = ratio(c["warp_tasks"], m["core.execute_s"])
    m["gpusim.um_hit_ratio"] = ratio(
        c["um_page_hits"], c["um_page_hits"] + c["um_page_faults"])
    m["gpusim.um_page_faults"] = c["um_page_faults"]
    m["gpusim.zc_transactions"] = c["zc_transactions"]
    m["gpusim.pcie_bytes"] = (c["um_migrated_bytes"] + c["zc_bytes"] +
                              c["explicit_h2d_bytes"] + c["explicit_d2h_bytes"])
    m["gpusim.pool_waste_ratio"] = ratio(c["pool_blocks_wasted"],
                                         c["pool_block_requests"])
    for phase in ("prepare", "init-table", "vertex-extension",
                  "edge-extension", "aggregation", "filtering"):
        key = "gpusim.phase." + phase.replace("-", "_") + "_sim_ms"
        m[key] = c["phase_sim_ms"].get(phase, 0.0)
    m["core.prepare_s"] = span_s("core.prepare")
    m["core.compile_s"] = span_s("core.compile")
    m["core.verify_s"] = span_s("core.verify")
    m["core.verify_obligations"] = c["verify_obligations"]
    m["core.execute_share"] = statistics.median(
        ratio(totals[i].get("core.execute", 0.0), wall[i]) for i in traced)
    m["core.extension_candidates"] = c["extension_candidates"]
    m["core.extension_selectivity"] = ratio(c["extension_results"],
                                            c["extension_candidates"])
    m["core.plan.worst_q_error"] = c["worst_q_error"]
    m["core.plan.imbalance"] = c["plan_imbalance"]
    none = walls(doc, "none")
    for name in OBSERVERS:
        alone = walls(doc, name)
        m[f"observer.{name}.overhead_s"] = (min(alone) - min(none)
                                            if alone and none else 0.0)
    m["observer.analyze_s"] = span_s("observer.analyze")
    m["observer.render_s"] = span_s("observer.render")
    m["observer.render_mb"] = c["render_bytes"] / 1e6
    m["observer.command_records"] = c["command_records"]
    m["observer.timeline_events"] = c["timeline_events"]
    m["observer.dropped"] = c["observer_dropped"]
    serial, threaded = (doc, twin) if doc["host_threads"] == 1 else (twin, doc)
    m["executor.speedup"] = ratio(min(walls(serial)), min(walls(threaded)))
    own = [p for p in doc["passes"] if p["config"] == "workload"]
    m["executor.cpu_per_wall"] = ratio(sum(p["cpu_s"] for p in own),
                                       sum(p["wall_s"] for p in own))
    m["executor.rss_over_serial_mib"] = (threaded["peak_rss_mib"] -
                                         serial["peak_rss_mib"])
    # Passes 2k and 2k+1 are one traced and one untraced pass, in the
    # order T U U T, so a steady drift of the machine's speed cancels.
    shares = []
    for a, b in zip(own[0::2], own[1::2]):
        t, u = (a, b) if a["traced"] else (b, a)
        shares.append(ratio(t["wall_s"] - u["wall_s"], u["wall_s"]))
    m["trace.overhead_share"] = statistics.median(shares)
    spans_per_pass = sum(1 for s in doc["spans"] if s[3] >= 0) / len(traced)
    m["trace.span_cost_share"] = ratio(doc["span_cost_s"] * spans_per_pass,
                                       min(walls(doc)))
    m["trace.span_coverage"] = statistics.median(
        ratio(selfs[i], wall[i]) for i in traced)
    return {k: {"value": float(v), "unit": UNITS[k]} for k, v in m.items()}


# -- Workload runs -------------------------------------------------------------

def passes(seconds, smoke, min_passes, smoke_passes):
    """Driver arguments for the timed passes: `seconds` long and at least
    `min_passes`, or exactly `smoke_passes` at reduced size."""
    if smoke:
        n = str(smoke_passes)
        return ["--seconds", "0", "--min-passes", n, "--max-passes", n,
                "--smoke"]
    return ["--seconds", str(seconds), "--min-passes", str(min_passes)]


def untraced_run(driver, workload, input_dir, work, seconds, smoke):
    return drive(driver, workload, input_dir, work / f"{workload}.json",
                 *passes(seconds, smoke, 3, 1))


def traced_run(driver, workload, input_dir, work, seconds, smoke):
    """The traced process (alternating traced/untraced passes, plus the
    observer ablation on an observed workload) and its executor twin."""
    reps = 1 if smoke else ABLATION_REPS if workload in OBSERVED else 0
    doc = drive(driver, workload, input_dir, work / f"{workload}.trace.json",
                "--trace", "--ablation-reps", str(reps),
                *passes(seconds, smoke, 4, 2))
    twin = drive(driver, workload, input_dir, work / f"{workload}.twin.json",
                 "--host-threads", str(twin_threads(workload)),
                 *passes(seconds / 2, smoke, 3, 1))
    if twin["sim_digest"] != doc["sim_digest"]:
        # Host threads must never change a simulated result.
        twin["failed"] += twin["queries"]
        twin["errors"].append("simulated results differ between "
                              f"{doc['host_threads']} and "
                              f"{twin['host_threads']} host threads")
    return doc, twin


def outcome(docs):
    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    for d in docs:
        for e in d["errors"]:
            log(f"  FAIL {d['workload']}: {e}")
    return attempted, failed


def print_metrics(workload, metrics):
    for name, m in metrics.items():
        spread = ""
        if m.get("n", 1) > 1:
            spread = (f"  (p25 {m['p25']:.6g}, p75 {m['p75']:.6g}, "
                      f"n {m['n']})")
        print(f"{workload:16s} {name:34s} {m['value']:14.6g} "
              f"{m['unit']}{spread}")


# -- Results document ----------------------------------------------------------

def capture(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=20, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def metadata(build_dir, docs, seed, seconds, smoke, load_before):
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER") or "c++"
    return {
        "git_revision": capture(["git", "rev-parse", "HEAD"]),
        "compiler": capture([compiler, "--version"]).splitlines()[0],
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "nproc": os.cpu_count(),
        "host_threads": {w: d["host_threads"] for w, d in docs.items()},
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "python": platform.python_version(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def check_results_schema(results):
    """Raises BenchError if a results document is missing a field."""
    if results.get("schema") != SCHEMA:
        raise BenchError("results: wrong schema tag")
    for key in ("git_revision", "compiler", "build_type", "nproc",
                "host_threads", "seed", "loadavg_before", "loadavg_after"):
        if key not in results["meta"]:
            raise BenchError(f"results: meta lacks {key}")
    for name, w in results["workloads"].items():
        for key in END_TO_END + ["error_rate"]:
            m = w["end_to_end"].get(key)
            if m is None or not {"value", "unit", "p25", "p75", "n"} <= set(m):
                raise BenchError(f"results: {name} lacks {key}")
        if "per_layer" in w and set(w["per_layer"]) != set(PER_LAYER):
            raise BenchError(f"results: {name} per-layer metrics differ "
                             "from BENCHMARK.json")


# -- Modes ---------------------------------------------------------------------

def driver_mode(args, driver, build_dir):
    """One workload, as the command in BENCHMARK.json runs it."""
    work = build_dir / "runs" / f"{args.workload}-seed{args.seed}"
    input_dir = work / "inputs"
    shutil.rmtree(work, ignore_errors=True)
    generate(driver, args.workload, args.seed, input_dir)
    if args.trace:
        doc, twin = traced_run(driver, args.workload, input_dir, work,
                               args.seconds, False)
        attempted, failed = outcome([doc, twin])
        metrics = per_layer(doc, twin)
    else:
        doc = untraced_run(driver, args.workload, input_dir, work,
                           args.seconds, False)
        attempted, failed = outcome([doc])
        metrics = {k: v for k, v in end_to_end(doc).items()
                   if k in END_TO_END}
    print_metrics(args.workload, metrics)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def suite_mode(args, driver, build_dir):
    """Every workload: the untraced runs, then (--trace 1) the traced ones."""
    load_before = os.getloadavg()
    work = build_dir / "runs" / ("smoke" if args.smoke else
                                 f"suite-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    results = {"schema": SCHEMA, "workloads": {}}
    ok = True
    docs = {}
    for w in WORKLOADS:
        input_dir = work / "inputs" / w
        generate(driver, w, args.seed, input_dir)
        doc = untraced_run(driver, w, input_dir, work, args.seconds,
                           args.smoke)
        docs[w] = doc
        entry = {"sim_digest": doc["sim_digest"]}
        traced_docs = []
        if args.trace or (args.smoke and w == "sm-tiny-300"):
            tdoc, twin = traced_run(driver, w, input_dir, work, args.seconds,
                                    args.smoke)
            traced_docs = [tdoc, twin]
            entry["per_layer"] = per_layer(tdoc, twin)
        attempted, failed = outcome([doc] + traced_docs)
        entry["attempted"], entry["failed"] = attempted, failed
        entry["end_to_end"] = end_to_end(doc)
        entry["end_to_end"]["error_rate"] = exact(failed / attempted,
                                                  "fraction")
        results["workloads"][w] = entry
        ok = ok and failed == 0
        print_metrics(w, entry["end_to_end"])
        print_metrics(w, entry.get("per_layer", {}))
    # The threaded twin of kcl-CL must simulate exactly what kcl-CL does.
    if "kcl-CL" in docs and "kcl-CL-mt" in docs and (
            docs["kcl-CL"]["sim_digest"] != docs["kcl-CL-mt"]["sim_digest"]):
        log("  FAIL kcl-CL-mt: simulated results differ from kcl-CL")
        entry = results["workloads"]["kcl-CL-mt"]
        entry["failed"] += docs["kcl-CL-mt"]["queries"]
        entry["end_to_end"]["error_rate"] = exact(
            entry["failed"] / entry["attempted"], "fraction")
        ok = False
    results["meta"] = metadata(build_dir, docs, args.seed, args.seconds,
                               args.smoke, load_before)
    check_results_schema(results)
    out = Path(args.out) if args.out else (
        build_dir / "results" /
        ("smoke.json" if args.smoke else f"results-seed{args.seed}.json"))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    log(f"results written to {out}")
    if args.smoke:
        ok = smoke_compare_fixtures() and ok
    return 0 if ok else 1


def smoke_compare_fixtures():
    """compare.py must flag the regressed fixture and pass the steady one."""
    fixtures = BENCH_DIR / "fixtures"
    compare = [sys.executable, str(BENCH_DIR / "compare.py")]
    base = str(fixtures / "base.json")
    ok = True
    for name, want_ok in (("steady.json", True), ("regressed.json", False)):
        proc = subprocess.run(compare + [base, str(fixtures / name)],
                              capture_output=True, text=True, timeout=60,
                              check=False)
        if (proc.returncode == 0) != want_ok:
            log(f"  FAIL compare.py on {name}: exit {proc.returncode}\n"
                f"{proc.stdout}{proc.stderr}")
            ok = False
    log("compare.py fixtures: " + ("ok" if ok else "FAILED"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and print its result line")
    parser.add_argument("--seed", type=int, default=7,
                        help="input seed (default 7, MakeDataset's default)")
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="timed passes run this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced runs and per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="one reduced pass per workload plus the "
                             "compare.py fixtures")
    parser.add_argument("--out", help="results JSON path (suite mode)")
    parser.add_argument("--build-dir", default=str(ROOT / "build-benchmark"),
                        help="CMake build tree (must be Release)")
    args = parser.parse_args()
    build_dir = Path(args.build_dir).resolve()
    try:
        driver = build(build_dir)
        if args.workload:
            return driver_mode(args, driver, build_dir)
        return suite_mode(args, driver, build_dir)
    except BenchError as e:
        log(f"benchmark: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
