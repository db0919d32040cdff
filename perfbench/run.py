"""tracemin-amg benchmark: time to a solution, setup and sweep cost of
energy-minimization AMG, and (traced) the same split by layer and level.

Run from the repository root:

    python3 perfbench/run.py --workload aniso-n256-deg4 --seed 1 \\
        --seconds 20 --trace 0

The run repeats one rep of the workload (see bench.py), one call after
the previous returns, while the next rep is expected to end within
--seconds, and at least twice (five times when traced).  It prints
every metric by name and unit, with sample counts and the slowest
sample, then, as its last line, one JSON object with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).

With --trace 1 the odd reps run with the layer wrappers installed and
the even ones without, so traced minus untraced medians (leaving out the
cold first rep) give the tracing overhead.  The full record, the
environment and (traced) the spans are written under perfbench/out/.
--n overrides the problem size (the smoke test uses it).
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# At least two timed reps give a median.  A traced run alternates
# untraced and traced reps and leaves the cold first rep (the allocator's
# heap grows) out of the tracing overhead, so it needs two more pairs.
MIN_REPS = {0: 2, 1: 5}
# per-layer times printed with their share of hierarchy.setup_s
SETUP_PHASES = (
    "coarsening.strength_graph_s", "coarsening.cf_split_s",
    "coarsening.pattern_distance_k_s", "energymin.prepare_candidates_s",
    "energymin.minimize_s", "hierarchy.galerkin_s", "hierarchy.coarse_factor_s",
    "relaxation.auto_jacobi_omega_s", "hierarchy.setup_self_s",
)

# The end-to-end metrics of the result line.  solve_s and solution_s are
# printed with them but left out: on a shared 2-core machine their spread
# over seeds exceeds any allowed bound (see README.md).
END_TO_END_UNITS = {
    "setup_s": "s", "pcg_iters": "count", "wpd": "matvecs/digit",
    "oc": "ratio", "peak_rss_mb": "MB",
}


def import_package():
    """Import tracemin_amg from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tracemin_amg
    except ImportError as err:
        sys.exit(f"perfbench: cannot import tracemin_amg from {src}: {err}")
    if src not in Path(tracemin_amg.__file__).resolve().parents:
        sys.exit(f"perfbench: tracemin_amg imported from {tracemin_amg.__file__}, "
                 f"not from {src}")


def environment():
    import numpy
    import scipy

    def cache(level):
        # read-only; None where the kernel does not expose it
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(base.glob("index*")):
            try:
                if (index / "level").read_text().strip() == str(level):
                    return (index / "size").read_text().strip()
            except OSError:
                return None
        return None

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{sblas.get('name')} {sblas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")},
        "l2_cache": cache(2),
        "l3_cache": cache(3),
    }


def timing(samples):
    """Median, slowest sample and count.  Runs hold too few samples for a
    percentile with ten beyond it, so the tail reported is the maximum."""
    if not samples:
        return {"median": None, "max": None, "n": 0, "samples": []}
    return {"median": statistics.median(samples), "max": max(samples),
            "n": len(samples), "samples": samples}


def raw_timings(reps):
    return {
        "setup_s": timing([r["setup_s"] for r in reps if r["setup_s"] is not None]),
        "solve_s": timing([t for r in reps for t in r["solve_s"]]),
        "solution_s": timing([r["solution_s"] for r in reps
                              if r["solution_s"] is not None]),
    }


def end_to_end(reps):
    """The end-to-end metrics and the raw timings behind them."""
    detail = raw_timings(reps)
    iters = [k for r in reps for k in r["pcg_iters"]]
    wpd = [r["wpd"] for r in reps if r["wpd"] is not None]
    oc = [r["facts"]["oc"] for r in reps if r["facts"] is not None]
    values = {"setup_s": detail["setup_s"]["median"]}
    values["pcg_iters"] = statistics.fmean(iters) if iters else None
    values["wpd"] = statistics.median(wpd) if wpd else None
    values["oc"] = statistics.median(oc) if oc else None
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values, detail


def per_layer(reps, tracer, spans, closing_root):
    traced = [r for r in reps if r.get("root") is not None]
    # the cold first rep is left out of the overhead
    untraced = [r for r in reps[1:] if r.get("root") is None]
    per_rep = []
    for r in traced:
        values = spans.rep_layer_metrics(spans.layer_totals(tracer.spans, r["root"]))
        facts = r["facts"] or {}
        values["coarsening.c_fraction"] = facts.get("c_fraction")
        values["energymin.cg_iters"] = facts.get("cg_iters")
        values["energymin.constraint_residual"] = facts.get("constraint_residual")
        values["hierarchy.levels"] = facts.get("levels")
        values["hierarchy.coarsest_n"] = facts.get("coarsest_n")
        values["hierarchy.vcycle_computed_bytes"] = facts.get("vcycle_bytes")
        per_rep.append(values)
    values = {k: (statistics.median(v) if None not in v else None)
              for k, v in ((k, [p[k] for p in per_rep]) for k in per_rep[0])}
    # a layer no rep calls (measure_report on aniso-*) reports its calls
    # in the closing measurement
    closing = spans.rep_layer_metrics(spans.layer_totals(tracer.spans, closing_root))
    for name in spans.TIMED_LAYERS:
        if values[name + "_calls"] == 0:
            values[name + "_s"] = closing[name + "_s"]
            values[name + "_calls"] = closing[name + "_calls"]
    on, off = raw_timings(traced), raw_timings(untraced)
    for name in ("setup_s", "solve_s", "solution_s"):
        overhead = None
        if on[name]["median"] is not None and off[name]["median"] is not None:
            overhead = on[name]["median"] - off[name]["median"]
        values[f"trace.{name[:-2]}_overhead_s"] = overhead
    return values


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return {"coarsening.c_fraction": "ratio",
            "energymin.ns_per_slot_apply": "ns",
            "energymin.constraint_residual": "abs",
            "hierarchy.vcycle_computed_bytes": "bytes"}.get(name, "count")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None,
                        help="problem size override (mesh intervals per side)")
    args = parser.parse_args(argv)

    import_package()
    import bench
    import spans

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(bench.WORKLOADS)}")
    workload = bench.make_workload(args.workload, args.seed, args.n)
    tracer = spans.Tracer()
    reps, walls = [], []
    started = time.perf_counter()
    while (len(reps) < MIN_REPS[args.trace] or time.perf_counter() - started
           + statistics.median(walls) <= args.seconds):
        gc.collect()  # start every rep from the same heap
        begin = time.perf_counter()
        if args.trace and len(reps) % 2 == 1:
            rep, root = tracer.run("rep", workload.rep)
            rep["root"] = root
        else:
            rep = workload.rep()
        walls.append(time.perf_counter() - begin)
        reps.append(rep)
    measured = time.perf_counter() - started
    if args.trace:
        wpd, closing_root = tracer.run("finish", workload.finish)
    else:
        wpd = workload.finish()

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    counts = [r["counts"] for r in reps]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        print("counts differ between reps with the same inputs", flush=True)
    values, detail = end_to_end([r for r in reps if r.get("root") is None])
    run_counts = dict(counts[0] or {})
    if wpd is not None:
        values["wpd"] = wpd
        run_counts["wpd"] = repr(wpd)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "n": args.n or bench.WORKLOADS[args.workload]["n"],
        "reps": len(reps), "measured_s": measured, "rep_wall_s": walls,
        "attempted": attempted, "failed": failed, "counts_repeat": repeat,
        "counts": run_counts, "end_to_end": values, "timings": detail,
        "environment": environment(),
    }
    if args.trace:
        layers = per_layer(reps, tracer, spans, closing_root)
        record["per_layer"] = layers
        record["layer_table"] = spans.table(
            tracer.spans, [r["root"] for r in reps if r.get("root") is not None])

    correct = failed == 0 and repeat and None not in values.values()
    if args.trace:
        correct = correct and None not in layers.values()
    write_outputs(args, record, tracer)
    print_report(record)
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def write_outputs(args, record, tracer):
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-n{record['n']}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        t0 = tracer.spans[0]["start"] if tracer.spans else 0.0
        rows = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in tracer.spans]
        with open(OUT / f"{stem}.spans.json", "w") as fh:
            json.dump(rows, fh)


def print_report(record):
    print(f"workload {record['workload']} seed {record['seed']} trace "
          f"{record['trace']}: {record['reps']} reps in {record['measured_s']:.1f} s, "
          f"{record['failed']}/{record['attempted']} operations failed")
    print("environment " + json.dumps(record["environment"]))
    print("counts " + json.dumps(record["counts"]))
    print("end-to-end")
    for name, value in record["end_to_end"].items():
        print(f"  {name:<12} {value!s:>22} {END_TO_END_UNITS[name]}")
    print("wall times")
    timings = dict(record["timings"])
    if record["workload"] == "osc-weighted-sweep":
        # one run_experiment is this workload's answer: its sweep_s
        timings["sweep_s"] = timings["solution_s"]
    for name, t in timings.items():
        print(f"  {name:<12} {t['median']!s:>22} s   (median of {t['n']}, max {t['max']})")
    if "per_layer" not in record:
        return
    layers = record["per_layer"]
    for name, value in layers.items():
        share = ""
        if name in SETUP_PHASES and value is not None and layers["hierarchy.setup_s"]:
            share = f"  {value / layers['hierarchy.setup_s']:6.1%} of setup"
        print(f"  {name:<38} {value!s:>22} {layer_unit(name)}{share}")
    print("  span table (traced reps): name, calls, inclusive s, self s")
    for name, calls, incl, own in record["layer_table"]:
        print(f"    {name:<36} {calls:>7} {incl:10.4f} {own:10.4f}")


if __name__ == "__main__":
    sys.exit(main())
