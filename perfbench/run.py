"""mirrorcrit benchmark: run a workload, check every output, print metrics.

    python3 perfbench/run.py [--workload corpus|large|oracle|all]
        [--seed N] [--seconds 1-60] [--trace 0|1]

Each run builds its inputs from `--seed`, runs the workload's ops in a
closed loop with one client (the next op starts when the previous one
returns) in whole passes over the inputs for about `--seconds`, and
checks every output against an independent route (check.py).  With
`--trace 0` it prints the end-to-end metrics, with every time scaled
by the machine's speed measured beside each op (speed.py) and the
unscaled time in brackets; with `--trace 1` it runs
every op twice, once as is and once with each mirrorcrit layer wrapped
(tracer.py), and prints per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
Run it from the repository root; the program is imported from `src/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import check
import speed
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".perfbench_run")
WORKLOADS = ("corpus", "large", "oracle")

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics are per op, except the `max_` sizes
_CALLS_SELF = [
    "lattice.matmul", "lattice.solver_contains", "lattice.well_defined",
    "lattice.hom_kernel", "lattice.hom_cokernel",
    "factorization.build_maps", "factorization.verify_lattice_preservation",
    "factorization.two_torsion_check", "factorization.identify_kernel_cokernel",
    "factorization.g_injection", "factorization.snake_dimension_report",
    "factorization.component_linking_cycles", "factorization.main_theorem_verdict",
    "modp.is_involution", "modp.kernel", "modp.intersection", "modp.fixed_subspace",
    "critical.forest_count", "critical.critical_group_via_laplacian",
    "critical.bicycle_bruteforce", "critical.forest_bruteforce", "graphfile.parse",
]
PER_LAYER = {
    "lattice.snf.calls": "count/op",
    "lattice.snf.self_s": "s/op",
    "lattice.snf.entries": "count/op",
    "lattice.snf.max_rows": "count",
    "lattice.snf.max_cols": "count",
    "lattice.snf.max_diag_bits": "bits",
    "lattice.snf.max_witness_bits": "bits",
    **{f"{n}.{k}": u for n in _CALLS_SELF for k, u in (("calls", "count/op"), ("self_s", "s/op"))},
    "modp.from_rows.calls": "count/op",
    "modp.enumerate.elements": "count/op",
    "critical.duality_order_check.self_s": "s/op",
    "critical.adjoint_pair.calls": "count/op",
    "critical.bicycle_bruteforce.subsets": "count/op",
    "critical.forest_bruteforce.subsets": "count/op",
    "graphs.validate_structural.self_s": "s/op",
    "graphs.canonical_orientation.self_s": "s/op",
    "graphs.decompose.self_s": "s/op",
    "cli.report_document.self_s": "s/op",
    "cli.main.self_s": "s/op",
    "trace.overhead_s": "s/op",
}

SETUP_REPEATS = 7  # set-ups per untraced run; setup_s is their median
# A worker measures at most `--seconds` (60) plus half a pass (about 13 s),
# or one pass where that is longer: about 80 s for a traced pass of large
# on a slow host.  The whole run, set-ups and checks included, must end
# within 180 s.
WORKER_TIMEOUT = 150


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return f"Python {platform.python_version()}, nproc {os.cpu_count()}, CPU {cpu}"


def start_worker(workload, seed, seconds, trace, out, setup_only=False):
    """Run one worker process to completion; returns (result, start time)."""
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        rc = proc.wait(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"worker exited with code {rc}")
    with open(os.path.join(out, "result.json")) as fh:
        result = json.load(fh)
    for name in ("records", "traced"):
        path = os.path.join(out, f"{name}.jsonl")
        if os.path.exists(path):
            with open(path) as fh:
                result[name] = [json.loads(line) for line in fh]
    return result, started


def tail_latency(latencies):
    """(value, percentile, ops beyond): the highest percentile with at
    least min(10, n // 4) ops beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n // 4)
    index = n - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / n, beyond


def time_metrics(latencies, setups):
    """The time metrics of one run, and a note on its tail percentile."""
    tail, pct, beyond = tail_latency(latencies)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail,
        "setup_s": statistics.median(setups),
    }, f"(p{pct:.1f}: {beyond} of {len(latencies)} ops beyond it)"


def digest(workload, records):
    h = hashlib.sha256()
    for r in records:
        h.update(check.normalized(workload, r["output"]).encode())
    return h.hexdigest()


def check_records(workload, checker, records):
    """{op index: problem} for every op that raised, failed its check, or
    gave another output than the first pass gave for the same input."""
    failures = {}
    first = {}
    for k, r in enumerate(records):
        if r["error"] is not None:
            failures[k] = f"raised {r['error'].strip().splitlines()[-1]}"
            continue
        verify = checker.oracle if workload == "oracle" else checker.analyze
        try:
            problems = verify(r["input"], r["rc"], r["output"])
            output = check.normalized(workload, r["output"])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable output ({type(exc).__name__}: {exc})"]
        else:
            if first.setdefault(r["input"], output) != output:
                problems.append("output differs from the first pass")
        if problems:
            failures[k] = f"input {r['input']}: " + "; ".join(problems)
    return failures


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; prints its report and returns the result object."""
    run_dir = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setups = []
        if not trace:
            for i in range(SETUP_REPEATS - 1):
                res, started = start_worker(workload, seed, seconds, 0,
                                            os.path.join(run_dir, f"setup{i}"), setup_only=True)
                setups.append(res["ready_at"] - started)
        res, started = start_worker(workload, seed, seconds, trace, os.path.join(run_dir, "run"))
        setups.append(res["ready_at"] - started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    records = res["records"]
    checker = check.Checker(res["graphs"])
    failures = check_records(workload, checker, records)
    latencies = [r["end"] - r["start"] for r in records]
    n = len(records)
    n_inputs = len(res["graphs"])

    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}")
    print(f"  machine: {machine()}")
    print(f"  closed loop, 1 client, {res['passes']} passes over {n_inputs} inputs, {n} ops")
    if trace:
        metrics, traced_failures = traced_metrics(workload, seed, res, records)
        for k, problem in traced_failures.items():
            failures[k] = f"{failures[k]}; {problem}" if k in failures else problem
        units = PER_LAYER
    else:
        # set-ups are scaled by the machine's speed over the whole run:
        # one reference time beside a set-up of a fraction of a second
        # would say more about that moment than about the set-up
        refs = [r["reference"][1] for r in records]
        ref = statistics.median(refs)
        scaled = [speed.scale(wall, *r["reference"]) for wall, r in zip(latencies, records)]
        metrics, tail_note = time_metrics(scaled, [speed.scale(s, ref, ref) for s in setups])
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        raw, _ = time_metrics(latencies, setups)
        print(f"  times scaled to a reference time of {1000 * speed.REFERENCE_S:g} ms "
              f"(measured here: median {1000 * ref:.3f} ms, "
              f"min {1000 * min(refs):.3f} ms); unscaled wall times in brackets")
        units = END_TO_END
        notes = {
            **{name: f"[{value:.6g}]" for name, value in raw.items()},
            "latency_tail_ms": f"[{raw['latency_tail_ms']:.6g}] {tail_note}",
            "setup_s": f"[{raw['setup_s']:.6g}] (median of {len(setups)} set-ups)",
        }
    for name, unit in units.items():
        if trace:
            note = "(not run on this workload)" if metrics[name] == 0 else ""
        else:
            note = notes.get(name, "")
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit} {note}".rstrip())
    failed = len(failures)
    print(f"  {'error_rate':<44} {failed / n:>14.6g} ({failed} of {n} ops failed)")
    print(f"  report_digest {digest(workload, records[:n_inputs])} (first pass, {n_inputs} ops)")
    for k in sorted(failures)[:20]:
        print(f"  FAILED op {k}: {failures[k]}")
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def traced_metrics(workload, seed, res, untraced):
    """Per-layer metrics of the traced ops, and {op index: problem} for
    every traced op whose output differs from its untraced twin."""
    traced = res["traced"]
    trace = res["trace"]
    path = os.path.join(WORK_DIR, f"spans-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(trace, fh)
    totals, split, span_problems = tracer.layer_totals(
        trace, {r["op"]: (r["start"], r["end"]) for r in traced})
    wall = sum(r["end"] - r["start"] for r in traced)
    untraced_wall = sum(r["end"] - r["start"] for r in untraced)
    n = len(traced)
    metrics = {name: value if ".max_" in name else value / n
               for name, value in totals.items() if name in PER_LAYER}
    # traced and untraced records of one input are written pair by pair
    metrics["trace.overhead_s"] = statistics.median(
        (b["end"] - b["start"]) - (a["end"] - a["start"]) for a, b in zip(untraced, traced))

    if trace["missing"]:
        print(f"  not found, reported as 0: {', '.join(trace['missing'])}")
    same = digest(workload, traced) == digest(workload, untraced)
    print(f"  traced digest {'equals' if same else 'DIFFERS FROM'} the untraced digest "
          f"over all {n} ops")
    failures = {
        k: "traced output differs from the untraced one"
        for k, (a, b) in enumerate(zip(untraced, traced))
        if a["error"] or b["error"] or digest(workload, [a]) != digest(workload, [b])
    }
    for k, r in enumerate(traced):
        problem = span_problems.get(r["op"])
        if problem:
            failures[k] = f"{failures[k]}; {problem}" if k in failures else problem
    print(f"  spans: {len(trace['spans'])} written to {os.path.relpath(path, ROOT)}")
    print(f"  time split of {wall:.4f} s traced ({untraced_wall:.4f} s untraced):")
    layers = {}
    for name, self_s in split.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    for layer, self_s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<16} {self_s:>10.4f} s {100 * self_s / wall:6.2f}%")
        for name, s in sorted(split.items(), key=lambda kv: -kv[1]):
            if name != layer and name.split(".")[0] == layer:
                print(f"      {name:<44} {s:>10.4f} s {100 * s / wall:6.2f}%")
    accounted = sum(split.values())
    print(f"    {'sum':<16} {accounted:>10.4f} s of {wall:.4f} s traced wall; "
          f"{len(span_problems)} ops with inconsistent spans")
    return metrics, failures


def run_seconds(text):
    """`--seconds`: a whole number from 1 to 60, as BENCHMARK.json's run_seconds."""
    value = int(text)
    if not 1 <= value <= 60:
        raise argparse.ArgumentTypeError(f"{value} is not from 1 to 60")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=run_seconds, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mirrorcrit", "__init__.py")):
        print(f"error: no mirrorcrit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in workloads}
    if len(results) == 1:
        summary = results[workloads[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
