"""Benchmark worker: set up one workload and run its ops in a closed loop.

Started by run.py, one process per set-up.  It is the only process that
imports mirrorcrit, so its peak resident memory is the program's and
none of the checker's.  It writes each op's record to
`<out>/records.jsonl` (and `traced.jsonl`) as the op completes, the
rest of what it measured to `<out>/result.json`, and exits.

    python3 perfbench/worker.py --workload W --seed N --seconds S
        --trace 0|1 --out DIR [--setup-only]
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

import speed
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_one(workload, inputs, index, tracer=None, op_id=None):
    """One op, timed by itself; a raising op is a failed op."""
    inp = inputs[index]
    if tracer is not None:
        tracer.op = op_id
    start = time.perf_counter()
    try:
        rc, result = workloads.run_op(workload, inp)
        error = None
    except (Exception, SystemExit):
        rc, result, error = None, None, traceback.format_exc(limit=3)
    end = time.perf_counter()
    if tracer is not None:
        tracer.op = None
    output = workloads.render(workload, inp, result) if error is None else ""
    return {"input": index, "start": start, "end": end, "rc": rc,
            "output": output, "error": error}


def whole_passes(seconds, run_pass):
    """Calls `run_pass(p)` for p = 0, 1, ... and returns the number of
    passes.  Every pass covers all inputs, so a faster program measures
    the same inputs, only more often.  Stops once another pass would end
    further from `seconds` than stopping now; runs at least one."""
    loop_start = time.perf_counter()
    passes = 0
    while True:
        run_pass(passes)
        passes += 1
        elapsed = time.perf_counter() - loop_start
        if elapsed + elapsed / passes / 2 >= seconds:
            return passes


def closed_loop(workload, inputs, seconds, sink):
    """Ops one at a time, each starting when the previous one returns,
    in whole passes over the inputs.  The reference computation of
    speed.py is timed before the first op and after every op, so each
    record holds the reference times just before and just after its op.
    Each record goes to `sink` as a JSON line, so memory does not grow
    with the number of ops.  Returns the number of passes."""
    speed.warm_up()
    before = speed.reference_time()

    def one_pass(_):
        nonlocal before
        for index in range(len(inputs)):
            record = run_one(workload, inputs, index)
            after = speed.reference_time()
            record["reference"] = [before, after]
            before = after
            sink.write(json.dumps(record) + "\n")

    return whole_passes(seconds, one_pass)


def paired_loop(workload, inputs, seconds, sink, traced_sink):
    """Each input once untraced and once traced, back to back, in
    alternating order so that drift on the machine hits both alike, in
    whole passes.  Returns the number of passes and the trace."""
    tracer = tracing.Tracer()
    patch = tracing.install(tracer)
    patch.restore()

    def one_pass(p):
        for index in range(len(inputs)):
            k = p * len(inputs) + index
            for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
                if with_trace:
                    patch.apply()
                    record = run_one(workload, inputs, index, tracer, k)
                    patch.restore()
                    record["op"] = k
                    traced_sink.write(json.dumps(record) + "\n")
                else:
                    sink.write(json.dumps(run_one(workload, inputs, index)) + "\n")

    return whole_passes(seconds, one_pass), tracer.dump()


def peak_rss_mb():
    """Peak resident memory of this process.

    VmHWM is per address space and starts afresh at exec; ru_maxrss
    would carry over the peak of the process that started us.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    inputs = workloads.setup(args.workload, args.seed, args.out)
    # set-up ends here; run.py measures it from the moment it started us
    result = {"ready_at": time.monotonic()}
    if not args.setup_only:
        with open(os.path.join(args.out, "records.jsonl"), "w") as sink:
            if args.trace:
                with open(os.path.join(args.out, "traced.jsonl"), "w") as traced_sink:
                    result["passes"], result["trace"] = paired_loop(
                        args.workload, inputs, args.seconds, sink, traced_sink)
            else:
                result["passes"] = closed_loop(args.workload, inputs, args.seconds, sink)
                result["peak_rss_mb"] = peak_rss_mb()
        result["graphs"] = [workloads.describe(inp.graph) for inp in inputs]
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
