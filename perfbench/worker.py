"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --root . --workload deep_vectors --seed 1 --pass 0

imports ``moonshine`` from ``<root>/src``, runs the set-up, runs the ops in
an order drawn from the seed and the pass number, with their gates, and
prints one JSON line with the pass's times, peak RSS and per-op outcomes.
An untraced pass also runs the host-speed probe (``hostspeed.py``) and adds
its time at the reference speed.
With ``--trace`` it wraps the library first and adds the per-name span
statistics; the spans themselves go to ``--spans-out``.  ``--setup-only`` stops after the set-up.  ``--record-refs``
writes ``refs.json`` from the library's current output instead.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import random
import resource
import sys
import time

import hostspeed
import spans
import workloads


def _import_moonshine(root):
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import moonshine
    from moonshine import cli  # noqa: F401  (loads every layer module)
    if not os.path.abspath(moonshine.__file__).startswith(src + os.sep):
        raise SystemExit(f"moonshine imported from {moonshine.__file__}, not {src}")
    return moonshine


def _run_ops(ops, probe):
    """Each op's outcome and its time, the probe's handler time taken out."""
    outcomes = []
    for op in ops:
        b0 = probe.busy_s
        t0 = time.perf_counter()
        try:
            ok = bool(op.check(op.run()))
            err = None
        except Exception as exc:  # an op that raises is a failed op
            ok, err = False, f"{type(exc).__name__}: {exc}"
        outcomes.append([op.name, ok, time.perf_counter() - t0 - (probe.busy_s - b0), err])
    return outcomes


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pass", dest="pass_no", type=int, default=0)
    p.add_argument("--only", help="run just the op with this name")
    p.add_argument("--corrupt", action="store_true", help="alter one reference")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans-out")
    p.add_argument("--spawn-time", type=float, help="time.monotonic() at spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record-refs", action="store_true")
    args = p.parse_args(argv)

    ms = _import_moonshine(args.root)
    if args.record_refs:
        with open(workloads.REFS, "w") as f:
            json.dump(workloads.record_refs(ms), f, indent=1, sort_keys=True)
            f.write("\n")
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(ms)
    workloads.setup(ms)
    setup_end = time.monotonic()
    result = {"setup_s": setup_end - args.spawn_time if args.spawn_time else None}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    ops = workloads.WORKLOADS[args.workload](ms, corrupt=args.corrupt)
    if args.only:
        ops = [op for op in ops if op.name == args.only]
    else:
        random.Random(f"{args.seed}:{args.pass_no}").shuffle(ops)

    # The host-speed probe runs in untraced passes only, so that its handler
    # adds nothing to the spans.
    probe = hostspeed.Probe()
    if not tracer:
        probe.start()
    t0 = time.perf_counter()
    v0 = tracer.now() if tracer else None
    result["ops"] = _run_ops(ops, probe)
    v1 = tracer.now() if tracer else None
    result["wall_s"] = time.perf_counter() - t0 - probe.busy_s
    if not tracer:
        probe.stop()
        result["kernel_s"] = probe.kernel_s()
        result["wall_norm_s"] = hostspeed.at_reference_speed(result["wall_s"],
                                                              result["kernel_s"])
    result["process_cpu_s"] = time.process_time()
    result["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer:
        tracer.restore()
        if args.spans_out:
            with gzip.open(args.spans_out, "wt") as f:
                json.dump({"workload": args.workload, "order": [op.name for op in ops],
                           "timed": [v0, v1], "spans": tracer.spans,
                           "attrs": tracer.attrs, "counts": tracer.counts}, f)
        result["trace"] = {
            "names": spans.summarize(tracer.spans, tracer.attrs, tracer.counts),
            "spans": len(tracer.spans),
            "coverage": spans.top_level_coverage(tracer.spans, v0, v1),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
