"""Benchmark of the moonshine library: cold-process workloads, gated outputs.

    python3 perfbench/run.py --workload deep_vectors --seed 1 --seconds 20 --trace 0

Every pass of a workload runs in a fresh interpreter (``worker.py``) that
imports the library from ``src/``, sets up, and runs the workload's ops in an
order drawn from the seed, checking each result.  With ``--trace 0`` the run
makes as many passes as fit ``--seconds`` (at least one), adds set-up-only
processes, and prints the end-to-end metrics of ``BENCHMARK.json`` (medians
over the passes).  The timed section's metrics are given at a reference host
speed (see ``hostspeed.py``): the cores are shared and their speed drifts by
more than the metrics' bounds; each pass's raw seconds are printed above the
result line.  With ``--trace 1`` it runs one untraced and one traced pass in the
same order and prints the per-layer metrics.  The last line of standard
output is the JSON result.

    python3 perfbench/run.py --self-check

corrupts one reference per workload and confirms that the gate rejects it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import CORRUPTED_OP

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 6      # set-up-only processes per untraced run, besides the passes
RUN_BUDGET_S = 170.0  # a run stops starting processes that could end past this


class PassFailed(Exception):
    pass


def spawn(extra, deadline):
    """Run the worker in a fresh interpreter and return its JSON line."""
    t = time.monotonic()
    cmd = [sys.executable, WORKER, "--root", ROOT, "--spawn-time", repr(t), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - t, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"worker timed out: {' '.join(extra)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise PassFailed(f"worker exited with {proc.returncode}: {' '.join(extra)}")
    return json.loads(lines[-1])


def _tally(passes):
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for _, ok, _, _ in p["ops"] if not ok)
    for p in passes:
        for name, ok, _, err in p["ops"]:
            if not ok:
                print(f"FAILED {name}: {err or 'gate rejected the result'}")
    return attempted, failed


def untraced_run(workload, seed, seconds, deadline):
    """As many passes as fit ``seconds`` by the first pass's duration (at
    least one), then the set-up probes."""
    passes, setups = [], []
    wanted = 1
    while len(passes) < wanted:
        t = time.monotonic()
        p = spawn(["--workload", workload, "--seed", str(seed), "--pass", str(len(passes))],
                  deadline)
        took = time.monotonic() - t
        if not passes:
            wanted = max(1, round(seconds / took))
        passes.append(p)
        setups.append(p["setup_s"])
        print(f"pass {len(passes) - 1}: {p['wall_s']:.3f} s, kernel "
              f"{p['kernel_s'] * 1e3:.3f} ms, {p['wall_norm_s']:.3f} s at reference speed: "
              + " | ".join(f"{name} {secs:.2f} s" for name, _, secs, _ in p["ops"]))
        if time.monotonic() + took > deadline:
            break
    for _ in range(SETUP_PROBES):
        setups.append(spawn(["--setup-only"], deadline)["setup_s"])
    attempted, failed = _tally(passes)
    passed = [sum(1 for _, ok, _, _ in p["ops"] if ok) for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_norm_s": statistics.median(p["wall_norm_s"] for p in passes),
        "ops_per_norm_s": statistics.median(n / p["wall_norm_s"]
                                            for n, p in zip(passed, passes)),
        "peak_rss_mib": statistics.median(p["rss_mib"] for p in passes),
        "pass_frac": (attempted - failed) / attempted,
    }
    return attempted, failed, metrics


def layer_value(name, trace, plain, traced):
    """The value of one per-layer metric ``<span name>.<stat>``."""
    if name == "process.cpu_s":
        return traced["process_cpu_s"]
    if name == "run.wall_s":
        return plain["wall_s"]
    if name == "run.kernel_ms":
        return plain["kernel_s"] * 1e3
    if name == "trace.overhead_frac":
        return traced["wall_s"] / plain["wall_s"] - 1
    if name == "trace.spans":
        return trace["spans"]
    if name == "trace.coverage_frac":
        return trace["coverage"]
    span, stat = name.rsplit(".", 1)
    return trace["names"].get(span, {}).get(stat, 0)


def traced_run(workload, seed, deadline, per_layer):
    base = ["--workload", workload, "--seed", str(seed), "--pass", "0"]
    plain = spawn(base, deadline)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_out = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json.gz")
    traced = spawn([*base, "--trace", "--spans-out", spans_out], deadline)
    print("order: " + " | ".join(name for name, *_ in traced["ops"]))
    print(f"spans written to {os.path.relpath(spans_out, ROOT)}")
    attempted, failed = _tally([plain, traced])
    metrics = {m["name"]: layer_value(m["name"], traced["trace"], plain, traced)
               for m in per_layer}
    return attempted, failed, metrics


def self_check(deadline):
    """Corrupt one reference per workload: the gate must reject that op, and
    accept it with the reference intact."""
    ok = True
    for workload, op in CORRUPTED_OP.items():
        fracs = {}
        for corrupt in (False, True):
            res = spawn(["--workload", workload, "--only", op]
                        + (["--corrupt"] if corrupt else []), deadline)
            attempted, failed = len(res["ops"]), sum(1 for r in res["ops"] if not r[1])
            fracs[corrupt] = failed / attempted
        fires = fracs[False] == 0 and fracs[True] > 0
        ok = ok and fires
        print(f"{workload}: {op}: fail_frac {fracs[False]} intact, {fracs[True]} corrupted"
              f" -> {'gate fires' if fires else 'GATE DOES NOT FIRE'}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not os.path.isfile(os.path.join(ROOT, "src", "moonshine", "__init__.py")):
        sys.exit(f"no moonshine sources under {ROOT}/src: run from a checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.self_check:
        return self_check(deadline)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        p.error(f"unknown workload {args.workload!r}")

    print(f"host: python {platform.python_version()}, {platform.machine()}, "
          f"{os.cpu_count()} cpus; workload {args.workload}, seed {args.seed}")
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        if args.trace:
            attempted, failed, values = traced_run(args.workload, args.seed, deadline,
                                                   metric_specs)
        else:
            attempted, failed, values = untraced_run(
                args.workload, args.seed, args.seconds or spec["run_seconds"], deadline)
    except PassFailed as exc:
        sys.exit(f"benchmark run failed: {exc}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
