"""Tests of the span arithmetic, the tracer, the host-speed probe and the
output gate.

    python3 -m pytest perfbench -q
"""
import json
import os
import random
import signal
import sys
import time
from fractions import Fraction

import pytest

import hostspeed
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import moonshine  # noqa: E402
from moonshine import cli, jacobi, mckay, qseries  # noqa: E402,F401


def S(sid, parent, name, start, end):
    return (sid, parent, name, start, end)


def test_self_time_under_nesting():
    got = spans.summarize([
        S(0, -1, "a", 0.0, 10.0),
        S(1, 0, "b", 1.0, 4.0),
        S(2, 1, "c", 2.0, 3.0),
        S(3, 0, "b", 5.0, 9.0),
    ])
    assert got["a"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert got["b"] == {"calls": 2, "total_s": 7.0, "self_s": 6.0}
    assert got["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    # self times partition the root span
    assert sum(v["self_s"] for v in got.values()) == 10.0


def test_recursion_is_not_counted_twice():
    got = spans.summarize([
        S(0, -1, "g", 0.0, 10.0),
        S(1, 0, "g", 1.0, 9.0),
        S(2, 1, "h", 2.0, 8.0),
        S(3, 2, "g", 3.0, 5.0),     # g inside h inside g: still nested
        S(4, 3, "mul", 3.5, 4.5),
        S(5, -1, "g", 11.0, 12.0),  # a second, separate tree
    ])
    assert got["g"]["calls"] == 4
    assert got["g"]["total_s"] == 11.0
    assert got["g"]["self_s"] == 2.0 + 2.0 + 1.0 + 1.0
    assert got["h"]["total_s"] == 6.0
    assert got["mul"]["total_s"] == 1.0


def test_spans_given_in_exit_order():
    entry = [S(0, -1, "a", 0.0, 4.0), S(1, 0, "a", 1.0, 2.0), S(2, -1, "b", 5.0, 6.0)]
    exit_order = [entry[1], entry[0], entry[2]]
    assert spans.summarize(exit_order) == spans.summarize(entry)


def test_build_versus_memo_hit():
    g, mul = "jacobi.gritsenko", "jacobi.WindowedSeries.mul"
    trace = [
        S(0, -1, g, 0.0, 5.0),     # build: has a product child
        S(1, 0, g, 0.5, 0.6),      # nested hit: no children
        S(2, 0, mul, 1.0, 4.0),
        S(3, -1, g, 6.0, 6.1),     # hit
        S(4, -1, g, 7.0, 8.0),     # a child that is no evidence: still a hit
        S(5, 4, "groups.class_table", 7.1, 7.9),
        S(6, -1, "mckay.identity_H", 9.0, 12.0),   # build: extraction child
        S(7, 6, "jacobi.extract_H", 9.1, 11.9),
        S(8, -1, "mckay.identity_H", 13.0, 13.1),  # hit
    ]
    attrs = {0: {"form": "5,1", "qcut": "30"}, 1: {"form": "4,1", "qcut": "30"},
             3: {"form": "5,1", "qcut": "12"}, 4: {"form": "4,1", "qcut": "30"},
             6: {"lambency": "7", "qcut": "13"}, 8: {"lambency": "7", "qcut": "13"}}
    got = spans.summarize(trace, attrs)
    assert got[g]["calls"] == 4 and got[g]["builds"] == 1
    assert got[g]["max_cutoffs_per_form"] == 2
    assert got["mckay.identity_H"]["builds"] == 1
    assert got["mckay.identity_H"]["max_cutoffs_per_lambency"] == 1


def test_counts_hits_and_size_statistics():
    trace = [S(0, -1, "data.load_json", 0.0, 1.0), S(1, -1, "data.load_json", 1.0, 1.5),
             S(2, -1, "m", 2.0, 3.0), S(3, -1, "m", 3.0, 4.0)]
    attrs = {0: {"misses": 1}, 1: {"misses": 0},
             2: {"pair_products": 10, "coeff_bits_max": 7},
             3: {"pair_products": 5, "coeff_bits_max": 3}}
    got = spans.summarize(trace, attrs, {"algebra.QuadValue.constructions": 9})
    assert (got["data.load_json"]["hits"], got["data.load_json"]["misses"]) == (1, 1)
    assert got["m"]["pair_products"] == 15 and got["m"]["coeff_bits_max"] == 7
    assert got["algebra.QuadValue"]["constructions"] == 9


def test_top_level_coverage():
    trace = [S(0, -1, "a", 1.0, 3.0), S(1, 0, "b", 1.5, 2.5), S(2, -1, "a", 5.0, 9.0)]
    assert spans.top_level_coverage(trace, 0.0, 10.0) == pytest.approx(0.6)


@pytest.mark.parametrize("name", ["jacobi.gritsenko.self_s", "cli.verify-identities.total_s",
                                  "process.cpu_s", "a", "9_x.y-z"])
def test_valid_metric_names(name):
    assert spans.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "-x", ".x", "a b", "a/b", "é", "x" * 65,
                                  "cli.verify identities.total_s"])
def test_invalid_metric_names(name):
    assert not spans.valid_metric_name(name)


def test_benchmark_metric_names_are_valid_and_unique():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(spans.valid_metric_name(n) for n in names)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    with open(os.path.join(ROOT, "perfbench", "meta.json")) as f:
        mapped = [m for layer in json.load(f)["layers"] for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])


def _brute_pairs(a_rows, b_rows, kcut):
    return sum(wa * wb for ka, wa in a_rows for kb, wb in b_rows if ka + kb < kcut)


def test_computed_pair_products_match_the_kernel_loop():
    rng = random.Random(5)
    for _ in range(200):
        a = [(k, rng.randint(1, 4)) for k in rng.sample(range(-3, 20), rng.randint(1, 8))]
        b = [(k, rng.randint(1, 4)) for k in rng.sample(range(-3, 20), rng.randint(1, 8))]
        kcut = Fraction(rng.randint(-10, 60), rng.randint(1, 4))
        assert spans._pairs_below(a, b, kcut) == _brute_pairs(a, b, kcut)


def test_fracseries_pair_products():
    a = qseries.eta(Fraction(12))
    b = qseries.eta_quotient([(2, 3)], Fraction(9))
    stats = spans.fracseries_mul_stats((a, b), {}, a * b)
    cut = min(a.cutoff + b.low(), b.cutoff + a.low())
    want = sum(1 for ka in a.coeffs for kb in b.coeffs
               if Fraction(ka, a.denom) + Fraction(kb, b.denom) < cut)
    assert want > 0
    assert stats["pair_products"] == want


def test_tracer_sees_rebound_names_and_restores():
    originals = (jacobi.eta, mckay.class_table, mckay.eta_quotient,
                 qseries.FracSeries.__mul__, cli._DISPATCH["extract"], moonshine.extract_H)
    tracer = spans.Tracer()
    tracer.install(moonshine)
    try:
        assert jacobi.eta is not originals[0] and mckay.class_table is not originals[1]
        assert moonshine.extract_H is jacobi.extract_H
        H = mckay.identity_H(3, 4)
        mckay.identity_H(3, 4)
        assert H.component(1).cutoff == 4 - Fraction(1, 12)
    finally:
        tracer.restore()
    assert originals == (jacobi.eta, mckay.class_table, mckay.eta_quotient,
                         qseries.FracSeries.__mul__, cli._DISPATCH["extract"],
                         moonshine.extract_H)
    got = spans.summarize(tracer.spans, tracer.attrs, tracer.counts)
    assert got["mckay.identity_H"]["calls"] == 2
    assert got["mckay.identity_H"]["builds"] == 1
    assert got["jacobi.gritsenko"]["calls"] >= 1
    assert got["jacobi.WindowedSeries.mul"]["pair_products"] > 0


@pytest.mark.parametrize("workload", sorted(workloads.CORRUPTED_OP))
def test_gate_rejects_a_corrupted_reference(workload):
    name = workloads.CORRUPTED_OP[workload]
    for corrupt in (False, True):
        op, = [op for op in workloads.WORKLOADS[workload](moonshine, corrupt=corrupt)
               if op.name == name]
        assert op.check(op.run()) is not corrupt


def test_reference_speed_scaling():
    ref = hostspeed.REF_KERNEL_S
    assert hostspeed.at_reference_speed(10.0, ref) == 10.0
    # a host on which the kernel takes twice as long ran the pass in twice the time
    assert hostspeed.at_reference_speed(10.0, 2 * ref) == pytest.approx(5.0)


def test_probe_samples_during_the_section_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.Probe(interval_s=0.01)
    probe.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(i * i for i in range(1000))
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    during = len(probe.samples) - 2 * hostspeed.EDGE_SAMPLES
    assert during > 0
    assert 0 < probe.busy_s < 0.3
    assert probe.kernel_s() > 0
