"""The benchmark's workloads: each is a list of ops, and each op carries its
own gate.

An op is ``Op(name, run, check)``: ``run()`` calls public functions of
``moonshine`` and returns their result, ``check(result)`` compares it with a
reference and returns True or False.  References come from the bundled data
tables, from constants stated in the acceptance criteria, or (for the CLI
verbs) from ``refs.json``, recorded from the library's own output.  With
``corrupt=True`` one reference per workload is altered, so the gate must
reject that op.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

LAMBENCIES = (2, 3, 4, 5, 7, 13)
HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs.json")

DEEP_CUTOFF = 30

CLI_COMMANDS = (
    "coeffs --lambency 3 --r 1 --class 2B --order 10",
    "extract --lambency 5 --order 10",
    "twist --lambency 4 --class 2C --order 10",
    "verify-identities",
    "decompose --lambency 2 --row 31",
    "discriminants --lambency 5",
    "extremal-dim --m 25",
    "siegel --lambency 2 --pmax 3 --nmax 3 --ywindow 6",
    "group-info --lambency 7",
)

GROUP_ORDERS = {3: 190080, 4: 2688, 5: 240, 7: 24, 13: 4}

SQUARED_CLASS_SETS = {
    (3, "2B"): {"1A", "2B", "3A", "4C", "5A", "6C", "3B", "4B", "2C"},
    (4, "2C"): {"1A", "2C", "3A", "4C", "6A", "4A", "2B", "2A"},
    (5, "4AB"): {"2A", "2C", "6A"},
    (7, "4A"): {"1A", "4A", "2A"},
}

DISCRIMINANT_TYPES = {2: [7, 15, 23], 3: [5, 8, 11, 20], 4: [3, 7],
                      5: [4], 7: [3], 13: [4]}

# The op of each workload whose reference ``corrupt=True`` alters; each is
# also the workload's cheapest op, which the gate self-check runs.
CORRUPTED_OP = {
    "deep_vectors": "extract_H(2)",
    "cli_readme": "decompose --lambency 2 --row 31",
    "groups_reps": "umbral_group(13)",
}


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def setup(ms) -> None:
    """Load every bundled data table and build the six character tables and
    class tables (the work ``setup_s`` measures)."""
    for name in sorted(os.listdir(ms.data.data_dir())):
        if name.endswith(".json"):
            ms.data.load_json(name)
    for ell in LAMBENCIES:
        ms.reps.character_table(ell)
        ms.groups.class_table(ell)


# ---------------------------------------------------------------------------
# deep_vectors

def _identity_cells(ms, ell):
    """Stored 1A cells of every component, as (r, exponent, value)."""
    cells = []
    for r in range(1, ell):
        tab = ms.data.load_json(f"mt_{ell}_{r}.json")
        col = tab["classes"].index("1A")
        for key, vals in tab["rows"].items():
            cells.append((r, Fraction(int(key), 4 * ell), vals[col]))
    return cells


def _certify(ell, cells):
    def check(H):
        checked = 0
        for r in range(1, ell):
            # the promised cutoff of component r, neither more nor less
            if H.component(r).cutoff != DEEP_CUTOFF - Fraction(r * r, 4 * ell):
                return False
        for r, e, want in cells:
            comp = H.component(r)
            if e < comp.cutoff:
                if comp.coefficient(e) != want:
                    return False
                checked += 1
        return checked > 0
    return check


def deep_vectors(ms, corrupt=False):
    ops = []
    for ell in LAMBENCIES:
        name = f"extract_H({ell})"
        cells = _identity_cells(ms, ell)
        if corrupt and name == CORRUPTED_OP["deep_vectors"]:
            r, e, v = cells[0]
            cells[0] = (r, e, v + 1)
        ops.append(Op(name, lambda ell=ell: ms.jacobi.extract_H(ell, DEEP_CUTOFF),
                      _certify(ell, cells)))
    return ops


# ---------------------------------------------------------------------------
# cli_readme

def run_cli(ms, command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ms.cli.main(command.split() + ["--json"])
    return code, out.getvalue()


def digest(code, stdout):
    return {"exit": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def cli_readme(ms, corrupt=False):
    with open(REFS) as f:
        refs = json.load(f)["cli_readme"]
    ops = []
    for command in CLI_COMMANDS:
        want = dict(refs[command])
        if corrupt and command == CORRUPTED_OP["cli_readme"]:
            want["sha256"] = hashlib.sha256(want["sha256"].encode()).hexdigest()
        ops.append(Op(command, lambda c=command: run_cli(ms, c),
                      lambda res, want=want: digest(*res) == want))
    return ops


def record_refs(ms) -> dict:
    """References for cli_readme, taken from the library as it stands."""
    return {"cli_readme": {c: digest(*run_cli(ms, c)) for c in CLI_COMMANDS}}


# ---------------------------------------------------------------------------
# groups_reps

def _class_rows(gd):
    return [(c.label, c.gamma, c.chi, c.chibar, c.pi, c.pibar, c.size)
            for c in gd.classes]


def groups_reps(ms, corrupt=False):
    g, reps = ms.groups, ms.reps
    orders = dict(GROUP_ORDERS)
    if corrupt:
        orders[13] += 1
    ops = []
    for ell, order in orders.items():
        ops.append(Op(f"umbral_group({ell})", lambda ell=ell: g.umbral_group(ell),
                      lambda gd, ell=ell, order=order: gd.order == order
                      and _class_rows(gd) == _class_rows(g.class_table(ell))))
    for (ell, label), want in SQUARED_CLASS_SETS.items():
        ops.append(Op(f"squared_class_set({ell},{label})",
                      lambda ell=ell, label=label: g.squared_class_set(ell, label),
                      lambda got, want=want: got == want))
    for ell in LAMBENCIES:
        ops += [
            Op(f"validate_table({ell})", lambda ell=ell: reps.validate_table(ell),
               lambda rep: rep["ok"]),
            Op(f"verify_decomposition_tables({ell})",
               lambda ell=ell: reps.verify_decomposition_tables(ell),
               lambda rep: rep["ok"] and rep["rows"] > 0),
            Op(f"parity_split_ok({ell})", lambda ell=ell: reps.parity_split_ok(ell),
               lambda ok: ok is True),
            Op(f"discriminant_report({ell})", lambda ell=ell: reps.discriminant_report(ell),
               lambda rep, ell=ell: rep["ok"] and rep["types"] == DISCRIMINANT_TYPES[ell]),
        ]
    return ops


WORKLOADS = {
    "deep_vectors": deep_vectors,
    "cli_readme": cli_readme,
    "groups_reps": groups_reps,
}
