"""Command-line interface: compute, verify, and export.

Verbs: coeffs, extract, twist, verify-tables, verify-identities,
verify-group, decompose, discriminants, extremal-dim, siegel, group-info.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 data error.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache

from . import groups, jacobi, mckay, reps, siegel
from .data import LAMBENCIES, set_data_dir
from .errors import MoonshineError, OutOfRange, UnknownClass


@cache  # built once per process; parse_args keeps no state between calls
def _parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--data-dir", help="override the bundled data directory")
    shared.add_argument("--json", action="store_true", help="machine-readable output")
    p = argparse.ArgumentParser(prog="moonshine",
                                description="exact computations around the six "
                                            "distinguished mock modular vectors")
    # no prefix matching: decompose takes no --r, which would pass as --row
    sub = p.add_subparsers(dest="verb", required=True,
                           parser_class=lambda **kw: argparse.ArgumentParser(
                               parents=[shared], allow_abbrev=False, **kw))

    def common(sp, cls=False, r=False, order=None):
        sp.add_argument("--lambency", type=int, required=True, choices=LAMBENCIES)
        if cls:
            sp.add_argument("--class", dest="cls", required=cls == "req")
        if r:
            sp.add_argument("--r", type=int)
        if order is not None:
            sp.add_argument("--order", type=int, default=order,
                            help="integer q-order bound; rows are keyed by "
                                 "4*l*d on the 1/(4l) exponent lattice")
        return sp

    common(sub.add_parser("coeffs", help="table-format coefficient rows"),
           cls="req", r=True, order=40)
    common(sub.add_parser("extract", help="identity-class vector from the "
                                          "weight-0 form"), order=40)
    common(sub.add_parser("twist", help="twisted series for one class"),
           cls="req", r=True, order=40)
    common(sub.add_parser("verify-tables", help="compare stored coefficient tables "
                          "with the twisted series (recomputed, except the source "
                          "columns at lambencies 7 and 13, which are read back)"),
           order=None)
    sub.add_parser("verify-identities", help="mock theta identities, and each "
                   "cataloged weight-2 form against the form rebuilt from the "
                   "stored tables")
    common(sub.add_parser("verify-group", help="group regeneration checks"))
    common(sub.add_parser("decompose", help="decompose one table row")).add_argument(
        "--row", type=int, required=True, help="row key 4l*d, which fixes the component r")
    common(sub.add_parser("discriminants", help="discriminant property suite"))
    ed = sub.add_parser("extremal-dim", help="extremal candidate space dimension")
    ed.add_argument("--m", type=int, required=True, choices=range(2, 26), metavar="2..25")
    sg = common(sub.add_parser("siegel", help="lift coefficients"))
    sg.add_argument("--pmax", type=int, default=3)
    sg.add_argument("--nmax", type=int, default=3)
    sg.add_argument("--ywindow", type=int, default=6,
                    help="y-window of the additive vs product comparison (lambency 2 only)")
    common(sub.add_parser("group-info", help="conjugacy class inventory"))
    return p


def _emit(args, payload, text_fn):
    if args.json:
        print(json.dumps(payload, indent=1, default=str))
    else:
        text_fn(payload)


def _series_rows(comp, ell, r):
    """Full lattice rows keyed by 4*l*d, zeros included, table layout."""
    rows = []
    k = -r * r
    top = comp.cutoff * 4 * ell
    while k < top:
        c = comp.coefficient(Fraction(k, 4 * ell))
        if rows or c != 0:
            rows.append((k, str(c)))
        k += 4 * ell
    return rows


def _qcut(args) -> Fraction:
    """The q-cutoff one past ``--order``."""
    if args.order < 0:
        raise OutOfRange(f"--order must be >= 0, got {args.order}")
    return Fraction(args.order + 1, 1)


def cmd_coeffs(args):
    ell = args.lambency
    tw = mckay.twisted_H(ell, args.cls, _qcut(args))
    rs = list(range(1, ell)) if args.r is None else [args.r]
    payload = {"lambency": ell, "class": args.cls, "components": {}}
    for r in rs:
        payload["components"][r] = _series_rows(tw.component(r), ell, r)
    def text(p):
        for r, rows in p["components"].items():
            print(f"# component r={r} (rows keyed by 4*l*d)")
            for k, v in rows:
                print(f"{k}\t{v}")
    _emit(args, payload, text)
    return 0


def cmd_extract(args):
    ell = args.lambency
    H = jacobi.extract_H(ell, _qcut(args))
    payload = {"lambency": ell,
               "components": {r: H.component(r).render(16) for r in range(1, ell)}}
    _emit(args, payload, lambda p: [print(f"H_{r} = {s}")
                                    for r, s in p["components"].items()])
    return 0


def cmd_twist(args):
    ell = args.lambency
    tw = mckay.twisted_H(ell, args.cls, _qcut(args))
    rs = list(range(1, ell)) if args.r is None else [args.r]
    payload = {"lambency": ell, "class": args.cls,
               "chi": tw.chi, "chibar": tw.chibar,
               "symbol": f"{tw.symbol[0]}|{tw.symbol[1]}",
               "components": {r: tw.component(r).render(16) for r in rs}}
    _emit(args, payload, lambda p: [print(f"H_{r} = {s}")
                                    for r, s in p["components"].items()])
    return 0


def cmd_verify_tables(args):
    ell = args.lambency
    tables = reps.corrected_tables(ell)
    qcut = Fraction(max(max(t.keys) for t in tables.values()) + 4 * ell, 4 * ell) + 1
    classes = list(tables[1].columns)

    def check(lab):
        """(class, r, row, computed, stored) for every stored cell; a cell at
        or past its component's cutoff is computed as "past cutoff c"."""
        tw = mckay.twisted_H(ell, lab, qcut)
        for r, t in tables.items():
            comp = tw.component(r)
            for k, want in zip(t.keys, t.columns[lab]):
                e = Fraction(k, 4 * ell)
                got = comp.coefficient(e) if e < comp.cutoff else f"past cutoff {comp.cutoff}"
                yield lab, r, k, str(got), want

    cells = [cell for lab in classes for cell in check(lab)]
    bad = [cell for cell in cells if cell[3] != str(cell[4])]
    # a class built from its stored columns compares them with themselves
    read_back = sum(mckay.from_stored_column(ell, cell[0]) for cell in cells)
    payload = {"lambency": ell, "classes": len(classes), "cells": len(cells),
               "read_back": read_back, "mismatches": bad}
    _emit(args, payload, lambda p: print(
        f"lambency {p['lambency']}: {p['classes']} classes, {p['cells']} cells, "
        f"{len(p['mismatches'])} mismatches; {p['read_back']} cells read back "
        "from their source table"
        + (f"; first {p['mismatches'][0]}" if p["mismatches"] else "")))
    return 0 if not bad else 1


def cmd_verify_identities(args):
    # the lambency-4 identities first: their bridge builds lambency 2 deepest, at 2*21 + 1/8
    checks = {name: mckay.mock_identity_check(name) for name in
              sorted(mckay.MOCK_IDENTITIES, key=lambda name: not name.startswith("4:"))}
    failures = [("mock", name, checks[name]["first_mismatch"])
                for name in sorted(checks) if not checks[name]["ok"]]
    for ell in LAMBENCIES:
        if ell == 4:
            continue
        for lab in mckay.weight2_classes(ell, "F"):
            r = mckay.verify_F_consistency(ell, lab, qcut=12)
            if not r["ok"]:
                failures.append(("weight2", ell, lab))
    payload = {"failures": failures, "ok": not failures}
    _emit(args, payload, lambda p: print(
        "all identities hold" if p["ok"] else f"failures: {p['failures']}"))
    return 0 if not failures else 1


def cmd_verify_group(args):
    ell = args.lambency
    if ell == 2:
        print("usage error: the lambency-2 group is stored, not generated; "
              "there is nothing to verify it against", file=sys.stderr)
        return 2
    gd = groups.generate(ell)
    stored = groups.class_table(ell)
    # generate takes its labels and pairing from the stored table, so only
    # the order and the class sizes are the generated group's own
    ok = gd.order == stored.order and all(
        a.size == b.size for a, b in zip(gd.classes, stored.classes))
    payload = {"lambency": ell, "order": gd.order,
               "classes": len(gd.classes), "ok": ok}
    _emit(args, payload, lambda p: print(
        f"lambency {p['lambency']}: order {p['order']}, {p['classes']} classes, "
        f"{'ok' if p['ok'] else 'MISMATCH'}"))
    return 0 if ok else 1


def cmd_decompose(args):
    ell = args.lambency
    r = reps.row_component(ell, args.row)
    got = reps.decompose(ell, r, args.row, reps.coefficient_row(ell, r, args.row))
    payload = {"lambency": ell, "r": r, "row": args.row,
               "multiplicities": {i + 1: str(c) for i, c in enumerate(got.counts) if c},
               "integral": got.integral, "nonnegative": got.nonnegative}
    _emit(args, payload, lambda p: print(
        " + ".join(f"{v}*chi_{k}" for k, v in p["multiplicities"].items())
        + ("" if p["integral"] and p["nonnegative"] else "  [NOT a module!]")))
    return 0


def cmd_discriminants(args):
    rep = reps.discriminant_report(args.lambency)
    _emit(args, rep, lambda p: print(
        f"types {p['types']}; fs {'ok' if p['fs_matches'] else 'FAIL'}; "
        f"minimal rows {'ok' if p['minimal_ok'] else 'FAIL'}; "
        f"doublets {'ok' if p['doublet_ok'] else 'FAIL'} over {p['doublet_rows']} rows"))
    return 0 if rep["ok"] else 1


def cmd_extremal_dim(args):
    d = jacobi.extremal_space_dim(args.m)
    print(d)
    return 0


def cmd_siegel(args):
    ell = args.lambency
    if min(args.pmax, args.nmax) < 1 or args.ywindow < 0:
        print("usage error: --pmax and --nmax must be >= 1, --ywindow >= 0", file=sys.stderr)
        return 2
    if ell == 2:
        rep = siegel.compare_igusa(args.pmax, args.nmax, args.ywindow)
        if args.json:
            lift = siegel.exponential_lift(2, args.pmax, args.nmax)
            print(json.dumps({"compare": rep, "coefficients": lift.dump()},
                             indent=1, default=str))
        else:
            print(f"additive vs product lift on box {rep['box']}: "
                  + ("equal" if rep["ok"] else f"MISMATCH at {rep['first_mismatch']}"))
        return 0 if rep["ok"] else 1
    lift = siegel.exponential_lift(ell, args.pmax, args.nmax)
    payload = {"lambency": ell, "prefactor": [str(x) for x in lift.prefactor],
               "coefficients": lift.dump()}
    _emit(args, payload, lambda p: print(
        f"prefactor exponents {p['prefactor']}; {len(p['coefficients'])} coefficients"))
    return 0


def cmd_group_info(args):
    gd = groups.umbral_group(args.lambency)
    payload = {"lambency": args.lambency, "order": gd.order, "classes": [
        {"label": c.label, "size": c.size, "order": c.order,
         "gamma": f"{c.gamma[0]}|{c.gamma[1]}" if c.gamma[1] != 1 else str(c.gamma[0]),
         "chi": c.chi, "chibar": c.chibar,
         "pi": groups.frame_str(c.pi), "pibar": groups.frame_str(c.pibar),
         "paired": gd.pairing[c.label]} for c in gd.classes]}
    def text(p):
        print(f"group order {p['order']}")
        for c in p["classes"]:
            print(f"{c['label']:>5} size {c['size']:>7} Gamma {c['gamma']:>6} "
                  f"chi {c['chi']:>3} chibar {c['chibar']:>3}  Pi {c['pi']}")
    _emit(args, payload, text)
    return 0


_DISPATCH = {
    "coeffs": cmd_coeffs,
    "extract": cmd_extract,
    "twist": cmd_twist,
    "verify-tables": cmd_verify_tables,
    "verify-identities": cmd_verify_identities,
    "verify-group": cmd_verify_group,
    "decompose": cmd_decompose,
    "discriminants": cmd_discriminants,
    "extremal-dim": cmd_extremal_dim,
    "siegel": cmd_siegel,
    "group-info": cmd_group_info,
}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    caller = set_data_dir(args.data_dir) if args.data_dir else None
    try:
        return _DISPATCH[args.verb](args)
    except OutOfRange as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a bound past what memory holds is a usage error too
        bound = f"--order {args.order}" if "order" in args else args.verb
        print(f"usage error: {bound}: too large to build in memory", file=sys.stderr)
        return 2
    except (UnknownClass, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except MoonshineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.data_dir:  # the flag holds for this call only
            set_data_dir(caller)


if __name__ == "__main__":
    sys.exit(main())
