import io
import json
from contextlib import redirect_stdout

from moonshine.cli import main


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_extremal_dim_verb():
    code, out = run(["extremal-dim", "--m", "9"])
    assert code == 0 and out.strip() == "0"


def test_usage_error_exit_2():
    code, _ = run(["coeffs", "--lambency", "6", "--class", "1A"])
    assert code == 2
    code, _ = run(["no-such-verb"])
    assert code == 2


def test_component_outside_1_to_l_minus_1_is_a_usage_error(capsys):
    # r = -1 once printed component 1 under that label, r = 5 an IndexError
    for verb in ("coeffs", "twist"):
        for r in ("-1", "0", "3", "5"):
            code, out = run([verb, "--lambency", "3", "--class", "2B", "--r", r,
                             "--order", "3"])
            assert (code, out) == (2, ""), (verb, r)
            assert capsys.readouterr().err.startswith("usage error: component r")


def test_data_error_exit_3():
    code, _ = run(["coeffs", "--lambency", "3", "--class", "99Z", "--order", "3"])
    assert code == 3


def test_coeffs_layout_matches_table_column():
    code, out = run(["coeffs", "--lambency", "3", "--r", "1",
                     "--class", "2B", "--order", "6"])
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines() if "\t" in line]
    head = [(int(k), v) for k, v in rows[:6]]
    assert head == [(-1, "-2"), (11, "0"), (23, "-2"), (35, "0"),
                    (47, "4"), (59, "0")]


def test_coeffs_order_cuts_stored_columns():
    # a stored column is cut at the order asked, as a computed one is
    counts = []
    for cls in ("1A", "3AB"):
        code, out = run(["coeffs", "--lambency", "7", "--class", cls, "--r", "1", "--order", "2"])
        assert code == 0
        counts.append(sum("\t" in line for line in out.splitlines()))
    assert counts == [3, 3]


def test_coeffs_json_deterministic():
    args = ["coeffs", "--json", "--lambency", "13", "--class", "4AB", "--order", "5"]
    code1, out1 = run(args)
    code2, out2 = run(args)
    assert code1 == code2 == 0 and out1 == out2
    payload = json.loads(out1)
    assert payload["class"] == "4AB"


def test_group_info():
    code, out = run(["group-info", "--lambency", "7"])
    assert code == 0 and "group order 24" in out


def test_verify_group():
    code, out = run(["verify-group", "--lambency", "13"])
    assert code == 0 and "ok" in out


def test_verify_group_rejects_the_stored_lambency_2_group(capsys):
    # generate(2) returns the stored table, which would be compared with itself
    assert run(["verify-group", "--lambency", "2"]) == (2, "")
    assert "stored, not generated" in capsys.readouterr().err


def test_verify_group_exits_1_on_a_planted_pairing(monkeypatch, capsys):
    # the generated group's central element sends 1A to 2A, not to 1A
    from moonshine import groups
    t = groups.class_table(5)
    planted = groups.GroupData(5, t.order, list(t.classes), {**t.pairing, "1A": "1A"})
    monkeypatch.setattr(groups, "class_table", lambda _: planted)
    assert run(["verify-group", "--lambency", "5"]) == (1, "")
    assert capsys.readouterr().err == "error: pairing mismatch at 1A: 2A\n"


def test_verify_group_exits_1_on_swapped_centralizer_orders(tmp_path):
    # 3A and 3B at lambency 3 (108 and 72) swapped in chartab_3.json: the stored
    # class sizes then disagree with the generated group's
    import shutil
    from moonshine.data import data_dir, set_data_dir
    alt = tmp_path / "tables"
    shutil.copytree(data_dir(), alt)
    path = alt / "chartab_3.json"
    table = json.loads(path.read_text())
    a, b = table["classes"].index("3A"), table["classes"].index("3B")
    c = table["centralizers"]
    assert (c[a], c[b]) == (108, 72)
    c[a], c[b] = c[b], c[a]
    path.write_text(json.dumps(table))
    try:
        code, out = run(["verify-group", "--lambency", "3", "--data-dir", str(alt)])
    finally:
        set_data_dir(None)
    assert (code, out) == (1, "lambency 3: order 190080, 21 classes, MISMATCH\n")
    assert run(["verify-group", "--lambency", "3"]) == (0, "lambency 3: order 190080, 21 classes, ok\n")


def test_negative_order_is_a_usage_error(capsys):
    # 2B at lambency 2 is computed, 3AB at lambency 7 read from its stored column
    for argv in (["coeffs", "--lambency", "2", "--class", "2B"],
                 ["twist", "--lambency", "5", "--class", "2B"],
                 ["extract", "--lambency", "13"],
                 ["coeffs", "--lambency", "7", "--class", "3AB"]):
        assert run(argv + ["--order", "-1"]) == (2, ""), argv
        assert capsys.readouterr().err == "usage error: --order must be >= 0, got -1\n"
    for argv in (["coeffs", "--lambency", "2", "--class", "2B", "--r", "1"],
                 ["coeffs", "--lambency", "7", "--class", "3AB", "--r", "1"]):
        code, out = run(argv + ["--order", "0"])
        assert code == 0 and out.splitlines()[1] == "-1\t-2", argv


def test_verify_tables_small():
    code, out = run(["verify-tables", "--lambency", "13"])
    assert code == 0 and "3 classes, 1341 cells, 0 mismatches" in out, out


def test_verify_tables_counts_cells_read_back():
    # the classes built from their stored columns compare them with themselves
    for ell, want in {2: 0, 3: 0, 4: 0, 5: 0, 7: 678, 13: 447}.items():
        code, out = run(["verify-tables", "--json", "--lambency", str(ell)])
        assert code == 0 and json.loads(out)["read_back"] == want, ell
    code, out = run(["verify-tables", "--lambency", "7"])
    assert "1130 cells, 0 mismatches; 678 cells read back from their source table" in out


def test_verify_tables_json_keeps_its_digest():
    # sha256 over the exit code and stdout of `verify-tables --lambency l --json` at all six
    # lambencies; recorded at commit 65d4f65, where each stored cell was read from one
    # {label: value} dict per row, the errata applied to a copy of that row
    import hashlib
    h = hashlib.sha256()
    for ell in (2, 3, 4, 5, 7, 13):
        code, out = run(["verify-tables", "--lambency", str(ell), "--json"])
        h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == "86ba6b8e41b7fcb4db0c7bd58c79f23257d6dab28bf7ab4d8de8f5dacdc3cc59"


def test_verify_tables_fails_a_row_past_the_cutoff(monkeypatch):
    # a stored row the computed series does not reach is a failure, not a skip
    from dataclasses import replace

    from moonshine import mckay
    full = mckay.twisted_H

    def short(*args):
        tw = full(*args)
        return replace(tw, components=[s.truncate(5) for s in tw.components])

    monkeypatch.setattr(mckay, "twisted_H", short)
    code, out = run(["verify-tables", "--lambency", "13"])
    assert code == 1 and "past cutoff 5" in out, out


def test_decompose_verb():
    code, out = run(["decompose", "--lambency", "2", "--row", "7"])
    assert code == 0 and out.strip() == "1*chi_3 + 1*chi_4"


def test_order_too_large_for_memory_is_a_usage_error(monkeypatch, capsys):
    # at --order 10^12 the lambency-4 bridge's divisor sieve cannot be allocated;
    # the builder is made to raise MemoryError here rather than allocate for real
    from moonshine import mckay

    def build(*args):
        raise MemoryError
    monkeypatch.setattr(mckay, "twisted_H", build)
    argv = ["twist", "--lambency", "4", "--class", "2C", "--order", "1000000000000"]
    assert run(argv) == (2, "")
    assert capsys.readouterr().err == \
        "usage error: --order 1000000000000: too large to build in memory\n"


def test_decompose_row_fixes_r(capsys):
    # the row key fixes r, so there is no --r; a row off the lattice is a usage error
    code, out = run(["decompose", "--lambency", "2", "--row", "31"])
    assert code == 0 and out.strip() == "2*chi_20"
    assert run(["decompose", "--lambency", "2", "--row", "31", "--r", "1"]) == (2, "")
    assert "unrecognized arguments: --r" in capsys.readouterr().err
    assert run(["decompose", "--lambency", "2", "--row", "32"]) == (2, "")
    assert capsys.readouterr().err == "usage error: row 32 off the lambency-2 lattice\n"


def test_discriminants_verb():
    code, out = run(["discriminants", "--lambency", "13"])
    assert code == 0 and "ok" in out


def test_siegel_verb():
    code, out = run(["siegel", "--lambency", "2", "--pmax", "2", "--nmax", "2"])
    assert code == 0 and "equal" in out


def test_siegel_verb_json_at_lambency_2():
    code, out = run(["siegel", "--json", "--lambency", "2", "--pmax", "2", "--nmax", "2"])
    payload = json.loads(out)
    assert code == 0 and payload["compare"]["ok"] and payload["coefficients"]


def test_siegel_verb_past_lambency_2():
    # the product lift alone; --ywindow is read at lambency 2 only
    code, out = run(["siegel", "--lambency", "3"])
    assert code == 0 and out == "prefactor exponents ['1/2', '1', '1']; 166 coefficients\n"
    assert run(["siegel", "--lambency", "3", "--ywindow", "99"]) == (code, out)
    code, out = run(["siegel", "--json", "--lambency", "3"])
    payload = json.loads(out)
    assert code == 0 and payload["lambency"] == 3 and payload["prefactor"] == ["1/2", "1", "1"]
    assert len(payload["coefficients"]) == 166
    assert payload["coefficients"][0] == {"m": 0, "n": 0, "r": -2, "c": "1/1"}


def test_siegel_negative_pmax_is_a_usage_error():
    code, _ = run(["siegel", "--lambency", "3", "--pmax", "-1"])
    assert code == 2


def test_siegel_negative_ywindow_is_a_usage_error():
    code, _ = run(["siegel", "--lambency", "2", "--ywindow", "-1"])
    assert code == 2


def test_siegel_empty_box_is_a_usage_error():
    code, _ = run(["siegel", "--lambency", "2", "--pmax", "0", "--nmax", "0"])
    assert code == 2
    code, _ = run(["siegel", "--lambency", "2", "--nmax", "0"])
    assert code == 2


def test_siegel_box_edges_are_accepted():
    code, out = run(["siegel", "--lambency", "2", "--pmax", "1", "--nmax", "1",
                     "--ywindow", "0"])
    assert code == 0 and "equal" in out


def test_extract_verb():
    code, out = run(["extract", "--lambency", "5", "--order", "3"])
    assert code == 0 and "H_1" in out and "H_4" in out


def test_twist_verb_series_form():
    code, out = run(["twist", "--lambency", "2", "--class", "4B", "--order", "6"])
    assert code == 0 and out.startswith("H_1 = q^(-1/8)*(-2 + 2*q(") is False
    assert "q^(-1/8)*(-2 + 2*q^(1)" in out


def test_data_dir_override(tmp_path, monkeypatch):
    import shutil
    from moonshine.data import data_dir, set_data_dir
    alt = tmp_path / "tables"
    shutil.copytree(data_dir(), alt)
    code, out = run(["group-info", "--lambency", "13", "--data-dir", str(alt)])
    set_data_dir(None)
    assert code == 0 and "group order 4" in out
    monkeypatch.setenv("MOONSHINE_DATA_DIR", str(alt))
    assert data_dir() == alt
    monkeypatch.delenv("MOONSHINE_DATA_DIR")


def test_class_table_missing_a_column_exits_1(tmp_path, capsys):
    # 23AB, the last class, dropped from every column of euler_2.json
    import shutil
    from moonshine.data import data_dir, set_data_dir
    alt = tmp_path / "tables"
    shutil.copytree(data_dir(), alt)
    path = alt / "euler_2.json"
    table = json.loads(path.read_text())
    assert table["classes"][-1] == "23AB"
    for column in ("classes", "gamma", "chi", "chibar", "pi", "pibar"):
        del table[column][-1]
    path.write_text(json.dumps(table))
    try:
        code, out = run(["group-info", "--lambency", "2", "--data-dir", str(alt)])
    finally:
        set_data_dir(None)
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "error: lambency 2: euler_2.json does not list each character-table column once: "
        "missing ['23A', '23B'], unknown or repeated []\n")


def test_off_lattice_quarter_twist_in_data_exits_1(tmp_path, capsys):
    # 2C's F2 form at lambency 5 is the quarter twist of 2B's; with 2B's F2
    # terms replaced by one lambda block (integer exponents) the twist is
    # off its lattice, which the CLI reports as corrupt data, not a traceback
    import shutil
    from moonshine.data import data_dir, set_data_dir
    alt = tmp_path / "tables"
    shutil.copytree(data_dir(), alt)
    path = alt / "weight2_5.json"
    table = json.loads(path.read_text())
    rec = next(r for r in table["records"] if (r["class"], r["variant"]) == ("2B", "F2"))
    rec["terms"] = [{"coeff": "1", "block": {"type": "lambda", "n": 2}, "scale": "1"}]
    path.write_text(json.dumps(table))
    try:
        code, _ = run(["twist", "--lambency", "5", "--class", "2C", "--order", "5",
                       "--data-dir", str(alt)])
    finally:
        set_data_dir(None)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: quarter twist off-lattice exponent")


def test_unknown_newform_in_data_exits_3(tmp_path, capsys):
    # f20 renamed f99 in the lambency-3 catalog: a data error naming the label,
    # not a KeyError traceback
    import shutil
    from moonshine.data import data_dir, set_data_dir
    alt = tmp_path / "tables"
    shutil.copytree(data_dir(), alt)
    path = alt / "weight2_3.json"
    text = path.read_text()
    assert text.count('"f20"') == 1
    path.write_text(text.replace('"f20"', '"f99"'))
    try:
        code, out = run(["verify-identities", "--data-dir", str(alt)])
    finally:
        set_data_dir(None)
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "data error: unknown newform 'f99'\n"


def _fresh(argv):
    """Exit code, stdout and stderr of ``argv`` in a new interpreter."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import moonshine
    env = {**os.environ, "PYTHONPATH": str(Path(moonshine.__file__).parent.parent)}
    env.pop("MOONSHINE_DATA_DIR", None)
    proc = subprocess.run([sys.executable, "-m", "moonshine.cli", *argv], env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_main_calls_in_one_process_print_what_fresh_processes_print(tmp_path, capsys):
    # the parser is built once per process: no flag of one call may reach the next
    import shutil
    from moonshine.data import data_dir, set_data_dir
    alt = tmp_path / "tables"
    shutil.copytree(data_dir(), alt)
    path = alt / "euler_5.json"
    table = json.loads(path.read_text())
    table["gamma"][table["classes"].index("4AB")] = "4|4"
    path.write_text(json.dumps(table))
    calls = [(["group-info", "--lambency", "13", "--json"], ["group-info", "--lambency", "13"]),
             (["group-info", "--lambency", "5", "--data-dir", str(alt)],
              ["group-info", "--lambency", "5"])]
    for pair in calls:
        got = []
        try:
            for argv in pair:
                before = data_dir()
                code = main(argv)
                got.append((code, *capsys.readouterr()))
                assert data_dir() == before  # --data-dir holds for its own call only
        finally:
            set_data_dir(None)
        assert got == [_fresh(argv) for argv in pair]
    assert got[0][0] == 1 and got[1][0] == 0
