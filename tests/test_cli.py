"""CLI verbs, exit codes, and byte-determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import semiquandles
from semiquandles.algebra import (StructureError, builtin_bundle,
                                  format_table_text, parse_table_text)
from semiquandles.cli import _build_parser, main

T4_SING_TEXT = format_table_text(builtin_bundle("t4_sing"))


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify

def test_verify_builtin_bundles(capsys):
    rc, out, _ = run(capsys, "verify", "--builtin", "t4")
    assert rc == 0 and out == "valid semiquandle of order 4\n"
    rc, out, _ = run(capsys, "verify", "--builtin", "t4_sing")
    assert rc == 0 and "singular" in out
    rc, out, _ = run(capsys, "verify", "--builtin", "ts3_v13", "--json")
    assert rc == 0
    report = json.loads(out)
    assert report["valid"] and report["structure"] == ["semiquandle", "virtual"]


def test_verify_table_file(tmp_path, capsys):
    f = tmp_path / "t4s.txt"
    f.write_text(T4_SING_TEXT)
    rc, out, _ = run(capsys, "verify", "--table", str(f))
    assert rc == 0 and out.startswith("valid semiquandle singular")


def test_verify_corrupted_table_reports_axiom_witness(tmp_path, capsys):
    # swap two entries within the first column of the up block: columns
    # stay permutations, so the failure is an axiom, not a format error
    lines = format_table_text(builtin_bundle("t4")).splitlines()
    r1, r3 = lines[2].split(), lines[4].split()
    r1[0], r3[0] = r3[0], r1[0]
    lines[2], lines[4] = " ".join(r1), " ".join(r3)
    f = tmp_path / "bad.txt"
    f.write_text("\n".join(lines) + "\n")
    rc, out, _ = run(capsys, "verify", "--table", str(f))
    assert rc == 1
    assert out.startswith("invalid:")
    rc, out, _ = run(capsys, "verify", "--table", str(f), "--json")
    assert rc == 1 and json.loads(out)["valid"] is False


def test_verify_usage_errors(capsys):
    rc, _, err = run(capsys, "verify")
    assert rc == 2 and "usage error" in err
    rc, _, err = run(capsys, "verify", "--table", "x", "--builtin", "t4")
    assert rc == 2


def test_verify_builtin_takes_bundle_names_only(tmp_path, capsys):
    f = tmp_path / "t4s.txt"
    f.write_text(T4_SING_TEXT)
    for name in ("nope", str(f)):
        rc, out, err = run(capsys, "verify", "--builtin", name)
        assert rc == 2 and not out
        assert err == f"usage error: unknown builtin bundle {name!r}\n"
    # --table takes a file path or a builtin bundle name
    for spec in (str(f), "t4_sing"):
        rc, out, _ = run(capsys, "verify", "--table", spec)
        assert rc == 0 and out == "valid semiquandle singular of order 4\n"


def test_unreadable_file_is_usage_error(capsys):
    rc, _, err = run(capsys, "verify", "--table", "/nonexistent/table.txt")
    assert rc == 2 and "cannot read" in err


def test_verify_non_integer_entry_is_invalid_input(tmp_path, capsys):
    for name, text in (("entry", "semiquandle 2\n1 x\n2 1\n\n1 1\n2 2\n"),
                       ("v", "semiquandle 1 virtual\n1\n\n1\n\nv: a\n")):
        f = tmp_path / f"{name}.txt"
        f.write_text(text)
        rc, out, err = run(capsys, "verify", "--table", str(f))
        assert rc == 1 and out.startswith("invalid:") and "non-integer" in out
        assert len((out + err).splitlines()) == 1


def test_verify_order_zero_is_invalid_input(tmp_path, capsys):
    f = tmp_path / "empty.txt"
    f.write_text("semiquandle 0\n")
    rc, out, err = run(capsys, "verify", "--table", str(f))
    assert rc == 1 and out.startswith("invalid:") and not err
    assert len(out.splitlines()) == 1


@pytest.mark.parametrize("text, message", [
    ("semiquandle 1 singular\n1\n\n1\n\n1\n\n1 1\n", "structure@('hdn', 'row-length', 1)"),
    ("semiquandle 2 virtual\n1 1\n2 2\n\n1 1\n2 2\n\nv: 1 1\n",
     "structure@('v', 'not-a-permutation')"),
    ("semiquandle 2\n1 1\n2 2\n\n1 1 1\n2 2\n", "structure@('dn', 'row-length', 1)"),
    ("semiquandle 2 virtual\n1 1\n2 2\n\n1 1\n2 2\n\nv: 2 1\nv: 1 2\n",
     "more than one 'v:' line"),
    ("semiquandle 1 virtual virtual\n1\n\n1\n\nv: 1\n", "repeated flags ['virtual']"),
], ids=["hat", "v", "dn", "two-v-lines", "repeated-flag"])
def test_verify_malformed_block_is_one_line_structure_error(tmp_path, capsys, text, message):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    with pytest.raises(StructureError):
        parse_table_text(text)
    rc, out, err = run(capsys, "verify", "--table", str(f))
    assert rc == 1 and not err
    assert out == f"invalid: {f}: {message}\n"


# ---------------------------------------------------------------------------
# enumerate

def test_enumerate_order_below_one_is_invalid_input(capsys):
    for n in ("0", "-2"):
        rc, out, err = run(capsys, "enumerate", "--n", n)
        assert rc == 1 and not out
        assert err.startswith("invalid input:") and len(err.splitlines()) == 1


def test_enumerate_order_2(capsys):
    rc, out, _ = run(capsys, "enumerate", "--n", "2")
    assert rc == 0
    assert out.count("%\n") == 2
    assert out.rstrip().endswith("count: 2")
    rc, out, _ = run(capsys, "enumerate", "--n", "2", "--json")
    assert rc == 0 and json.loads(out)["count"] == 2


def test_enumerate_iso_classes(capsys):
    rc, out, _ = run(capsys, "enumerate", "--n", "3", "--iso", "--json")
    assert rc == 0 and json.loads(out)["count"] == 5


def test_enumerate_requires_n(capsys):
    rc, _, err = run(capsys, "enumerate")
    assert rc == 2 and "requires --n" in err


def test_enumerate_budget_exhaustion_exits_3(capsys):
    rc, _, err = run(capsys, "enumerate", "--n", "3", "--budget", "50", "--json")
    assert rc == 3 and err.count("budget exceeded") == 1


def test_enumerate_order4_iso_classes(capsys):
    rc, out, _ = run(capsys, "enumerate", "--n", "4", "--iso", "--json")
    assert rc == 0 and json.loads(out)["count"] == 23


# SHA-256 of `enumerate --n 4` stdout, keyed by (--iso, --json): the
# search must keep yielding the same tables in the same order
ENUMERATE_4_SHA256 = {
    (False, False): "a40d95b46b99110e51dbc03afb7974de30371aba9fc2d3d8d183ffd64b0bb36e",
    (True, False): "682694f8fa08fea6a1d544e448896554d86dafd8e3a139c1dab89b1878ada2e3",
    (False, True): "24bb783d303da77e12cb7e587dfe3f64b01add5d5a505cd74813bfe1abddc723",
    (True, True): "e8b4fe8d0cba28a3d0d5fbf82c48b0ff9d2b9502caeefa60e6d7d2188fb15a86",
}


@pytest.mark.parametrize("iso, as_json", sorted(ENUMERATE_4_SHA256))
def test_enumerate_order_4_stdout_is_pinned(capsys, iso, as_json):
    argv = ["enumerate", "--n", "4"] + ["--iso"] * iso + ["--json"] * as_json
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_4_SHA256[iso, as_json]


def test_enumerate_large_order_reaches_its_budget(capsys):
    # the candidate columns are generated one at a time: listing the 12!
    # permutations first would exhaust memory before the first node
    start = time.perf_counter()
    rc, _, err = run(capsys, "enumerate", "--n", "12", "--budget", "10")
    assert time.perf_counter() - start < 2.0
    assert rc == 3 and len(err.splitlines()) == 1
    assert err.startswith("budget exceeded: stopped after 11 nodes")


def test_enumerate_order_above_the_cap_is_invalid_input(capsys):
    # the axiom checks are set up before the budget is first consulted
    start = time.perf_counter()
    for n in ("17", "100", "150"):
        rc, out, err = run(capsys, "enumerate", "--n", n, "--budget", "1")
        assert rc == 1 and not out
        assert err == f"invalid input: --n must be from 1 to 16, got {n}\n"
    assert time.perf_counter() - start < 1.0
    rc, _, err = run(capsys, "enumerate", "--n", "16", "--budget", "1")
    assert rc == 3 and err.startswith("budget exceeded:")


def test_enumerate_negative_budget_is_invalid_input(capsys):
    rc, out, err = run(capsys, "enumerate", "--n", "3", "--budget", "-1")
    assert rc == 1 and not out
    assert err.startswith("invalid input:") and len(err.splitlines()) == 1
    rc, _, err = run(capsys, "enumerate", "--n", "3", "--budget", "0")
    assert rc == 3 and "budget exceeded" in err


# ---------------------------------------------------------------------------
# count / poly

def test_count_flat_kishino_over_t4(capsys):
    rc, out, _ = run(capsys, "count", "--table", "t4",
                     "--builtin", "flat_kishino")
    assert rc == 0 and json.loads(out) == {"count": 16}


def test_poly_singular_kink_over_ca3_op(capsys):
    rc, out, _ = run(capsys, "poly", "--table", "ca3_op",
                     "--builtin", "singular_unknot_1")
    assert rc == 0
    report = json.loads(out)
    assert report["count"] == 9 and report["polynomial"] == "9z^3"


def test_poly_from_code_file(tmp_path, capsys):
    f = tmp_path / "hopf.txt"
    f.write_text("comp: F1.sup V1.v+\ncomp: F1.sub V1.v-\n")
    rc, out, _ = run(capsys, "poly", "--table", "ts3_v13", "--code", str(f))
    assert rc == 0
    assert json.loads(out)["polynomial"] != "z + 4z^2 + 4z^3"


def test_count_budget_exhaustion_exits_3(tmp_path, capsys):
    from semiquandles.moves import random_code
    f = tmp_path / "seed10.txt"
    f.write_text(random_code({"F": 20}, seed=10).text())
    rc, out, err = run(capsys, "count", "--table", "t4", "--code", str(f),
                       "--budget", "50")
    assert rc == 3 and not out
    assert err.startswith("budget exceeded:") and len(err.splitlines()) == 1
    assert "colorings found" in err and err.count("budget exceeded") == 1
    rc, out, _ = run(capsys, "count", "--table", "t4", "--code", str(f))
    assert rc == 0 and json.loads(out) == {"count": 4}


@pytest.mark.parametrize("verb", ["count", "poly"])
def test_solver_negative_budget_is_invalid_input(capsys, verb):
    rc, out, err = run(capsys, verb, "--table", "t4", "--builtin",
                       "flat_kishino", "--budget", "-1")
    assert rc == 1 and not out
    assert err.startswith("invalid input:") and len(err.splitlines()) == 1


def test_vassiliev_passes_the_budget_to_the_solver(tmp_path, capsys):
    f = tmp_path / "trefoil.txt"
    f.write_text("comp: C1.over+ C2.under+ C3.over+ C1.under+ C2.over+ C3.under+\n")
    argv = ["vassiliev", "--k1", str(f), "--k2", str(f), "--probes", "t4_sing"]
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and json.loads(out)["conclusion"] == "inconclusive"
    rc, out, err = run(capsys, *argv, "--budget", "0")
    assert rc == 3 and not out and len(err.splitlines()) == 1


def test_count_missing_extension_is_invalid_input(capsys):
    rc, _, err = run(capsys, "count", "--table", "t4",
                     "--builtin", "singular_unknot_1")
    assert rc == 1 and "invalid input" in err


def test_count_usage_errors(capsys):
    rc, _, err = run(capsys, "count", "--builtin", "flat_kishino")
    assert rc == 2
    rc, _, err = run(capsys, "count", "--table", "t4")
    assert rc == 2
    rc, _, err = run(capsys, "count", "--table", "t4",
                     "--builtin", "flat_kishino", "--code", "x")
    assert rc == 2
    rc, _, err = run(capsys, "count", "--table", "t4", "--builtin", "nope")
    assert rc == 2 and "unknown builtin" in err


def test_unlink_builtin_is_bounded(capsys):
    rc, out, _ = run(capsys, "count", "--table", "t4", "--builtin", "unlink(3)")
    assert rc == 0 and json.loads(out) == {"count": 64}
    # a larger k is an unknown name, refused before any generator is built
    rc, out, err = run(capsys, "count", "--table", "t4", "--builtin", "unlink(5000)")
    assert rc == 2 and not out
    assert "unknown builtin" in err and len(err.splitlines()) == 1


def test_unlink_counts_as_a_product_of_free_labels(capsys):
    # each crossing-free component is a free label: a factor of 4 over t4
    rc, out, err = run(capsys, "count", "--table", "t4", "--builtin", "unlink(9)")
    assert rc == 0 and not err and json.loads(out) == {"count": 262144}
    start = time.perf_counter()
    rc, out, _ = run(capsys, "count", "--table", "t4", "--builtin", "unlink(999)")
    assert time.perf_counter() - start < 0.5
    assert rc == 0 and json.loads(out) == {"count": 4 ** 999}


def test_poly_refuses_more_colorings_than_the_budget_at_once(capsys):
    # poly lists one image size per coloring, so the product is bounded
    start = time.perf_counter()
    rc, out, err = run(capsys, "poly", "--table", "t4", "--builtin", "unlink(999)")
    assert time.perf_counter() - start < 0.5
    assert rc == 3 and not out
    assert err.startswith("budget exceeded:") and len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# auto

def test_auto_reports_automorphisms_and_classes(capsys):
    rc, out, _ = run(capsys, "auto", "--table", "t4_sing", "--json")
    assert rc == 0
    report = json.loads(out)
    assert [1, 2, 3, 4] in report["automorphisms"]
    assert [3, 4, 1, 2] in report["automorphisms"]
    assert [1, 2, 3, 4] in report["conjugacy_class_representatives"]


def test_auto_budget_exhaustion_exits_3(tmp_path, capsys):
    # every permutation preserves the order-8 projection table, so a
    # budget of 1000 permutations stops with 1000 automorphisms found
    rows = "\n".join(" ".join([str(x)] * 8) for x in range(1, 9))
    path = tmp_path / "projection8.table"
    path.write_text(f"semiquandle 8\n{rows}\n\n{rows}\n")
    rc, out, err = run(capsys, "auto", "--table", str(path), "--budget", "1000")
    assert rc == 3 and out == ""
    assert err == "budget exceeded: stopped after 1001 nodes (1000 automorphisms found)\n"
    # t4 has 24 permutations to try: a budget of exactly that many suffices
    assert run(capsys, "auto", "--table", "t4", "--budget", "24")[0] == 0
    assert run(capsys, "auto", "--table", "t4", "--budget", "23")[0] == 3
    rc, out, err = run(capsys, "auto", "--table", "t4", "--budget", "-1")
    assert rc == 1 and out == "" and "--budget must be at least 0" in err


# ---------------------------------------------------------------------------
# moves-test

def test_moves_test_small_run_is_clean(capsys):
    rc, out, _ = run(capsys, "moves-test", "--trials", "18", "--seed", "3")
    assert rc == 0
    assert "failures: 0" in out


def test_moves_test_json_report(capsys):
    rc, out, _ = run(capsys, "moves-test", "--trials", "9", "--json")
    assert rc == 0
    report = json.loads(out)
    assert report["trials"] == 9 and report["failures"] == []


# SHA-256 of moves-test stdout: the trials must keep drawing the same
# codes and moves, so a rework of the trial path prints these same bytes
MOVES_TEST_SHA256 = {
    (0, False): "b9fa69e74f2c8ec5c2b25104d9532f46ef732805acd5595c0e42de5af9633450",
    (0, True): "2f25eba4a57ea1fb171b6d2c4351eee914c077ba503bd7ee02bdc0f407fd7a32",
    (5, False): "fc91072904c90e27b3f90e888801f1c996d37929a14c0e7414bc2650aa74be64",
    (5, True): "d3e1c11303babc6b3ebc021c6af94ff1e2d81d8b5e3c10adec12fb68458aa7b8",
    (37, False): "d2e94d586e73d397ca8aed8067737589edaecf56084a47c24e35e57322587e8e",
    (37, True): "656f0cf950472a8795d66222b26a39ed2f331e46f1267bfca79e07d071d8be97",
}


@pytest.mark.parametrize("seed, as_json", sorted(MOVES_TEST_SHA256))
def test_moves_test_stdout_is_pinned(capsys, seed, as_json):
    argv = ["moves-test", "--trials", "500", "--seed", str(seed)]
    rc, out, _ = run(capsys, *argv + ["--json"] * as_json)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MOVES_TEST_SHA256[seed, as_json]


def test_moves_test_negative_trials_is_invalid_input(capsys):
    rc, out, err = run(capsys, "moves-test", "--trials", "-1", "--json")
    assert rc == 1 and not out
    assert err.startswith("invalid input:") and len(err.splitlines()) == 1
    rc, out, _ = run(capsys, "moves-test", "--trials", "0", "--json")
    assert rc == 0 and json.loads(out)["trials"] == 0


def test_moves_test_undoes_a_delete_at_the_end_of_a_component(capsys):
    # seed 37 draws an fR1 delete whose kink ends its component
    rc, out, _ = run(capsys, "moves-test", "--trials", "18", "--seed", "37")
    assert rc == 0 and "failures: 0\n" in out


# ---------------------------------------------------------------------------
# vassiliev

K1 = "comp: C1.over+ C2.over+ C1.under+ C2.under+\n"
K2 = "comp: C1.over+ C2.over- C1.under+ C2.under-\n"


def _twist_files(tmp_path):
    f1, f2 = tmp_path / "k1.txt", tmp_path / "k2.txt"
    f1.write_text(K1)
    f2.write_text(K2)
    return str(f1), str(f2)


def test_vassiliev_distinguishes_double_twists(tmp_path, capsys):
    f1, f2 = _twist_files(tmp_path)
    rc, out, _ = run(capsys, "vassiliev", "--k1", f1, "--k2", f2,
                     "--probes", "t4_sing")
    assert rc == 0
    report = json.loads(out)
    assert report["conclusion"] == "inequivalent"
    assert report["g_differs"] is True


def test_vassiliev_usage_and_invalid_probes(tmp_path, capsys):
    f1, f2 = _twist_files(tmp_path)
    rc, _, err = run(capsys, "vassiliev", "--k1", f1)
    assert rc == 2
    rc, _, err = run(capsys, "vassiliev", "--k1", f1, "--k2", f2,
                     "--probes", "t4")
    assert rc == 1 and "invalid input" in err


# ---------------------------------------------------------------------------
# argparse-level usage errors and determinism

def test_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_reused_parser_answers_like_a_fresh_one(tmp_path, capsys):
    def call(argv):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = ("SystemExit", e.code)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    f1, f2 = _twist_files(tmp_path)
    calls = [
        ["enumerate", "--n", "3", "--iso"],
        ["enumerate", "--n", "3"],
        ["vassiliev", "--k1", f1, "--k2", f2, "--probes", "t4_sing"],
        ["vassiliev", "--k1", f1, "--k2", f2],
        ["count", "--n", "x"],
        ["poly", "--help"],
        ["count", "--table", "t4", "--builtin", "flat_kishino"],
    ]
    _build_parser.cache_clear()
    reused = [call(argv) for argv in calls]
    assert _build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(call(argv))
    assert reused == fresh
    assert reused[0] != reused[1] and reused[2] != reused[3]
    assert reused[4][0] == ("SystemExit", 2) and "usage:" in reused[4][2]
    assert reused[5][0] == ("SystemExit", 0) and "--budget" in reused[5][1]


def test_jobs_never_changes_output_bytes(capsys):
    runs = []
    for jobs in ("1", "4", "7"):
        rc, out, _ = run(capsys, "enumerate", "--n", "3", "--iso", "--json",
                         "--jobs", jobs)
        assert rc == 0
        runs.append(out)
    assert runs[0] == runs[1] == runs[2]
    assert runs[0] == run(capsys, "enumerate", "--n", "3", "--iso", "--json")[1]


def test_each_verb_registers_only_the_options_it_reads():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {verb: {flag for a in p._actions for flag in a.option_strings
                      if flag not in ("-h", "--help")}
               for verb, p in sub.choices.items()}
    invariant = {"--table", "--presentation", "--code", "--builtin", "--budget"}
    assert options == {
        "verify": {"--table", "--builtin", "--json"},
        "enumerate": {"--n", "--iso", "--budget", "--jobs", "--json"},
        "count": invariant,
        "poly": invariant,
        "auto": {"--table", "--budget", "--json"},
        "moves-test": {"--trials", "--seed", "--json"},
        "vassiliev": {"--k1", "--k2", "--probes", "--budget"},
    }


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "3"],
    ["count", "--table", "t4", "--builtin", "unknot", "--iso"],
    ["moves-test", "--budget", "5"],
    ["auto", "--table", "t4", "--jobs", "4"],
])
def test_an_option_the_verb_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    captured = capsys.readouterr()
    assert e.value.code == 2 and not captured.out
    assert "unrecognized arguments" in captured.err


def test_fixed_seed_is_byte_deterministic(capsys):
    a = run(capsys, "moves-test", "--trials", "18", "--seed", "5", "--json")
    b = run(capsys, "moves-test", "--trials", "18", "--seed", "5", "--json")
    assert a == b
    c = run(capsys, "enumerate", "--n", "3", "--json")
    d = run(capsys, "enumerate", "--n", "3", "--json")
    assert c == d


def test_python_m_semiquandles_runs_the_cli():
    src = str(Path(semiquandles.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "semiquandles", "verify", "--builtin", "t4"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
    assert proc.stdout == "valid semiquandle of order 4\n"


def test_stdout_does_not_depend_on_the_hash_seed():
    # sets and dicts keyed by strings iterate in an order that changes
    # with the hash seed of the process, so each verb runs in two
    # processes with different seeds and must print the same bytes
    src = str(Path(semiquandles.__file__).resolve().parent.parent)
    calls = (["enumerate", "--n", "3", "--iso"], ["auto", "--table", "t4_sing", "--json"],
             ["poly", "--table", "t4_sing", "--builtin", "triple_crazy_trefoil"],
             ["moves-test", "--trials", "27", "--json"])
    for argv in calls:
        outs = []
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "semiquandles", *argv], capture_output=True,
                timeout=60, env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1], argv


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_pipe_exits_1_without_a_traceback(unbuffered):
    # order 4 streams 168 tables over a few hundred milliseconds, so the
    # write (unbuffered) or the final flush (buffered) that meets the
    # closed pipe comes after the first line has been read
    src = str(Path(semiquandles.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "semiquandles", "enumerate", "--n", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**env, "PYTHONPATH": src})
    assert proc.stdout.readline() == b"semiquandle 4\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""    # no traceback
