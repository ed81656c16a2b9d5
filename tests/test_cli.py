"""End-to-end tests of the command-line interface (in-process)."""

import argparse
import inspect
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import siegelps as sp
from siegelps import cli
from siegelps.cli import build_parser, main

RADIAL_M4_T1 = 0.1763784476141347


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_n0_text_output(capsys):
    code, out, _ = run(capsys, "n0", "--n", "1", "--l", "0", "--m", "6")
    assert code == 0
    assert "N0 = 4" in out


def test_n0_json_deterministic(capsys):
    args = ("n0", "--n", "1", "--l", "0", "--m", "6", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["n0"] == 4
    assert payload["method"] == sp.METHOD_CLOSED


def test_n0_csv(capsys):
    code, out, _ = run(capsys, "n0", "--n", "1", "--l", "1", "--m", "4",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,l,m,N0,method,margin"
    fields = lines[1].split(",")
    assert fields[:4] == ["1", "1", "4", "9"]


def test_n0_genus_three(capsys):
    code, out, _ = run(capsys, "n0", "--n", "3", "--m", "10")
    assert code == 0
    assert "N0 = 24" in out


def test_n0_tolerance_below_quad_floor(capsys):
    # a tolerance near rounding still certifies the decision
    code, out, _ = run(capsys, "n0", "--n", "2", "--m", "8", "--tol", "1e-14")
    assert code == 0
    assert "N0 = 11" in out


@pytest.mark.parametrize("tol", ["0", "-1e-10", "nan", "inf"])
def test_n0_bad_tolerance_exits_2(capsys, tol):
    code, _, err = run(capsys, "n0", "--n", "2", "--m", "8", f"--tol={tol}")
    assert code == 2
    assert "tolerance must be positive and finite" in err


def test_n0_vanishing_note(capsys):
    code, out, _ = run(capsys, "n0", "--n", "1", "--l", "0", "--m", "13")
    assert code == 0
    assert "level 1 the average vanishes" in out


def test_n0_mu_prints_the_note(capsys, monkeypatch):
    res = sp.GeneralThreshold(n0=4, confidence=0.99, samples=1000, rows=(), note="a note")
    monkeypatch.setattr(cli, "n0_general", lambda *args, **kwargs: res)
    code, out, _ = run(capsys, "n0", "--n", "1", "--m", "6", "--mu", "det")
    assert code == 0
    assert out.splitlines()[-1] == "note: a note"


def test_n0_general_weight(capsys):
    code, out, _ = run(capsys, "n0", "--n", "1", "--m", "6",
                       "--mu", "1", "--samples", "200000", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n0"] == 4
    assert payload["note"] == ""


def test_n0_general_zero_weight_exits_3(capsys):
    code, _, err = run(capsys, "n0", "--n", "2", "--m", "6",
                       "--mu", "X_{1,2} - X_{2,1}", "--samples", "2000")
    assert code == 3
    assert "numerical failure" in err


def test_ambiguous_cell_diagnostics_print_plain_floats(capsys):
    code, _, err = run(capsys, "n0", "--n", "5", "--l", "12", "--m", "11")
    assert code == 3
    assert "diagnostics: {2390: (" in err
    assert "np.float64" not in err


def test_ambiguous_table_cell_is_named(capsys):
    code, _, err = run(capsys, "n0-table", "--n", "5", "--l-min", "10", "--l-max", "10",
                       "--m-min", "11", "--m-max", "11")
    assert code == 3
    assert err.startswith("numerical failure: genus 5, l = 10, m = 11: margin ")
    assert "diagnostics: {2117: (" in err


def test_n0_table_small_rectangle(capsys):
    code, out, _ = run(capsys, "n0-table", "--n", "1", "--l-min", "0",
                       "--l-max", "1", "--m-min", "4", "--m-max", "5",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,l,m,N0,method,margin"
    got = {tuple(map(int, row.split(",")[:3])): int(row.split(",")[3])
           for row in lines[1:]}
    expected = {(1, l, m): sp.REFERENCE_N0[1][(l, m)]
                for l in (0, 1) for m in (4, 5)}
    assert got == expected


def test_n0_table_text_grid(capsys):
    code, out, _ = run(capsys, "n0-table", "--n", "1", "--l-min", "0",
                       "--l-max", "0", "--m-min", "3", "--m-max", "10")
    assert code == 0
    grid_row = out.strip().splitlines()[1].split()
    assert grid_row[0] == "0"
    assert [int(v) for v in grid_row[1:]] == [14, 6, 4, 4, 3, 3, 3, 2]


def test_n0_table_default_range_at_every_genus(capsys):
    # m = 2n+1..2n+8, the range of both reference tables, also at genus 3
    code, out, _ = run(capsys, "n0-table", "--n", "3", "--l-max", "0")
    assert code == 0
    assert [int(v) for v in out.splitlines()[0].split()[1:]] == list(range(7, 15))
    # an explicit bound is kept, not replaced by the default
    code, _, err = run(capsys, "n0-table", "--n", "1", "--l-max", "0",
                       "--m-min", "0", "--m-max", "3")
    assert code == 2
    assert "m=0" in err


# ---------------------------------------------------------------------------
# constants and coefficients
# ---------------------------------------------------------------------------


def test_cmn_closed_form(capsys):
    code, out, _ = run(capsys, "cmn", "--n", "1", "--m", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(4 * np.pi / 11, rel=1e-12)


def test_cmn_rejects_non_integrable(capsys):
    code, _, err = run(capsys, "cmn", "--n", "1", "--m", "2")
    assert code == 2
    assert "error:" in err


def test_cmn_seed_changes_mc(capsys):
    _, out1, _ = run(capsys, "cmn", "--n", "1", "--m", "4", "--mc",
                     "--samples", "2000", "--seed", "1", "--format", "json")
    _, out2, _ = run(capsys, "cmn", "--n", "1", "--m", "4", "--mc",
                     "--samples", "2000", "--seed", "2", "--format", "json")
    v1 = json.loads(out1)["mc"]["value"]
    v2 = json.loads(out2)["mc"]["value"]
    assert v1 != v2


@pytest.mark.parametrize("name", ["SIEGEL_SEED", "SIEGEL_TOL"])
def test_option_defaults_ignore_environment(capsys, monkeypatch, name):
    # only --cache-dir reads the environment; a malformed value elsewhere is
    # never parsed
    monkeypatch.setenv(name, "x")
    code, out, _ = run(capsys, "n0", "--n", "1", "--m", "6")
    assert code == 0
    assert "N0 = 4" in out


def test_coeff_lift_overflow_exits_3(capsys):
    # h_t is representable at t = 200, but j(h_t, iI)^-m = e^{200 m} is not
    code, out, err = run(capsys, "coeff", "--n", "1", "--m", "6", "--t", "200")
    assert code == 3
    assert out == "" and err.startswith("numerical failure: j(g, z)")


def test_coeff_radial(capsys):
    code, out, _ = run(capsys, "coeff", "--n", "1", "--m", "4", "--t", "1.0",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"]["re"] == pytest.approx(RADIAL_M4_T1, rel=1e-12)
    assert payload["rel_diff"] < 1e-10
    assert payload["kak_t"] == pytest.approx([1.0], abs=1e-9)


def test_coeff_matrix_file(capsys, tmp_path):
    path = str(tmp_path / "g.json")
    sp.save_matrix(path, np.array([[1.0, 1.0], [0.0, 1.0]]))
    code, out, _ = run(capsys, "coeff", "--n", "1", "--m", "8",
                       "--matrix", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["rel_diff"] < 1e-10


def test_coeff_refuses_two_elements(capsys, tmp_path):
    # --t is not silently ignored beside a readable --matrix
    path = str(tmp_path / "g.json")
    sp.save_matrix(path, np.array([[1.0, 1.0], [0.0, 1.0]]))
    code, out, err = run(capsys, "coeff", "--n", "1", "--m", "8",
                         "--matrix", path, "--t", "1.0")
    assert code == 2
    assert out == "" and err.startswith("error: ") and "one of" in err


def test_coeff_refuses_complex_element(capsys, tmp_path):
    # a nonzero imaginary part is an invalid element, not the identity
    path = tmp_path / "g.json"
    path.write_text('{"rows": 2, "cols": 2, "re": [[1, 0], [0, 1]], "im": [[0.5, 0], [0, 0]]}')
    code, out, err = run(capsys, "coeff", "--n", "1", "--m", "4", "--matrix", str(path))
    assert code == 2
    assert out == "" and "g has a nonzero imaginary part" in err


@pytest.mark.parametrize("key", ["re", "im"])
def test_coeff_refuses_non_numeric_entry(capsys, tmp_path, key):
    # a malformed part is invalid input wherever it sits, never a traceback
    parts = {"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
    parts[key] = [["a", 0], [0, 0]]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, **parts}))
    code, out, err = run(capsys, "coeff", "--n", "1", "--m", "4", "--matrix", str(path))
    assert code == 2
    assert out == "" and "group element: malformed matrix object" in err


def test_coeff_names_a_group_element_of_another_genus(capsys):
    code, out, err = run(capsys, "coeff", "--n", "1", "--m", "4", "--t", "1.0,2.0")
    assert (code, out) == (2, "")
    assert err == "error: expected genus 1, but the group element has genus 2\n"


def test_coeff_requires_element(capsys):
    code, _, err = run(capsys, "coeff", "--n", "1", "--m", "4")
    assert code == 2
    assert "error:" in err


def test_coeff_wrong_t_length(capsys):
    code, _, _ = run(capsys, "coeff", "--n", "2", "--m", "6", "--t", "1.0")
    assert code == 2


# ---------------------------------------------------------------------------
# series commands
# ---------------------------------------------------------------------------


def test_poincare_matches_library(capsys):
    code, out, _ = run(capsys, "poincare", "--n", "1", "--N", "1", "--m", "12",
                       "--z", "i", "--radius", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    ref = sp.poincare_f(sp.MatrixPolynomial.one(1), sp.Weight(12, 1),
                        sp.CongruenceGroup(1, 1), sp.SiegelPoint.center(1), 10.0)
    assert payload["value"]["re"] == pytest.approx(ref.value.real, rel=1e-12)
    assert payload["value"]["im"] == pytest.approx(ref.value.imag, abs=1e-15)
    assert payload["terms"] == ref.terms


def test_poincare_vanishing_note(capsys):
    code, out, _ = run(capsys, "poincare", "--n", "1", "--N", "1", "--m", "13",
                       "--z", "i", "--radius", "6")
    assert code == 0
    assert "vanishes identically" in out


@pytest.mark.parametrize("args, vanishes", [
    (("--m", "14"), True), (("--m", "12", "--mu", "X_{1,1}"), True),
    (("--m", "12", "--mu", "X_{1,1}^2"), False), (("--m", "12"), False),
    (("--m", "12", "--mu", "X_{1,1}", "--N", "3"), False)])
def test_poincare_vanishing_note_follows_mu_prime(capsys, args, vanishes):
    # the note is printed exactly when mu' = 0, for any weight, with the value 0
    level = () if "--N" in args else ("--N", "1")
    code, out, _ = run(capsys, "poincare", "--n", "1", *level, *args, "--z", "i",
                       "--radius", "6")
    assert code == 0
    assert ("vanishes identically" in out) == vanishes
    if vanishes:
        assert out.startswith("value = +0.000000000000e+00 +0.000000000000e+00i")


def test_poincare_bad_point(capsys):
    code, _, err = run(capsys, "poincare", "--n", "1", "--N", "1", "--m", "12",
                       "--z", "abc")
    assert code == 2
    assert "error:" in err


def test_poincare_z_beyond_genus_one_exits_2_before_enumerating(capsys, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_ball", lambda *a, **k: pytest.fail("enumerated"))
    code, _, err = run(capsys, "poincare", "--n", "2", "--N", "1", "--m", "12", "--z", "i")
    assert code == 2
    assert "--z takes a scalar" in err


def test_poincare_missing_point_file(capsys):
    code, _, err = run(capsys, "poincare", "--n", "2", "--N", "1", "--m", "6",
                       "--point", "no-such-file.json", "--radius", "4")
    assert code == 2
    assert "error:" in err


def test_non_json_matrix_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    for argv in (("coeff", "--n", "1", "--m", "4", "--matrix", str(path)),
                 ("poincare", "--n", "1", "--N", "1", "--m", "12", "--point", str(path))):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error:" in err and "not a JSON matrix file" in err


def test_point_file_with_a_non_integral_size_exits_2(capsys, tmp_path):
    # "rows": 1.5 must not be read as one row
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"rows": 1.5, "cols": 1, "re": [[0.0]], "im": [[1.0]]}))
    code, out, err = run(capsys, "poincare", "--n", "1", "--N", "1", "--m", "12",
                         "--point", str(path), "--radius", "5")
    assert (code, out) == (2, "")
    assert "point: rows must be an integer, got 1.5" in err


def test_poincare_budget_exit_3(capsys, tmp_path):
    path = str(tmp_path / "z.json")
    sp.save_matrix(path, 1j * np.eye(2))
    code, _, err = run(capsys, "poincare", "--n", "2", "--N", "1", "--m", "6",
                       "--point", path, "--radius", "7", "--budget", "2000000")
    assert code == 3
    assert "fits the budget" in err


def test_kernel_matches_library(capsys):
    code, out, _ = run(capsys, "kernel", "--n", "1", "--N", "1", "--m", "12",
                       "--z", "i", "--xi", "0.2+1.1i", "--radius", "10",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    xi = sp.SiegelPoint.from_complex(np.array([[0.2 + 1.1j]]))
    ref = sp.kernel_series(sp.Weight(12, 1), sp.CongruenceGroup(1, 1), xi,
                           sp.SiegelPoint.center(1), 10.0)
    assert payload["value"]["re"] == pytest.approx(ref.value.real, rel=1e-12)
    assert payload["value"]["im"] == pytest.approx(ref.value.imag, rel=1e-12)


def test_kernel_requires_xi(capsys):
    code, _, _ = run(capsys, "kernel", "--n", "1", "--N", "1", "--m", "12",
                     "--z", "i")
    assert code == 2


def test_ball_cache_cold_and_warm(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    args = ("poincare", "--n", "1", "--N", "1", "--m", "12", "--z", "i",
            "--radius", "10", "--cache-dir", cache, "--format", "json")
    code1, out1, _ = run(capsys, *args)
    assert code1 == 0
    path = os.path.join(cache, "ball_n1_N1_r2_100.bin")
    assert os.path.exists(path)
    stamp = os.path.getmtime(path)
    code2, out2, _ = run(capsys, *args)
    assert code2 == 0
    assert out1 == out2
    assert os.path.getmtime(path) == stamp  # reused, not rebuilt


def test_ball_cache_keyed_by_squared_norm(capsys, tmp_path):
    # radii with the same floor(r^2) have the same ball and share one file
    cache = str(tmp_path / "cache")
    args = ("poincare", "--n", "1", "--N", "1", "--m", "12", "--z", "i",
            "--cache-dir", cache, "--radius")
    code1, out1, _ = run(capsys, *args, "10")
    path = os.path.join(cache, "ball_n1_N1_r2_100.bin")
    stamp = os.path.getmtime(path)
    code2, out2, _ = run(capsys, *args, "10.0000001")
    assert code1 == code2 == 0
    assert out1 == out2
    assert os.listdir(cache) == ["ball_n1_N1_r2_100.bin"]
    assert os.path.getmtime(path) == stamp  # reused, not rewritten


def test_corrupt_cache_is_rejected(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    args = ("poincare", "--n", "1", "--N", "1", "--m", "12", "--z", "i",
            "--radius", "10", "--cache-dir", cache)
    assert run(capsys, *args)[0] == 0
    path = os.path.join(cache, "ball_n1_N1_r2_100.bin")
    raw = bytearray(Path(path).read_bytes())
    raw[32] ^= 1  # inside the archive's zip header
    Path(path).write_bytes(bytes(raw))
    code, _, err = run(capsys, *args)
    assert code == 2
    assert "error:" in err


def test_cache_of_the_old_format_is_refused(capsys, tmp_path):
    # an archive of every element, as written before the archives named
    # their format, is refused by that format's name, not read or replaced
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "ball_n1_N1_r2_100.bin"
    ball = sp.enumerate_ball(sp.CongruenceGroup(1, 1), 10.0)
    with open(path, "wb") as fh:
        np.savez(fh, elements=ball.elements, level=1, radius=10.0)
    stamp = os.path.getmtime(path)
    code, _, err = run(capsys, "poincare", "--n", "1", "--N", "1", "--m", "12", "--z", "i",
                       "--radius", "10", "--cache-dir", str(cache))
    assert code == 2
    assert "format 'elements'" in err
    assert os.path.getmtime(path) == stamp


def test_cache_of_a_non_integral_level_is_refused(capsys, tmp_path):
    # level 2.5 must not load as level 2, whose representatives these are
    cache = tmp_path / "cache"
    cache.mkdir()
    ball = sp.enumerate_ball(sp.CongruenceGroup(1, 2), 10.0)
    with open(cache / "ball_n1_N2_r2_100.bin", "wb") as fh:
        np.savez(fh, format="representatives", representatives=ball.representatives,
                 level=2.5, radius=10.0)
    code, out, err = run(capsys, "poincare", "--n", "1", "--N", "2", "--m", "12", "--z", "i",
                         "--radius", "10", "--cache-dir", str(cache))
    assert (code, out) == (2, "")
    assert "level must be an integer, got 2.5" in err


def test_verify_all_fetches_the_pairing_ball_once(capsys, monkeypatch):
    report = sp.VerificationReport(identity="stub", lhs=1, rhs=1, rel_err=0.0,
                                   error_budget={}, passed=True, detail="stub")
    for name, out in (("verify_thresholds", report), ("verify_coefficients", report),
                      ("verify_cmn", [report]), ("verify_cor62", report),
                      ("verify_thm93", [report])):
        monkeypatch.setattr(cli, name, lambda *args, out=out, **kwargs: out)
    radii, enumerate_ball = [], cli.enumerate_ball
    monkeypatch.setattr(cli, "enumerate_ball",
                        lambda group, radius, **kw: radii.append(radius)
                        or enumerate_ball(group, radius, **kw))
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0 and "6/6 checks passed" in out
    assert radii == [40.0]


def test_output_file(capsys, tmp_path):
    target = str(tmp_path / "result.json")
    code, out, _ = run(capsys, "n0", "--n", "1", "--l", "0", "--m", "6",
                       "--format", "json", "--output", target)
    assert code == 0
    assert out == ""
    assert json.loads(Path(target).read_text())["n0"] == 4


def test_norms_command(capsys):
    code, out, _ = run(capsys, "norms", "--n", "1", "--N", "2",
                       "--samples", "20")
    assert code == 0
    assert "PASS" in out


def test_norms_pass_at_r_zero(capsys):
    # the sampled products are unitary, so their norm is the bound up to rounding
    code, out, _ = run(capsys, "norms", "--n", "2", "--N", "1", "--r", "0")
    assert code == 0
    assert "PASS" in out


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_json_output_is_strict(capsys):
    # no element outside K within the ball: the minimum is inf, written as null
    argv = ("norms", "--n", "1", "--N", "5", "--ball-radius", "2", "--samples", "20")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out, parse_constant=_refuse_constant)["min_noncompact_norm"] is None
    _, text, _ = run(capsys, *argv)
    assert "noncompact minimum: inf" in text


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------


def test_verify_table1_genus1(capsys):
    code, out, _ = run(capsys, "verify", "table1", "--n", "1")
    assert code == 0
    assert "PASS threshold-table-genus1" in out
    assert "104/104" in out


@pytest.mark.parametrize("n", ["0", "-1"])
def test_verify_table1_at_a_genus_without_reference_exits_2(capsys, n):
    # --n 0 asks for genus 0 too; it is not read as "every genus"
    code, out, err = run(capsys, "verify", "table1", "--n", n)
    assert code == 2 and out == ""
    assert f"no reference thresholds at genus {n}" in err


def test_verify_coeff_small(capsys):
    code, out, _ = run(capsys, "verify", "coeff", "--samples", "3")
    assert code == 0
    assert "PASS coefficient-identity" in out


def test_verify_pairing_prints_its_error(capsys):
    code, out, _ = run(capsys, "verify", "cor62", "--radius", "10")
    assert code == 0
    figure = out.split("relative error ")[1].split()[0]
    assert "e-" in figure and 0 < float(figure) < 1e-4


def test_verify_unknown_target_exits_2(capsys):
    code, _, _ = run(capsys, "verify", "nonsense")
    assert code == 2


@pytest.mark.parametrize("argv", [
    [command, *base.split(), option]
    for command, base, unread in (
        ("n0", "--n 1 --m 6", "--budget --radius --cache-dir"),
        ("n0-table", "--n 1", "--seed --budget --radius --cache-dir"),
        ("cmn", "--n 1 --m 4", "--tol --budget --radius --cache-dir"),
        ("coeff", "--n 1 --m 4 --t 1.0", "--seed --tol --budget --radius --cache-dir"),
        ("poincare", "--n 1 --N 1 --m 12 --z i", "--seed --tol"),
        ("kernel", "--n 1 --N 1 --m 12 --z i --xi 0.2+1.1i", "--seed --tol"),
        ("norms", "--n 1 --N 2", "--tol --radius --cache-dir"))
    for option in unread.split()], ids=" ".join)
def test_unread_shared_option_is_rejected(capsys, argv):
    # each subcommand takes only the shared options it reads
    code, _, err = run(capsys, *argv, "1")
    assert code == 2
    assert f"unrecognized arguments: {argv[-1]} 1" in err


@pytest.mark.parametrize("argv, unread", [
    ("verify coeff --n 2 --samples 3", "--n"),
    ("verify coeff --tol 1e-3 --samples 3", "--tol"),
    ("verify cmn --samples 1000 --radius 3", "--radius"),
    ("verify table1 --n 1 --samples 5", "--samples"),
    ("verify table1 --budget 99", "--budget"),
    ("verify cor62 --seed 1", "--seed"),
    ("verify thm93 --tol 1e-3", "--tol"),
], ids=str)
def test_verify_target_refuses_options_it_does_not_read(capsys, monkeypatch, argv, unread):
    # refused before any work: no check runs on an option it would ignore
    for name in ("verify_thresholds", "verify_coefficients", "verify_cmn",
                 "verify_cor62", "verify_thm93", "enumerate_ball"):
        monkeypatch.setattr(cli, name, lambda *args, **kw: pytest.fail("check reached"))
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err == f"error: verify {argv.split()[1]} does not read {unread}\n"


def test_verify_reads_cache_dir_from_the_environment(capsys, monkeypatch, tmp_path):
    # SIEGEL_CACHE_DIR fills --cache-dir for every target, so no target refuses it
    monkeypatch.setenv("SIEGEL_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "verify", "coeff", "--samples", "3")
    assert code == 0
    assert "PASS coefficient-identity" in out


def _readme_option_table() -> tuple[dict, list]:
    """README's table of shared options: {subcommand: the options marked yes},
    and the options in column order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table_text = re.search(r"^\| Subcommand \|.*?(?=\n\n)", text, re.M | re.S)[0]
    header, _, *rows = table_text.splitlines()
    options = re.findall(r"`(--[\w-]+)`", header)
    table = {}
    for row in rows:
        first, *cells = [cell.strip() for cell in row.strip("|").split("|")]
        marked = {option for option, cell in zip(options, cells) if cell == "yes"}
        table.update({name: marked for name in re.findall(r"`([\w-]+)`", first)})
    return table, options


_README_OPTIONS, _SHARED = _readme_option_table()
_REQUIRED = {"n0": "--n 1 --m 6", "n0-table": "--n 1", "cmn": "--n 1 --m 4",
             "coeff": "--n 1 --m 4", "poincare": "--n 1 --N 1 --m 12",
             "kernel": "--n 1 --N 1 --m 12", "norms": "--n 1 --N 2", "verify": "all"}


def test_readme_option_table_covers_every_subcommand():
    assert sorted(_README_OPTIONS) == sorted(_SUBCOMMANDS) == sorted(_REQUIRED)
    # the verify row is the union of the options its targets read
    read = {f"--{o}" for options, _ in cli._VERIFY_TARGETS.values() for o in options.split()}
    assert _README_OPTIONS["verify"] == read & set(_SHARED)


@pytest.mark.parametrize("command", sorted(_REQUIRED))
def test_parser_takes_the_shared_options_readme_marks(capsys, command):
    # parse only: the subcommand accepts exactly the options its row marks "yes"
    accepted = set()
    for option in _SHARED:
        try:
            build_parser().parse_args([command, *_REQUIRED[command].split(), option, "1"])
            accepted.add(option)
        except SystemExit:
            assert "unrecognized arguments" in capsys.readouterr().err
    assert accepted == _README_OPTIONS[command]


_FORWARDED = [
    ("n0_general", "n0 --n 1 --m 6 --mu det", {}),
    ("n0_general", "n0 --n 1 --m 6 --mu det --samples 2000000 --seed 3 --confidence 0.9",
     {"samples": 2_000_000, "seed": 3, "confidence": 0.9, "budget": 8_000_000}),
    ("n0_general", "n0 --n 1 --m 6 --mu det --samples 1000",
     {"samples": 1000, "budget": sp.nonvanishing.MC_BUDGET}),
    ("n0_detl_report", "n0 --n 1 --m 6", {}),
    ("n0_detl_report", "n0 --n 1 --m 6 --tol 1e-9", {"tol": 1e-9}),
    ("n0_table", "n0-table --n 1", {}),
    ("mc_cmn", "cmn --n 1 --m 4 --mc", {}),
    ("mc_cmn", "cmn --n 1 --m 4 --mc --samples 2000 --seed 5", {"samples": 2000, "seed": 5}),
    ("norm_bounds_check", "norms --n 1 --N 2", {}),
    ("norm_bounds_check", "norms --n 1 --N 2 --r 0.3 --samples 9 --seed 1 "
     "--ball-radius 5 --budget 99",
     {"r": 0.3, "samples": 9, "seed": 1, "ball_radius": 5.0, "budget": 99}),
    ("enumerate_ball", "poincare --n 1 --N 1 --m 12 --z i", {}),
    ("enumerate_ball", "kernel --n 1 --N 1 --m 12 --z i --xi i --budget 99", {"budget": 99}),
    ("enumerate_ball", "verify cor62", {}),
    ("verify_thresholds", "verify table1 --n 1", {}),
    ("verify_coefficients", "verify coeff", {}),
    ("verify_coefficients", "verify coeff --samples 3 --seed 2", {"samples": 3, "seed": 2}),
    ("verify_cmn", "verify cmn", {}),
]


@pytest.mark.parametrize("name, argv, expected", _FORWARDED,
                         ids=[argv for _, argv, _ in _FORWARDED])
def test_omitted_options_keep_library_defaults(capsys, monkeypatch, name, argv, expected):
    # the CLI passes a defaulted library parameter only when its option is given
    real = getattr(cli, name)
    signature = inspect.signature(real)
    calls = []

    def recorder(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        raise sp.NumericalError("recorded")

    monkeypatch.setattr(cli, name, recorder)
    code, out, err = run(capsys, *argv.split())
    assert (code, out, err) == (3, "", "numerical failure: recorded\n")
    defaulted = {p.name for p in signature.parameters.values() if p.default is not p.empty}
    assert {k: v for k, v in calls[0].items() if k in defaulted} == expected


_SUBCOMMANDS = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", ["", *_SUBCOMMANDS])
def test_help_lists_every_option(capsys, command):
    parser = _SUBCOMMANDS[command] if command else build_parser()
    code, out, _ = run(capsys, *command.split(), "--help")
    assert code == 0
    options = [o for action in parser._actions for o in action.option_strings]
    assert "--help" in options
    for option in options:
        assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", out), option
    if not command:
        assert all(name in out for name in _SUBCOMMANDS)


def test_csv_unavailable_for_cmn(capsys):
    code, _, err = run(capsys, "cmn", "--n", "1", "--m", "12",
                       "--format", "csv")
    assert code == 2
    assert "csv" in err


# ---------------------------------------------------------------------------
# invalid input exits 2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("radius", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    "poincare --n 1 --N 1 --m 12 --z i",
    "kernel --n 1 --N 1 --m 12 --z i --xi 0.2+1.1i",
    "verify cor62",
], ids=["poincare", "kernel", "verify cor62"])
def test_bad_radius_with_cache_exits_2(capsys, tmp_path, argv, radius):
    code, _, err = run(capsys, *argv.split(), f"--radius={radius}",
                       "--cache-dir", str(tmp_path))
    assert code == 2
    assert "must be positive" in err


@pytest.mark.parametrize("argv", [
    "verify coeff --samples 0",
    "verify cmn --samples 0",
    "n0 --n 1 --m 6 --mu det --samples 0",
    "n0 --n 1 --m 6 --mu det --samples -5",
    "n0 --n 1 --m 6 --mu det --confidence 0",
    "n0 --n 1 --m 6 --mu det --confidence 0.5",
    "n0 --n 1 --m 6 --mu det --confidence 1.5",
    "n0 --n 1 --m 6 --mu det --confidence nan",
    "n0-table --n 1 --l-min 5 --l-max 2",
    "n0-table --n 1 --m-min 9 --m-max 3",
    "norms --n 1 --N 1 --r nan",
    "norms --n 1 --N 1 --r 200",
    "norms --n 1 --N 1 --r -0.5",
    "norms --n 1 --N 1 --samples 0",
    "coeff --n 1 --m 6 --t abc",
    "coeff --n 1 --m 6 --t 400",
    "coeff --n 1 --m 6 --t 1e6",
    "n0 --n 1 --m 6 --mu det --seed -1",
    "cmn --n 1 --m 4 --mc --seed -1",
    "norms --n 1 --N 1 --seed -1",
    "verify coeff --seed -1",
    "verify cmn --seed -1",
    # options the chosen mode does not read
    "n0 --n 1 --m 6 --samples 1000",
    "n0 --n 1 --m 6 --seed 1",
    "n0 --n 1 --m 6 --confidence 0.9",
    "n0 --n 1 --m 6 --mu det --tol 1e-9",
    "n0 --n 1 --m 6 --mu det --l 3",
    "cmn --n 1 --m 4 --samples 2000",
    "cmn --n 1 --m 4 --seed 1",
    # two sources for one input
    "poincare --n 1 --N 1 --m 12 --z i --point missing.json",
    "kernel --n 1 --N 1 --m 12 --z i --point missing.json --xi i",
    "kernel --n 1 --N 1 --m 12 --z i --xi i --xi-point missing.json",
    "coeff --n 1 --m 4 --t 1.0 --matrix missing.json",
    # output formats the command cannot write
    "norms --n 2 --N 1 --format csv",
    "poincare --n 1 --N 2 --m 12 --z i --format csv",
    "kernel --n 1 --N 1 --m 12 --z i --xi 0.3+0.8i --format csv",
    "cmn --n 2 --m 5 --mc --format csv",
    "coeff --n 1 --m 4 --t 1.0 --format csv",
    "n0 --n 1 --m 6 --mu det --format csv",
], ids=str)
def test_invalid_input_exits_2(capsys, monkeypatch, argv):
    # each is refused before any work, never run on a default or a guess
    if "csv" in argv:   # a format is refused before the library is reached
        for name in ("n0_general", "c_mn", "mc_cmn", "kak_decompose", "matrix_coeff_kak",
                     "enumerate_ball", "poincare_f", "kernel_series", "norm_bounds_check"):
            monkeypatch.setattr(cli, name, lambda *args, **kw: pytest.fail("library reached"))
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == "" and err.startswith("error: ")
    if "csv" in argv:
        assert err == "error: csv output is not available for this command\n"
