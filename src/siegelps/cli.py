"""Command-line interface.

Subcommands cover the threshold searches (``n0``, ``n0-table``), the
normalization constant (``cmn``), matrix coefficients (``coeff``), truncated
group averages (``poincare``, ``kernel``), the norm estimates behind the
truncation analysis (``norms``), and the verification battery (``verify``).

Exit codes: 0 success, 1 verification failure, 2 bad usage or invalid input,
3 numerical failure (non-convergence, ambiguous threshold, budget overrun).

An option without a default of its own is passed on only when it is given,
so the library function it feeds keeps its default.  The environment
variable SIEGEL_CACHE_DIR supplies the default of --cache-dir.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .discrete_series import (
    MatrixCoefficientSpec,
    Weight,
    c_mn,
    f_mu_m,
    lift,
    matrix_coeff_kak,
)
from .errors import DimensionError, DomainError, SiegelError
from .matrixio import load_matrix, require_genus
from .nonvanishing import (
    MC_BUDGET,
    ThresholdQuery,
    n0_detl_report,
    n0_general,
    n0_table,
    vanishing_case,
)
from .petersson import (
    PAIRING_RADIUS,
    mc_cmn,
    verify_cmn,
    verify_coefficients,
    verify_cor62,
    verify_thm93,
    verify_thresholds,
)
from .poincare import (
    CongruenceGroup,
    _norm_cap,
    enumerate_ball,
    kernel_series,
    load_ball,
    norm_bounds_check,
    poincare_f,
    save_ball,
)
from .polynomials import parse_polynomial
from .symplectic import SiegelPoint, SymplecticMatrix, hyperbolic, kak_decompose


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------

def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", "").replace("i", "j"))
    except ValueError:
        raise DomainError(f"cannot parse {text!r} as a complex number")


def _seed(text: str) -> int:
    if not text.strip().isdecimal():   # numpy's generators refuse negative seeds
        raise DomainError(f"--seed must be a nonnegative integer, got {text!r}")
    return int(text)


def _json_ready(obj):
    """The payload in JSON's terms: numpy scalars as Python values, complex
    numbers as {re, im}, and a non-finite float as null (JSON has no inf)."""
    obj = obj.item() if isinstance(obj, np.generic) else obj
    if isinstance(obj, complex):
        obj = {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {key: _json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(value) for value in obj]
    return None if isinstance(obj, float) and not np.isfinite(obj) else obj


def _emit(args, lines, payload, csv_header=None, csv_rows=None) -> None:
    if args.format == "json":
        body = json.dumps(_json_ready(payload), sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        body = buf.getvalue()
    else:
        body = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _given(args, *names) -> dict:
    """The named options that were given, by name; one left out is not passed,
    so the library parameter it feeds keeps its default."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _refuse(args, mode: str, *names) -> None:
    """Refuse the named options when given: ``mode`` does not read them."""
    unread = _given(args, *names)
    if unread:
        raise DomainError(f"{mode} does not read --{', --'.join(unread)}")


def _get_ball(args, group: CongruenceGroup, radius: float):
    """A ball reaching ``radius``, through the cache file named for floor(r^2)
    when there is a cache directory.  floor(r^2) determines the elements, so
    a file written for another radius with the same floor serves this one."""
    budget = _given(args, "budget")
    if not args.cache_dir:
        return enumerate_ball(group, radius, **budget)
    cap = _norm_cap(radius)
    path = os.path.join(args.cache_dir, f"ball_n{group.n}_N{group.N}_r2_{cap}.bin")
    if os.path.exists(path):
        ball = load_ball(path)
        if ball.group == group and _norm_cap(ball.radius) == cap:
            return ball
    ball = enumerate_ball(group, radius, **budget)
    os.makedirs(args.cache_dir, exist_ok=True)
    save_ball(path, ball)
    return ball


def _default_radius(args) -> float:
    if args.radius is not None:
        return float(args.radius)
    return 12.0 if args.n == 1 else 4.0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_CELL_HEADER = ("n", "l", "m", "N0", "method", "margin")


def _cell_rows(cells) -> list[tuple]:
    return [(c.n, c.l, c.m, c.n0, c.method, f"{c.margin:.12e}") for c in cells]


def cmd_n0(args) -> int:
    w = Weight(args.m, args.n)
    if args.mu is not None:
        _refuse(args, "n0 --mu", "tol", "l")
        mu = parse_polynomial(args.mu, args.n)
        opts = _given(args, "samples", "seed", "confidence")
        if args.samples is not None:     # room for a fourfold escalation
            opts["budget"] = max(4 * args.samples, MC_BUDGET)
        res = n0_general(ThresholdQuery(mu, w), **opts)
        lines = [f"N0 = {res.n0}  (genus {args.n}, m {args.m}, weight {args.mu!r})",
                 f"certified one-sided at confidence {res.confidence} "
                 f"with {res.samples} samples"]
        if res.note:
            lines.append(f"note: {res.note}")
        _emit(args, lines, {"command": "n0", "genus": args.n, "m": args.m,
                            "mu": args.mu, **asdict(res)})
        return 0
    _refuse(args, "n0 without --mu", "samples", "seed", "confidence")
    l = 0 if args.l is None else args.l
    cell = n0_detl_report(l, w, **_given(args, "tol"))
    lines = [f"N0 = {cell.n0}  (genus {args.n}, l {l}, m {args.m})",
             f"method {cell.method}, decision margin {cell.margin:.6e}"]
    lines += [f"note: at level {N} the average vanishes identically"
              for N in (1, 2) if vanishing_case(l, w, N)]
    payload = {"command": "n0", "genus": args.n, "l": l, "m": args.m,
               "n0": cell.n0, "method": cell.method, "margin": cell.margin}
    _emit(args, lines, payload, csv_header=_CELL_HEADER, csv_rows=_cell_rows([cell]))
    return 0


def cmd_n0_table(args) -> int:
    if args.m_min is None:      # the range of both reference tables
        args.m_min = 2 * args.n + 1
    if args.m_max is None:
        args.m_max = 2 * args.n + 8
    ls = list(range(args.l_min, args.l_max + 1))
    ms = list(range(args.m_min, args.m_max + 1))
    if not ls or not ms:
        raise DomainError("the l and m ranges must not be empty")
    cells = n0_table(args.n, ls, ms, **_given(args, "tol"))
    by_pos = {(c.l, c.m): c for c in cells}
    width = max(5, len(str(max(c.n0 for c in cells))) + 1)
    lines = ["l\\m".rjust(6) + "".join(str(m).rjust(width) for m in ms)]
    for l in ls:
        lines.append(str(l).rjust(6)
                     + "".join(str(by_pos[(l, m)].n0).rjust(width) for m in ms))
    payload = {"command": "n0-table", "genus": args.n,
               "cells": [{"l": c.l, "m": c.m, "n0": c.n0, "method": c.method,
                          "margin": c.margin} for c in cells]}
    _emit(args, lines, payload, csv_header=_CELL_HEADER, csv_rows=_cell_rows(cells))
    return 0


def cmd_cmn(args) -> int:
    if not args.mc:
        _refuse(args, "cmn without --mc", "samples", "seed")
    w = Weight(args.m, args.n).require_integrable()
    value = c_mn(w)
    lines = [f"C({args.m},{args.n}) = {value:.12e}"]
    payload = {"command": "cmn", "genus": args.n, "m": args.m, "value": value}
    if args.mc:
        res = mc_cmn(w, **_given(args, "samples", "seed"))
        sigma = abs(res.value - value) / res.error_estimate
        lines.append(f"monte carlo {res.value:.6e} +- {res.error_estimate:.2e} "
                     f"({res.evaluations} samples, {sigma:.2f} sigma from closed form)")
        payload["mc"] = {"value": res.value, "se": res.error_estimate,
                         "samples": res.evaluations, "sigma": sigma}
    _emit(args, lines, payload)
    return 0


def cmd_coeff(args) -> int:
    w = Weight(args.m, args.n)
    mu = parse_polynomial(args.mu, args.n)
    spec = MatrixCoefficientSpec(mu, w)
    if (args.matrix is None) == (args.t is None):
        raise DomainError("give a group element via one of --matrix FILE and --t LIST")
    if args.matrix is not None:
        g = SymplecticMatrix(load_matrix(args.matrix, name="group element"))
    else:
        try:
            g = hyperbolic([float(v) for v in args.t.split(",")])
        except ValueError:
            raise DomainError(f"cannot parse --t {args.t!r} as comma-separated numbers")
    require_genus(args.n, **{"the group element": g})
    factors = kak_decompose(g)
    value = matrix_coeff_kak(spec, factors)
    cross = lift(lambda z: f_mu_m(mu, w, z), w, g)
    rel = abs(value - cross) / max(abs(value), abs(cross), 1e-300)
    lines = [f"coefficient = {value.real:+.12e} {value.imag:+.12e}i",
             f"radial part t = {np.array2string(factors.t, precision=6)}",
             f"cross-check via the explicit lift: relative difference {rel:.3e}"]
    payload = {"command": "coeff", "genus": args.n, "m": args.m, "mu": args.mu,
               "value": value, "cross_check": cross, "rel_diff": rel,
               "kak_t": [float(v) for v in factors.t]}
    _emit(args, lines, payload)
    return 0


def _point_from_args(args, scalar: str, file: str, what: str) -> SiegelPoint:
    """The point from the option --<scalar> (genus 1) or the JSON matrix file
    named by --<file>, exactly one of which is given; ``what`` names the point."""
    text, path = getattr(args, scalar), getattr(args, file.replace("-", "_"))
    if (text is None) == (path is None):
        raise DomainError(f"give {what} via one of --{scalar} and --{file} FILE")
    if text is not None:
        if args.n != 1:
            raise DomainError(f"--{scalar} takes a scalar; beyond genus 1 use --{file} FILE")
        return SiegelPoint.from_complex(np.array([[_parse_complex(text)]]))
    pt = SiegelPoint.from_complex(load_matrix(path, name="point"))
    require_genus(args.n, **{f"the point in {path}": pt})
    return pt


def cmd_poincare(args) -> int:
    w = Weight(args.m, args.n)
    mu = parse_polynomial(args.mu, args.n)
    group = CongruenceGroup(args.n, args.N)
    z = _point_from_args(args, "z", "point", "an evaluation point")
    radius = _default_radius(args)
    ball = _get_ball(args, group, radius)
    res = poincare_f(mu, w, group, z, radius, ball=ball)
    # the sum over the group's elements in K of mu's translates, mu', is 0
    notes = (["note: this weight vanishes identically at this level"]
             if mu.orbit_sum(group.k_units(), w.m).is_zero() else [])
    return _emit_series(args, "poincare", res, notes, mu=args.mu)


def cmd_kernel(args) -> int:
    w = Weight(args.m, args.n)
    group = CongruenceGroup(args.n, args.N)
    z = _point_from_args(args, "z", "point", "an evaluation point")
    xi = _point_from_args(args, "xi", "xi-point", "the kernel point")
    radius = _default_radius(args)
    ball = _get_ball(args, group, radius)
    res = kernel_series(w, group, xi, z, radius, ball=ball)
    return _emit_series(args, "kernel", res, [])


def _emit_series(args, command: str, res, notes: list, **extra) -> int:
    lines = [f"value = {res.value.real:+.12e} {res.value.imag:+.12e}i",
             f"{res.terms} terms within norm {res.radius:g}; "
             f"half-radius tail {res.tail_estimate:.3e}"] + notes
    _emit(args, lines, {"command": command, "genus": args.n, "level": args.N,
                        "m": args.m, **asdict(res), **extra})
    return 0


def cmd_norms(args) -> int:
    group = CongruenceGroup(args.n, args.N)
    rep = norm_bounds_check(group, **_given(args, "r", "samples", "seed",
                                            "ball_radius", "budget"))
    lines = [f"sampled product norms: max {rep.max_product_norm:.6f} "
             f"vs bound {rep.bound:.6f} ({rep.samples} samples, r {rep.r:g})",
             f"noncompact minimum: {rep.min_noncompact_norm:.6f} "
             f"vs threshold {rep.threshold:.6f} (ball radius {rep.ball_radius:g})",
             "PASS" if rep.passed else "FAIL"]
    _emit(args, lines, {"command": "norms", "genus": args.n, **asdict(rep)})
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------

def _pairing_args(args) -> dict:
    """The radius and genus-1 ball of the pairing checks, fetched once a run."""
    if "pairing" not in vars(args):
        radius = PAIRING_RADIUS if args.radius is None else args.radius
        args.pairing = {"radius": radius,
                        "ball": _get_ball(args, CongruenceGroup(1, 1), radius)}
    return args.pairing


# each target: the options it reads, and its reports
_VERIFY_TARGETS = {
    "table1": ("n tol", lambda args: [verify_thresholds(n, **_given(args, "tol"))
                                      for n in ([args.n] if args.n else [1, 2])]),
    "coeff": ("samples seed",
              lambda args: [verify_coefficients(**_given(args, "samples", "seed"))]),
    "cmn": ("samples seed", lambda args: verify_cmn(**_given(args, "samples", "seed"))),
    "cor62": ("radius budget cache-dir", lambda args: [verify_cor62(**_pairing_args(args))]),
    "thm93": ("radius budget cache-dir", lambda args: verify_thm93(**_pairing_args(args))),
}


def cmd_verify(args) -> int:
    targets = list(_VERIFY_TARGETS) if args.target == "all" else [args.target]
    # --cache-dir is exempt: SIEGEL_CACHE_DIR fills it for every target
    unread = {o for reads, _ in _VERIFY_TARGETS.values() for o in reads.split()} - {"cache-dir"}
    unread -= {o for t in targets for o in _VERIFY_TARGETS[t][0].split()}
    _refuse(args, f"verify {args.target}", *sorted(unread))
    reports = [rep for t in targets for rep in _VERIFY_TARGETS[t][1](args)]
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.identity} — {r.detail}"
             for r in reports]
    ok = all(r.passed for r in reports)
    lines.append(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed")
    payload = {"command": "verify", "target": args.target, "passed": ok,
               "results": [{"name": r.identity, "passed": r.passed,
                            "detail": r.detail} for r in reports]}
    rows = [(r.identity, "pass" if r.passed else "fail", r.detail)
            for r in reports]
    _emit(args, lines, payload, csv_header=("name", "status", "detail"),
          csv_rows=rows)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    shared = {
        "n": dict(type=int, required=True, help="genus"),
        "N": dict(type=int, required=True, help="congruence level"),
        "m": dict(type=int, required=True, help="scalar weight"),
        "mu": dict(default="1", help="polynomial weight (default '1')"),
        "z": dict(help="evaluation point (genus 1), e.g. '0.1+2i'"),
        "point": dict(help="JSON matrix file with the point"),
        "samples": dict(type=int, help="sample count"),
        "seed": dict(type=_seed, help="random seed, a nonnegative integer"),
        "tol": dict(type=float, help="integral fails if error estimate > tol*max(1, |I|)"),
        "budget": dict(type=int, help="work budget for ball enumeration"),
        "radius": dict(type=float, help="truncation radius"),
        "cache-dir": dict(default=os.environ.get("SIEGEL_CACHE_DIR"),
                          help="directory for enumeration caches (env SIEGEL_CACHE_DIR)"),
        "format": dict(choices=("text", "json", "csv"), default="text",
                       help="output format"),
        "output": dict(help="write output to this file instead of stdout"),
    }

    def command(name: str, options: str, help: str) -> argparse.ArgumentParser:
        """A subcommand with the named shared options, --format and --output."""
        q = sub.add_parser(name, help=help, epilog="An option without a stated "
                           "default takes the default of the library function it feeds.")
        for key in options.split() + ["format", "output"]:
            q.add_argument("--" + key, **shared[key])
        return q

    p = argparse.ArgumentParser(
        prog="siegelps",
        description="Discrete-series vectors, non-vanishing thresholds and "
                    "truncated averages on the symplectic group.")
    sub = p.add_subparsers(dest="command", required=True)

    q = command("n0", "n m samples seed tol",
                help="smallest level with a guaranteed nonzero average")
    q.add_argument("--l", type=int, help="determinant power (default 0)")
    q.add_argument("--mu", help="general polynomial weight, e.g. 'det^2 + 3*X_{1,2}'")
    q.add_argument("--confidence", type=float,
                   help="one-sided certification level for --mu")
    q.set_defaults(func=cmd_n0)

    q = command("n0-table", "n tol", help="threshold table over a rectangle of (l, m)")
    q.add_argument("--l-min", type=int, default=0, help="default 0")
    q.add_argument("--l-max", type=int, default=12, help="default 12")
    q.add_argument("--m-min", type=int, help="default 2n+1")
    q.add_argument("--m-max", type=int, help="default 2n+8")
    q.set_defaults(func=cmd_n0_table)

    q = command("cmn", "n m samples seed",
                help="normalization constant, closed form and Monte Carlo")
    q.add_argument("--mc", action="store_true", help="add a Monte Carlo estimate")
    q.set_defaults(func=cmd_cmn)

    q = command("coeff", "n m mu", help="matrix coefficient of a group element")
    q.add_argument("--matrix", help="JSON file with the element")
    q.add_argument("--t", help="comma-separated radial parameters instead of --matrix")
    q.set_defaults(func=cmd_coeff)

    q = command("poincare", "n N m mu z point budget radius cache-dir",
                help="truncated average of a translated weight vector")
    q.set_defaults(func=cmd_poincare)

    q = command("kernel", "n N m z point budget radius cache-dir",
                help="truncated average of the point-evaluation kernel")
    q.add_argument("--xi", help="kernel point (genus 1)")
    q.add_argument("--xi-point", help="JSON matrix file with the kernel point")
    q.set_defaults(func=cmd_kernel)

    q = command("norms", "n N samples seed budget",
                help="norm estimates behind the truncation analysis")
    q.add_argument("--r", type=float, help="radial box size")
    q.add_argument("--ball-radius", type=float)
    q.set_defaults(func=cmd_norms)

    q = command("verify", "samples seed tol budget radius cache-dir",
                help="run the verification battery")
    q.add_argument("target", choices=sorted(_VERIFY_TARGETS) + ["all"])
    q.add_argument("--n", type=int, help="restrict table verification to one genus")
    q.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    try:    # a refused --seed raises DomainError while the options are parsed
        args = build_parser().parse_args(argv)
        if args.format == "csv" and (args.command not in ("n0", "n0-table", "verify")
                                     or getattr(args, "mu", None)):   # no rows; before any work
            raise DomainError("csv output is not available for this command")
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DomainError, DimensionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SiegelError as exc:      # BudgetError and AmbiguousThresholdError add a hint
        print(f"numerical failure: {exc}", file=sys.stderr)
        if getattr(exc, "feasible_radius", None) is not None:
            print(f"a radius of about {exc.feasible_radius:g} fits the budget",
                  file=sys.stderr)
        if getattr(exc, "diagnostics", None):
            print(f"diagnostics: {exc.diagnostics}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
