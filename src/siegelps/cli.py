"""Command-line interface.

Subcommands cover the threshold searches (``n0``, ``n0-table``), the
normalization constant (``cmn``), matrix coefficients (``coeff``), truncated
group averages (``poincare``, ``kernel``), the norm estimates behind the
truncation analysis (``norms``), and the verification battery (``verify``).

Exit codes: 0 success, 1 verification failure, 2 bad usage or invalid input,
3 numerical failure (non-convergence, ambiguous threshold, budget overrun).

Environment defaults: SIEGEL_SEED, SIEGEL_TOL, SIEGEL_BUDGET, SIEGEL_RADIUS,
SIEGEL_CACHE_DIR mirror the corresponding options.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from .discrete_series import (
    MatrixCoefficientSpec,
    Weight,
    c_mn,
    f_mu_m,
    lift,
    matrix_coeff_kak,
)
from .errors import (
    AmbiguousThresholdError,
    BudgetError,
    DimensionError,
    DomainError,
    SiegelError,
)
from .matrixio import load_matrix
from .nonvanishing import (
    ThresholdQuery,
    n0_detl_report,
    n0_general,
    n0_table,
    vanishing_case,
)
from .petersson import (
    mc_cmn,
    verify_cmn,
    verify_coefficients,
    verify_cor62,
    verify_thm93,
    verify_thresholds,
)
from .poincare import (
    CongruenceGroup,
    enumerate_ball,
    kernel_series,
    load_ball,
    norm_bounds_check,
    poincare_f,
    save_ball,
)
from .polynomials import MatrixPolynomial, parse_polynomial
from .symplectic import SiegelPoint, SymplecticMatrix, hyperbolic, kak_decompose


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------

def _env(name: str, cast, fallback):
    raw = os.environ.get(name)
    return cast(raw) if raw not in (None, "") else fallback


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace(" ", "").replace("i", "j"))
    except ValueError:
        raise DomainError(f"cannot parse {text!r} as a complex number")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return {"re": z.real, "im": z.imag}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _emit(args, lines, payload, csv_header=None, csv_rows=None) -> None:
    if args.format == "json":
        body = json.dumps(_jsonify(payload), sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        if csv_rows is None:
            raise DomainError("csv output is not available for this command")
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


def _get_ball(group: CongruenceGroup, radius: float, budget: int, cache_dir):
    if cache_dir:
        path = os.path.join(cache_dir,
                            f"ball_n{group.n}_N{group.N}_r{radius:g}.bin")
        if os.path.exists(path):
            ball = load_ball(path)
            if ball.group == group and ball.radius >= radius - 1e-12:
                return ball if abs(ball.radius - radius) <= 1e-12 else ball.restrict(radius)
        ball = enumerate_ball(group, radius, budget=budget)
        os.makedirs(cache_dir, exist_ok=True)
        save_ball(path, ball)
        return ball
    return enumerate_ball(group, radius, budget=budget)


def _default_radius(args, n: int) -> float:
    if args.radius is not None:
        return float(args.radius)
    return 12.0 if n == 1 else 4.0


def _load_point(path: str) -> SiegelPoint:
    return SiegelPoint.from_complex(load_matrix(path, name="point"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_n0(args) -> int:
    w = Weight(args.m, args.n)
    if args.mu is not None:
        mu = parse_polynomial(args.mu, args.n)
        query = ThresholdQuery(mu, w)
        res = n0_general(query, samples=args.samples, seed=args.seed,
                         confidence=args.confidence,
                         budget=max(4 * args.samples, 4_000_000))
        lines = [f"N0 = {res.n0}  (genus {args.n}, m {args.m}, weight {args.mu!r})",
                 f"certified one-sided at confidence {res.confidence} "
                 f"with {res.samples} samples"]
        if res.note:
            lines.append(f"note: {res.note}")
        payload = {"command": "n0", "genus": args.n, "m": args.m, "mu": args.mu,
                   "n0": res.n0, "confidence": res.confidence,
                   "samples": res.samples, "note": res.note,
                   "rows": [list(r) for r in res.rows]}
        _emit(args, lines, payload)
        return 0
    cell = n0_detl_report(args.l, w, tol=args.tol, budget=args.budget)
    lines = [f"N0 = {cell.n0}  (genus {args.n}, l {args.l}, m {args.m})",
             f"method {cell.method}, decision margin {cell.margin:.6e}"]
    if vanishing_case(args.l, w, 1):
        lines.append("note: at level 1 the average vanishes identically")
    if vanishing_case(args.l, w, 2):
        lines.append("note: at level 2 the average vanishes identically")
    payload = {"command": "n0", "genus": args.n, "l": args.l, "m": args.m,
               "n0": cell.n0, "method": cell.method, "margin": cell.margin}
    _emit(args, lines, payload,
          csv_header=("n", "l", "m", "N0", "method", "margin"),
          csv_rows=[(cell.n, cell.l, cell.m, cell.n0, cell.method,
                     f"{cell.margin:.12e}")])
    return 0


def cmd_n0_table(args) -> int:
    if args.m_min is None:
        args.m_min = 3 if args.n == 1 else 5 if args.n == 2 else None
    if args.m_max is None:
        args.m_max = 10 if args.n == 1 else 12 if args.n == 2 else None
    if args.m_min is None or args.m_max is None:
        raise DomainError("--m-min and --m-max are required beyond genus 2")
    ls = list(range(args.l_min, args.l_max + 1))
    ms = list(range(args.m_min, args.m_max + 1))
    cells = n0_table(args.n, ls, ms, tol=args.tol, budget=args.budget)
    by_pos = {(c.l, c.m): c for c in cells}
    width = max(5, len(str(max(c.n0 for c in cells))) + 1)
    lines = ["l\\m".rjust(6) + "".join(str(m).rjust(width) for m in ms)]
    for l in ls:
        lines.append(str(l).rjust(6)
                     + "".join(str(by_pos[(l, m)].n0).rjust(width) for m in ms))
    payload = {"command": "n0-table", "genus": args.n,
               "cells": [{"l": c.l, "m": c.m, "n0": c.n0, "method": c.method,
                          "margin": c.margin} for c in cells]}
    rows = [(c.n, c.l, c.m, c.n0, c.method, f"{c.margin:.12e}") for c in cells]
    _emit(args, lines, payload,
          csv_header=("n", "l", "m", "N0", "method", "margin"), csv_rows=rows)
    return 0


def cmd_cmn(args) -> int:
    w = Weight(args.m, args.n).require_integrable()
    value = c_mn(w)
    lines = [f"C({args.m},{args.n}) = {value:.12e}"]
    payload = {"command": "cmn", "genus": args.n, "m": args.m, "value": value}
    if args.mc:
        res = mc_cmn(w, samples=args.samples, seed=args.seed)
        sigma = abs(res.value - value) / res.error_estimate if res.error_estimate else 0.0
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
    if args.matrix:
        g = SymplecticMatrix(load_matrix(args.matrix, name="group element"))
        if g.n != args.n:
            raise DimensionError(f"matrix in {args.matrix} has genus {g.n}, "
                                 f"expected {args.n}")
    elif args.t:
        ts = np.array([float(v) for v in args.t.split(",")], dtype=np.float64)
        if ts.shape != (args.n,):
            raise DomainError(f"--t needs exactly {args.n} comma-separated values")
        g = hyperbolic(ts)
    else:
        raise DomainError("give a group element via --matrix FILE or --t LIST")
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


def _point_from_args(args) -> SiegelPoint:
    if args.z is not None:
        if args.n != 1:
            raise DomainError("--z takes a scalar; beyond genus 1 use --point FILE")
        zc = _parse_complex(args.z)
        return SiegelPoint.from_complex(np.array([[zc]]))
    if args.point:
        pt = _load_point(args.point)
        if pt.n != args.n:
            raise DimensionError(f"point in {args.point} has genus {pt.n}, "
                                 f"expected {args.n}")
        return pt
    raise DomainError("give an evaluation point via --z or --point FILE")


def cmd_poincare(args) -> int:
    w = Weight(args.m, args.n)
    mu = parse_polynomial(args.mu, args.n)
    group = CongruenceGroup(args.n, args.N)
    z = _point_from_args(args)
    radius = _default_radius(args, args.n)
    ball = _get_ball(group, radius, args.budget, args.cache_dir)
    res = poincare_f(mu, w, group, z, radius, ball=ball, budget=args.budget)
    notes = (["note: this weight vanishes identically at this level"]
             if vanishing_case(0, w, args.N) and mu == MatrixPolynomial.one(args.n) else [])
    return _emit_series(args, "poincare", res, notes, mu=args.mu)


def cmd_kernel(args) -> int:
    w = Weight(args.m, args.n)
    group = CongruenceGroup(args.n, args.N)
    z = _point_from_args(args)
    if args.xi is not None:
        if args.n != 1:
            raise DomainError("--xi takes a scalar; beyond genus 1 use --xi-point FILE")
        xi = SiegelPoint.from_complex(np.array([[_parse_complex(args.xi)]]))
    elif args.xi_point:
        xi = _load_point(args.xi_point)
        if xi.n != args.n:
            raise DimensionError(f"point in {args.xi_point} has genus {xi.n}, "
                                 f"expected {args.n}")
    else:
        raise DomainError("give the kernel point via --xi or --xi-point FILE")
    radius = _default_radius(args, args.n)
    ball = _get_ball(group, radius, args.budget, args.cache_dir)
    res = kernel_series(w, group, xi, z, radius, ball=ball, budget=args.budget)
    return _emit_series(args, "kernel", res, [])


def _emit_series(args, command: str, res, notes: list, **extra) -> int:
    lines = [f"value = {res.value.real:+.12e} {res.value.imag:+.12e}i",
             f"{res.terms} terms within norm {res.radius:g}; "
             f"half-radius tail {res.tail_estimate:.3e}"] + notes
    _emit(args, lines, {"command": command, "genus": args.n, "level": args.N,
                        "m": args.m, "value": res.value, "terms": res.terms,
                        "radius": res.radius, "tail_estimate": res.tail_estimate,
                        **extra})
    return 0


def cmd_norms(args) -> int:
    group = CongruenceGroup(args.n, args.N)
    rep = norm_bounds_check(group, r=args.r, samples=args.samples,
                            seed=args.seed, ball_radius=args.ball_radius,
                            budget=args.budget)
    lines = [f"sampled product norms: max {rep.max_product_norm:.6f} "
             f"vs bound {rep.bound:.6f} ({rep.samples} samples, r {rep.r:g})",
             f"noncompact minimum: {rep.min_noncompact_norm:.6f} "
             f"vs threshold {rep.threshold:.6f} (ball radius {rep.ball_radius:g})",
             "PASS" if rep.passed else "FAIL"]
    payload = {"command": "norms", "genus": args.n, "level": args.N,
               "r": rep.r, "bound": rep.bound,
               "max_product_norm": rep.max_product_norm,
               "samples": rep.samples, "threshold": rep.threshold,
               "min_noncompact_norm": rep.min_noncompact_norm,
               "ball_radius": rep.ball_radius, "passed": rep.passed}
    _emit(args, lines, payload)
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------

def _pairing_args(args) -> dict:
    radius = args.radius if args.radius is not None else 40.0
    return {"radius": radius,
            "ball": _get_ball(CongruenceGroup(1, 1), radius, args.budget, args.cache_dir)}


_VERIFY_TARGETS = {
    "table1": lambda args: [verify_thresholds(n, args.tol)
                            for n in ([args.n] if args.n else [1, 2])],
    "coeff": lambda args: [verify_coefficients(args.samples or 100, args.seed)],
    "cmn": lambda args: verify_cmn(args.samples or 10 ** 6, args.seed),
    "cor62": lambda args: [verify_cor62(**_pairing_args(args))],
    "thm93": lambda args: verify_thm93(**_pairing_args(args)),
}


def cmd_verify(args) -> int:
    targets = list(_VERIFY_TARGETS) if args.target == "all" else [args.target]
    reports = [rep for t in targets for rep in _VERIFY_TARGETS[t](args)]
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
        "seed": dict(type=int, default=_env("SIEGEL_SEED", int, 0),
                     help="random seed (default 0, env SIEGEL_SEED)"),
        "tol": dict(type=float, default=_env("SIEGEL_TOL", float, 1e-10),
                    help="numeric tolerance (default 1e-10, env SIEGEL_TOL)"),
        "budget": dict(type=int, default=_env("SIEGEL_BUDGET", int, 2 * 10 ** 9),
                       help="work budget for enumeration and sampling "
                            "(env SIEGEL_BUDGET)"),
        "radius": dict(type=float, default=_env("SIEGEL_RADIUS", float, None),
                       help="truncation radius (env SIEGEL_RADIUS)"),
        "cache-dir": dict(default=os.environ.get("SIEGEL_CACHE_DIR"),
                          help="directory for enumeration caches (env SIEGEL_CACHE_DIR)"),
        "format": dict(choices=("text", "json", "csv"), default="text",
                       help="output format"),
        "output": dict(default=None, help="write output to this file instead of stdout"),
    }

    def command(name: str, options: str, help: str) -> argparse.ArgumentParser:
        """A subcommand with the named shared options, --format and --output."""
        q = sub.add_parser(name, help=help)
        for key in options.split() + ["format", "output"]:
            q.add_argument("--" + key, **shared[key])
        return q

    p = argparse.ArgumentParser(
        prog="siegelps",
        description="Discrete-series vectors, non-vanishing thresholds and "
                    "truncated averages on the symplectic group.")
    sub = p.add_subparsers(dest="command", required=True)

    q = command("n0", "seed tol budget",
                help="smallest level with a guaranteed nonzero average")
    q.add_argument("--n", type=int, required=True, help="genus")
    q.add_argument("--l", type=int, default=0, help="determinant power (default 0)")
    q.add_argument("--m", type=int, required=True, help="scalar weight")
    q.add_argument("--mu", default=None,
                   help="general polynomial weight, e.g. 'det^2 + 3*X_{1,2}'")
    q.add_argument("--samples", type=int, default=100_000,
                   help="Monte Carlo samples for --mu (default 100000)")
    q.add_argument("--confidence", type=float, default=0.99,
                   help="one-sided certification level for --mu (default 0.99)")
    q.set_defaults(func=cmd_n0)

    q = command("n0-table", "tol budget",
                help="threshold table over a rectangle of (l, m)")
    q.add_argument("--n", type=int, required=True, help="genus")
    q.add_argument("--l-min", type=int, default=0)
    q.add_argument("--l-max", type=int, default=12)
    q.add_argument("--m-min", type=int, default=None)
    q.add_argument("--m-max", type=int, default=None)
    q.set_defaults(func=cmd_n0_table)

    q = command("cmn", "seed",
                help="normalization constant, closed form and Monte Carlo")
    q.add_argument("--n", type=int, required=True, help="genus")
    q.add_argument("--m", type=int, required=True, help="scalar weight")
    q.add_argument("--mc", action="store_true", help="add a Monte Carlo estimate")
    q.add_argument("--samples", type=int, default=10 ** 6)
    q.set_defaults(func=cmd_cmn)

    q = command("coeff", "", help="matrix coefficient of a group element")
    q.add_argument("--n", type=int, required=True, help="genus")
    q.add_argument("--m", type=int, required=True, help="scalar weight")
    q.add_argument("--mu", default="1", help="polynomial weight (default '1')")
    q.add_argument("--matrix", default=None, help="JSON file with the element")
    q.add_argument("--t", default=None,
                   help="comma-separated radial parameters instead of --matrix")
    q.set_defaults(func=cmd_coeff)

    q = command("poincare", "budget radius cache-dir",
                help="truncated average of a translated weight vector")
    q.add_argument("--n", type=int, required=True, help="genus")
    q.add_argument("--N", type=int, required=True, help="congruence level")
    q.add_argument("--m", type=int, required=True, help="scalar weight")
    q.add_argument("--mu", default="1", help="polynomial weight (default '1')")
    q.add_argument("--z", default=None, help="evaluation point (genus 1), e.g. '0.1+2i'")
    q.add_argument("--point", default=None, help="JSON matrix file with the point")
    q.set_defaults(func=cmd_poincare)

    q = command("kernel", "budget radius cache-dir",
                help="truncated average of the point-evaluation kernel")
    q.add_argument("--n", type=int, required=True, help="genus")
    q.add_argument("--N", type=int, required=True, help="congruence level")
    q.add_argument("--m", type=int, required=True, help="scalar weight")
    q.add_argument("--xi", default=None, help="kernel point (genus 1)")
    q.add_argument("--xi-point", default=None, help="JSON matrix file with the kernel point")
    q.add_argument("--z", default=None, help="evaluation point (genus 1)")
    q.add_argument("--point", default=None, help="JSON matrix file with the point")
    q.set_defaults(func=cmd_kernel)

    q = command("norms", "seed budget",
                help="norm estimates behind the truncation analysis")
    q.add_argument("--n", type=int, required=True, help="genus")
    q.add_argument("--N", type=int, required=True, help="congruence level")
    q.add_argument("--r", type=float, default=0.5, help="radial box size")
    q.add_argument("--samples", type=int, default=1000)
    q.add_argument("--ball-radius", type=float, default=None)
    q.set_defaults(func=cmd_norms)

    q = command("verify", "seed tol budget radius cache-dir",
                help="run the verification battery")
    q.add_argument("target", choices=sorted(_VERIFY_TARGETS) + ["all"])
    q.add_argument("--n", type=int, default=None,
                   help="restrict table verification to one genus")
    q.add_argument("--samples", type=int, default=None,
                   help="override per-check sample counts")
    q.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DomainError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if exc.feasible_radius is not None:
            print(f"a radius of about {exc.feasible_radius:g} fits the budget",
                  file=sys.stderr)
        return 3
    except AmbiguousThresholdError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if exc.diagnostics:
            print(f"diagnostics: {exc.diagnostics}", file=sys.stderr)
        return 3
    except SiegelError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
