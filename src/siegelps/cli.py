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
    REFERENCE_N0,
    ThresholdQuery,
    haar_unitary,
    n0_detl_report,
    n0_general,
    n0_table,
    vanishing_case,
)
from .petersson import mc_cmn, verify_cor62, verify_thm93
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
from .symplectic import (
    SiegelPoint,
    SymplecticMatrix,
    diagonal_scaling,
    embed_unitary,
    hyperbolic,
    kak_decompose,
    upper_translation,
)


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------

def _env_int(name: str, fallback):
    raw = os.environ.get(name)
    return int(raw) if raw not in (None, "") else fallback


def _env_float(name: str, fallback):
    raw = os.environ.get(name)
    return float(raw) if raw not in (None, "") else fallback


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


def _random_symplectic(n: int, rng: np.random.Generator) -> SymplecticMatrix:
    x = rng.uniform(-1.0, 1.0, size=(n, n))
    x = (x + x.T) / 2.0
    b = rng.standard_normal((n, n))
    y = b @ b.T + 0.3 * np.eye(n)
    u = haar_unitary(n, rng)
    return upper_translation(x) @ diagonal_scaling(y) @ embed_unitary(u)


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

def _verify_table1(args) -> list[dict]:
    results = []
    ns = [args.n] if args.n else [1, 2]
    for n in ns:
        if n not in REFERENCE_N0:
            raise DomainError(f"no reference thresholds at genus {n}")
        ms = range(3, 11) if n == 1 else range(5, 13)
        cells = n0_table(n, range(0, 13), ms, tol=args.tol, budget=10 ** 6)
        ref = REFERENCE_N0[n]
        bad = [(c.l, c.m, c.n0, ref[(c.l, c.m)])
               for c in cells if c.n0 != ref[(c.l, c.m)]]
        detail = f"{len(cells) - len(bad)}/{len(cells)} cells match the reference"
        if bad:
            detail += "; mismatches " + ", ".join(
                f"(l={l},m={m}) got {got} want {want}" for l, m, got, want in bad[:8])
        results.append({"name": f"threshold-table-genus{n}", "passed": not bad,
                        "detail": detail})
    return results


def _verify_coeff(args) -> list[dict]:
    rng = np.random.default_rng(args.seed)
    count = args.samples or 100
    worst = 0.0
    m = 8
    for n in (1, 2, 3):
        w = Weight(m, n)
        mus = [MatrixPolynomial.one(n), MatrixPolynomial.det_power(n, 1),
               MatrixPolynomial.det_power(n, 2), MatrixPolynomial.coordinate(n, 1, 1)]
        for _ in range(count):
            g = _random_symplectic(n, rng)
            factors = kak_decompose(g)
            for mu in mus:
                spec = MatrixCoefficientSpec(mu, w)
                a = matrix_coeff_kak(spec, factors)
                b = lift(lambda z: f_mu_m(mu, w, z), w, g)
                worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    passed = worst <= 1e-9
    return [{"name": "coefficient-identity", "passed": passed,
             "detail": f"worst relative difference {worst:.3e} over "
                       f"{3 * 4 * count} evaluations (tolerance 1e-09)"}]


def _verify_cmn(args) -> list[dict]:
    samples = args.samples or 10 ** 6
    results = []
    for n, m in ((1, 4), (1, 12), (2, 5), (2, 8)):
        w = Weight(m, n)
        closed = c_mn(w)
        res = mc_cmn(w, samples=samples, seed=args.seed)
        if res.error_estimate > 0:
            sigma = abs(res.value - closed) / res.error_estimate
            passed = sigma <= 3.0
        else:
            sigma = 0.0
            passed = res.value == closed
        results.append({"name": f"normalization-mc-n{n}-m{m}", "passed": passed,
                        "detail": f"closed {closed:.6e}, mc {res.value:.6e} "
                                  f"+- {res.error_estimate:.2e} ({sigma:.2f} sigma)"})
    return results


def _verify_pairings(args, check) -> list[dict]:
    radius = args.radius if args.radius is not None else 40.0
    ball = _get_ball(CongruenceGroup(1, 1), radius, args.budget, args.cache_dir)
    return [{"name": rep.identity, "passed": rep.passed,
             "detail": f"relative error {rep.rel_err:.4f} (tolerance 0.02); "
                       f"budget {_fmt_budget(rep.error_budget)}"}
            for rep in check(radius=radius, ball=ball)]


def _fmt_budget(budget: dict) -> str:
    return ", ".join(f"{k} {v:.2e}" for k, v in sorted(budget.items()))


_VERIFY_TARGETS = {
    "table1": _verify_table1,
    "coeff": _verify_coeff,
    "cmn": _verify_cmn,
    "cor62": lambda args: _verify_pairings(args, lambda **kw: [verify_cor62(**kw)]),
    "thm93": lambda args: _verify_pairings(args, verify_thm93),
}


def cmd_verify(args) -> int:
    targets = list(_VERIFY_TARGETS) if args.target == "all" else [args.target]
    results = []
    for t in targets:
        results.extend(_VERIFY_TARGETS[t](args))
    lines = [f"{'PASS' if r['passed'] else 'FAIL'} {r['name']} — {r['detail']}"
             for r in results]
    ok = all(r["passed"] for r in results)
    lines.append(f"{sum(r['passed'] for r in results)}/{len(results)} checks passed")
    payload = {"command": "verify", "target": args.target,
               "results": results, "passed": ok}
    rows = [(r["name"], "pass" if r["passed"] else "fail", r["detail"])
            for r in results]
    _emit(args, lines, payload, csv_header=("name", "status", "detail"),
          csv_rows=rows)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=_env_int("SIEGEL_SEED", 0),
                        help="random seed (default 0, env SIEGEL_SEED)")
    common.add_argument("--tol", type=float, default=_env_float("SIEGEL_TOL", 1e-10),
                        help="numeric tolerance (default 1e-10, env SIEGEL_TOL)")
    common.add_argument("--budget", type=int,
                        default=_env_int("SIEGEL_BUDGET", 2 * 10 ** 9),
                        help="work budget for enumeration and sampling "
                             "(env SIEGEL_BUDGET)")
    common.add_argument("--radius", type=float,
                        default=_env_float("SIEGEL_RADIUS", None),
                        help="truncation radius (env SIEGEL_RADIUS)")
    common.add_argument("--cache-dir", default=os.environ.get("SIEGEL_CACHE_DIR"),
                        help="directory for enumeration caches (env SIEGEL_CACHE_DIR)")
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format")
    common.add_argument("--output", default=None,
                        help="write output to this file instead of stdout")

    p = argparse.ArgumentParser(
        prog="siegelps",
        description="Discrete-series vectors, non-vanishing thresholds and "
                    "truncated averages on the symplectic group.")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("n0", parents=[common],
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

    q = sub.add_parser("n0-table", parents=[common],
                       help="threshold table over a rectangle of (l, m)")
    q.add_argument("--n", type=int, required=True, help="genus")
    q.add_argument("--l-min", type=int, default=0)
    q.add_argument("--l-max", type=int, default=12)
    q.add_argument("--m-min", type=int, default=None)
    q.add_argument("--m-max", type=int, default=None)
    q.set_defaults(func=cmd_n0_table)

    q = sub.add_parser("cmn", parents=[common],
                       help="normalization constant, closed form and Monte Carlo")
    q.add_argument("--n", type=int, required=True, help="genus")
    q.add_argument("--m", type=int, required=True, help="scalar weight")
    q.add_argument("--mc", action="store_true", help="add a Monte Carlo estimate")
    q.add_argument("--samples", type=int, default=10 ** 6)
    q.set_defaults(func=cmd_cmn)

    q = sub.add_parser("coeff", parents=[common],
                       help="matrix coefficient of a group element")
    q.add_argument("--n", type=int, required=True, help="genus")
    q.add_argument("--m", type=int, required=True, help="scalar weight")
    q.add_argument("--mu", default="1", help="polynomial weight (default '1')")
    q.add_argument("--matrix", default=None, help="JSON file with the element")
    q.add_argument("--t", default=None,
                   help="comma-separated radial parameters instead of --matrix")
    q.set_defaults(func=cmd_coeff)

    q = sub.add_parser("poincare", parents=[common],
                       help="truncated average of a translated weight vector")
    q.add_argument("--n", type=int, required=True, help="genus")
    q.add_argument("--N", type=int, required=True, help="congruence level")
    q.add_argument("--m", type=int, required=True, help="scalar weight")
    q.add_argument("--mu", default="1", help="polynomial weight (default '1')")
    q.add_argument("--z", default=None, help="evaluation point (genus 1), e.g. '0.1+2i'")
    q.add_argument("--point", default=None, help="JSON matrix file with the point")
    q.set_defaults(func=cmd_poincare)

    q = sub.add_parser("kernel", parents=[common],
                       help="truncated average of the point-evaluation kernel")
    q.add_argument("--n", type=int, required=True, help="genus")
    q.add_argument("--N", type=int, required=True, help="congruence level")
    q.add_argument("--m", type=int, required=True, help="scalar weight")
    q.add_argument("--xi", default=None, help="kernel point (genus 1)")
    q.add_argument("--xi-point", default=None, help="JSON matrix file with the kernel point")
    q.add_argument("--z", default=None, help="evaluation point (genus 1)")
    q.add_argument("--point", default=None, help="JSON matrix file with the point")
    q.set_defaults(func=cmd_kernel)

    q = sub.add_parser("norms", parents=[common],
                       help="norm estimates behind the truncation analysis")
    q.add_argument("--n", type=int, required=True, help="genus")
    q.add_argument("--N", type=int, required=True, help="congruence level")
    q.add_argument("--r", type=float, default=0.5, help="radial box size")
    q.add_argument("--samples", type=int, default=1000)
    q.add_argument("--ball-radius", type=float, default=None)
    q.set_defaults(func=cmd_norms)

    q = sub.add_parser("verify", parents=[common],
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
