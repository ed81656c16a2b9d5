"""The benchmark's three seeded workloads.

A workload turns a random generator into one task list: the tasks a user of
that path would run back to back.  Every task checks its own output and
raises ``CheckFailed`` when the output is wrong.  Inputs are drawn when the
list is built, so the timed part of a task is the library call and its check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import siegelps as sp
from reference import GENUS2_BALL_COUNTS, N0_DETL, N0_GENERAL


class CheckFailed(Exception):
    """A task's output failed its correctness check."""


# Raised by a task that fails; anything else is a defect of the benchmark.
TASK_ERRORS = (CheckFailed, sp.BudgetError, sp.AmbiguousThresholdError,
               sp.ConvergenceError)


@dataclass(frozen=True)
class Task:
    kind: str
    run: Callable[[], None]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _relative(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _random_symplectic(n: int, rng: np.random.Generator) -> sp.SymplecticMatrix:
    """Translation, scaling and rotation parts of moderate size."""
    x = rng.uniform(-1.0, 1.0, size=(n, n))
    b = rng.standard_normal((n, n))
    u = sp.haar_unitary(n, rng)
    return (sp.upper_translation((x + x.T) / 2.0)
            @ sp.diagonal_scaling(b @ b.T + 0.3 * np.eye(n))
            @ sp.embed_unitary(u))


def _random_point(n: int, rng: np.random.Generator) -> sp.SiegelPoint:
    x = rng.uniform(-1.0, 1.0, size=(n, n))
    b = rng.standard_normal((n, n))
    return sp.SiegelPoint((x + x.T) / 2.0, b @ b.T + 0.2 * np.eye(n))


def _fundamental_domain_point(rng: np.random.Generator) -> complex:
    """A point with |x| <= 1/2, |z| >= 1 and height at most 2."""
    x = rng.uniform(-0.5, 0.5)
    return complex(x, rng.uniform(math.sqrt(1.0 - x * x), 2.0))


# ---------------------------------------------------------------------------
# pairing-g1: genus-1 pairing identities, series plus quadrature
# ---------------------------------------------------------------------------

class PairingG1:
    """Each identity at each radius once per list, in seeded order."""

    kinds = ("cor62", "thm93")

    def __init__(self, size: str):
        self.radii = (20.0, 28.0, 40.0) if size == "full" else (6.0, 8.0, 10.0)

    def tasks(self, rng: np.random.Generator, workdir: Path) -> list[Task]:
        plan = [(kind, r) for kind in self.kinds for r in self.radii]
        return [self._task(*plan[i], _fundamental_domain_point(rng))
                for i in rng.permutation(len(plan))]

    def warmup_tasks(self, rng: np.random.Generator, workdir: Path) -> list[Task]:
        return [self._task(kind, 6.0, _fundamental_domain_point(rng))
                for kind in self.kinds]

    @staticmethod
    def _task(kind: str, radius: float, xi: complex) -> Task:
        def run():
            ball = sp.enumerate_ball(sp.CongruenceGroup(1, 1), radius)
            if kind == "cor62":
                reports = [sp.verify_cor62(radius=radius, ball=ball)]
            else:
                reports = sp.verify_thm93(points=(xi,), radius=radius, ball=ball)
            for rep in reports:
                _require(rep.passed, f"{rep.identity} at r={radius:g}: "
                                     f"relative error {rep.rel_err:.3e}")
        return Task(f"{kind}@r{radius:g}", run)


# ---------------------------------------------------------------------------
# ball-g2: genus-2 truncated averages through an on-disk ball cache
# ---------------------------------------------------------------------------

class BallG2:
    """Two tasks per (N, r) key, in seeded order.

    A key's first task misses the cache: it enumerates and saves the ball.
    Its second task hits: it loads the ball.  This is the cold/warm pair of
    ``siegelps poincare --cache-dir`` (``tests/test_cli.py``,
    ``test_ball_cache_cold_and_warm``), whose cache files are named by the
    exact radius, so a hit never restricts the loaded ball.  Each task then
    sums the weight-vector series, the kernel series and the group-side
    series at seeded points.  Which task misses never depends on the seed,
    so every list has the same mix of work.
    """

    tasks_per_key = 2

    mu_text = "det^2 + 3*X_{1,2}"
    keys_by_size = {
        "full": ((1, 3.0), (1, 3.5), (1, 4.0), (2, 6.0), (2, 8.0), (3, 8.0), (3, 10.0)),
        "smoke": ((2, 6.0), (3, 8.0), (3, 10.0)),
    }

    def __init__(self, size: str):
        self.keys = self.keys_by_size[size]
        self.weight = sp.Weight(8, 2)
        self.spec = sp.MatrixCoefficientSpec(sp.parse_polynomial(self.mu_text, 2),
                                             self.weight)

    def tasks(self, rng: np.random.Generator, workdir: Path) -> list[Task]:
        plan = [key for key in self.keys for _ in range(self.tasks_per_key)]
        return self._build([plan[i] for i in rng.permutation(len(plan))], rng, workdir)

    def warmup_tasks(self, rng: np.random.Generator, workdir: Path) -> list[Task]:
        return self._build([(3, 8.0)] * 2, rng, workdir)

    def _build(self, keys, rng: np.random.Generator, workdir: Path) -> list[Task]:
        workdir.mkdir(parents=True)
        saved: dict = {}
        tasks = []
        for N, r in keys:
            hit = (N, r) in saved
            saved.setdefault((N, r), None)
            run = functools.partial(self._run, workdir, saved, N, r,
                                    _random_symplectic(2, rng), _random_point(2, rng), hit)
            tasks.append(Task("hit" if hit else "miss", run))
        return tasks

    def _run(self, cache_dir: Path, saved: dict, N: int, r: float,
             g: sp.SymplecticMatrix, xi: sp.SiegelPoint, hit: bool) -> None:
        group = sp.CongruenceGroup(2, N)
        path = cache_dir / f"ball_n2_N{N}_r{r:g}.bin"
        _require(path.exists() == hit,
                 f"{path.name} is {'missing' if hit else 'already cached'}")
        if hit:
            ball = sp.load_ball(str(path))
            _require(ball.group == group and ball.radius == r
                     and np.array_equal(ball.elements, saved[N, r]),
                     f"{path.name}: loaded ball differs from the saved one")
        else:
            ball = sp.enumerate_ball(group, r)
            sp.save_ball(str(path), ball)
            saved[N, r] = ball.elements
        count = GENUS2_BALL_COUNTS[N, r]
        _require(len(ball) == count, f"N={N}, r={r:g}: {len(ball)} elements, "
                                     f"expected {count}")

        center = sp.SiegelPoint.center(2)
        z = sp.act(g, center)
        m = self.weight.m
        f = sp.poincare_f(self.spec.mu, self.weight, group, z, r, ball=ball)
        k = sp.kernel_series(self.weight, group, xi, z, r, ball=ball)
        F = sp.poincare_F(self.spec, group, g, r, ball=ball)
        _require(f.terms == k.terms == F.terms == count, "series term counts disagree")
        _require(np.isfinite(k.value) and np.isfinite(k.tail_estimate),
                 "kernel series is not finite")
        rel = _relative(F.value, sp.j_factor(g, center) ** (-m) * f.value)
        _require(rel <= 1e-10, f"N={N}, r={r:g}: F(g) and j(g,iI)^-m f(g.iI) "
                               f"differ by {rel:.3e}")


# ---------------------------------------------------------------------------
# cells: pointwise queries that never enumerate or sum a series
# ---------------------------------------------------------------------------

class Cells:
    """Threshold cells, Monte Carlo thresholds and constants, and KAK/NAK
    matrix coefficients, in seeded order."""

    coeff_m = 8

    def __init__(self, size: str):
        full = size == "full"
        ms = {1: range(3, 11), 2: range(5, 13)}
        ls = range(13) if full else (0, 12)
        self.cells = [(n, l, m) for n in (1, 2) for l in ls
                      for m in (ms[n] if full else ms[n][:2])]
        self.general = N0_GENERAL if full else N0_GENERAL[3:4]
        self.mc = ((1, 4), (1, 12), (2, 5), (2, 8)) if full else ((1, 4), (2, 5))
        self.mc_samples = 10 ** 6 if full else 10 ** 5
        self.coeff_per_genus = 20 if full else 3

    def tasks(self, rng: np.random.Generator, workdir: Path) -> list[Task]:
        tasks = [self._cell(*c) for c in self.cells]
        tasks += [self._general(*g) for g in self.general]
        tasks += [self._mc(n, m, self.mc_samples) for n, m in self.mc]
        tasks += [self._coeff(n, _random_symplectic(n, rng))
                  for n in (1, 2, 3) for _ in range(self.coeff_per_genus)]
        return [tasks[i] for i in rng.permutation(len(tasks))]

    def warmup_tasks(self, rng: np.random.Generator, workdir: Path) -> list[Task]:
        return [self._cell(2, 0, 5), self._general(*N0_GENERAL[3]),
                self._mc(1, 4, 10 ** 5), self._coeff(2, _random_symplectic(2, rng))]

    @staticmethod
    def _cell(n: int, l: int, m: int) -> Task:
        def run():
            cell = sp.n0_detl_report(l, sp.Weight(m, n), tol=1e-10)
            want = N0_DETL[n][l, m]
            _require(cell.n0 == want, f"det^{l}, m={m}, genus {n}: N0 {cell.n0}, "
                                      f"reference {want}")
        return Task(f"cell-g{n}", run)

    @staticmethod
    def _general(text: str, m: int, want: int) -> Task:
        query = sp.ThresholdQuery(sp.parse_polynomial(text, 2), sp.Weight(m, 2))

        def run():
            got = sp.n0_general(query).n0
            _require(got == want, f"{text}, m={m}: N0 {got}, expected {want}")
        return Task("n0-general", run)

    @staticmethod
    def _mc(n: int, m: int, samples: int) -> Task:
        weight = sp.Weight(m, n)

        def run():
            res = sp.mc_cmn(weight, samples=samples, seed=0)
            sigma = abs(res.value - sp.c_mn(weight)) / res.error_estimate
            _require(sigma <= 3.0, f"C_({m},{n}): Monte Carlo {sigma:.2f} "
                                   f"standard errors from the closed form")
        return Task("mc-cmn", run)

    def _coeff(self, n: int, g: sp.SymplecticMatrix) -> Task:
        weight = sp.Weight(self.coeff_m, n)
        mus = (sp.MatrixPolynomial.one(n), sp.MatrixPolynomial.det_power(n, 1),
               sp.MatrixPolynomial.det_power(n, 2), sp.MatrixPolynomial.coordinate(n, 1, 1))

        def run():
            kak = sp.kak_decompose(g)
            nak = sp.nak_decompose(g)
            for mu in mus:
                f = functools.partial(sp.f_mu_m, mu, weight)
                direct = sp.lift(f, weight, g)
                closed = sp.matrix_coeff_kak(sp.MatrixCoefficientSpec(mu, weight), kak)
                iwasawa = sp.lift_nak(f, weight, nak)
                worst = max(_relative(closed, direct), _relative(iwasawa, direct))
                _require(worst <= 1e-9, f"genus {n}: KAK/NAK coefficient off the "
                                        f"direct lift by {worst:.3e}")
        return Task(f"coeff-g{n}", run)


WORKLOADS = {
    "pairing-g1": PairingG1,
    "ball-g2": BallG2,
    "cells": Cells,
}
