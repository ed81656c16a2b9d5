"""The package surface: its export list, the README's library example, and the
genus and integer rules shared by every public entry."""

import ast
import importlib
import inspect
import math
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import siegelps

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_matches_namespace():
    names = siegelps.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(siegelps, name)] == []
    star: dict = {}
    exec("from siegelps import *", star)
    assert set(names) <= set(star)
    public = {name for name, value in vars(siegelps).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(public - set(names)) == []


def test_no_package_attribute_shadows_a_submodule():
    # siegelps.<name> is the submodule <name>, never a name re-exported over it
    for info in pkgutil.iter_modules(siegelps.__path__):
        module = importlib.import_module(f"siegelps.{info.name}")
        assert getattr(siegelps, info.name) is module, info.name


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_runtime_imports_are_stdlib_numpy_or_scipy():
    # the package needs nothing at run time beyond numpy and scipy, and scipy
    # only inside function bodies, so that importing it needs numpy alone
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy"}
    for path in sorted(Path(siegelps.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        in_functions = {node for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                        for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = {node.module.split(".")[0]}
            else:
                continue
            assert roots <= allowed, f"{path.name}:{node.lineno} imports {roots - allowed}"
            assert "scipy" not in roots or node in in_functions, \
                f"{path.name}:{node.lineno} imports scipy outside a function body"


def test_every_imported_name_is_used():
    # a removal leaves no import behind; the package's __init__ imports to export
    for path in sorted(Path(siegelps.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                    getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    assert name in used, f"{path.name}:{node.lineno} imports {name} unused"


def _fresh(code: str) -> str:
    # in a fresh interpreter, since this session imports scipy itself
    path = os.pathsep.join([str(Path(siegelps.__file__).parents[1]),
                            os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path}).stdout


def test_import_loads_no_scipy_integrate():
    # with scipy blocked, every import of it raises: the import, the series,
    # the ball, the pairing, the coefficients and `siegelps cmn` run on numpy
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        import siegelps as sp
        from siegelps.cli import main
        assert sp.verify_cor62(radius=6.0).passed
        w = sp.Weight(12, 2)
        z = sp.SiegelPoint.center(2)
        ball = sp.enumerate_ball(sp.CongruenceGroup(2, 1), 3.0)
        assert sp.kernel_series(w, ball.group, z, z, 3.0, ball=ball).value != 0
        g = sp.random_symplectic(2, np.random.default_rng(0))
        spec = sp.MatrixCoefficientSpec(sp.MatrixPolynomial.one(2), w)
        assert sp.matrix_coeff_kak(spec, sp.kak_decompose(g)) != 0
        assert main(["cmn", "--n", "1", "--m", "12"]) == 0
    """)
    assert "1.142397328578e+00" in _fresh(code)
    # unblocked, the threshold integral is what loads scipy.special
    code = ("import sys, siegelps\n"
            "before = [m for m in sys.modules if m.startswith('scipy')]\n"
            "siegelps.integral_phi(0, siegelps.Weight(12, 1), 0.5)\n"
            "print(before, 'scipy.special' in sys.modules)")
    assert _fresh(code).split() == ["[]", "True"]


_ONE, _TWO = siegelps.MatrixPolynomial.one(1), siegelps.MatrixPolynomial.one(2)
_W = siegelps.Weight(12, 1)
_G1, _G2 = siegelps.CongruenceGroup(1, 1), siegelps.CongruenceGroup(2, 1)
_Z1, _Z2 = siegelps.SiegelPoint.center(1), siegelps.SiegelPoint.center(2)
_E1, _E2 = siegelps.SymplecticMatrix.identity(1), siegelps.SymplecticMatrix.identity(2)
_U1, _U2 = siegelps.UnitaryMatrix(np.eye(1)), siegelps.UnitaryMatrix(np.eye(2))
_STACK2 = 1j * np.eye(2)[None]


def _ball():
    return siegelps.enumerate_ball(_G1, 3.0)


_MISMATCHES = {   # entry: (call with one input of the wrong genus, that input's name)
    "MatrixCoefficientSpec": (lambda: siegelps.MatrixCoefficientSpec(_TWO, _W), "mu"),
    "ThresholdQuery": (lambda: siegelps.ThresholdQuery(_TWO, _W), "mu"),
    "f_mu_m": (lambda: siegelps.f_mu_m(_TWO, _W, _Z1), "mu"),
    "f_values": (lambda: siegelps.f_values(_ONE, _W, _STACK2), "Z"),
    "kernel_values xi": (lambda: siegelps.kernel_values(_W, _Z2, [[[1j]]]), "xi"),
    "kernel_values Z": (lambda: siegelps.kernel_values(_W, _Z1, _STACK2), "Z"),
    "f_kernel": (lambda: siegelps.f_kernel(_W, _Z2, _Z1), "xi"),
    "slash": (lambda: siegelps.slash(lambda z: 1.0, _W, _E2), "g"),
    "lift_nak": (lambda: siegelps.lift_nak(lambda z: 1.0, _W, siegelps.nak_decompose(_E2)),
                 "factors"),
    "matrix_coeff_kak": (lambda: siegelps.matrix_coeff_kak(
        siegelps.MatrixCoefficientSpec(_ONE, _W), siegelps.kak_decompose(_E2)), "factors"),
    "varphi_mu": (lambda: siegelps.varphi_mu(_ONE, _W, _U2, [0.5]), "u"),
    "act": (lambda: siegelps.act(_E1, _Z2), "z"),
    "j_factor": (lambda: siegelps.j_factor(_E1, _Z2), "z"),
    "im_transform": (lambda: siegelps.im_transform(_E1, _Z2), "z"),
    "SymplecticMatrix @": (lambda: _E1 @ _E2, "other"),
    "MatrixPolynomial +": (lambda: _ONE + _TWO, "other"),
    "MatrixPolynomial *": (lambda: _ONE * _TWO, "other"),
    "evaluate_batch": (lambda: _ONE.evaluate_batch(np.zeros((4, 2, 2))), "W"),
    "NAKFactors": (lambda: siegelps.NAKFactors(np.zeros((2, 2)), np.eye(2), _U1), "u"),
    "KAKFactors": (lambda: siegelps.KAKFactors(_U2, [1.0, 0.5], _U1), "uprime"),
    "poincare_f": (lambda: siegelps.poincare_f(_ONE, _W, _G2, _Z1, 3.0), "group"),
    "poincare_F": (lambda: siegelps.poincare_F(
        siegelps.MatrixCoefficientSpec(_ONE, _W), _G1, _E2, 3.0), "g"),
    "kernel_series": (lambda: siegelps.kernel_series(_W, _G1, _Z1, _Z2, 3.0), "z"),
    "series_evaluator_genus1 mu": (
        lambda: siegelps.series_evaluator_genus1(_W, _ball(), mu=_TWO), "mu"),
    "series_evaluator_genus1 xi": (
        lambda: siegelps.series_evaluator_genus1(_W, _ball(), xi=_Z2), "xi"),
    "petersson": (lambda: siegelps.petersson.petersson(None, None, siegelps.Weight(12, 2)),
                  "weight"),
}


@pytest.mark.parametrize("entry", _MISMATCHES)
def test_genus_mismatch_names_the_input(entry):
    # every entry taking several genus-carrying inputs refuses a mismatch by name
    call, name = _MISMATCHES[entry]
    with pytest.raises(siegelps.DimensionError, match=rf"^expected genus \d+, but {name} has "):
        call()


@pytest.mark.parametrize("call, error", [
    (lambda value: siegelps.Weight(value, 2), siegelps.DomainError),
    (lambda value: siegelps.Weight(12, value / 4), siegelps.DimensionError),
    (lambda value: siegelps.CongruenceGroup(value / 4, 2), siegelps.DimensionError),
    (lambda value: siegelps.CongruenceGroup(1, value), siegelps.DomainError),
    (lambda value: siegelps.big_m(value, 1), siegelps.DomainError),
    (lambda value: siegelps.big_m(2, value / 4), siegelps.DimensionError),
    (lambda value: siegelps.vanishing_case(0, _W, value), siegelps.DomainError),
    (lambda value: siegelps.MatrixPolynomial(value / 4), siegelps.DimensionError),
], ids=["Weight m", "Weight n", "CongruenceGroup n", "CongruenceGroup N", "big_m N",
        "big_m n", "vanishing_case N", "MatrixPolynomial n"])
@pytest.mark.parametrize("value", [8.9, 8.5, math.nan, math.inf, -math.inf])
def test_non_integral_genus_level_and_weight_are_refused(call, error, value):
    # truncating to an integer would silently answer another question
    with pytest.raises(error, match="must be an integer"):
        call(value)


_Q = siegelps.ThresholdQuery(_ONE, _W)
sp = siegelps   # the short name of the other test files
# entry: (call with the input set to a value, error class, least value or None,
# whether the integer test is new: the genus and level entries met it before)
_INTEGER_INPUTS = {
    "Weight n": (lambda v: sp.Weight(12, v), sp.DimensionError, 1, False),
    "CongruenceGroup n": (lambda v: sp.CongruenceGroup(v, 2), sp.DimensionError, 1, False),
    "CongruenceGroup N": (lambda v: sp.CongruenceGroup(1, v), sp.DomainError, 1, False),
    "big_m N": (lambda v: sp.big_m(v, 1), sp.DomainError, 1, False),
    "big_m n": (lambda v: sp.big_m(2, v), sp.DimensionError, 1, False),
    "vanishing_case N": (lambda v: sp.vanishing_case(0, _W, v), sp.DomainError, 1, False),
    "j_matrix": (sp.j_matrix, sp.DimensionError, 1, False),
    "SymplecticMatrix.identity": (sp.SymplecticMatrix.identity, sp.DimensionError, 1, False),
    "SiegelPoint.center": (sp.SiegelPoint.center, sp.DimensionError, 1, False),
    "haar_unitary": (lambda v: sp.haar_unitary(v, 0), sp.DimensionError, 1, False),
    "random_symplectic": (lambda v: sp.random_symplectic(v, np.random.default_rng(0)),
                          sp.DimensionError, 1, False),
    "MatrixPolynomial n": (sp.MatrixPolynomial, sp.DimensionError, 1, False),
    "MatrixPolynomial.constant": (lambda v: sp.MatrixPolynomial.constant(v, 3),
                                  sp.DimensionError, 1, False),
    "MatrixPolynomial.coordinate n": (lambda v: sp.MatrixPolynomial.coordinate(v, 1, 1),
                                      sp.DimensionError, 1, False),
    "coordinate r": (lambda v: sp.MatrixPolynomial.coordinate(2, v, 1), sp.DomainError, 1, True),
    "coordinate s": (lambda v: sp.MatrixPolynomial.coordinate(2, 1, v), sp.DomainError, 1, True),
    "JSON rows": (lambda v: sp.matrix_from_json({"rows": v, "cols": 1, "re": [[1.0]]}),
                  sp.DimensionError, 1, True),
    "JSON cols": (lambda v: sp.matrix_from_json({"rows": 1, "cols": v, "re": [[1.0]]}),
                  sp.DimensionError, 1, True),
    "phi_lm l": (lambda v: sp.phi_lm(v, _W, [0.5]), sp.DomainError, 0, True),
    "integral_phi l": (lambda v: sp.integral_phi(v, _W, 1.0), sp.DomainError, 0, True),
    "vanishing_case l": (lambda v: sp.vanishing_case(v, _W, 1), sp.DomainError, 0, True),
    "n0_detl_report l": (lambda v: sp.n0_detl_report(v, _W), sp.DomainError, 0, True),
    "n0_detl l": (lambda v: sp.n0_detl(v, _W), sp.DomainError, 0, True),
    "n0_table l": (lambda v: sp.n0_table(1, [v], [12]), sp.DomainError, 0, True),
    "det_power": (lambda v: sp.MatrixPolynomial.det_power(2, v), sp.DomainError, 0, True),
    "MatrixPolynomial **": (lambda v: _TWO ** v, sp.DomainError, 0, True),
    "exponent": (lambda v: sp.MatrixPolynomial(1, {((v,),): 1.0}), sp.DomainError, 0, True),
    "chi r": (lambda v: sp.chi(v, _U1), sp.DomainError, None, True),
    "n0_general samples": (lambda v: sp.n0_general(_Q, samples=v), sp.DomainError, 1, True),
    "n0_general budget": (lambda v: sp.n0_general(_Q, budget=v), sp.DomainError, 1, True),
    "verify_coefficients samples": (lambda v: sp.verify_coefficients(samples=v),
                                    sp.DomainError, 1, True),
    "norm_bounds_check samples": (lambda v: sp.norm_bounds_check(_G1, samples=v),
                                  sp.DomainError, 1, True),
    "mc_cmn samples": (lambda v: sp.mc_cmn(_W, samples=v), sp.DomainError, 1000, True),
    "enumerate_ball budget": (lambda v: sp.enumerate_ball(_G2, 3.0, budget=v),
                              sp.DomainError, 1, True),
    "norm_bounds_check budget": (lambda v: sp.norm_bounds_check(_G1, samples=1, budget=v),
                                 sp.DomainError, 1, True),
    "mc_cmn seed": (lambda v: sp.mc_cmn(_W, seed=v), sp.DomainError, 0, True),
    "n0_general seed": (lambda v: sp.n0_general(_Q, seed=v), sp.DomainError, 0, True),
    "verify_coefficients seed": (lambda v: sp.verify_coefficients(seed=v),
                                 sp.DomainError, 0, True),
    "norm_bounds_check seed": (lambda v: sp.norm_bounds_check(_G1, seed=v),
                               sp.DomainError, 0, True),
    "haar_unitary seed": (lambda v: sp.haar_unitary(2, v), sp.DomainError, 0, True),
    "DiscriminantForm cutoff": (sp.DiscriminantForm, sp.DomainError, 5, True),
    "FundamentalDomainSpec base_nodes": (lambda v: sp.FundamentalDomainSpec(base_nodes=v),
                                         sp.DomainError, 4, True),
    "IntegralResult evaluations": (
        lambda v: sp.IntegralResult(1.0, 0.0, v, sp.METHOD_MC), sp.DomainError, 0, True),
}
_REFUSED = [pytest.param(entry, value, id=f"{entry}-{value}")
            for entry, (_, _, least, new) in _INTEGER_INPUTS.items()
            for value in ([8.5, math.nan, math.inf, -math.inf] if new else [])
            + ([] if least is None else [least - 1])]


@pytest.mark.parametrize("entry, value", _REFUSED)
def test_every_count_power_and_size_follows_the_integer_rule(entry, value):
    # one rule for every integer input: never truncated, never below its least
    # value, always refused by the entry's own error class
    call, error, least, _ = _INTEGER_INPUTS[entry]
    below = isinstance(value, int)
    with pytest.raises(error, match=f"must be at least {least}, got {value}$" if below
                       else "must be an integer, got "):
        call(value)


def test_haar_unitary_seed_is_a_generator_or_an_integer():
    # None would draw from fresh entropy, so no draw could be repeated
    for seed in (None, "3"):
        with pytest.raises(siegelps.DomainError, match="^seed must be an integer, got "):
            siegelps.haar_unitary(2, seed)
    assert np.array_equal(siegelps.haar_unitary(2, 3).mat,
                          siegelps.haar_unitary(2, np.random.default_rng(3)).mat)


def test_integral_floats_are_the_integer():
    u = siegelps.haar_unitary(2, 3)
    assert (siegelps.MatrixPolynomial.coordinate(2, 1.0, np.int64(2))
            == siegelps.MatrixPolynomial.coordinate(2, 1, 2))
    det = siegelps.MatrixPolynomial.det_power
    assert det(2, 2.0) == det(2, 2) == det(2, 1) ** np.float64(2.0)
    assert siegelps.chi(3.0, u) == siegelps.chi(3, u)
    assert siegelps.DiscriminantForm(40.0).cutoff == 40
    assert siegelps.integral_phi(2.0, _W, 0.5) == siegelps.integral_phi(2, _W, 0.5)
    assert siegelps.FundamentalDomainSpec(10.0) == siegelps.FundamentalDomainSpec()
    assert np.array_equal(siegelps.haar_unitary(2, 3.0).mat, u.mat)


@pytest.mark.parametrize("make", [
    lambda: siegelps.SiegelPoint(np.zeros((0, 0)), np.zeros((0, 0))),
    lambda: siegelps.SiegelPoint.from_complex(np.zeros((0, 0))),
    lambda: siegelps.UnitaryMatrix(np.zeros((0, 0))),
    lambda: siegelps.SymplecticMatrix(np.zeros((0, 0))),
    lambda: siegelps.hyperbolic([]),
], ids=["SiegelPoint", "SiegelPoint.from_complex", "UnitaryMatrix", "SymplecticMatrix",
        "hyperbolic"])
def test_nothing_is_made_at_genus_zero(make):
    with pytest.raises(siegelps.DimensionError, match="must be a nonempty 2-d array"):
        make()


@pytest.mark.parametrize("value", [8, 8.0, np.int64(8), np.int32(8), np.float64(8.0)])
def test_integral_values_of_any_type_are_accepted(value):
    assert siegelps.Weight(value, 2) == siegelps.Weight(8, 2)
    assert type(siegelps.Weight(value, 2).m) is int
    assert siegelps.CongruenceGroup(value // 4, value) == siegelps.CongruenceGroup(2, 8)
    assert siegelps.big_m(value, value // 8) == siegelps.big_m(8, 1)
    assert siegelps.vanishing_case(0, siegelps.Weight(13, 1), value / 8)


@pytest.mark.parametrize("make", [
    lambda n: siegelps.j_matrix(n).tolist(),
    lambda n: siegelps.SymplecticMatrix.identity(n).g.tolist(),
    lambda n: siegelps.SiegelPoint.center(n).z.tolist(),
    lambda n: siegelps.haar_unitary(n, 0).mat.tolist(),
    lambda n: siegelps.random_symplectic(n, np.random.default_rng(0)).g.tolist(),
    siegelps.MatrixPolynomial.one,
    lambda n: siegelps.MatrixPolynomial.constant(n, 3),
    lambda n: siegelps.MatrixPolynomial.coordinate(n, 1, 2),
    lambda n: siegelps.CongruenceGroup(n, 3),
], ids=["j_matrix", "SymplecticMatrix.identity", "SiegelPoint.center", "haar_unitary",
        "random_symplectic", "MatrixPolynomial.one", "MatrixPolynomial.constant",
        "MatrixPolynomial.coordinate", "CongruenceGroup"])
def test_genus_constructors_follow_the_integer_rule(make):
    # as for Weight(8, 2.0): an integral float is the genus, any other refused
    assert make(2.0) == make(np.int64(2)) == make(2)
    with pytest.raises(siegelps.DimensionError, match="genus must be an integer"):
        make(1.5)
