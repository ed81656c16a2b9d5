import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import siegelps as sp
from conftest import random_point


def test_j_matrix_square():
    for n in (1, 2, 3):
        J = sp.j_matrix(n)
        assert np.array_equal(J @ J, -np.eye(2 * n))


def test_sp_check_examples():
    assert sp.sp_check(np.eye(4))
    assert sp.sp_check(sp.j_matrix(2))
    assert not sp.sp_check(2.0 * np.eye(4))
    with pytest.raises(sp.DimensionError):
        sp.sp_check(np.eye(3))


def test_sp_check_tolerance_is_relative():
    # far from K the rounding of g^T J g exceeds any fixed absolute bound
    rng = np.random.default_rng(21)
    for t in ((8.0,), (12.0,), (8.0, 4.0)):
        n = len(t)
        for _ in range(5):
            g = sp.KAKFactors(sp.haar_unitary(n, rng), np.array(t),
                              sp.haar_unitary(n, rng)).assemble()
            assert sp.sp_check(g.g)
    # a valid element scaled off the group is still rejected
    g = sp.random_symplectic(2, rng)
    assert sp.sp_check(g.g)
    assert not sp.sp_check((1 + 1e-8) * g.g)
    with pytest.raises(sp.DomainError):
        sp.SymplecticMatrix((1 + 1e-8) * g.g)


def test_constructor_rejects_non_symplectic():
    with pytest.raises(sp.DomainError):
        sp.SymplecticMatrix(np.diag([2.0, 2.0]))


def test_product_and_inverse():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for _ in range(5):
            g = sp.random_symplectic(n, rng)
            h = sp.random_symplectic(n, rng)
            gh = g @ h
            assert sp.sp_check(gh.g)
            back = sp.sp_inverse(g).g @ g.g
            assert np.max(np.abs(back - np.eye(2 * n))) < 1e-10


def test_action_composition_and_cocycle():
    rng = np.random.default_rng(12)
    for n in (1, 2):
        for _ in range(10):
            g1 = sp.random_symplectic(n, rng)
            g2 = sp.random_symplectic(n, rng)
            z = random_point(n, rng)
            direct = sp.act(g1 @ g2, z)
            stepped = sp.act(g1, sp.act(g2, z))
            assert np.max(np.abs(direct.z - stepped.z)) < 1e-9
            j_prod = sp.j_factor(g1 @ g2, z)
            j_chain = sp.j_factor(g1, sp.act(g2, z)) * sp.j_factor(g2, z)
            assert abs(j_prod - j_chain) < 1e-9 * max(1.0, abs(j_prod))


def test_imaginary_part_transform():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3):
        g = sp.random_symplectic(n, rng)
        z = random_point(n, rng)
        assert np.max(np.abs(sp.im_transform(g, z) - sp.act(g, z).y)) < 1e-10


def test_action_preserves_positivity():
    rng = np.random.default_rng(14)
    for n in (1, 2, 3):
        for _ in range(5):
            g = sp.random_symplectic(n, rng)
            z = random_point(n, rng)
            evs = np.linalg.eigvalsh(sp.act(g, z).y)
            assert np.all(evs > 0)


def test_act_refuses_an_ill_conditioned_denominator():
    # J maps Z to -Z^{-1}: Cz + D = -Z, whose condition number is 1e13
    z = sp.SiegelPoint(np.zeros((2, 2)), np.diag([1e13, 1.0]))
    with pytest.raises(sp.NumericalError, match="too ill-conditioned to act"):
        sp.act(sp.SymplecticMatrix(sp.j_matrix(2)), z)


def test_embed_unitary_structure():
    rng = np.random.default_rng(16)
    for n in (1, 2, 3):
        u = sp.haar_unitary(n, rng)
        k = sp.embed_unitary(u)
        assert sp.sp_check(k.g)
        assert np.max(np.abs(k.g @ k.g.T - np.eye(2 * n))) < 1e-12
        # the compact part fixes the center
        z0 = sp.SiegelPoint.center(n)
        assert np.max(np.abs(sp.act(k, z0).z - z0.z)) < 1e-12


def test_chi_multiplicative():
    rng = np.random.default_rng(17)
    for n in (1, 2):
        u = sp.haar_unitary(n, rng)
        v = sp.haar_unitary(n, rng)
        uv = sp.UnitaryMatrix(u.mat @ v.mat)
        for r in (1, 3):
            lhs = sp.chi(r, uv)
            rhs = sp.chi(r, u) * sp.chi(r, v)
            assert abs(lhs - rhs) < 1e-12


def test_nak_decomposition():
    rng = np.random.default_rng(18)
    for n in (1, 2, 3):
        for _ in range(10):
            g = sp.random_symplectic(n, rng)
            f = sp.nak_decompose(g)
            assert np.max(np.abs(f.assemble().g - g.g)) < 1e-9
            assert np.max(np.abs(f.x - f.x.T)) < 1e-12
            assert np.all(np.linalg.eigvalsh(f.y) > 0)


def test_kak_decomposition_random():
    rng = np.random.default_rng(19)
    for n in (1, 2, 3):
        for _ in range(10):
            g = sp.random_symplectic(n, rng)
            f = sp.kak_decompose(g)
            assert np.max(np.abs(f.assemble().g - g.g)) < 1e-8
            assert np.all(f.t >= 0)
            assert np.all(np.diff(f.t) <= 1e-12)


def test_kak_on_compact_elements():
    rng = np.random.default_rng(20)
    for n in (1, 2, 3):
        k = sp.embed_unitary(sp.haar_unitary(n, rng))
        f = sp.kak_decompose(k)
        assert np.max(np.abs(f.t)) < 1e-7
        assert np.max(np.abs(f.assemble().g - k.g)) < 1e-8


def test_kak_degenerate_radial_clusters():
    # repeated radial parameters stress the eigenvalue pairing
    rng = np.random.default_rng(21)
    for n in (2, 3):
        for scale in (1.0, 1e-3):
            t = np.full(n, 0.7) * scale
            u = sp.haar_unitary(n, rng)
            v = sp.haar_unitary(n, rng)
            g = sp.embed_unitary(u) @ sp.hyperbolic(t) @ sp.embed_unitary(v)
            f = sp.kak_decompose(g)
            assert np.max(np.abs(f.assemble().g - g.g)) < 1e-8
            assert np.max(np.abs(np.sort(f.t)[::-1] - np.sort(t)[::-1])) < 1e-6


def test_kak_near_identity():
    # radial parameters below the cluster guard: only the guard-level
    # reassembly contract is promised there
    rng = np.random.default_rng(23)
    for n in (2, 3):
        t = np.full(n, 7e-7)
        g = (sp.embed_unitary(sp.haar_unitary(n, rng)) @ sp.hyperbolic(t)
             @ sp.embed_unitary(sp.haar_unitary(n, rng)))
        f = sp.kak_decompose(g)
        assert np.max(np.abs(f.assemble().g - g.g)) < 1e-6
        assert np.max(np.abs(f.t)) < 1e-5


def test_kak_mixed_cluster():
    rng = np.random.default_rng(22)
    t = np.array([1.2, 0.4, 0.4])
    g = (sp.embed_unitary(sp.haar_unitary(3, rng)) @ sp.hyperbolic(t)
         @ sp.embed_unitary(sp.haar_unitary(3, rng)))
    f = sp.kak_decompose(g)
    assert np.max(np.abs(f.assemble().g - g.g)) < 1e-8
    assert np.max(np.abs(f.t - t)) < 1e-8


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(t=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kak_decompose_inverts_assemble_up_to_t20(t, seed):
    # ties and large radial parameters included; the guard is relative to |g|_F
    rng = np.random.default_rng(seed)
    t = np.sort(t)[::-1]
    n = len(t)
    g = sp.KAKFactors(sp.haar_unitary(n, rng), t, sp.haar_unitary(n, rng)).assemble()
    f = sp.kak_decompose(g)
    assert np.max(np.abs(f.assemble().g - g.g)) <= 1e-6 * max(1.0, np.linalg.norm(g.g))
    assert np.max(np.abs(f.t - t)) < 1e-5


def test_kak_decompose_at_large_spread():
    # the singular directions of the small exponents carry an error of about
    # eps * e^{t_1 - t_i} relative to |g|; cleaning them against the dominant
    # ones keeps the reassembly within the guard at any spread
    for t in ((24.0, 0.0), (30.0, 5.0), (50.0, 10.0), (100.0, 0.0),
              (100.0, 100.0, 0.0), (60.0, 30.0, 0.0), (40.0, 0.0, 0.0)):
        n = len(t)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = sp.KAKFactors(sp.haar_unitary(n, rng), np.array(t),
                              sp.haar_unitary(n, rng)).assemble()
            f = sp.kak_decompose(g)
            defect = np.max(np.abs(f.assemble().g - g.g))
            assert defect <= 1e-12 * np.linalg.norm(g.g)
            assert abs(f.t[0] - t[0]) < 1e-9


def test_validation_accepts_any_memory_layout():
    # transposed arrays are not contiguous along their last axis
    rng = np.random.default_rng(24)
    z = random_point(2, rng).z
    u = sp.haar_unitary(2, rng).mat
    assert np.allclose(sp.SiegelPoint.from_complex(z.T).z, z)
    assert np.allclose(sp.UnitaryMatrix(u.T).mat, u.T)
    with pytest.raises(sp.DomainError):
        sp.SiegelPoint.from_complex(np.array([[np.nan, 1j], [1j, 1j]]).T)


def test_generators_are_symplectic():
    x = np.array([[0.5, 0.2], [0.2, -1.0]])
    y = np.array([[2.0, 0.3], [0.3, 1.0]])
    t = np.array([0.3, -0.7])
    for mat in (sp.upper_translation(x), sp.diagonal_scaling(y), sp.hyperbolic(t)):
        assert sp.sp_check(mat.g)
    with pytest.raises(sp.DomainError):
        sp.upper_translation(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(sp.DomainError):
        sp.diagonal_scaling(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_siegel_point_validation():
    with pytest.raises(sp.DomainError):
        sp.SiegelPoint(np.zeros((2, 2)), np.diag([1.0, -1.0]))
    with pytest.raises(sp.DomainError):
        sp.SiegelPoint(np.array([[0.0, 0.4], [0.0, 0.0]]), np.eye(2))


def test_point_fields_are_readonly():
    z = sp.SiegelPoint.center(2)
    with pytest.raises(ValueError):
        z.y[0, 0] = 5.0
    g = sp.SymplecticMatrix.identity(2)
    with pytest.raises(ValueError):
        g.g[0, 0] = 2.0


@pytest.mark.parametrize("t, error, match", [
    ([1.0], sp.DimensionError, "^t must be a vector of length 2"),
    ([1.0, -1.0], sp.DomainError, "^singular exponents must be nonnegative"),
    ([1.0, 2.0], sp.DomainError, "^singular exponents must be sorted in descending order"),
])
def test_kak_factors_refuse_bad_exponents(t, error, match):
    u = sp.UnitaryMatrix(np.eye(2))
    with pytest.raises(error, match=match):
        sp.KAKFactors(u, t, u)


def test_points_and_unitaries_refuse_bad_parts():
    with pytest.raises(sp.DimensionError, match="^x and y must have the same shape"):
        sp.SiegelPoint(np.zeros((2, 2)), np.eye(1))
    with pytest.raises(sp.DomainError, match="^matrix fails unitarity"):
        sp.UnitaryMatrix(2.0 * np.eye(2))
