import numpy as np
import pytest

import siegelps as sp
from siegelps import matrixio
from siegelps.errors import DimensionError, DomainError


def test_real_matrix_json_round_trip():
    a = np.array([[1.5, -2.0], [0.25, 3.0]])
    again = matrixio.matrix_from_json(matrixio.matrix_to_json(a))
    assert again.dtype == np.float64
    assert np.array_equal(a, again)


def test_complex_matrix_json_round_trip():
    a = np.array([[1 + 2j, 0.5j], [-1.0, 2 - 1j]])
    obj = matrixio.matrix_to_json(a)
    assert "im" in obj
    again = matrixio.matrix_from_json(obj)
    assert again.dtype == np.complex128
    assert np.array_equal(a, again)


def test_save_load_file(tmp_path):
    path = str(tmp_path / "m.json")
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    matrixio.save_matrix(path, a)
    assert np.array_equal(matrixio.load_matrix(path), a)


def test_from_json_validation():
    with pytest.raises(DimensionError):
        matrixio.matrix_from_json({"rows": 2, "cols": 2, "re": [[1.0, 2.0]]})
    with pytest.raises(DomainError):
        matrixio.matrix_from_json({"rows": 1, "cols": 1})


def test_require_symmetric():
    good = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert np.array_equal(matrixio.require_symmetric(good), good)
    with pytest.raises(DomainError):
        matrixio.require_symmetric(np.array([[1.0, 2.0], [2.5, 3.0]]))


def test_require_positive_definite():
    matrixio.require_positive_definite(np.array([[2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(DomainError):
        matrixio.require_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_check_finite_rejects_nan():
    with pytest.raises(DomainError):
        matrixio.check_finite(np.array([[np.nan]]))


def test_complex_input_to_a_real_matrix():
    # a nonzero imaginary part is refused by name, not cast away
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DomainError, match="g has a nonzero imaginary part"):
        sp.SymplecticMatrix(np.eye(2) + 0.5j * swap)
    with pytest.raises(DomainError, match="x has a nonzero imaginary part"):
        sp.SiegelPoint(np.array([[0.1 + 0.2j]]), np.array([[1.0]]))
    # all-zero imaginary parts are the real matrix, with no warning
    g = sp.SymplecticMatrix(np.eye(2) + 0j)
    assert g.g.dtype == np.float64 and np.array_equal(g.g, np.eye(2))
    assert np.array_equal(sp.SiegelPoint(np.zeros((1, 1)) + 0j, np.eye(1)).x, np.zeros((1, 1)))


@pytest.mark.parametrize("key", ["re", "im"])
def test_non_numeric_part_is_malformed(key):
    # both parts are parsed under one rule, so neither ends in a bare ValueError
    obj = {"rows": 2, "cols": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
    obj[key] = [["a", 0], [0, 0]]
    with pytest.raises(DomainError, match="^g: malformed matrix object"):
        matrixio.matrix_from_json(obj, name="g")


def test_require_genus_names_each_offending_input():
    matrixio.require_genus(2, z=sp.SiegelPoint.center(2), W=np.zeros((3, 2, 2)), xi=None)
    with pytest.raises(DimensionError,
                       match=r"^expected genus 2, but z has genus 1 and W has genus 3$"):
        matrixio.require_genus(2, z=sp.SiegelPoint.center(1), W=np.zeros((3, 3)),
                               mu=sp.MatrixPolynomial.one(2))
    for W in (np.zeros((2, 3)), np.zeros(2), 1j):
        with pytest.raises(DimensionError, match=r"^expected genus 2, but W has trailing shape"):
            matrixio.require_genus(2, W=W)


def test_as_matrix_refuses_a_rectangle_where_square_is_asked():
    with pytest.raises(DimensionError, match=r"^matrix must be square, got shape \(2, 3\)"):
        matrixio.as_matrix(np.zeros((2, 3)), square=True)
