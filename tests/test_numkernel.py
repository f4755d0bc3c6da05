import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import builders
from covstine import cli
from covstine import numkernel as nk
from covstine.errors import NotHermitianError, NotPsdError, ParseError, ShapeMismatchError


def random_hermitian(rng, dim):
    m = nk.complex_normal(rng, dim, dim)
    return m + m.conj().T


class TestHermitianEigendecomposition:
    def test_identity(self):
        values, vectors = nk.hermitian_eigendecomposition(np.eye(2))
        np.testing.assert_allclose(values, [1.0, 1.0])
        np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(2), atol=1e-14)

    def test_diagonal_descending(self):
        values, vectors = nk.hermitian_eigendecomposition(np.diag([3.0, -1.0]))
        np.testing.assert_allclose(values, [3.0, -1.0])
        # eigenvectors match the standard basis up to phase
        np.testing.assert_allclose(np.abs(vectors), np.eye(2), atol=1e-14)

    def test_seeded_reconstruction(self):
        m = random_hermitian(np.random.default_rng(42), 6)
        values, vectors = nk.hermitian_eigendecomposition(m)
        rebuilt = vectors @ np.diag(values) @ vectors.conj().T
        scale = max(1.0, np.linalg.norm(m))
        assert np.linalg.norm(m - rebuilt) <= 1e-12 * scale
        assert np.all(np.diff(values) <= 1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            nk.hermitian_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatchError):
            nk.hermitian_eigendecomposition(np.zeros((2, 3)))


class TestGramFactor:
    def test_zero_gram(self):
        factor = nk.gram_factor(np.zeros((3, 3)))
        assert factor.rank == 0
        assert factor.F.shape == (0, 3)
        assert factor.L.shape == (3, 0)

    def test_identity_full_rank(self):
        factor = nk.gram_factor(np.eye(4))
        assert factor.rank == 4
        np.testing.assert_allclose(factor.F @ factor.F.conj().T, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(factor.L, factor.F.conj().T, atol=1e-12)

    def test_rank_one(self):
        # eigenvalues of [[2,2],[2,2]] are 4 and 0 by hand
        gram = np.full((2, 2), 2.0, dtype=complex)
        factor = nk.gram_factor(gram)
        assert factor.rank == 1
        np.testing.assert_allclose(factor.F @ factor.L, np.eye(1), atol=1e-12)
        for xi in np.eye(2):
            for zeta in np.eye(2):
                pairing = (factor.F @ xi).conj() @ (factor.F @ zeta)
                np.testing.assert_allclose(pairing, xi.conj() @ gram @ zeta, atol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            nk.gram_factor(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_gram_pairing(self, seed):
        rng = np.random.default_rng(seed)
        m = nk.complex_normal(rng, 5, 3)
        gram = m.conj().T @ m
        factor = nk.gram_factor(gram)
        np.testing.assert_allclose(
            factor.F @ factor.L, np.eye(factor.rank), atol=1e-10
        )
        scale = max(1.0, np.linalg.norm(gram, 2))
        rebuilt = factor.F.conj().T @ factor.F
        assert nk.maxabs(rebuilt - gram) <= 1e-10 * scale


class TestPsdCheck:
    def test_identity(self):
        report = nk.psd_check(np.eye(3))
        assert report.ok
        assert report.min_eig == pytest.approx(1.0)

    def test_indefinite(self):
        report = nk.psd_check(np.diag([1.0, -0.5]))
        assert not report.ok
        assert report.min_eig == pytest.approx(-0.5)

    def test_choi_type_rank_one(self):
        # sum_ij e_ij (x) e_ij is twice a rank-1 projector: eigenvalues 2,0,0,0
        units = [np.outer(np.eye(2)[i], np.eye(2)[j]) for i in range(2) for j in range(2)]
        choi = sum(np.kron(u, u) for u in units)
        report = nk.psd_check(choi)
        assert report.ok
        assert report.min_eig == pytest.approx(0.0, abs=1e-12)
        values = np.linalg.eigvalsh(choi)
        np.testing.assert_allclose(sorted(values), [0, 0, 0, 2], atol=1e-12)

    def test_flags_asymmetry(self):
        report = nk.psd_check(np.array([[1.0, 0.5], [0.0, 1.0]]))
        assert report.herm_defect > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_gram_matrices_pass(self, seed):
        m = nk.complex_normal(np.random.default_rng(seed), 4, 6)
        assert nk.psd_check(m.conj().T @ m).ok


class TestLeastSquares:
    def test_identity_system(self):
        b = nk.complex_normal(np.random.default_rng(0), 3, 2)
        np.testing.assert_allclose(nk.least_squares_solve(np.eye(3), b), b)

    def test_mean(self):
        x = nk.least_squares_solve(np.array([[1.0], [1.0]]), np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(x, [[1.0]])

    def test_overdetermined_residual_orthogonal(self):
        rng = np.random.default_rng(7)
        a = nk.complex_normal(rng, 8, 3)
        b = nk.complex_normal(rng, 8, 2)
        x = nk.least_squares_solve(a, b)
        # normal-equations oracle: residual lies in the kernel of A*
        assert nk.maxabs(a.conj().T @ (a @ x - b)) <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            nk.least_squares_solve(np.eye(3), np.eye(4))


@settings(max_examples=25, deadline=None)
@given(hst.integers(min_value=1, max_value=5), hst.integers(min_value=0, max_value=2**32 - 1))
def test_gram_factor_pairing_property(dim, seed):
    rng = np.random.default_rng(seed)
    m = nk.complex_normal(rng, dim + 1, dim)
    gram = m.conj().T @ m
    factor = nk.gram_factor(gram)
    scale = max(1.0, np.linalg.norm(gram, 2))
    assert nk.maxabs(factor.F.conj().T @ factor.F - gram) <= 1e-10 * scale
    assert nk.maxabs(factor.F @ factor.L - np.eye(factor.rank)) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(hst.integers(min_value=1, max_value=6), hst.integers(min_value=0, max_value=2**32 - 1))
def test_eigendecomposition_property(dim, seed):
    m = random_hermitian(np.random.default_rng(seed), dim)
    values, vectors = nk.hermitian_eigendecomposition(m)
    scale = max(1.0, np.linalg.norm(m))
    assert np.linalg.norm(m - vectors @ np.diag(values) @ vectors.conj().T) <= 1e-12 * scale
    assert nk.maxabs(vectors.conj().T @ vectors - np.eye(dim)) <= 1e-12


class TestSerialization:
    def test_round_trip(self):
        m = nk.complex_normal(np.random.default_rng(1), 2, 3)
        again = cli.mat_from_json(builders.mat_to_json(m))
        np.testing.assert_allclose(again, m)

    def test_missing_field(self):
        with pytest.raises(ParseError, match="entries"):
            cli.mat_from_json({"rows": 1, "cols": 1})

    def test_wrong_length(self):
        with pytest.raises(ParseError):
            cli.mat_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]})
