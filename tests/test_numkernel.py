import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import builders
from covstine import cli
from covstine import numkernel as nk
from covstine.errors import (
    ComputeError,
    NotHermitianError,
    NotPsdError,
    ParseError,
    ShapeMismatchError,
)


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


@pytest.mark.parametrize("entries", [nk.STACK_ENTRIES, 1])
def test_a_small_gram_forms_no_conjugate_of_its_stack(monkeypatch, entries):
    """``numerical_rank`` of a wide (64, 4224) stack and ``least_squares_solve`` on its
    transpose read the Grams ``gram`` sums over chunks of rows: ranks and solutions as
    from the whole products, and a traced peak under a quarter of the stack's 4.1 MiB
    conjugate (at one row per chunk as well)."""
    monkeypatch.setattr(nk, "STACK_ENTRIES", entries)
    rng = np.random.default_rng(3)
    stack = nk.complex_normal(rng, 64, 48) @ nk.complex_normal(rng, 48, 4224)
    target = nk.complex_normal(rng, 4224, 2)
    tracemalloc.start()
    try:
        profile, solved = nk.numerical_rank(stack), nk.least_squares_solve(stack.T, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile.rank == 48 and peak < stack.nbytes / 4, peak
    dense = np.clip(np.linalg.eigvalsh(stack @ stack.conj().T)[::-1], 0.0, None)
    np.testing.assert_allclose(profile.singular_values**2, dense, rtol=0, atol=1e-12 * dense[0])
    expected = np.linalg.lstsq(stack.T, target, rcond=None)[0]
    assert nk.maxabs(solved - expected) < 1e-10 * nk.maxabs(expected)


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


def test_a_nan_defect_is_the_worst():
    """A NaN entry is reduced to inf wherever defects are reduced, also in a chunk
    after a finite one, where ``max(0.0, nan)`` would read 0.0."""
    finite, nan = np.ones((1, 2, 2)), np.full((1, 2, 2), np.nan)
    assert nk.maxabs(nan) == np.inf
    np.testing.assert_array_equal(nk.stack_maxabs(np.concatenate([finite, nan])), [1.0, np.inf])
    chunks = iter([finite, nan])  # one item per chunk at STACK_ENTRIES entries an item
    assert nk.stack_max(2, nk.STACK_ENTRIES, lambda span: next(chunks)) == np.inf


@pytest.mark.parametrize(
    "solve",
    [nk.hermitian_eigendecomposition, nk.gram_factor, nk.psd_check, nk.psd_rank,
     nk.numerical_rank],
)
@pytest.mark.parametrize("entry", [np.inf, np.nan])
def test_a_non_finite_matrix_has_no_spectrum(solve, entry):
    """An overflowed Gram is refused by the one eigensolve, not handed to LAPACK;
    the invalid-value warnings of the arithmetic before it are expected here."""
    gram = np.eye(2, dtype=complex)
    gram[0, 1] = gram[1, 0] = entry
    with np.errstate(invalid="ignore"), pytest.raises(ComputeError, match="non-finite entry"):
        solve(gram)


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
