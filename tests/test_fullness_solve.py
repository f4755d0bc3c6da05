"""The fullness rank, the identity row and ``numkernel.least_squares_solve`` against
their dense references in ``dense_reference``, on the fullness rows of standard and
dense explicit modules, a module over a two-block algebra and a full module whose
fullness Gram has condition about 1e3; one step of refinement brings the solve to the
accuracy of the stack's condition, not its square."""

import numpy as np
import pytest

import dense_reference as ref
from covstine import cstar, hilbmod
from covstine import numkernel as nk

REL = 1e-10


def _close(actual, expected, rel=REL):
    assert actual.shape == expected.shape
    assert nk.maxabs(actual - expected) <= rel * max(1.0, nk.maxabs(expected))


def change_basis(module, s):
    """The module on the basis ``y_a = sum_i s[i, a] x_i``; its inner and action
    tensors are dense for a dense ``s``."""
    inner = np.einsum("ia,jb,ijk->abk", np.conj(s), s, module.inner)
    action = np.einsum("cl,ikl,ia->akc", np.linalg.inv(s), module.action, s)
    return hilbmod.HilbertModule.from_tensors(module.algebra, module.dim, action, inner)


def direct_sum(first, second):
    """``X_1 + X_2`` over ``A_1 + A_2``, each summand acting and pairing in its own block."""
    (m1, n1), (m2, n2) = (first.dim, first.algebra.dim), (second.dim, second.algebra.dim)
    action = np.zeros((m1 + m2, n1 + n2, m1 + m2), dtype=np.complex128)
    inner = np.zeros((m1 + m2, m1 + m2, n1 + n2), dtype=np.complex128)
    action[:m1, :n1, :m1], action[m1:, n1:, m1:] = first.action, second.action
    inner[:m1, :m1, :n1], inner[m1:, m1:, n1:] = first.inner, second.inner
    algebra = cstar.CStarAlgebra(first.algebra.blocks + second.algebra.blocks)
    return hilbmod.HilbertModule.from_tensors(algebra, m1 + m2, action, inner)


def _scenario(name):
    """A full module with its concrete representation's images (the embedding is their
    companion): the standard 2 x 2 one, the 2 x 2 or the two-block one on a dense basis,
    or the 2 x 2 one on a basis that gives its fullness Gram condition about 1e3."""
    rng = np.random.default_rng(17)
    if name == "two-block":
        module = direct_sum(hilbmod.standard_module(1, 2), hilbmod.standard_module(2, 1))
        images = np.zeros((module.dim, 3, 3), dtype=np.complex128)
        images[:2, :1, :2] = hilbmod.standard_basis_matrices(1, 2)
        images[2:, 1:, 2:] = hilbmod.standard_basis_matrices(2, 1)
    else:
        module, images = hilbmod.standard_module(2, 2), hilbmod.standard_basis_matrices(2, 2)
    if name == "conditioned":
        s = np.diag(np.geomspace(1.0, 180.0, module.dim)) @ nk.haar_unitary(rng, module.dim)
    elif name in ("dense", "two-block"):
        s = nk.haar_unitary(rng, module.dim) + nk.complex_normal(rng, module.dim, module.dim) / 4
    else:
        return module, images
    return change_basis(module, s), np.einsum("ia,ikl->akl", s, images)


NAMES = ["standard", "dense", "two-block", "conditioned"]


def test_the_scenarios_are_what_they_claim():
    for name in NAMES:
        module = _scenario(name)[0]
        report = module.axiom_report
        assert report.fullness_rank == report.fullness_required, name
        assert ref.module_positivity(module).ok, name
        assert max(report.linearity_residual, report.symmetry_residual) <= 1e-12, name
        assert (np.count_nonzero(module.inner) == module.inner.size) == (name != "standard")
        assert len(module.algebra.blocks) == (2 if name == "two-block" else 1), name
        values = module.fullness.singular_values[: report.fullness_rank] ** 2
        assert (5e2 < values[0] / values[-1] < 2e3) == (name == "conditioned"), name


@pytest.mark.parametrize("name", NAMES)
def test_least_squares_solve_matches_lstsq_on_the_fullness_rows(name):
    module = _scenario(name)[0]
    flat = module.inner.reshape(module.dim**2, module.algebra.dim)
    b = nk.complex_normal(np.random.default_rng(3), len(flat), 5)
    _close(nk.least_squares_solve(flat, b), ref.least_squares(flat, b))


@pytest.mark.parametrize("name", NAMES)
def test_fullness_keeps_the_singular_values_of_the_rows(name):
    """``HilbertModule.fullness``, read off the eigenvalues of the rows' Gram, has the
    rank and the singular values of the rows ``<x_i, x_j>`` themselves."""
    module = _scenario(name)[0]
    flat = module.inner.reshape(module.dim**2, module.algebra.dim)
    rank, values = module.fullness
    assert rank == np.linalg.matrix_rank(flat) == module.algebra.dim
    _close(values, np.linalg.svd(flat, compute_uv=False))


@pytest.mark.parametrize("name", NAMES)
def test_the_identity_row_reads_every_fullness_row(name):
    """``hilbmod.identity_defect``, which certifies the companion a run is given: about 0
    for the embedding, and the dense reference's worst defect once one of its images
    moves by 1e-3."""
    module, images = _scenario(name)
    companion = cstar.embedding_representation(module.algebra).images
    assert hilbmod.identity_defect(images, module, companion) <= 1e-12 * max(1.0, nk.maxabs(module.inner))
    moved = companion.copy()
    moved[-1, 0, 0] += 1e-3
    expected = ref.identity_defect(images, module.inner, moved)
    assert expected > 1e-4 and hilbmod.identity_defect(images, module, moved) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize(
    "rows, cols, rank",
    [(8, 3, 3), (8, 5, 2), (3, 8, 3), (5, 5, 4), (6, 4, 0), (0, 3, 0), (4, 0, 0)],
)
def test_least_squares_solve_is_the_minimum_norm_solution(rows, cols, rank):
    """Full column rank, rank deficient, underdetermined and empty systems; the
    rank is exact, so both forms drop the same singular values."""
    rng = np.random.default_rng(rows * 10 + cols)
    a = nk.complex_normal(rng, rows, rank) @ nk.complex_normal(rng, rank, cols)
    b = nk.complex_normal(rng, rows, 2)
    _close(nk.least_squares_solve(a, b), ref.least_squares(a, b))


@pytest.mark.parametrize("kappa", [1e3, 1e4])
def test_least_squares_solve_refines_to_the_condition_of_the_stack(kappa):
    """A full-column-rank stack of condition ``kappa`` (its Gram's is ``kappa^2``,
    up to 1e8 here, inside the rank rule): the solve on the normal equations
    alone errs by about ``kappa^2 eps``, the refined one by at most ``kappa eps``."""
    eps = np.finfo(float).eps
    rng = np.random.default_rng(int(np.log10(kappa)))
    rows, cols = 40, 12
    left, right = nk.haar_unitary(rng, rows)[:, :cols], nk.haar_unitary(rng, cols)
    a = (left * np.logspace(0.0, -np.log10(kappa), cols)) @ nk.adjoint(right)
    x = nk.complex_normal(rng, cols, 3)
    b = a @ x

    def error(solved):
        return np.linalg.norm(solved - x) / np.linalg.norm(x)

    unrefined = nk.gram_factor(nk.adjoint(a) @ a).solve(nk.adjoint(a) @ b)
    assert error(unrefined) > 0.01 * kappa**2 * eps
    assert error(nk.least_squares_solve(a, b)) <= kappa * eps
