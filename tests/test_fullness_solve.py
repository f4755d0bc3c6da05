"""Every ``<X, X>`` solve against its ``np.linalg.lstsq`` reference in
``dense_reference``: the companion of ``cpmaps.induced_algebra_cp``, the
action of ``hilbmod.induced_algebra_action`` and ``numkernel.least_squares_solve``
agree with it on standard and dense explicit modules, a module over a
two-block algebra and a full module whose fullness Gram has condition about
1e3; one step of refinement brings ``least_squares_solve`` to the accuracy of
the stack's condition, not its square.  The pair target ``Phi(x_i)* Phi(x_j)`` is never held whole."""

import tracemalloc

import numpy as np
import pytest

import dense_reference as ref
from covstine import cpmaps, cstar, hilbmod
from covstine import numkernel as nk

REL = 1e-10


def _close(actual, expected, rel=REL):
    assert actual.shape == expected.shape
    assert nk.maxabs(actual - expected) <= rel * max(1.0, nk.maxabs(expected))


def change_basis(module, s):
    """The module on the basis ``y_a = sum_i s[i, a] x_i``, with the old-to-new
    coordinate map; its inner and action tensors are dense for a dense ``s``."""
    inv = np.linalg.inv(s)
    inner = np.einsum("ia,jb,ijk->abk", np.conj(s), s, module.inner)
    action = np.einsum("cl,ikl,ia->akc", inv, module.action, s)
    return hilbmod.HilbertModule.from_tensors(module.algebra, module.dim, action, inner), inv


def direct_sum(first, second):
    """``X_1 + X_2`` over ``A_1 + A_2``, each summand acting and pairing in its own block."""
    (m1, n1), (m2, n2) = (first.dim, first.algebra.dim), (second.dim, second.algebra.dim)
    action = np.zeros((m1 + m2, n1 + n2, m1 + m2), dtype=np.complex128)
    inner = np.zeros((m1 + m2, m1 + m2, n1 + n2), dtype=np.complex128)
    action[:m1, :n1, :m1], action[m1:, n1:, m1:] = first.action, second.action
    inner[:m1, :m1, :n1], inner[m1:, m1:, n1:] = first.inner, second.inner
    algebra = cstar.CStarAlgebra(first.algebra.blocks + second.algebra.blocks)
    return hilbmod.HilbertModule.from_tensors(algebra, m1 + m2, action, inner)


def _block_diagonal(first, second):
    """``first[t] + second[t]`` as block-diagonal matrices."""
    (g, a, _), b = first.shape, second.shape[1]
    out = np.zeros((g, a + b, a + b), dtype=np.complex128)
    out[:, :a, :a], out[:, a:, a:] = first, second
    return out


def _scenario(name, dim_h=3):
    """``(module, images, companion, group, eta, alpha)``: a module CP map compressed
    from a representation, and a group action with its known algebra action."""
    rng = np.random.default_rng(17)
    group = hilbmod.symmetric_group(3)

    def system(p, n):
        return hilbmod.standard_action(
            group, hilbmod.seeded_rep(group, p, rng), hilbmod.seeded_rep(group, n, rng)
        )

    if name == "two-block":
        first, second = system(1, 2), system(2, 1)
        module = direct_sum(first.module, second.module)
        (p1, n1), (p2, n2) = (1, 2), (2, 1)
        images = np.zeros((module.dim, p1 + p2, n1 + n2), dtype=np.complex128)
        images[: first.module.dim, :p1, :n1] = hilbmod.standard_basis_matrices(p1, n1)
        images[first.module.dim :, p1:, n1:] = hilbmod.standard_basis_matrices(p2, n2)
        eta = _block_diagonal(first.eta, second.eta)
        alpha = _block_diagonal(first.alpha, second.alpha)
    else:
        sys = system(2, 2)
        module, eta, alpha = sys.module, sys.eta, sys.alpha
        images = hilbmod.standard_basis_matrices(2, 2)
    companion = cstar.embedding_representation(module.algebra)
    rep = cpmaps.ModuleCPMap(module, images, companion)
    phi = cpmaps.cp_from_representation(
        rep, nk.complex_normal(rng, rep.space_dims[0], dim_h), nk.eye(rep.space_dims[1])
    )
    images = phi.images
    if name in ("dense", "two-block", "conditioned"):
        if name == "conditioned":  # a fullness Gram of condition about 1e3
            s = np.diag(np.geomspace(1.0, 180.0, module.dim)) @ nk.haar_unitary(rng, module.dim)
        else:
            s = nk.haar_unitary(rng, module.dim) + nk.complex_normal(rng, module.dim, module.dim) / 4
        module, inv = change_basis(module, s)
        images = np.einsum("ia,ikl->akl", s, images)
        eta = inv @ eta @ s
    return module, images, phi.companion.images, group, eta, alpha


NAMES = ["standard", "dense", "two-block", "conditioned"]


def test_the_scenarios_are_what_they_claim():
    for name in NAMES:
        module = _scenario(name)[0]
        report = module.axiom_report
        assert report.full and report.positive and report.max_residual <= 1e-12, name
        assert (np.count_nonzero(module.inner) == module.inner.size) == (name != "standard")
        assert len(module.algebra.blocks) == (2 if name == "two-block" else 1), name
        values = module.fullness_factor.eigenvalues[: report.fullness_rank]
        assert (5e2 < values[0] / values[-1] < 2e3) == (name == "conditioned"), name


@pytest.mark.parametrize("name", NAMES)
def test_induced_companion_matches_the_lstsq_reference(name):
    module, images, companion, *_ = _scenario(name)
    solved = cpmaps.induced_algebra_cp(images, module, images.shape[2])
    expected, residual = ref.induced_companion(images, module)
    _close(solved.images, expected)
    _close(solved.images, companion, rel=1e-8)
    # the gate reads the identity check of check_module_cp, absolute as every residual
    phi = cpmaps.ModuleCPMap(module, images, solved)
    assert cpmaps.check_module_cp(phi).identity_residual <= 1e-10
    assert residual <= 1e-10


@pytest.mark.parametrize("name", NAMES)
def test_induced_action_matches_the_lstsq_reference(name):
    module, _, _, group, eta, alpha = _scenario(name)
    induced = hilbmod.induced_algebra_action(group, module, eta)
    expected, residual = ref.induced_action(group, module, eta)
    _close(induced.alpha, expected)
    _close(induced.alpha, alpha, rel=1e-8)
    scale = max(1.0, nk.maxabs(module.inner))
    assert induced.consistency_residual <= 1e-12 * scale
    assert residual <= 1e-12 * scale


@pytest.mark.parametrize("name", NAMES)
def test_least_squares_solve_matches_lstsq_on_the_fullness_rows(name):
    module = _scenario(name)[0]
    flat = module.inner.reshape(module.dim**2, module.algebra.dim)
    b = nk.complex_normal(np.random.default_rng(3), len(flat), 5)
    _close(nk.least_squares_solve(flat, b), ref.least_squares(flat, b))


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


@pytest.mark.parametrize("dim_h", [16, 32])
def test_induced_companion_never_holds_the_pair_target(dim_h):
    """The pair target ``Phi(x_i)* Phi(x_j)`` of the 4 x 4 standard module (m = 16)
    is (m^2, h^2): 1 MiB at h = 16, 4 MiB at h = 32.  The projected sum, the solve
    and the identity check run in chunks under the one size rule, so the whole
    call peaks below one target (the lstsq form peaked at 3.6 targets)."""
    rng = np.random.default_rng(0)
    rep = cpmaps.concrete_representation(4, 4)
    phi = cpmaps.cp_from_representation(rep, nk.complex_normal(rng, 4, dim_h), nk.eye(4))
    module = hilbmod.standard_module(4, 4)
    tracemalloc.start()
    try:
        companion = cpmaps.induced_algebra_cp(phi.images, module, dim_h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _close(companion.images, phi.companion.images, rel=1e-12)
    assert peak < (module.dim * dim_h) ** 2 * 16
