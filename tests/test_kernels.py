"""Ordered contractions: each GEMM or gather helper against the einsum or loop
it replaces, the sliced and block-wise checks against planted perturbations,
the GNS factor from Choi blocks against the dense Gram factor, the module
identities on their live support against their dense references, and guards
that keep unordered multi-operand einsums, ``np.kron`` calls, solvers with a
rank cutoff of their own, per-call tolerance parameters, float literals used
as gates and functions that only tests reach out of the package, and the
scenario wire format out of every module but ``cli``."""

import ast
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import builders
import dense_reference
from covstine import cli, cpmaps, crossed, cstar, hilbmod, stinespring
from covstine import numkernel as nk
from covstine.cpmaps import CPMapAlgebra
from dense_reference import (
    cp_from_choi_spectra,
    dense_factors,
    dense_gns_gram,
    module_map_through,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "covstine"

sizes = hst.integers(min_value=0, max_value=4)
seeds = hst.integers(min_value=0, max_value=2**32 - 1)
block_sizes = hst.lists(hst.integers(min_value=1, max_value=3), min_size=1, max_size=3).map(tuple)


def _random(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _close(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(sizes, sizes, sizes, sizes, sizes, seeds)
def test_stack_products_match_einsum(k, l, rows, inner, cols, seed):
    rng = np.random.default_rng(seed)
    left, right = _random(rng, k, rows, inner), _random(rng, l, inner, cols)
    _close(dense_reference.stack_products(left, right), np.einsum("iab,jbc->ijac", left, right))


@settings(max_examples=40, deadline=None)
@given(sizes, sizes, sizes, sizes, sizes, seeds)
def test_coords_apply_matches_einsum(a, b, k, c, d, seed):
    rng = np.random.default_rng(seed)
    coeffs, stack = _random(rng, a, b, k), _random(rng, k, c, d)
    _close(dense_reference.coords_apply(coeffs, stack), np.einsum("ijk,kac->ijac", coeffs, stack))
    vectors = _random(rng, k, c)
    _close(dense_reference.coords_apply(coeffs, vectors), np.einsum("ijk,ka->ija", coeffs, vectors))


@settings(max_examples=40, deadline=None)
@given(sizes, sizes, sizes, sizes, sizes, seeds)
def test_sandwich_matches_einsum(m, a, b, c, d, seed):
    rng = np.random.default_rng(seed)
    left, stack, right = _random(rng, a, b), _random(rng, m, a, c), _random(rng, c, d)
    _close(
        nk.sandwich(left, stack, right),
        np.einsum("ab,iac,cd->ibd", np.conj(left), stack, right),
    )


@settings(max_examples=40, deadline=None)
@given(block_sizes, sizes, sizes, seeds)
def test_block_products_match_the_multiplication_tensor(blocks, k, l, seed):
    algebra = cstar.CStarAlgebra(blocks)
    rng = np.random.default_rng(seed)
    left, right = _random(rng, k, algebra.dim), _random(rng, l, algebra.dim)
    expected = np.einsum("ip,jq,pqm->ijm", left, right, cstar.mult_tensor(algebra))
    _close(dense_reference.block_products(algebra, left, right), expected)


@settings(max_examples=40, deadline=None)
@given(block_sizes, sizes, sizes, seeds)
def test_unit_gathers_match_the_multiplication_tensor(blocks, m, h, seed):
    algebra = cstar.CStarAlgebra(blocks)
    mul = cstar.mult_tensor(algebra)
    rng = np.random.default_rng(seed)
    stack = _random(rng, algebra.dim, h, h)
    product = cstar.product_index(algebra)
    _close(dense_reference.pad_zero(stack)[product], np.einsum("klm,mab->klab", mul, stack))
    inner = _random(rng, m, m, algebra.dim)
    gathered = dense_reference.pad_zero(inner, axis=2)[..., builders.left_factor_index(algebra)]
    _close(gathered, np.einsum("ijl,lkm->ijkm", inner, mul))


@settings(max_examples=40, deadline=None)
@given(block_sizes, sizes, sizes, seeds)
def test_gathered_left_multiplication_matches_kronecker_products(blocks, rank, h, seed):
    """Descending left multiplication by E_k gathers columns of F, which is
    ``F @ kron(mul[k].T, I_h)`` without the (N h)^2 Kronecker factor."""
    algebra = cstar.CStarAlgebra(blocks)
    n_dim = algebra.dim
    f_map = _random(np.random.default_rng(seed), rank, n_dim * h)
    mul = cstar.mult_tensor(algebra)
    units = dense_reference.pad_zero(f_map.reshape(rank, n_dim, h), axis=1)
    for k, row in enumerate(cstar.product_index(algebra)):
        gathered = units[:, row].reshape(rank, n_dim * h)
        _close(gathered, f_map @ np.kron(mul[k].T, nk.eye(h)))


@settings(max_examples=25, deadline=None)
@given(block_sizes, hst.integers(min_value=1, max_value=3), seeds)
def test_gns_left_multiplication_descends_as_before(blocks, h, seed):
    """The GNS representation equals the descent ``F kron(mul[k].T, I) L``."""
    algebra = cstar.CStarAlgebra(blocks)
    rng = np.random.default_rng(seed)
    embedding = cstar.embedding_representation(algebra).images
    v = _random(rng, algebra.embed_dim, h)
    phi = CPMapAlgebra(algebra, h, nk.sandwich(v, embedding, v))
    gns = stinespring.gns_construct(phi)
    f_map, lift = dense_factors(gns)
    mul = cstar.mult_tensor(algebra)
    for k in range(algebra.dim):
        expected = f_map @ np.kron(mul[k].T, nk.eye(h)) @ lift
        np.testing.assert_allclose(gns.rep.images[k], expected, rtol=1e-9, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(sizes, sizes, sizes, block_sizes, seeds)
def test_identity_defect_matches_einsum(m, rows, cols, blocks, seed):
    """A random inner tensor: every pair has a target, each a sum over all N units."""
    rng = np.random.default_rng(seed)
    algebra = cstar.CStarAlgebra(blocks)
    n_dim = algebra.dim
    images, inner = _random(rng, m, rows, cols), _random(rng, m, m, n_dim)
    companion = _random(rng, n_dim, cols, cols)
    module = hilbmod.HilbertModule(algebra, m, np.zeros((m, n_dim, m)), inner)
    lhs = np.einsum("iba,jbc->ijac", np.conj(images), images)
    rhs = np.einsum("ijk,kac->ijac", inner, companion)
    reference = np.max(np.abs(lhs - rhs)) if lhs.size else 0.0
    assert hilbmod.identity_defect(images, module, companion) == pytest.approx(reference, rel=1e-12)


def _pairwise_group_law(group, mats):
    return max(
        nk.maxabs(mats[s] @ mats[t] - mats[group.mult[s, t]])
        for s in range(group.order)
        for t in range(group.order)
    )


@pytest.mark.parametrize("kind", ["permutation", "regular", "seeded"])
@pytest.mark.parametrize("n", [3, 4])
def test_batched_group_law_matches_the_pairwise_loop(n, kind):
    group = hilbmod.symmetric_group(n)
    rng = np.random.default_rng(n)
    rep = {
        "permutation": lambda: builders.permutation_rep(n),
        "regular": lambda: hilbmod.regular_rep(group),
        "seeded": lambda: hilbmod.seeded_rep(group, 5, rng),
    }[kind]()
    mats = rep.mats.copy()
    assert hilbmod.group_law_residuals(group, mats)[0] == _pairwise_group_law(group, mats)
    s = 1 + int(rng.integers(0, group.order - 1))  # not the identity
    a, b = (int(rng.integers(0, rep.dim)) for _ in range(2))
    mats[s, a, b] += 1e-6
    hom, unit = hilbmod.group_law_residuals(group, mats)
    assert hom == _pairwise_group_law(group, mats)
    assert 0.5e-6 <= hom <= 1e-5 and unit == hilbmod.group_law_residuals(group, rep.mats)[1]


@settings(max_examples=40, deadline=None)
@given(sizes, sizes, seeds)
def test_transported_inner_matches_einsum(m, n_dim, seed):
    rng = np.random.default_rng(seed)
    eta, inner = _random(rng, m, m), _random(rng, m, m, n_dim)
    expected = np.einsum("ai,bj,abk->ijk", np.conj(eta), eta, inner)
    _close(hilbmod.transported_inner(eta, inner), expected)


# ---------------------------------------------------------------------------
# Planted perturbations: the sliced and block-wise checks see them at their size
# ---------------------------------------------------------------------------


def _algebra_module(blocks):
    """A block algebra as a right module over itself, ``<a, b> = a* b``."""
    algebra = cstar.CStarAlgebra(blocks)
    mul = cstar.mult_tensor(algebra)
    return hilbmod.HilbertModule(
        algebra, algebra.dim, mul.copy(), mul[cstar.star_permutation(algebra)].copy()
    )


def _linearity_reference(module):
    mul = cstar.mult_tensor(module.algebra)
    lhs = np.einsum("jkq,iqm->ijkm", module.action, module.inner)
    rhs = np.einsum("ijl,lkm->ijkm", module.inner, mul)
    return np.max(np.abs(lhs - rhs)) / max(1.0, nk.maxabs(module.inner))


def _dense_basis_module(blocks, seed):
    """The algebra module of ``_algebra_module`` on a random (dense) basis of X."""
    return _represented_on_dense_basis(blocks, seed)[0]


def _represented_on_dense_basis(blocks, seed):
    """``(module, images, companion)``: the algebra module of ``_algebra_module`` on
    a random basis of X, its embedding images and the embedding representation."""
    module = _algebra_module(blocks)
    embedding = cstar.embedding_representation(module.algebra).images
    rng = np.random.default_rng(seed)
    basis = _random(rng, module.dim, module.dim)  # column i: new x_i in old coordinates
    changed = _on_basis(module, basis)
    return changed, np.tensordot(basis, embedding, axes=(0, 0)), embedding


def _on_basis(module, basis):
    """``module`` on the basis ``x'_i = sum_a basis[a, i] x_a``."""
    m, n_dim = module.dim, module.algebra.dim
    # x'_i . E_k = sum_a basis[a, i] x_a . E_k, in new coordinates basis^-1 of the old
    old_coords = np.tensordot(basis, module.action, axes=(0, 0)).reshape(m * n_dim, m)
    action = np.linalg.solve(basis, old_coords.T).T.reshape(m, n_dim, m)
    inner = np.tensordot(
        np.conj(basis), np.tensordot(basis, module.inner, axes=(0, 1)), axes=(0, 1)
    )
    return hilbmod.HilbertModule(module.algebra, m, action, inner)


def _plant(module, where, eps, rng):
    """``module`` with ``eps`` added to one entry of its action or inner tensor.

    ``"action"`` picks any action entry, ``"dead row"`` one in a row
    (j, k) with ``x_j . E_k = 0``, and ``"inner"`` any inner-product entry.
    """
    action, inner = module.action.copy(), module.inner.copy()
    m, n_dim = module.dim, module.algebra.dim
    if where == "inner":
        i, j = (int(rng.integers(0, m)) for _ in range(2))
        inner[i, j, int(rng.integers(0, n_dim))] += eps
    else:
        rows = np.arange(m * n_dim)
        if where == "dead row":
            rows = np.flatnonzero(~np.any(action.reshape(m * n_dim, m) != 0, axis=1))
        j, k = divmod(int(rng.choice(rows)), n_dim)
        action[j, k, int(rng.integers(0, m))] += eps
    return hilbmod.HilbertModule(module.algebra, m, action, inner)


@pytest.mark.parametrize("blocks", [(1, 2, 3), (2,), (3, 1)])
@pytest.mark.parametrize("eps", [1e-3, 1e-7])
def test_sliced_linearity_reports_a_planted_action_perturbation(blocks, eps):
    """Planted in any action row, in a dead one, or in ``inner``, on the
    algebra's own 0/1 module and on a dense basis (where every row is live)."""
    units, dense = _algebra_module(blocks), _dense_basis_module(blocks, seed=5)
    report = hilbmod.check_module_axioms(units)
    assert report.linearity_residual == 0.0 and report.full
    assert hilbmod.check_module_axioms(dense).linearity_residual < 1e-12
    assert np.any(dense.action.reshape(dense.dim * dense.algebra.dim, -1) != 0, axis=1).all()
    rng = np.random.default_rng(7)
    for module, where in [
        (units, "action"),
        (units, "dead row"),
        (units, "inner"),
        (dense, "action"),
        (dense, "inner"),
    ]:
        broken = _plant(module, where, eps, rng)
        residual = hilbmod.check_module_axioms(broken).linearity_residual
        reference = _linearity_reference(broken)
        if module is units:
            # inner products of units are units, so the defect is eps, over the
            # scale max(1, max |inner|) that a planted inner entry can raise
            scale = max(1.0, nk.maxabs(broken.inner))
            assert residual == pytest.approx(eps / scale, rel=1e-9), where
            # a 0/1 module multiplies exactly, so the live rows match the full comparison
            assert residual == reference, where
        else:
            assert residual > 1e-3 * eps, where
            assert residual == pytest.approx(reference, rel=1e-6), where


@pytest.mark.parametrize("blocks", [(1, 2, 3), (2,), (3, 1)])
def test_sliced_linearity_sees_an_action_row_that_vanishes_wrongly(blocks):
    """Zeroing a live row (j, k) makes it dead: only the gather of
    ``max_i |<x_i, x_j>|`` over dead rows can see that ``<x_i, x_j> E_k`` is not 0."""
    module = _algebra_module(blocks)
    m, n_dim = module.dim, module.algebra.dim
    live = np.flatnonzero(np.any(module.action.reshape(m * n_dim, m) != 0, axis=1))
    for row in np.random.default_rng(3).choice(live, size=3, replace=False):
        action = module.action.copy()
        action[divmod(int(row), n_dim)] = 0.0
        broken = hilbmod.HilbertModule(module.algebra, m, action, module.inner)
        residual = hilbmod.check_module_axioms(broken).linearity_residual
        assert residual == _linearity_reference(broken) == 1.0  # a unit went missing


def _spectrum(n, h, rank, scale):
    return [scale * (1.0 + 0.1 * i) for i in range(rank)] + [0.0] * (n * h - rank)


@pytest.mark.parametrize(
    "blocks, h, spectra",
    [
        # block 1 alone would keep its 1e-11 eigenvalues (its own cutoff is
        # the 1e-12 floor); the global cutoff of 1e-10 times ~1 drops them
        ((1, 2, 3), 2, [_spectrum(1, 2, 1, 1.0), _spectrum(2, 2, 3, 1e-11), _spectrum(3, 2, 4, 0.5)]),
        ((1, 2, 3), 3, [_spectrum(1, 3, 3, 0.3), _spectrum(2, 3, 2, 2.0), _spectrum(3, 3, 9, 1.0)]),
        ((3, 1), 2, [_spectrum(3, 2, 2, 1.0), _spectrum(1, 2, 1, 5e-11)]),
        ((3, 1), 1, [_spectrum(3, 1, 3, 1.0), _spectrum(1, 1, 1, 0.7)]),
    ],
)
def test_gns_from_choi_blocks_matches_the_dense_gram_factor(blocks, h, spectra):
    phi = cp_from_choi_spectra(blocks, h, spectra, seed=13)
    gns = stinespring.gns_construct(phi)
    dense = nk.gram_factor(dense_gns_gram(phi))

    assert gns.dim == dense.rank
    expected_rank = 0
    for n, values in zip(blocks, spectra):
        expected_rank += n * sum(v > 1e-10 * max(max(s) for s in spectra) for v in values)
    assert gns.dim == expected_rank
    f_map, lift = dense_factors(gns)
    assert f_map.shape == dense.F.shape and lift.shape == dense.L.shape
    np.testing.assert_allclose(gns.gram_eigenvalues, dense.eigenvalues, rtol=0, atol=1e-12)
    assert np.all(np.diff(gns.gram_eigenvalues) <= 0)
    np.testing.assert_allclose(f_map @ lift, nk.eye(gns.dim), rtol=0, atol=1e-10)
    # both factor the same truncated semi-inner product: F* F is the Gram on its kept range
    np.testing.assert_allclose(
        nk.adjoint(f_map) @ f_map, nk.adjoint(dense.F) @ dense.F, rtol=0, atol=1e-10
    )
    # the dilation's own GNS rows, on a module map whose companion is phi
    phi_module = module_map_through(phi, dense)
    cert = stinespring.verify_dilation(phi_module, stinespring.dilate_module_cp(phi_module))
    assert cert.ranks["gns_minimality"] == (gns.dim, gns.dim)
    assert cert.residuals["gns_reconstruction"] < 1e-9


def _conjugation_action(blocks, seed):
    """Z2 acting on a block algebra by conjugation with a block-diagonal unitary of order 2."""
    algebra = cstar.CStarAlgebra(blocks)
    rng = np.random.default_rng(seed)
    parts = []
    for n in algebra.blocks:
        q = nk.haar_unitary(rng, n)
        parts.append(q @ np.diag(rng.choice([1.0, -1.0], size=n)) @ nk.adjoint(q))
    u = np.zeros((algebra.embed_dim, algebra.embed_dim), dtype=np.complex128)
    pos = 0
    for part in parts:
        u[pos : pos + len(part), pos : pos + len(part)] = part
        pos += len(part)
    alpha = np.zeros((2, algebra.dim, algebra.dim), dtype=np.complex128)
    alpha[0] = np.eye(algebra.dim)
    for k, unit in enumerate(cstar.embedding_representation(algebra).images):
        conjugated = u @ unit @ nk.adjoint(u)
        blocks_k, pos = [], 0
        for n in algebra.blocks:
            blocks_k.append(conjugated[pos : pos + n, pos : pos + n])
            pos += n
        alpha[1][:, k] = cstar.blocks_to_coords(algebra, blocks_k)
    return algebra, alpha


def _automorphism_reference(algebra, alpha):
    mul = cstar.mult_tensor(algebra)
    prod_of_images = np.einsum("tpk,tql,pqm->tklm", alpha, alpha, mul)
    image_of_prod = np.einsum("klp,tmp->tklm", mul, alpha)
    return np.max(np.abs(prod_of_images - image_of_prod))


@pytest.mark.parametrize("blocks", [(1, 2, 3), (3,), (2, 2)])
@pytest.mark.parametrize("eps", [1e-3, 1e-7])
def test_blockwise_automorphism_check_reports_a_planted_alpha_perturbation(blocks, eps):
    algebra, alpha = _conjugation_action(blocks, seed=3)
    group = hilbmod.cyclic_group(2)
    law, mult, star = hilbmod.algebra_action_residuals(group, algebra, alpha)
    assert max(law, mult, star) < 1e-12
    rng = np.random.default_rng(11)
    m, k = (int(rng.integers(0, algebra.dim)) for _ in range(2))
    alpha[1, m, k] += eps
    residual = hilbmod.algebra_action_residuals(group, algebra, alpha)[1]
    assert residual == pytest.approx(_automorphism_reference(algebra, alpha), rel=1e-9)
    assert 0.5 * eps <= residual <= 4 * eps


# ---------------------------------------------------------------------------
# Module identities on their live support against the dense references
# ---------------------------------------------------------------------------


def _sparse(rng, shape, keep):
    """Random complex entries with whole rows and columns zeroed at random."""
    out = _random(rng, *shape)
    out *= (rng.random(shape[:-1]) < keep)[..., None]
    out *= (rng.random(shape[:-2] + shape[-1:]) < keep)[..., None, :]
    return out


def _sparse_targets(rng, count, others, basis_count, keep):
    """Random ``nk.PairTargets``: each targeted pair sums one to three random
    multiples of basis matrices."""
    targeted = (rng.random((count, others)) < keep) & (basis_count > 0)
    repeats = rng.integers(1, 4, size=int(targeted.sum()))
    pair_i, pair_j = (np.repeat(index, repeats) for index in targeted.nonzero())
    unit = rng.integers(0, max(basis_count, 1), size=len(pair_i))
    coeff = _random(rng, len(pair_i))
    return nk.PairTargets((count, others, basis_count), pair_i, pair_j, unit, coeff)


def _dense_targets(targets, basis, count, others):
    """The (count, others, rows, cols) stack of every ``T_ij``, zero without targets."""
    full = np.zeros((count, others) + basis.shape[1:], dtype=complex)
    for i, j, unit, coeff in zip(targets.i, targets.j, targets.unit, targets.coeff):
        full[i, j] += coeff * basis[unit]
    return full


@settings(max_examples=60, deadline=None)
@given(sizes, sizes, sizes, sizes, sizes, sizes, hst.floats(0.2, 1.0), seeds)
def test_pair_defect_matches_every_pair(count, others, rows, inner, cols, units, keep, seed):
    """Dead rows, dead columns, untargeted pairs, pairs with several targets and
    targets off the live rows and columns of their products."""
    rng = np.random.default_rng(seed)
    left = _sparse(rng, (count, rows, inner), keep)
    right = _sparse(rng, (others, inner, cols), keep)
    basis = _sparse(rng, (units, rows, cols), keep)
    targets = _sparse_targets(rng, count, others, units, keep)
    products = np.einsum("iab,jbc->ijac", left, right)
    reference = nk.maxabs(products - _dense_targets(targets, basis, count, others))
    assert nk.pair_defect(left, right, basis, targets) == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("live, pairs", [(1, "every"), (8, "every"), (8, "diagonal")])
def test_pair_defect_blocks_stay_within_one_left_map_against_all_right(live, pairs, monkeypatch):
    """``live`` live rows per left map, columns per right map and both per
    target.  Where one left map against all right holds more than
    ``STACK_ENTRIES`` entries (lowered here, so that small inputs show it),
    the grid and the targets come one left map at a time, and the call peaks
    at a few times one left map's dense block against all right maps."""
    monkeypatch.setattr(nk, "STACK_ENTRIES", 1)
    count, size = 16, 8
    rng = np.random.default_rng(4)
    left, right = _random(rng, count, size, size), _random(rng, count, size, size)
    left[:, live:], right[:, :, live:] = 0.0, 0.0
    stack = _random(rng, count * count, size, size)
    stack[:, live:], stack[:, :, live:] = 0.0, 0.0
    targeted = np.ones((count, count), dtype=bool) if pairs == "every" else np.eye(count, dtype=bool)
    pair_i, pair_j = targeted.nonzero()
    shape = (count, count, len(stack))
    targets = nk.PairTargets(shape, pair_i, pair_j, np.arange(len(pair_i)), np.ones(len(pair_i)))
    spans = []
    stack_spans = nk.stack_spans

    def recorded(count, item_entries):
        chunks = stack_spans(count, item_entries)
        spans.extend(chunks)
        return chunks

    monkeypatch.setattr(nk, "stack_spans", recorded)
    block_bytes = size * count * size * 16  # left[i] @ every right[j], complex
    tracemalloc.start()
    try:
        residual = nk.pair_defect(left, right, stack, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [span.stop - span.start for span in spans] == [1] * count
    if (live, pairs) != (8, "every"):  # there the inputs' copies and index arrays add up
        assert peak < 6 * block_bytes
    full = _dense_targets(targets, stack, count, count)
    products = np.einsum("iab,jbc->ijac", left, right)
    assert residual == pytest.approx(nk.maxabs(products - full), rel=1e-12)


def _represented(kind):
    """``(module, images, companion)`` with ``images[i]* images[j] = companion(<x_i, x_j>)``."""
    if kind.startswith("standard"):
        rep = hilbmod.concrete_representation(3, 2)
        return rep.module, rep.images, rep.companion.images
    if kind.startswith("dilation"):
        phi, _ = cpmaps.random_module_cp(2, 3, 2, seed=5)
        dilation = stinespring.dilate_module_cp(phi)
        return phi.module, dilation.images, dilation.gns.rep.images
    return _represented_on_dense_basis({"dense": (3,), "two blocks": (2, 1)}[kind], seed=3)


KINDS = ["standard 3x2", "dilation 2x3", "dense", "two blocks"]


def _plant_at_zero(arr, eps, rng):
    """``arr`` with ``eps`` added at one of its exact zeros (anywhere if it has none)."""
    out = arr.copy()
    zeros = np.flatnonzero(out == 0)
    flat = out.reshape(-1)
    flat[rng.choice(zeros) if zeros.size else rng.integers(0, flat.size)] += eps
    return out


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("where", [None, "images", "companion", "inner"])
def test_identity_defect_matches_the_dense_reference(kind, where):
    module, images, companion = _represented(kind)
    inner = module.inner
    if where is None:
        assert hilbmod.identity_defect(images, module, companion) < 1e-12
        assert dense_reference.identity_defect(images, inner, companion) < 1e-12
        return
    eps = 1e-2
    rng = np.random.default_rng(len(kind) + len(where))
    arrays = {"images": images, "companion": companion, "inner": inner}
    arrays[where] = _plant_at_zero(arrays[where], eps, rng)
    planted = hilbmod.HilbertModule(module.algebra, module.dim, module.action, arrays["inner"])
    reference = dense_reference.identity_defect(
        arrays["images"], arrays["inner"], arrays["companion"]
    )
    assert reference > eps * eps / 2
    residual = hilbmod.identity_defect(arrays["images"], planted, arrays["companion"])
    assert residual == pytest.approx(reference, rel=1e-12)


def _padded(images, companion):
    """``images`` with one more column and ``companion`` with one more row and
    column, all zero: a row dead in every ``images[i]*``."""
    return np.pad(images, ((0, 0), (0, 0), (0, 1))), np.pad(companion, ((0, 0), (0, 1), (0, 1)))


@pytest.mark.parametrize("kind", KINDS)
def test_identity_defect_sees_a_target_on_a_row_dead_in_every_image(kind):
    """The product is 0 on the planted row, so the residual is the target's entry."""
    module, images, companion = _represented(kind)
    images, companion = _padded(images, companion)
    dead = companion.shape[1] - 1
    companion[module.support.k[0], dead, 0] += 1e-2
    reference = dense_reference.identity_defect(images, module.inner, companion)
    assert reference > 1e-2 * np.abs(module.support.values).min() / 2
    residual = hilbmod.identity_defect(images, module, companion)
    assert residual == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("kind", ["standard 3x2", "dilation 2x3"])
def test_identity_defect_sees_a_product_on_a_pair_without_target(kind):
    """``<x_i, x_j> = 0`` but ``images[i]* images[j]`` is not, planted on a row
    where ``images[j]`` is live."""
    module, images, companion = _represented(kind)
    untargeted = ~module.inner.any(axis=2)
    i, j = (index[0] for index in untargeted.nonzero())
    images = images.copy()
    row = np.flatnonzero(images[j].any(axis=1))[0]
    images[i, row, 0] += 1e-2
    reference = dense_reference.identity_defect(images, module.inner, companion)
    assert nk.maxabs(nk.adjoint(images[i]) @ images[j]) > 1e-3
    assert reference > 1e-3
    assert hilbmod.identity_defect(images, module, companion) == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("kind", ["dense", "two blocks"])
def test_identity_defect_sums_several_units_per_pair(kind):
    """On a dense basis every ``<x_i, x_j>`` has several units: the targets of
    a pair are summed, by one GEMM of the pairs' coefficient rows, before they
    are compared."""
    module, images, companion = _represented(kind)
    targets = module.inner_targets
    assert targets.pair_coeffs is not None and len(targets.pair_i) < len(targets.i)
    companion = companion.copy()
    companion[1] += 1e-3 * _random(np.random.default_rng(1), *companion.shape[1:])
    reference = dense_reference.identity_defect(images, module.inner, companion)
    assert reference > 1e-5
    assert hilbmod.identity_defect(images, module, companion) == pytest.approx(reference, rel=1e-12)


def test_identity_defect_on_an_empty_support_and_zero_sizes():
    """Without targets every product is compared with 0; without rows or
    columns nothing is compared, without inner dimension every target is."""
    algebra = cstar.CStarAlgebra((2,))
    rng = np.random.default_rng(3)
    empty = hilbmod.HilbertModule(algebra, 3, np.zeros((3, 4, 3)), np.zeros((3, 3, 4)))
    assert len(empty.inner_targets.i) == 0
    images, companion = _random(rng, 3, 2, 2), _random(rng, 4, 2, 2)
    reference = dense_reference.identity_defect(images, empty.inner, companion)
    assert hilbmod.identity_defect(images, empty, companion) == pytest.approx(reference, rel=1e-12)

    module, images, companion = _represented("standard 3x2")
    m, (k_dim, h_dim) = module.dim, images.shape[1:]
    for shape in [(m, k_dim, 0), (m, 0, h_dim)]:
        images = np.zeros(shape, dtype=complex)
        companion = _random(rng, module.algebra.dim, shape[2], shape[2])
        reference = dense_reference.identity_defect(images, module.inner, companion)
        residual = hilbmod.identity_defect(images, module, companion)
        assert residual == pytest.approx(reference, rel=1e-12)
    zero = hilbmod.HilbertModule(algebra, 0, np.zeros((0, 4, 0)), np.zeros((0, 0, 4)))
    assert hilbmod.identity_defect(np.zeros((0, 2, 2)), zero, _random(rng, 4, 2, 2)) == 0.0


def _representations():
    phi, _ = cpmaps.random_module_cp(2, 3, 2, seed=5)
    gns = stinespring.dilate_module_cp(phi).gns.rep
    embedded = [cstar.embedding_representation(cstar.CStarAlgebra(b)) for b in [(3,), (2, 1)]]
    algebra = cstar.CStarAlgebra((2, 1))
    rng = np.random.default_rng(2)
    noise = cstar.AlgebraRepresentation(algebra, 4, _sparse(rng, (algebra.dim, 4, 4), 0.6))
    return [gns, *embedded, noise]


@pytest.mark.parametrize("index", range(4))
@pytest.mark.parametrize("eps", [0.0, 1e-2])
def test_multiplicativity_matches_the_per_unit_loop(index, eps):
    rep = _representations()[index]
    if eps:
        images = _plant_at_zero(rep.images, eps, np.random.default_rng(index))
        rep = cstar.AlgebraRepresentation(rep.algebra, rep.space_dim, images)
    reference = dense_reference.multiplicativity_defect(rep)
    residual = cstar.check_representation(rep).mult_residual * max(1.0, nk.maxabs(rep.images))
    if reference < 1e-12:
        assert residual < 1e-12
    else:
        assert residual == pytest.approx(reference, rel=1e-12)
    if eps:
        assert reference > eps * eps / 2


def test_multiplicativity_sees_a_target_on_a_row_dead_in_the_left_image():
    """``pi(E_00) pi(E_01)`` against ``pi(E_01)`` planted on row 1, which
    ``pi(E_00)`` does not reach."""
    rep = cstar.embedding_representation(cstar.CStarAlgebra((2,)))
    images = rep.images.copy()
    images[1, 1, 1] += 1e-2
    rep = cstar.AlgebraRepresentation(rep.algebra, rep.space_dim, images)
    reference = dense_reference.multiplicativity_defect(rep)
    assert reference >= 1e-2
    residual = cstar.check_representation(rep).mult_residual * max(1.0, nk.maxabs(rep.images))
    assert residual == pytest.approx(reference, rel=1e-12)


def test_multiplicativity_sees_a_product_on_a_pair_without_target():
    """``E_00`` of the 2 x 2 block times the 1 x 1 block is 0, but the planted
    images multiply to ``1e-2 e_02``."""
    algebra = cstar.CStarAlgebra((2, 1))
    rep = cstar.embedding_representation(algebra)
    images = rep.images.copy()
    images[4, 0, 2] += 1e-2
    rep = cstar.AlgebraRepresentation(algebra, rep.space_dim, images)
    assert cstar.product_index(algebra)[0, 4] == algebra.dim
    reference = dense_reference.multiplicativity_defect(rep)
    assert reference >= 1e-2
    residual = cstar.check_representation(rep).mult_residual * max(1.0, nk.maxabs(rep.images))
    assert residual == pytest.approx(reference, rel=1e-12)


def test_dilation_identities_at_the_corner_stay_below_one_image_stack(monkeypatch):
    """``verify_dilation`` at the ``dilate`` corner (8, 8, 8), seed 11: its one
    ``pair_defect`` call, the representation identity on the dilation's parts,
    peaks below one (64, 64, 64) stack of dilation images, and the whole
    identity check below two.  Targets formed whole for every pair, (rows, cols)
    each, took about 2.5 stacks per call and 3.6 for the identity check.  GNS
    multiplicativity is ``M_b M_b - M_b`` on each block and calls no pair kernel."""
    phi = cli.resolve_scenario(cli.generate_scenario("dilate", 8, 8, 8, 11), "corner.json").phi
    dilation = stinespring.dilate_module_cp(phi)
    stack_bytes = dilation.images.nbytes
    assert dilation.images.shape == (64, 64, 64)
    peaks = []

    def traced(function, name):
        def call(*args):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = function(*args)
            peaks.append((name, tracemalloc.get_traced_memory()[1] - before))
            return result

        return call

    monkeypatch.setattr(nk, "pair_defect", traced(nk.pair_defect, "pair"))
    monkeypatch.setattr(
        stinespring, "_identity_defect", traced(stinespring._identity_defect, "identity")
    )
    tracemalloc.start()
    try:
        cert = stinespring.verify_dilation(phi, dilation)
    finally:
        tracemalloc.stop()
    assert cert.passed
    assert [name for name, _ in peaks] == ["pair", "identity"]
    assert all(peak < stack_bytes for name, peak in peaks if name == "pair"), peaks
    assert peaks[-1][1] < 2 * stack_bytes, peaks


def _modules():
    standard = [hilbmod.standard_module(p, n) for p, n in [(1, 1), (3, 2), (2, 3)]]
    return standard + [_dense_basis_module(blocks, seed=7) for blocks in [(3,), (2, 1)]]


@pytest.mark.parametrize("index", range(5))
def test_component_positivity_matches_one_dense_eigensolve(index):
    module = _modules()[index]
    report = hilbmod.check_module_axioms(module)
    dense = dense_reference.module_positivity(module)
    assert report.positive == dense.ok
    assert report.positivity_min_eig == pytest.approx(dense.min_eig, abs=1e-12)


def test_a_negative_eigenvalue_in_one_small_component_fails():
    module = hilbmod.standard_module(3, 2)
    inner = module.inner.copy()
    inner[2:4, 2:4] *= -1e-6  # the second row of the 3 x 2 matrices: one component of order 2
    broken = hilbmod.HilbertModule(module.algebra, module.dim, module.action, inner)
    report = hilbmod.check_module_axioms(broken)
    dense = dense_reference.module_positivity(broken)
    assert not report.positive and not dense.ok
    assert report.positivity_min_eig == pytest.approx(dense.min_eig, abs=1e-12)
    assert report.positivity_min_eig == pytest.approx(-2e-6, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(hst.lists(hst.integers(1, 4), min_size=0, max_size=5), hst.floats(-0.5, 1.0), seeds)
def test_psd_by_components_matches_psd_check(sizes_, shift, seed):
    """A block-diagonal Hermitian matrix in a random order of its indices."""
    rng = np.random.default_rng(seed)
    order = sum(sizes_)
    m = np.zeros((order, order), dtype=complex)
    start = 0
    for size in sizes_:
        block = _random(rng, size, size)
        m[start : start + size, start : start + size] = block @ nk.adjoint(block) + shift * nk.eye(size)
        start += size
    perm = rng.permutation(order)
    m = m[np.ix_(perm, perm)]
    rows, cols = m.nonzero()
    dense = nk.psd_check(m)
    blockwise = nk.psd_check_by_components(order, rows, cols, m[rows, cols])
    assert blockwise.ok == dense.ok
    assert blockwise.min_eig == pytest.approx(dense.min_eig, abs=1e-12)
    assert blockwise.max_eig == pytest.approx(dense.max_eig, abs=1e-12)
    # one Frobenius norm against the components' norms summed in squares
    assert blockwise.herm_defect == pytest.approx(dense.herm_defect, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize(
    "module, orders",
    [
        (hilbmod.standard_module(3, 2), [2, 2, 2]),
        (hilbmod.standard_module(2, 4), [4, 4]),
        (_dense_basis_module((3,), seed=7), [27]),
        (_dense_basis_module((2, 1), seed=7), [10, 5]),
    ],
)
def test_positivity_eigensolves_one_psd_check_per_component(monkeypatch, module, orders):
    """Every eigensolve enters through ``nk.psd_check``, which the benchmark's
    tracer counts: a module on a dense basis takes one per algebra block, of
    order m n_b, a standard p x n module p of order n."""
    seen = []
    original = nk.psd_check

    def counting(m):
        seen.append(len(m))
        return original(m)

    monkeypatch.setattr(nk, "psd_check", counting)
    hilbmod.check_module_axioms(module)
    assert sorted(seen) == sorted(orders)


# ---------------------------------------------------------------------------
# Group-indexed identities in their GEMM's layout against the dense references
# ---------------------------------------------------------------------------

BLOCK_SWAP = np.r_[4:8, 0:4, 8]  # E_k of M_2 + M_2 + M_1 to the unit alpha_1 sends it to
DENSE_BASIS = _random(np.random.default_rng(5), 9, 9)  # column i: x'_i on the unit basis
BASES = pytest.mark.parametrize("basis", [None, DENSE_BASIS], ids=["units", "dense"])


def _swap_system(basis):
    """Z2 swapping the two 2 x 2 blocks of M_2 + M_2 + M_1, acting on the algebra
    as a module over itself by ``eta_t = alpha_t``: on its unit basis, or on
    ``basis`` (``_on_basis``), where ``eta_t`` is ``basis^-1 alpha_t basis``."""
    module = _algebra_module((2, 2, 1))
    alpha = np.stack([np.eye(9), np.eye(9)[BLOCK_SWAP]]).astype(complex)
    eta = alpha
    if basis is not None:
        module, eta = _on_basis(module, basis), np.linalg.solve(basis, alpha @ basis)
    return hilbmod.ModuleDynamicalSystem(hilbmod.cyclic_group(2), module, eta, alpha)


def _swap_map(basis):
    """The embedding of the algebra as a covariant map on the module of
    ``_swap_system(basis)``, with u_t swapping the two 2-dimensional summands of C^5."""
    system = _swap_system(basis)
    embedding = cstar.embedding_representation(system.module.algebra).images
    images = embedding if basis is None else np.tensordot(basis, embedding, axes=(0, 0))
    swap = np.stack([np.eye(5), np.eye(5)[np.r_[2, 3, 0, 1, 4]]])
    u = hilbmod.UnitaryRep(system.group, 5, swap)
    phi = cpmaps.ModuleCPMap(
        system.module, images, cpmaps.CPMapAlgebra(system.module.algebra, 5, embedding)
    )
    return cpmaps.CovariantCPMap(phi, system, u, u)


def _close_to(residual, reference):
    """Equal up to the rounding of a different contraction order."""
    assert residual == pytest.approx(reference, rel=1e-9, abs=1e-14)


@BASES
@pytest.mark.parametrize("where", [None, "alpha", "eta", "action", "inner"])
def test_dynamical_system_matches_the_dense_reference(basis, where):
    """Every field of ``check_dynamical_system``, and ``algebra_action_residuals``,
    against the dense forms, with one entry of alpha_1, eta_1, the action or the
    inner tensor off by 1e-6."""
    system = _swap_system(basis)
    rng = np.random.default_rng(3)
    eta, alpha, module = system.eta.copy(), system.alpha.copy(), system.module
    i, j = (int(rng.integers(0, 9)) for _ in range(2))
    if where == "alpha":
        alpha[1, i, j] += 1e-6
    elif where == "eta":
        eta[1, i, j] += 1e-6
    elif where is not None:
        module = _plant(module, where, 1e-6, rng)
    system = hilbmod.ModuleDynamicalSystem(system.group, module, eta, alpha)
    report = hilbmod.check_dynamical_system(system)
    reference = dense_reference.dynamical_system(system)
    for residual, expected in zip(report[:-1], reference[:-1]):
        _close_to(residual, expected)
    assert report.invertible == reference[-1]
    actions = hilbmod.algebra_action_residuals(system.group, module.algebra, alpha)
    expected = dense_reference.algebra_action(system.group, module.algebra, alpha)
    assert actions[1:] == expected[1:]  # multiplicativity and star, bit for bit
    _close_to(actions[0], expected[0])
    if where is None:
        assert report.max_residual < 1e-12
    else:
        field = {"alpha": 3, "eta": 0, "action": 2, "inner": 1}[where]
        assert report[field] > 5e-7


@BASES
@pytest.mark.parametrize("planted", [False, True])
def test_gram_row_matches_the_kronecker_gram(basis, planted):
    """``gram_preservation`` of ``dilate_covariant`` is bit for bit the worst entry
    of ``D_t* D_t`` minus the whole Kronecker Gram, with one entry of u_1 off."""
    cov = _swap_map(basis)
    if planted:
        mats = cov.u.mats.copy()
        mats[1, 0, 2] += 1e-10
        u = hilbmod.UnitaryRep(cov.u.group, 5, mats)
        cov = cpmaps.CovariantCPMap(cov.base, cov.system, u, cov.u_prime)
    dilation = stinespring.dilate_covariant(cov)
    residual = dilation.gram_preservation_residual
    assert residual == dense_reference.covariant_groups(cov, dilation.base)[1]
    assert (residual > 1e-11) if planted else (residual < 1e-12)


@pytest.mark.parametrize(
    "group, dim",
    [(hilbmod.trivial_group(), 3), (hilbmod.symmetric_group(3), 0), (hilbmod.cyclic_group(2), 9)],
)
@pytest.mark.parametrize("planted", [False, True])
def test_group_law_matches_the_loop_over_s(group, dim, planted):
    """The group law from one GEMM per chunk of s against ``m_s @ mats`` one s at a
    time, on the trivial group, a zero-dimensional representation and the block
    swap, with one entry of one m_s off."""
    if dim == 9:
        mats = _swap_system(None).alpha.copy()
    elif dim:
        mats = hilbmod.seeded_rep(group, dim, np.random.default_rng(1)).mats.copy()
    else:
        mats = np.zeros((group.order, 0, 0), dtype=complex)
    if planted and dim:
        mats[group.order - 1, 0, dim - 1] += 1e-6
    law = hilbmod.group_law_residuals(group, mats)
    reference = dense_reference.group_law(group, mats)
    _close_to(law[0], reference[0])
    assert law[1] == reference[1]
    assert (law[0] > 5e-7) if planted and dim else (law[0] < 1e-12)


def test_dynamical_system_on_a_zero_dimensional_module_and_the_trivial_group():
    algebra = cstar.CStarAlgebra((2,))
    zero = hilbmod.HilbertModule(algebra, 0, np.zeros((0, 4, 0)), np.zeros((0, 0, 4)))
    for group in (hilbmod.trivial_group(), hilbmod.cyclic_group(2)):
        alpha = np.stack([nk.eye(4)] * group.order)
        system = hilbmod.ModuleDynamicalSystem(group, zero, np.zeros((group.order, 0, 0)), alpha)
        assert tuple(hilbmod.check_dynamical_system(system)) == (0.0,) * 5 + (True,)
    module = hilbmod.standard_module(2, 2)
    group = hilbmod.trivial_group()
    system = hilbmod.ModuleDynamicalSystem(group, module, nk.eye(4)[None], nk.eye(4)[None])
    assert tuple(hilbmod.check_dynamical_system(system)) == dense_reference.dynamical_system(system)


@pytest.mark.parametrize("entries", [1, 200, nk.STACK_ENTRIES])
def test_star_residual_in_chunks_of_k_matches_the_whole_stack(entries, monkeypatch):
    """``check_representation``'s star residual, a chunk of k at a time, and its
    multiplicativity with the basis stack read once, bit for bit."""
    rep = _representations()[0]
    images = rep.images.copy()
    images[3, 1, 2] += 1e-3
    rep = cstar.AlgebraRepresentation(rep.algebra, rep.space_dim, images)
    star = cstar.star_permutation(rep.algebra)
    whole = nk.maxabs(images[star] - np.conj(images).transpose(0, 2, 1))
    monkeypatch.setattr(nk, "STACK_ENTRIES", entries)
    report = cstar.check_representation(rep)
    assert report.star_residual == whole / max(1.0, nk.maxabs(images))
    targets = cstar._product_targets(rep.algebra.blocks)
    separate = nk.pair_defect(images, images, images.copy(), targets)
    assert report.mult_residual == separate / max(1.0, nk.maxabs(images))


# ---------------------------------------------------------------------------
# Guards: no unordered multi-operand einsum, no np.kron, no second rank rule
# and no eigensolve outside numkernel's helper
# ---------------------------------------------------------------------------


def unordered_einsums(source: str) -> list[int]:
    """Lines of ``einsum`` calls with three or more operands or an ``optimize=`` argument."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "einsum":
            continue
        operands = len(node.args) - 1
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        if operands >= 3 or starred or any(kw.arg == "optimize" for kw in node.keywords):
            lines.append(node.lineno)
    return lines


def test_guard_flags_unordered_einsums():
    source = "\n".join(
        [
            'np.einsum("ij,jk->ik", a, b)',
            'np.einsum("ab,ibc,cd->iad", w, raw, l)',
            'np.einsum("ij,jk->ik", a, b, optimize=True)',
            'einsum("i,j,ijk->k", x, y, t)',
            "np.einsum(spec, *operands)",
        ]
    )
    assert unordered_einsums(source) == [2, 3, 4, 5]


def test_package_has_no_unordered_einsums():
    offenders = {
        path.name: unordered_einsums(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    }
    assert not {name: lines for name, lines in offenders.items() if lines}


def calls_named(source: str, names: set[str]) -> list[int]:
    """Lines of calls whose function or method name is in ``names``: for ``kron``,
    ``np.kron``, ``numpy.kron`` and a bare ``kron`` all count."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) in names
    ]


def test_guard_flags_kron_calls():
    source = "\n".join(
        [
            "nk.kron_stack(a, b)",
            "np.kron(a, b)",
            '"np.kron(a, b)"',
            "numpy.kron(a, b)",
            "kron(a, b)",
        ]
    )
    assert calls_named(source, {"kron"}) == [2, 4, 5]


def test_package_has_no_np_kron():
    """Products of group or basis elements go through ``numkernel.kron_stack``."""
    offenders = {
        path.name: calls_named(path.read_text(), {"kron"}) for path in sorted(SRC.rglob("*.py"))
    }
    assert not {name: lines for name, lines in offenders.items() if lines}


# each of these decides a rank by a cutoff of its own
SECOND_RANK_RULES = {"lstsq", "pinv", "svd", "matrix_rank"}


def test_guard_flags_second_rank_rules():
    source = "\n".join(
        [
            "nk.least_squares_solve(a, b)",
            "np.linalg.lstsq(a, b, rcond=None)",
            "numpy.linalg.pinv(a)",
            "np.linalg.svd(a, compute_uv=False)",
            '"np.linalg.matrix_rank(a)"',
            "matrix_rank(a)",
            "scipy.linalg.svd(a)",
        ]
    )
    assert calls_named(source, SECOND_RANK_RULES) == [2, 3, 4, 6, 7]


def test_package_has_one_rank_rule():
    """Every rank, solves included, is decided by ``numkernel.spectral_rank``:
    no solver or decomposition with a cutoff of its own is called in the package."""
    offenders = {
        path.name: calls_named(path.read_text(), SECOND_RANK_RULES)
        for path in sorted(SRC.rglob("*.py"))
    }
    assert not {name: lines for name, lines in offenders.items() if lines}


EIGENSOLVES = {"eigh", "eigvalsh", "eig", "eigvals"}
# numkernel's one eigensolve: every spectrum a decision reads is solved there
EIGENSOLVE_HELPERS = {"_descending_eigh"}


def eigensolves_outside(source: str, helpers: set[str]) -> list[int]:
    """Lines of the calls named in ``EIGENSOLVES`` outside the functions named
    in ``helpers``."""
    enclosed = {
        line
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name in helpers
        for line in range(node.lineno, node.end_lineno + 1)
    }
    return sorted(line for line in calls_named(source, EIGENSOLVES) if line not in enclosed)


def test_guard_flags_eigensolves_outside_the_helper():
    helper = "\n".join(
        [
            "def _descending_eigh(m, vectors=True):",
            "    if not vectors:",
            "        return np.linalg.eigvalsh(m)",
            "    return np.linalg.eigh(m)",
        ]
    )
    planted = "\n".join(
        [
            helper,
            "def psd_rank(gram):",
            "    return np.linalg.eigvalsh(gram)",
            "values = numpy.linalg.eigvals(a)",
            '"np.linalg.eigh(a)"',
            "w, v = scipy.linalg.eig(a)",
            "nk.hermitian_eigendecomposition(a)",
        ]
    )
    assert eigensolves_outside(planted, EIGENSOLVE_HELPERS) == [6, 7, 9]
    assert eigensolves_outside(helper, set()) == [3, 4]


def test_package_eigensolves_only_in_the_helper():
    """Every eigensolve of the package runs in numkernel's private helper, so
    every spectrum a rank or PSD decision reads comes from one place."""
    offenders = {
        path.name: eigensolves_outside(
            path.read_text(), EIGENSOLVE_HELPERS if path.name == "numkernel.py" else set()
        )
        for path in sorted(SRC.rglob("*.py"))
    }
    assert not {name: lines for name, lines in offenders.items() if lines}
    assert eigensolves_outside((SRC / "numkernel.py").read_text(), set())


# ---------------------------------------------------------------------------
# Guard: every cutoff and gate reads numkernel, not a per-call parameter
# ---------------------------------------------------------------------------

TOLERANCE_NAMES = {"tol", "rel_tol", "leak_tol", "input_tol", "min_eig"}
# verify_dilation and uniqueness_intertwiners take the scenario tolerance from
# the command line; build_crossed_module's two callers gate at different values.
KEPT_TOLERANCES = {
    "crossed.build_crossed_module(tol)",
    "stinespring.verify_dilation(tol)",
    "stinespring.uniqueness_intertwiners(tol)",
}


def tolerance_parameters(module) -> set[str]:
    """``"module.function(param)"`` for each tolerance-named parameter of a public
    function or method defined in ``module``."""
    short = module.__name__.rsplit(".", 1)[-1]
    found = set()
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            functions = [(name, obj)]
        elif inspect.isclass(obj):
            functions = [
                (f"{name}.{attr}", member)
                for attr, member in vars(obj).items()
                if not attr.startswith("_") and inspect.isfunction(member)
            ]
        else:
            continue
        for qualname, function in functions:
            found.update(
                f"{short}.{qualname}({param})"
                for param in inspect.signature(function).parameters
                if param in TOLERANCE_NAMES
            )
    return found


def test_package_takes_no_per_call_tolerances():
    found = set().union(
        *(tolerance_parameters(m) for m in (nk, cstar, hilbmod, cpmaps, crossed, stinespring))
    )
    assert found == KEPT_TOLERANCES


def float_gates(source: str) -> list[int]:
    """Lines of float literals that act as a gate: one among the operands of a
    comparison, at any depth, other than the exact 0 and the scale floor 1, and
    one below 1e-3 in size anywhere, which can only be a tolerance."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            lines.update(
                sub.lineno
                for operand in (node.left, *node.comparators)
                for sub in ast.walk(operand)
                if isinstance(sub, ast.Constant)
                and isinstance(sub.value, float)
                and sub.value not in (0.0, 1.0)
            )
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            if 0.0 < abs(node.value) < 1e-3:
                lines.add(node.lineno)
    return sorted(lines)


def test_guard_flags_float_gates():
    source = "\n".join(
        [
            "if defect > nk.REL_TOL: pass",
            "if defect > 1e-10: pass",
            "ok = values[-1] >= -max(1e-6 * scale, nk.ABS_FLOOR)",
            "if abs(overlap) == 0.0: pass",
            "ok = defect <= nk.REL_TOL * max(1.0, scale)",
            "floor = 1e-6",
            "if x < 0.5: pass",
            "half = x / 2.0",
        ]
    )
    assert float_gates(source) == [2, 3, 6, 7]


def test_package_has_no_literal_gates():
    """Every gate reads a named constant of ``numkernel``."""
    offenders = {
        path.name: float_gates(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "numkernel.py"
    }
    assert not {name: lines for name, lines in offenders.items() if lines}


# ---------------------------------------------------------------------------
# Guard: every function of the package is reached by a run or exported
# ---------------------------------------------------------------------------


def unreached_functions(sources: dict[str, str]) -> list[str]:
    """``"module.function"`` for each module-level function of ``sources`` (file
    name to text) that no source names, as a ``Name`` or an ``Attribute``, and
    that ``__init__.py`` does not import.  Such a function is reached by tests
    only, and belongs in ``tests/builders.py``."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name | ast.Attribute)
    }
    exported = {
        alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return sorted(
        f"{name.removesuffix('.py')}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name not in named | exported
    )


def test_guard_flags_unreached_functions():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": "\n".join(
            [
                "def exported(): pass",
                "def orphan(): pass",
                "def called(): pass",
                "def _helper(): pass",
                "def uses_helper(): return _helper()",
            ]
        ),
        "b.py": "\n".join(
            [
                "from . import a",
                "CALLED = a.called()",
                'NOTE = "orphan()"',
                "class Holder:",
                "    def orphan(self): return a.uses_helper()",
            ]
        ),
    }
    assert unreached_functions(sources) == ["a.orphan"]


def test_every_package_function_is_reached():
    """What only tests call lives in ``tests/builders.py``, not in the package."""
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unreached_functions(sources) == []


# ---------------------------------------------------------------------------
# Guard: the scenario wire format lives in cli.py, behind one field rule
# ---------------------------------------------------------------------------

WIRE_ERRORS = {"ParseError", "BoundsError"}
FIELD_MESSAGES = ("unknown field", "missing field")


def wire_format_lines(source: str) -> list[int]:
    """Lines that import, raise or otherwise name ``ParseError`` or ``BoundsError``,
    or define a ``*_from_json`` function."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom | ast.Import):
            names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
        elif isinstance(node, ast.Name | ast.Attribute):
            names = {node.id if isinstance(node, ast.Name) else node.attr}
        elif isinstance(node, ast.FunctionDef):
            names = {"_from_json"} if node.name.endswith("_from_json") else set()
        else:
            continue
        if names & (WIRE_ERRORS | {"_from_json"}):
            lines.add(node.lineno)
    return sorted(lines)


def field_messages_outside(source: str, rule: str | None) -> list[int]:
    """Lines of strings (f-string parts included) that say "unknown field" or
    "missing field" outside the function named ``rule``."""
    tree = ast.parse(source)
    enclosed = {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == rule
        for line in range(node.lineno, node.end_lineno + 1)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and any(message in node.value for message in FIELD_MESSAGES)
        and node.lineno not in enclosed
    )


def test_guard_flags_wire_format_outside_the_cli():
    source = "\n".join(
        [
            "from .errors import NotPsdError, ParseError",
            "import covstine.errors.BoundsError",
            "def algebra_from_json(obj): pass",
            "raise errors.BoundsError('x')",
            '"ParseError"',
            "def to_json(self): pass",
            "raise ParseError(f'{where}: unknown field')",
        ]
    )
    assert wire_format_lines(source) == [1, 2, 3, 4, 7]
    rule = "\n".join(
        [
            "def _object(obj, where, required):",
            "    raise ParseError(f'{where}: unknown field {name!r}')",
            "def module_from_json(obj):",
            "    raise ParseError('module payload: missing field \\'dim\\'')",
            "    raise ParseError(f'{where}: missing {name}')",
        ]
    )
    assert field_messages_outside(rule, "_object") == [4]
    assert field_messages_outside(rule, None) == [2, 4]


def test_the_wire_format_lives_in_the_cli():
    """Only ``cli.py`` reads scenario payloads: no library module imports or raises
    the scenario errors or defines a ``*_from_json`` reader (``errors.py`` defines
    the errors and ``__init__.py`` re-exports them), and only ``cli._object``
    words an unknown or missing field."""
    kept = {"cli.py", "errors.py", "__init__.py"}
    library = [path for path in sorted(SRC.glob("*.py")) if path.name not in kept]
    assert {"numkernel.py", "cstar.py", "hilbmod.py"} <= {path.name for path in library}
    offenders = {path.name: wire_format_lines(path.read_text()) for path in library}
    assert not {name: lines for name, lines in offenders.items() if lines}
    messages = {
        path.name: field_messages_outside(
            path.read_text(), "_object" if path.name == "cli.py" else None
        )
        for path in sorted(SRC.glob("*.py"))
    }
    assert not {name: lines for name, lines in messages.items() if lines}
    assert field_messages_outside((SRC / "cli.py").read_text(), None)
