"""Crossed products from their group grading: the product, star, action and
inner-product blocks against the generic reference operations, the block-wise
axiom checks against the dense basis-triple checks they replace, the
structure dump against the dense tensor, and the run-path contracts (no
reference-operation calls, no dense pair tensor)."""

import collections
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from covstine import cli, crossed, cstar, hilbmod, stinespring
from covstine import numkernel as nk
from dense_reference import (
    identity_defect,
    integral_stinespring,
    place,
    reference_action,
    reference_inner,
    reference_stars,
    reference_structure,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "covstine" / "scenarios"
GROUPS = {
    "Z2": hilbmod.cyclic_group(2),
    "Z3": hilbmod.cyclic_group(3),
    "S3": hilbmod.symmetric_group(3),
}

groups = hst.sampled_from(sorted(GROUPS))
# algebras of dimension <= 6 keep the reference loops (d^2 calls) short
block_sizes = hst.lists(hst.integers(min_value=1, max_value=2), min_size=1, max_size=2).map(tuple)
seeds = hst.integers(min_value=0, max_value=2**32 - 1)


def block_rep(group, n, rng):
    """A unitary representation on C^n, not scalar for n > 1, in generic position:
    the largest coset permutation representation that fits (a character for Z3
    on C^2), padded with trivial summands and conjugated by a Haar unitary."""
    cosets = {}
    for t in range(group.order):
        rep = hilbmod.coset_permutation_rep(group, t)
        cosets.setdefault(rep.dim, rep)
    fitting = [dim for dim in cosets if 1 < dim <= n]
    if fitting:
        rep = cosets[max(fitting)]
    else:  # C^1, or Z3 on C^2
        rep = hilbmod.cyclic_character_rep(group, 1) if n > 1 else hilbmod.trivial_rep(group, 1)
    if rep.dim < n:
        rep = hilbmod.direct_sum_rep(rep, hilbmod.trivial_rep(group, n - rep.dim))
    return hilbmod.conjugate_rep(rep, nk.haar_unitary(rng, n))


def conjugation_system(group, blocks, seed):
    """``A = (+) M_{n_b}`` as a right module over itself, ``<a, b> = a* b``,
    with ``eta = alpha`` the conjugation by ``block_rep`` in each block."""
    algebra = cstar.CStarAlgebra(blocks)
    rng = np.random.default_rng(seed)
    reps = [block_rep(group, n, rng).mats for n in blocks]
    units = [cstar.coords_to_blocks(algebra, e) for e in np.eye(algebra.dim)]
    alpha = np.stack(
        [
            np.stack(
                [
                    cstar.blocks_to_coords(
                        algebra, [rep[t] @ b @ nk.adjoint(rep[t]) for rep, b in zip(reps, unit)]
                    )
                    for unit in units
                ],
                axis=1,
            )
            for t in range(group.order)
        ]
    )
    mul = cstar.mult_tensor(algebra)
    module = hilbmod.HilbertModule(
        algebra, algebra.dim, mul.copy(), mul[cstar.star_permutation(algebra)].copy()
    )
    return hilbmod.ModuleDynamicalSystem(group, module, alpha, alpha)


def standard_system(group, p, n, seed):
    rng = np.random.default_rng(seed)
    return hilbmod.standard_action(group, block_rep(group, p, rng), block_rep(group, n, rng))


def dense_algebra_residuals(calg):
    """The basis-triple check on dense tensors built from the reference operations."""
    g, n, d = calg.group.order, calg.base.dim, calg.dim
    struct = reference_structure(calg)
    assoc = max(
        np.max(np.abs((row @ struct.reshape(d, d * d)).reshape(d, d, d) - struct @ row))
        for row in struct
    )
    stars = reference_stars(calg)
    star = lambda f: calg.star(f.reshape(g, n)).reshape(d)  # noqa: E731
    involutive = np.max(np.abs(np.stack([star(stars[:, i]) for i in range(d)]) - np.eye(d)))
    anti = max(
        np.max(np.abs(
            star(struct[i, j])
            - calg.multiply(stars[:, j].reshape(g, n), stars[:, i].reshape(g, n)).reshape(d)
        ))
        for i in range(d)
        for j in range(d)
    )
    unit = calg.unit().reshape(d)
    unital = max(
        np.max(np.abs(np.einsum("p,pjq->jq", unit, struct) - np.eye(d))),
        np.max(np.abs(np.einsum("ipq,p->iq", struct, unit) - np.eye(d))),
    )
    return assoc, anti, involutive, unital


def dense_module_residuals(cm):
    struct = reference_structure(cm.algebra)
    inner, act = reference_inner(cm), reference_action(cm)
    d_x, d_a = cm.dim, cm.algebra.dim
    axiom = max(
        np.max(np.abs(act @ row - (row @ struct.reshape(d_a, -1)).reshape(d_x, d_a, d_a)))
        for row in inner
    )
    g, n = cm.group.order, cm.algebra.base.dim
    star = lambda f: cm.algebra.star(f.reshape(g, n)).reshape(d_a)  # noqa: E731
    starred = np.stack([np.stack([star(inner[a, b]) for b in range(d_x)]) for a in range(d_x)])
    return axiom, np.max(np.abs(starred - inner.transpose(1, 0, 2)))


def placed_inner(cm):
    """The inner blocks placed at slot t^-1 r: the dense (d_X, d_X, d_A) inner tensor."""
    return place(cm.inner_blocks, cm.group.mult[cm.group.inv])


def _close(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Blocks and placements against the reference operations
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(groups, block_sizes, seeds)
def test_placed_tensors_match_the_reference_operations(name, blocks, seed):
    sys_ = conjugation_system(GROUPS[name], blocks, seed)
    assert sys_.action_report.max_residual < 1e-10
    cm = crossed.build_crossed_module(sys_)
    calg = cm.algebra
    # the product blocks are gathers, so the placement is exact
    np.testing.assert_array_equal(place(calg.product_blocks, calg.group.mult), reference_structure(calg))
    _close(placed_inner(cm), reference_inner(cm))


@settings(max_examples=12, deadline=None)
@given(groups, block_sizes, seeds)
def test_action_and_star_blocks_match_the_reference_operations(name, blocks, seed):
    group = GROUPS[name]
    cm = crossed.build_crossed_module(conjugation_system(group, blocks, seed))
    calg = cm.algebra
    g, m, n = group.order, cm.module.dim, calg.base.dim
    # (delta_r x_j) e_(s,k) = delta_{rs} C[r, j, k]
    act = reference_action(cm).reshape(g, m, g, n, g, m)
    for r in range(g):
        for s in range(g):
            expected = np.zeros((m, n, g, m), dtype=complex)
            expected[:, :, group.mult[r, s]] = cm.action_blocks[r]
            _close(act[r, :, s], expected)
    # f*(s) = S[s] conj(f(s^-1)), on the basis and on a random element
    stars = reference_stars(calg).reshape(g, n, g, n)
    for s in range(g):
        expected = np.zeros((g, n, n), dtype=complex)
        expected[group.inv[s]] = calg.star_blocks[group.inv[s]]
        np.testing.assert_array_equal(stars[:, :, s], expected)
    f = np.random.default_rng(seed).standard_normal((g, 2 * n)).view(complex)
    placed = np.stack([calg.star_blocks[s] @ np.conj(f[group.inv[s]]) for s in range(g)])
    _close(placed, calg.star(f))


@pytest.mark.parametrize("name, p, n", [("Z2", 1, 2), ("Z3", 2, 1), ("S3", 1, 2)])
def test_blocks_on_standard_actions(name, p, n):
    """Modules whose dimension differs from the algebra's, with eta != alpha."""
    cm = crossed.build_crossed_module(standard_system(GROUPS[name], p, n, seed=5))
    _close(placed_inner(cm), reference_inner(cm))
    g, m, nn = cm.group.order, cm.module.dim, cm.algebra.base.dim
    act = reference_action(cm).reshape(g, m, g, nn, g, m)
    for r in range(g):
        for s in range(g):
            _close(act[r, :, s, :, cm.group.mult[r, s]], cm.action_blocks[r])


# ---------------------------------------------------------------------------
# Block-wise checks against the dense basis-triple checks
# ---------------------------------------------------------------------------


# Z3 and S3 (acting faithfully on M_3) have elements that are not their own
# inverse, so a slot t r in place of t^-1 r shows
CHECK_CASES = [
    ("Z2", (1, 2), 0.0),
    ("Z3", (2, 1), 0.0),
    ("Z2", (1, 2), 1e-3),
    ("Z3", (2, 1), 1e-3),
    ("S3", (3,), 1e-3),
]


@pytest.mark.parametrize("name, blocks, eps", CHECK_CASES)
def test_algebra_check_matches_the_dense_check(name, blocks, eps):
    """A planted perturbation of alpha breaks the axioms; both checks see the same size."""
    sys_ = conjugation_system(GROUPS[name], blocks, seed=2)
    alpha = sys_.alpha.copy()
    alpha[-1, 0, -1] += eps
    alpha[-1, -1, 0] -= 2 * eps
    calg = crossed.CrossedAlgebra(sys_.group, sys_.module.algebra, alpha)
    report = crossed.check_crossed_algebra(calg)
    dense = dense_algebra_residuals(calg)
    for got, expected in zip(report, dense):
        if eps:
            assert got == pytest.approx(expected, rel=1e-9)
        else:
            assert got < 1e-12 and expected < 1e-12
    assert eps == 0 or report.max_residual > 0.5 * eps


@pytest.mark.parametrize("name, blocks, eps", CHECK_CASES)
def test_module_check_matches_the_dense_check(name, blocks, eps):
    sys_ = conjugation_system(GROUPS[name], blocks, seed=4)
    module = sys_.module
    action = module.action.copy()
    action[0, -1, -1] += eps
    broken = hilbmod.HilbertModule(module.algebra, module.dim, action, module.inner)
    alpha = sys_.alpha.copy()
    alpha[-1, 0, 0] += eps
    calg = crossed.CrossedAlgebra(sys_.group, module.algebra, alpha)
    system = hilbmod.ModuleDynamicalSystem(sys_.group, broken, sys_.eta, alpha)
    cm = crossed.CrossedModule(system, calg)
    report = crossed.check_crossed_module(cm)
    for got, expected in zip(report[:2], dense_module_residuals(cm)):
        if eps:
            assert got == pytest.approx(expected, rel=1e-9)
        else:
            assert got < 1e-12 and expected < 1e-12
    assert report.fullness_rank == nk.numerical_rank(
        reference_inner(cm).reshape(cm.dim**2, cm.algebra.dim)
    ).rank


def _dense_fullness(cm):
    return nk.numerical_rank(reference_inner(cm).reshape(cm.dim**2, cm.algebra.dim))


def _traceless(sys_):
    """The system with every inner product projected onto its traceless part,
    a subspace of A that conjugation keeps: one direction of A per slot is missing."""
    module = sys_.module
    algebra = module.algebra
    trace, unit = cstar.trace_coords(algebra), cstar.unit_coords(algebra)
    inner = module.inner - np.multiply.outer(module.inner @ trace, unit) / algebra.embed_dim
    planted = hilbmod.HilbertModule(algebra, module.dim, module.action, inner)
    return hilbmod.ModuleDynamicalSystem(sys_.group, planted, sys_.eta, sys_.alpha)


FULLNESS_CASES = [
    ("Z2", lambda: standard_system(GROUPS["Z2"], 1, 2, seed=5), 8),
    ("Z3", lambda: standard_system(GROUPS["Z3"], 2, 1, seed=5), 3),
    ("S3", lambda: standard_system(GROUPS["S3"], 2, 3, seed=5), 54),
    ("S3-self", lambda: conjugation_system(GROUPS["S3"], (1, 2), seed=6), 30),
    ("S3-traceless", lambda: _traceless(conjugation_system(GROUPS["S3"], (3,), seed=6)), 48),
    ("Z2-traceless", lambda: _traceless(standard_system(GROUPS["Z2"], 1, 2, seed=5)), 6),
]


@pytest.mark.parametrize("name, build, rank", FULLNESS_CASES, ids=[c[0] for c in FULLNESS_CASES])
def test_crossed_fullness_from_the_grading_matches_the_dense_rank(name, build, rank):
    """g times the rank of the stacked inner blocks is the rank of the dense
    (d_X^2, d_A) stack of crossed inner products, full or planted deficient."""
    sys_ = build()
    cm = crossed.CrossedModule(
        sys_, crossed.CrossedAlgebra(sys_.group, sys_.module.algebra, sys_.alpha)
    )
    report = crossed.check_crossed_module(cm)
    dense = _dense_fullness(cm)
    assert report.fullness_rank == dense.rank == rank
    assert report.full == (rank == cm.algebra.dim)
    # the dense Gram's spectrum is the stacked blocks' Gram spectrum repeated g times
    g, m, n = cm.group.order, cm.module.dim, cm.algebra.base.dim
    per_slot = nk.numerical_rank(cm.inner_blocks.reshape(g * m * m, n)).singular_values
    np.testing.assert_allclose(
        np.sort(np.repeat(per_slot, g) ** 2)[::-1], dense.singular_values**2, rtol=0, atol=1e-10
    )


def test_crossed_module_check_allocates_no_dense_inner_stack():
    """S3 on M_3 over itself: the dense (54^2, 54) stack of inner products is 2.5 MB."""
    cm = crossed.build_crossed_module(conjugation_system(GROUPS["S3"], (3,), seed=6))
    dense_bytes = cm.dim**2 * cm.algebra.dim * 16
    tracemalloc.start()
    try:
        report = crossed.check_crossed_module(cm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.full and report.max_residual < 1e-12
    assert peak < dense_bytes, (peak, dense_bytes)


@settings(max_examples=12, deadline=None)
@given(groups, block_sizes, hst.integers(min_value=1, max_value=3), seeds)
def test_identity_defect_from_blocks_matches_the_dense_row(name, blocks, h, seed):
    """The per-(t, i) gather equals the dense identity check on the dense inner tensor."""
    cm = crossed.build_crossed_module(conjugation_system(GROUPS[name], blocks, seed))
    rng = np.random.default_rng(seed)
    shape = (cm.dim, h + 1, h, 2)
    images = rng.standard_normal(shape).view(complex)[..., 0]
    companion = rng.standard_normal((cm.algebra.dim, h, h, 2)).view(complex)[..., 0]
    dense = identity_defect(images, reference_inner(cm), companion)
    assert crossed._identity_defect(cm, images, companion) == pytest.approx(dense, rel=1e-12)


# ---------------------------------------------------------------------------
# The structure dump
# ---------------------------------------------------------------------------


def _crossed_algebra(path):
    res = cli.resolve_scenario(cli.load_scenario(str(path)), str(path))
    return crossed.build_crossed_module(res.cov.system).algebra


@pytest.mark.parametrize("group, p, n", [("cyclic:2", 1, 2), ("symmetric:3", 1, 1)])
def test_dump_structure_rows_match_the_dense_reference(tmp_path, group, p, n):
    path = tmp_path / "crossed.json"
    path.write_bytes(cli.canonical_bytes(cli.generate_scenario("crossed", p, n, 1, 3, group)))
    paths = [path, SCENARIOS / "s3_crossed.json"] if group == "symmetric:3" else [path]
    for scenario in paths:
        cert = cli.run_scenario(str(scenario), dump_structure=True)
        tensor = reference_structure(_crossed_algebra(scenario))
        expected = [
            [int(i), int(j), int(k), float(tensor[i, j, k].real), float(tensor[i, j, k].imag)]
            for i, j, k in np.argwhere(np.abs(tensor) > 0)
        ]
        rows = cert.provenance["structure_constants"]
        assert json.dumps(rows) == json.dumps(expected)


# ---------------------------------------------------------------------------
# Run-path contracts
# ---------------------------------------------------------------------------

REFERENCE_OPERATIONS = {
    crossed.CrossedModule: ("inner", "act"),
    crossed.CrossedAlgebra: ("multiply", "star"),
}


@pytest.mark.parametrize(
    "p, n, group, extra",
    [
        (1, 2, "cyclic:2", ["--dump-structure"]),
        (1, 1, "symmetric:3", []),
        (1, 2, "symmetric:4", []),
    ],
)
def test_crossed_run_never_calls_the_reference_operations(
    tmp_path, monkeypatch, p, n, group, extra
):
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # the methods live on the classes, which every covstine module binding them shares
    for cls, names in REFERENCE_OPERATIONS.items():
        for name in names:
            monkeypatch.setattr(cls, name, counting(f"{cls.__name__}.{name}", getattr(cls, name)))
    path = tmp_path / "crossed.json"
    path.write_bytes(cli.canonical_bytes(cli.generate_scenario("crossed", p, n, 1, 11, group)))
    out = tmp_path / "cert.json"
    assert cli.main(["crossed", "--scenario", str(path), "--out", str(out), *extra]) == 0
    cert = json.loads(out.read_text())
    assert cert["pass"]
    assert ("crossed_module_fullness" in cert["ranks"]) == (group != "symmetric:4")
    assert not counts, dict(counts)
    # the counters do count: one reference call shows
    crossed.CrossedAlgebra(
        hilbmod.cyclic_group(2), cstar.CStarAlgebra((1,)), np.ones((2, 1, 1))
    ).star(np.ones((2, 1)))
    assert counts["CrossedAlgebra.star"] == 1


def test_induced_cp_allocates_no_dense_pair_tensor():
    """At (2, 3, 2) with S4 the dense (144, 144, 216) inner tensor alone is 72 MB."""
    scenario = cli.generate_scenario("crossed", 2, 3, 2, 11, "symmetric:4")
    res = cli.resolve_scenario(scenario, "s4.json")
    dilation = stinespring.dilate_covariant(res.cov)
    res.cov.covariance_report  # noqa: B018 (cached before the measurement)
    tracemalloc.start()
    try:
        induced = crossed.induced_cp(res.cov, dilation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert induced.crossed.dim == 144 and induced.crossed.algebra.dim == 216
    assert induced.max_residual < 1e-9
    assert peak < 8 * 2**20, peak


def test_factorization_residual_is_the_reconstruction_residual():
    # at this scenario the two products differed in their last bits before
    scenario = cli.generate_scenario("crossed", 1, 2, 1, 11, "cyclic:2")
    cov = cli.resolve_scenario(scenario, "z2.json").cov
    dilation = stinespring.dilate_covariant(cov)
    induced = crossed.induced_cp(cov, dilation)
    assert integral_stinespring(cov, dilation)[0] == induced.factorization_residual
    assert induced.dilation is dilation and induced.minimal


@pytest.mark.parametrize(
    "p, n, amplification, group",
    [(None, None, None, None), (1, 2, 1, "cyclic:2"), (2, 2, 2, "symmetric:3"),
     (1, 6, 1, "cyclic:3")],
)
def test_induced_density_profiles_match_the_two_build_reference(p, n, amplification, group):
    """The profiles read off the one integrated dilation build are bit-equal
    to those of a separate build (None: the bundled crossed scenario)."""
    if p is None:
        res = cli.resolve_scenario(json.loads((SCENARIOS / "s3_crossed.json").read_text()), "s3")
    else:
        scenario = cli.generate_scenario("crossed", p, n, amplification, 11, group)
        res = cli.resolve_scenario(scenario, "generated.json")
    dilation = stinespring.dilate_covariant(res.cov)
    induced = crossed.induced_cp(res.cov, dilation)
    residual, ranged, coranged = integral_stinespring(res.cov, dilation)
    assert induced.factorization_residual == residual
    profiles = (induced.range_density, induced.corange_density)
    for profile, reference in zip(profiles, (ranged, coranged)):
        assert profile.rank == reference.rank
        np.testing.assert_array_equal(profile.singular_values, reference.singular_values)


def test_a_crossed_run_integrates_three_stacks(tmp_path, monkeypatch):
    """The map, its companion and the dilation: the dilation's integral form is
    built once, for the factorization and both densities."""
    calls = []
    integrated = crossed._integrated

    def counting(images, mats):
        calls.append(images.shape)
        return integrated(images, mats)

    monkeypatch.setattr(crossed, "_integrated", counting)
    path = tmp_path / "crossed.json"
    scenario = cli.generate_scenario("crossed", 2, 2, 2, 11, "symmetric:3")
    path.write_bytes(cli.canonical_bytes(scenario))
    assert cli.run_scenario(str(path)).passed
    assert len(calls) == 3
