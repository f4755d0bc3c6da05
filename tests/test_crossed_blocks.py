"""Crossed products from their group grading: the product, star, action and
inner-product blocks against the generic reference operations, the block-wise
axiom checks against the dense basis-triple checks they replace, the
structure dump against the dense tensor, and the run-path contracts (no
reference-operation calls, no dense pair tensor)."""

import collections
import functools
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import builders
from covstine import cli, crossed, cstar, hilbmod, stinespring
from covstine import numkernel as nk
from dense_reference import (
    crossed_identity_defect,
    identity_defect,
    integral_stinespring,
    place,
    reference_action,
    reference_inner,
    reference_stars,
    reference_structure,
    watch_dense_forms,
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
        rep = builders.coset_permutation_rep(group, t)
        cosets.setdefault(rep.dim, rep)
    fitting = [dim for dim in cosets if 1 < dim <= n]
    if fitting:
        rep = cosets[max(fitting)]
    else:  # C^1, or Z3 on C^2
        rep = builders.cyclic_character_rep(group, 1) if n > 1 else hilbmod.trivial_rep(group, 1)
    if rep.dim < n:
        rep = hilbmod.direct_sum_rep(rep, hilbmod.trivial_rep(group, n - rep.dim))
    return hilbmod.conjugate_rep(rep, nk.haar_unitary(rng, n))


def conjugation_system(group, blocks, seed):
    """``A = (+) M_{n_b}`` as a right module over itself, ``<a, b> = a* b``,
    with ``eta = alpha`` the conjugation by ``block_rep`` in each block."""
    algebra = cstar.CStarAlgebra(blocks)
    rng = np.random.default_rng(seed)
    reps = [block_rep(group, n, rng).mats for n in blocks]
    units = [builders.coords_to_blocks(algebra, e) for e in np.eye(algebra.dim)]
    alpha = np.stack(
        [
            np.stack(
                [
                    builders.blocks_to_coords(
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
    module = hilbmod.HilbertModule.from_tensors(
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
    unit = builders.crossed_unit(calg).reshape(d)
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
    broken = hilbmod.HilbertModule.from_tensors(module.algebra, module.dim, action, module.inner)
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
    trace, unit = builders.trace_coords(algebra), cstar.unit_coords(algebra)
    inner = module.inner - np.multiply.outer(module.inner @ trace, unit) / algebra.embed_dim
    planted = hilbmod.HilbertModule.from_tensors(algebra, module.dim, module.action, inner)
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
    """The identity read off a pair of base images and arbitrary, not unitary, group
    matrices equals the gather of each crossed row on the integrated stacks and the
    dense identity check on the dense inner tensor."""
    cm = crossed.build_crossed_module(conjugation_system(GROUPS[name], blocks, seed))
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((cm.module.dim, h + 1, h, 2)).view(complex)[..., 0]
    companion = rng.standard_normal((cm.algebra.base.dim, h, h, 2)).view(complex)[..., 0]
    mats = rng.standard_normal((cm.group.order, h, h, 2)).view(complex)[..., 0]
    stacks = crossed._integrated(images, mats), crossed._integrated(companion, mats)
    got = crossed._identity_defect(cm, images, companion, mats)
    assert got == pytest.approx(crossed_identity_defect(cm, *stacks), rel=1e-12)
    dense = identity_defect(stacks[0], reference_inner(cm), stacks[1])
    assert got == pytest.approx(dense, rel=1e-12)


def _planted_pair(cov, where):
    """The pair and crossed module of ``cov`` with 1e-6 added to one entry of one
    Phi(x_i), one phi(E_k), one u_t or one alpha_t with t other than e, or one nonzero
    inner product."""
    images, companion, mats = cov.base.images, cov.base.companion.images, cov.u.mats
    system = cov.system
    if where == "Phi":
        images = images.copy()
        images[1, 0, 0] += 1e-6
    elif where == "phi":
        companion = companion.copy()
        companion[1, 0, 0] += 1e-6
    elif where == "u":
        mats = mats.copy()
        mats[(system.group.identity + 1) % system.group.order, 0, 0] += 1e-6
    elif where == "alpha":
        alpha = system.alpha.copy()
        alpha[(system.group.identity + 1) % system.group.order, 0, 0] += 1e-6
        system = hilbmod.ModuleDynamicalSystem(system.group, system.module, system.eta, alpha)
    else:
        module = system.module
        inner = module.inner.copy()
        inner[tuple(np.argwhere(np.abs(inner) > 0)[0])] += 1e-6
        planted = hilbmod.HilbertModule.from_tensors(
            module.algebra, module.dim, module.action, inner
        )
        system = hilbmod.ModuleDynamicalSystem(system.group, planted, system.eta, system.alpha)
    algebra = crossed.CrossedAlgebra(system.group, system.module.algebra, system.alpha)
    cm = crossed.CrossedModule(system, algebra)
    return cm, images, companion, mats


@pytest.mark.parametrize("where", ["Phi", "phi", "u", "alpha", "inner"])
def test_a_planted_pair_defect_shows_in_the_identity(where):
    """1e-6 planted in the pair, the action or the inner tensor: the identity read off
    the pair and the moved companion is the dense identity of the integrated stacks
    against the dense inner tensor, which reads alpha through ``CrossedModule.inner``,
    and fails the gate."""
    scenario = cli.generate_scenario("crossed", 2, 2, 2, 11, "symmetric:3")
    cov = cli.resolve_scenario(scenario, "generated.json").cov
    cm = crossed.build_crossed_module(cov.system)
    pair = cov.base.images, cov.base.companion.images, cov.u.mats
    assert crossed._identity_defect(cm, *pair) < 1e-12
    cm, images, companion, mats = _planted_pair(cov, where)
    got = crossed._identity_defect(cm, images, companion, mats)
    stacks = crossed._integrated(images, mats), crossed._integrated(companion, mats)
    dense = identity_defect(stacks[0], reference_inner(cm), stacks[1])
    assert got == pytest.approx(dense, rel=1e-9)
    assert got > nk.RESIDUAL_TOL


def test_the_identity_moves_the_companion_by_the_inverse_action():
    """Generated 1,6,1 with S3, where alpha_t and alpha_{t^-1} differ: the covariant
    pair meets the identity, read off the companion moved by alpha_{t^-1}."""
    scenario = cli.generate_scenario("crossed", 1, 6, 1, 11, "symmetric:3")
    cov = cli.resolve_scenario(scenario, "generated.json").cov
    alpha = cov.system.alpha
    assert np.abs(alpha - alpha[cov.system.group.inv]).max() > 0.5
    cm = crossed.build_crossed_module(cov.system)
    pair = cov.base.images, cov.base.companion.images, cov.u.mats
    assert crossed._identity_defect(cm, *pair) < 1e-12


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
    """No run calls the generic operations, and only the exhaustive checks, on crossed
    algebras of dimension up to 64, build the inner blocks (S4 on C^2: 96)."""
    counts = collections.Counter()
    blocks = []
    build = vars(crossed.CrossedModule)["inner_blocks"].func

    def building(cm):
        blocks.append(cm.algebra.dim)
        return build(cm)

    counted = functools.cached_property(building)
    counted.__set_name__(crossed.CrossedModule, "inner_blocks")
    monkeypatch.setattr(crossed.CrossedModule, "inner_blocks", counted)

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
    assert all(dim <= cli.CROSSED_AXIOM_LIMIT for dim in blocks)
    assert bool(blocks) == (group != "symmetric:4")
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
    """The residual read off the dilation's parts is the dense reconstruction
    residual of the integrated dilation images, up to rounding."""
    _check_factorization_against_the_reconstruction()


def test_factorization_residual_reads_every_chunk_of_t(monkeypatch):
    """One group element per chunk: the residual is still the reconstruction's."""
    monkeypatch.setattr(nk, "STACK_ENTRIES", 1)
    _check_factorization_against_the_reconstruction()


def _check_factorization_against_the_reconstruction():
    scenario = cli.generate_scenario("crossed", 1, 2, 1, 11, "cyclic:2")
    cov = cli.resolve_scenario(scenario, "z2.json").cov
    dilation = stinespring.dilate_covariant(cov)
    induced = crossed.induced_cp(cov, dilation)
    assert abs(integral_stinespring(cov, dilation)[0] - induced.factorization_residual) < 1e-14
    assert induced.dilation is dilation and induced.minimal


DENSITY_CASES = [
    (None, None, None, None), (1, 2, 1, "cyclic:2"), (2, 2, 2, "symmetric:3"), (1, 6, 1, "cyclic:3")
]


@pytest.mark.parametrize("p, n, amplification, group", DENSITY_CASES)
def test_induced_density_profiles_match_the_two_build_reference(p, n, amplification, group):
    """The profiles read off the dilation's parts decide the ranks of the dense
    integrated stacks exactly, with their singular values within 1e-12 of the
    largest, and the factorization residuals agree to 1e-14 (None: the bundled
    crossed scenario)."""
    _check_density_profiles(p, n, amplification, group)


@pytest.mark.parametrize("p, n, amplification, group", DENSITY_CASES)
def test_induced_density_profiles_read_every_chunk_of_t(monkeypatch, p, n, amplification, group):
    """One group element per chunk: the range Gram summed over the chunks of t still
    ranks as the dense integrated stack, with the same profile."""
    monkeypatch.setattr(nk, "STACK_ENTRIES", 1)
    _check_density_profiles(p, n, amplification, group)


def _check_density_profiles(p, n, amplification, group):
    if p is None:
        res = cli.resolve_scenario(json.loads((SCENARIOS / "s3_crossed.json").read_text()), "s3")
    else:
        scenario = cli.generate_scenario("crossed", p, n, amplification, 11, group)
        res = cli.resolve_scenario(scenario, "generated.json")
    dilation = stinespring.dilate_covariant(res.cov)
    induced = crossed.induced_cp(res.cov, dilation)
    residual, ranged, coranged = integral_stinespring(res.cov, dilation)
    assert abs(induced.factorization_residual - residual) < 1e-14
    profiles = (induced.range_density, induced.corange_density)
    for profile, reference in zip(profiles, (ranged, coranged)):
        assert profile.rank == reference.rank
        assert profile.singular_values.shape == reference.singular_values.shape
        gap = np.abs(profile.singular_values - reference.singular_values).max()
        assert gap <= 1e-12 * reference.singular_values[0]


def _planted(dilation, where):
    """``dilation`` with 1e-6 added to one entry of its part maps, of ``v_t`` for
    some t other than e, or of W."""
    base, v = dilation.base, dilation.v
    if where == "parts":
        maps = base.parts.maps.copy()
        maps[0, 0, 0] += 1e-6
        return replace(dilation, base=replace(base, parts=base.parts._replace(maps=maps)))
    if where == "v":
        mats = v.mats.copy()
        mats[(v.group.identity + 1) % v.group.order, 0, 0] += 1e-6
        return replace(dilation, v=replace(v, mats=mats))
    w = base.W.copy()
    w[0, 0] += 1e-6
    return replace(dilation, base=replace(base, W=w))


@pytest.mark.parametrize("where", ["parts", "v", "W"])
def test_a_planted_dilation_defect_shows_in_both_factorizations(where):
    scenario = cli.generate_scenario("crossed", 2, 2, 2, 11, "symmetric:3")
    cov = cli.resolve_scenario(scenario, "generated.json").cov
    dilation = stinespring.dilate_covariant(cov)
    assert crossed.induced_cp(cov, dilation).factorization_residual < 1e-12
    planted = _planted(dilation, where)
    assert crossed.induced_cp(cov, planted).factorization_residual > 1e-9
    assert integral_stinespring(cov, planted)[0] > 1e-9


def test_induced_cp_builds_no_dense_view_of_the_dilation(monkeypatch):
    """At (4, 4, 4) with S4 the induced map reads the dilation's parts alone: neither
    the dense images (the parts ranged on the identity) nor ``GnsTriple.rep`` is
    built, nor, with a crossed algebra of dimension 384, the (g, m, m, N) inner
    blocks, and the call's traced peak stays under 2.5 MiB (3.30 MiB with the blocks
    and the whole ranged stack, 6.99 MiB through the integrated dense view)."""
    scenario = cli.generate_scenario("crossed", 4, 4, 4, 11, "symmetric:4")
    cov = cli.resolve_scenario(scenario, "s4.json").cov
    dilation = stinespring.dilate_covariant(cov)
    cov.covariance_report  # noqa: B018 (cached before the measurement)
    built = watch_dense_forms(monkeypatch)
    tracemalloc.start()
    try:
        induced = crossed.induced_cp(cov, dilation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert induced.minimal and induced.max_residual < 1e-9
    assert built == [] and "inner_blocks" not in vars(induced.crossed)
    assert peak < 2.5 * 2**20, peak


def test_a_crossed_run_integrates_no_stack(tmp_path, monkeypatch):
    """The identity is read off the map and u, the factorization off the dilation's
    parts: no integrated stack is formed, and the integral form holds none."""
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
    assert calls == []
    # the counter does count: the API's stack is integrated on demand
    cov = cli.resolve_scenario(scenario, "generated.json").cov
    induced = crossed.induced_cp(cov)
    assert induced.rep is cov.base and induced.mats is cov.u.mats
    assert induced.images.shape == (induced.crossed.dim, *cov.base.images.shape[1:])
    assert len(calls) == 1
