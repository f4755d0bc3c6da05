"""Crossed products from their group grading: the structure dump against the
dense tensor of the generic operations, the derived crossed axiom rows against
``dense_reference``'s checks on every basis triple, with defects planted in alpha,
the module and eta and one premise broken at a time, crossed fullness from the
grading, and the run-path contracts (no reference-operation calls, no dense pair
tensor).  Whole crossed runs, clean and planted, are compared with the dense oracle
in ``test_oracle.py``."""

import collections
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import builders
from covstine import bounds, cli, crossed, cstar, hilbmod, stinespring
from covstine import numkernel as nk
from dense_reference import (
    crossed_algebra_axioms,
    crossed_inner,
    crossed_module_axioms,
    identity_defect,
    inner_blocks,
    integral_stinespring,
    reference_structure,
    watch_dense_forms,
)
from test_oracle import _off_generators

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


def _structure_tensor(calg):
    """The dense (d, d, d) tensor scattered from ``structure_entries``."""
    rows, cols, slots, values = crossed.structure_entries(calg)
    out = np.zeros((calg.dim,) * 3, dtype=np.complex128)
    out[rows, cols, slots] = values
    return out


@settings(max_examples=12, deadline=None)
@given(groups, block_sizes, seeds)
def test_structure_entries_match_the_reference_operations(name, blocks, seed):
    """The entries are gathers of alpha, so they equal ``multiply`` on basis pairs exactly,
    and ``structure_entry_count`` counts them."""
    calg = crossed.build_crossed_module(conjugation_system(GROUPS[name], blocks, seed)).algebra
    np.testing.assert_array_equal(_structure_tensor(calg), reference_structure(calg))
    assert crossed.structure_entry_count(calg) == len(crossed.structure_entries(calg)[0])


# ---------------------------------------------------------------------------
# Derived axiom rows against the exhaustive checks on the dense tensors
# ---------------------------------------------------------------------------


def _with(system, module=None, eta=None, alpha=None):
    """``system`` as an explicit system, with ``module``, ``eta`` or ``alpha`` replaced."""
    return hilbmod.ModuleDynamicalSystem(
        system.group,
        system.module if module is None else module,
        system.eta if eta is None else eta,
        system.alpha if alpha is None else alpha,
    )


def _rows_and_dense(system, monkeypatch):
    """The derived rows, with no exact fallback above ``bounds.exact_limit()``, and the dense ones."""
    monkeypatch.setattr(bounds, "BOUND_TOL", np.inf)
    cm = crossed.CrossedModule(system, crossed.CrossedAlgebra(system.group, system.module.algebra, system.alpha))
    dense = max(crossed_algebra_axioms(system.group, system.module.algebra, system.alpha)), max(crossed_module_axioms(system))
    return crossed.axiom_rows(cm), *dense


def _twisted(order):
    return builders.twisted_system(GROUPS["Z3" if order == 3 else "S3"], 3, 3, seed=7)


def _isolated(system, premise, eps):
    """``system`` on M_3 changed by about eps so that, of the premises, ``premise`` alone
    breaks: alpha's law (alpha_t at one t outside the generators followed by a diagonal
    unitary conjugation), its star (every alpha_t conjugated by ``Ad(S)``, S positive and not
    unitary), its multiplicativity (every alpha_t conjugated by ``a -> a + eps tr(a Q') Q``,
    Q and Q' Hermitian and traceless, so *-preserving and unital), or the module's symmetry
    (the inner products ``<x_0, .>`` scaled by 1 + eps, which keeps linearity)."""
    module, alpha = system.module, system.alpha.copy()
    if premise == "law":
        t, v = _off_generators(system.group), np.diag(np.exp(1j * eps * np.arange(3)))
        alpha[t] = np.kron(v, np.conj(v)) @ alpha[t]
    elif premise in ("star", "mult"):
        q, trace_q = np.diag([1.0, -1.0, 0.0]).reshape(-1), np.diag([0.0, 1.0, -1.0]).reshape(-1)
        s = np.diag(1 + eps * np.arange(3))
        phi = np.kron(s, np.linalg.inv(s).T) if premise == "star" else np.eye(9) + eps * np.outer(q, trace_q)
        alpha = phi @ alpha @ np.linalg.inv(phi)
    else:
        inner = module.inner.copy()
        inner[0] *= 1 + eps
        module = hilbmod.HilbertModule.from_tensors(module.algebra, module.dim, module.action, inner)
    return _with(system, module=module, alpha=alpha)


def _idempotent_system():
    """Z2 on C + C over itself with ``alpha_t = P``, ``P(x, y) = (x, x)`` for both t: an exact
    idempotent *-homomorphism, so law, multiplicativity, star and module axioms hold and
    only the unit, ``alpha_e = I``, fails, by 1."""
    system = conjugation_system(GROUPS["Z2"], (1, 1), seed=0)
    p = np.array([[1.0, 0.0], [1.0, 0.0]])
    return _with(system, eta=np.stack([np.eye(2)] * 2), alpha=np.stack([p, p]))


@pytest.mark.parametrize("premise", ["law", "star", "mult", "symmetry", "unit"])
def test_each_premise_alone_stays_under_the_derived_rows(premise, monkeypatch):
    """One premise broken at a time, the others exact or at rounding, so a row that dropped
    that premise's term would fall under the exhaustive value: each row is at least it."""
    system = _idempotent_system() if premise == "unit" else _isolated(_with(_twisted(3)), premise, 1e-6)
    rows, algebra, module = _rows_and_dense(system, monkeypatch)
    assert max(algebra, module) > nk.RESIDUAL_TOL
    assert algebra <= rows.algebra_residual and module <= rows.module_residual


def _dense_fullness(cm):
    return nk.numerical_rank(crossed_inner(cm.system).reshape(cm.dim**2, cm.algebra.dim))


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
    """g times the rank of the module's inner products is the rank of the dense
    (d_X^2, d_A) stack of crossed inner products, full or planted deficient."""
    sys_ = build()
    cm = crossed.CrossedModule(
        sys_, crossed.CrossedAlgebra(sys_.group, sys_.module.algebra, sys_.alpha)
    )
    dense = _dense_fullness(cm)
    assert crossed.axiom_rows(cm).fullness == (dense.rank, cm.algebra.dim)
    assert dense.rank == rank
    # the dense Gram's spectrum is the stacked blocks' Gram spectrum repeated g times
    g, m, n = cm.group.order, cm.module.dim, cm.algebra.base.dim
    per_slot = nk.numerical_rank(inner_blocks(cm).reshape(g * m * m, n)).singular_values
    np.testing.assert_allclose(
        np.sort(np.repeat(per_slot, g) ** 2)[::-1], dense.singular_values**2, rtol=0, atol=1e-10
    )


def test_axiom_rows_allocate_no_dense_inner_stack():
    """S3 on M_3 over itself: the dense (54^2, 54) stack of inner products is 2.5 MB."""
    cm = crossed.build_crossed_module(conjugation_system(GROUPS["S3"], (3,), seed=6))
    dense_bytes = cm.dim**2 * cm.algebra.dim * 16
    cm.module.fullness  # noqa: B018 (cached before the measurement, as in a run)
    tracemalloc.start()
    try:
        rows = crossed.axiom_rows(cm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.fullness == (cm.algebra.dim, cm.algebra.dim)
    assert max(rows.algebra_residual, rows.module_residual) < 1e-12
    assert peak < dense_bytes / 8, (peak, dense_bytes)


@settings(max_examples=12, deadline=None)
@given(groups, block_sizes, hst.integers(min_value=1, max_value=3), seeds)
def test_identity_defect_from_the_pair_matches_the_dense_row(name, blocks, h, seed):
    """The identity read off a pair of base images and arbitrary, not unitary, group
    matrices equals the dense identity check of the integrated stacks on the dense
    inner tensor."""
    cm = crossed.build_crossed_module(conjugation_system(GROUPS[name], blocks, seed))
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((cm.module.dim, h + 1, h, 2)).view(complex)[..., 0]
    companion = rng.standard_normal((cm.algebra.base.dim, h, h, 2)).view(complex)[..., 0]
    mats = rng.standard_normal((cm.group.order, h, h, 2)).view(complex)[..., 0]
    stacks = crossed._integrated(images, mats), crossed._integrated(companion, mats)
    got = crossed._identity_defect(cm, images, companion, mats)
    dense = identity_defect(stacks[0], crossed_inner(cm.system), stacks[1])
    assert got == pytest.approx(dense, rel=1e-12)


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
    """No run calls the generic operations, and the crossed axiom rows are formed only on
    crossed algebras of dimension up to 64 (S4 on C^2: 96)."""
    counts = collections.Counter()
    dims = []
    rows = crossed.axiom_rows

    def forming(cm):
        dims.append(cm.algebra.dim)
        return rows(cm)

    monkeypatch.setattr(crossed, "axiom_rows", forming)

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
    assert all(dim <= cli.CROSSED_AXIOM_LIMIT for dim in dims)
    assert len(dims) == (group != "symmetric:4")
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
        induced = crossed.induced_cp(dilation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert induced.crossed.dim == 144 and induced.crossed.algebra.dim == 216
    assert induced.max_residual < 1e-9
    assert peak < 8 * 2**20, peak


def test_factorization_residual_reads_every_chunk_of_t(monkeypatch):
    """One group element per chunk: the residual read off the dilation's parts is the
    dense reconstruction residual of the integrated dilation images, up to rounding."""
    monkeypatch.setattr(nk, "STACK_ENTRIES", 1)
    cov = cli.resolve_scenario(cli.generate_scenario("crossed", 1, 2, 1, 11, "cyclic:2"), "z2.json").cov
    dilation = stinespring.dilate_covariant(cov)
    induced = crossed.induced_cp(dilation)
    assert abs(integral_stinespring(cov, dilation)[0] - induced.factorization_residual) < 1e-14
    assert induced.dilation is dilation and induced.minimal


DENSITY_CASES = [
    (None, None, None, None), (1, 2, 1, "cyclic:2"), (2, 2, 2, "symmetric:3"), (1, 6, 1, "cyclic:3")
]


@pytest.mark.parametrize("p, n, amplification, group", DENSITY_CASES)
def test_induced_density_profiles_read_every_chunk_of_t(monkeypatch, p, n, amplification, group):
    """One group element per chunk: the profiles read off the dilation's parts, the range
    Gram summed over the chunks of t, decide the ranks of the dense integrated stacks
    exactly, with their singular values within 1e-12 of the largest, and the factorization
    residuals agree to 1e-14 (None: the bundled crossed scenario)."""
    monkeypatch.setattr(nk, "STACK_ENTRIES", 1)
    _check_density_profiles(p, n, amplification, group)


def _check_density_profiles(p, n, amplification, group):
    if p is None:
        res = cli.resolve_scenario(json.loads((SCENARIOS / "s3_crossed.json").read_text()), "s3")
    else:
        scenario = cli.generate_scenario("crossed", p, n, amplification, 11, group)
        res = cli.resolve_scenario(scenario, "generated.json")
    dilation = stinespring.dilate_covariant(res.cov)
    induced = crossed.induced_cp(dilation)
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
    assert crossed.induced_cp(dilation).factorization_residual < 1e-12
    planted = _planted(dilation, where)
    assert crossed.induced_cp(planted).factorization_residual > 1e-9
    assert integral_stinespring(cov, planted)[0] > 1e-9


def test_induced_cp_builds_no_dense_view_of_the_dilation(monkeypatch):
    """At (4, 4, 4) with S4 the induced map reads the dilation's parts alone: neither
    the dense images (the parts ranged on the identity) nor ``GnsTriple.rep`` is
    built, and the call's traced peak stays under 2.5 MiB (3.30 MiB with the
    (g, m, m, N) crossed inner blocks and the whole ranged stack, 6.99 MiB through the
    integrated dense view)."""
    scenario = cli.generate_scenario("crossed", 4, 4, 4, 11, "symmetric:4")
    cov = cli.resolve_scenario(scenario, "s4.json").cov
    dilation = stinespring.dilate_covariant(cov)
    cov.covariance_report  # noqa: B018 (cached before the measurement)
    built = watch_dense_forms(monkeypatch)
    tracemalloc.start()
    try:
        induced = crossed.induced_cp(dilation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert induced.minimal and induced.max_residual < 1e-9
    assert built == []
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
    induced = crossed.induced_cp(stinespring.dilate_covariant(cov))
    assert induced.dilation.cov_map is cov
    assert induced.images.shape == (induced.crossed.dim, *cov.base.images.shape[1:])
    assert len(calls) == 1
