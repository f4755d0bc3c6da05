"""Stacked loops: ``numkernel.kron_stack`` against ``np.kron``, and every check
and construction the package runs as chunked stacks over group or basis
elements against its one-element-at-a-time form in ``dense_reference``, bit
for bit.  The comparisons run at the package's ``STACK_ENTRIES`` and at sizes
that cut each stack into several chunks, on S3, S4 and Z3 systems; defects
planted at one t or one x_i raise the loop's error with the loop's message."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import dense_reference as ref
from covstine import cpmaps, crossed, cstar, hilbmod, stinespring
from covstine import numkernel as nk
from covstine.errors import ComputeError, NotIntertwiningError, QuotientLeakError

GROUPS = {
    "S3": lambda: hilbmod.symmetric_group(3),
    "S4": lambda: hilbmod.symmetric_group(4),
    "Z3": lambda: hilbmod.cyclic_group(3),
}
# the package's chunk size, one item per chunk, and a few items per chunk
CHUNKS = {"default": nk.STACK_ENTRIES, "one item": 1, "several items": 200}

sizes = hst.integers(min_value=0, max_value=4)
seeds = hst.integers(min_value=0, max_value=2**32 - 1)


def _random(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _same(actual, expected):
    """Bit for bit: equal shapes and bytes (signed zeros included)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def _scenario(name, seed=5, p=2, n=2, amplification=2):
    group = GROUPS[name]()
    rng = np.random.default_rng(seed)
    gamma = hilbmod.seeded_rep(group, p, rng)
    delta = hilbmod.seeded_rep(group, n, rng)
    system = hilbmod.standard_action(group, gamma, delta)
    cov, witness = cpmaps.random_covariant_cp(system, amplification, seed)
    return SimpleNamespace(
        group=group, gamma=gamma, delta=delta, system=system, cov=cov, witness=witness
    )


@pytest.fixture(params=sorted(CHUNKS))
def chunk(request, monkeypatch):
    monkeypatch.setattr(nk, "STACK_ENTRIES", CHUNKS[request.param])
    return request.param


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(sizes, sizes, sizes, sizes, sizes, seeds)
def test_kron_stack_matches_np_kron_bit_for_bit(count, p, q, r, s, seed):
    rng = np.random.default_rng(seed)
    a, b = _random(rng, count, p, q), _random(rng, count, r, s)
    a[..., ::2] *= -0.0  # signed zeros go through as np.kron forms them
    expected = np.stack([np.kron(x, y) for x, y in zip(a, b)]) if count else None
    got = nk.kron_stack(a, b)
    assert got.shape == (count, p * r, q * s)
    if count:
        _same(got, expected)
        # a matrix against a stack broadcasts, as the placements of kron(I_n, .) do
        _same(nk.kron_stack(a[0], b), np.stack([np.kron(a[0], y) for y in b]))
        _same(nk.kron_stack(a[0], b[0]), np.kron(a[0], b[0]))


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [((0, 2, 3), (0, 3, 2)), ((3, 0, 4), (3, 2, 2)), ((2, 2, 2), (2, 0, 0)), ((4, 1), (0, 3))],
)
def test_kron_stack_on_empty_and_zero_width_matrices(a_shape, b_shape):
    rng = np.random.default_rng(1)
    a, b = _random(rng, *a_shape), _random(rng, *b_shape)
    got = nk.kron_stack(a, b)
    if a.ndim == 2:
        _same(got, np.kron(a, b))
    elif len(a):
        _same(got, np.stack([np.kron(x, y) for x, y in zip(a, b)]))
    else:
        assert got.shape == (0, a_shape[1] * b_shape[1], a_shape[2] * b_shape[2])


@settings(max_examples=40, deadline=None)
@given(sizes, sizes, sizes, seeds)
def test_stack_maxabs_is_maxabs_of_each_matrix(count, rows, cols, seed):
    stack = _random(np.random.default_rng(seed), count, rows, cols)
    expected = np.array([nk.maxabs(m) for m in stack]).reshape(count)
    _same(nk.stack_maxabs(stack), expected)


@pytest.mark.parametrize("count", [0, 1, 5, 64])
@pytest.mark.parametrize("item", [0, 1, 7, 2**13, 2**15, 2**17])
def test_chunks_hold_whole_items_within_the_budget(count, item):
    spans = nk.stack_spans(count, item)
    assert [i for span in spans for i in range(count)[span]] == list(range(count))
    for span in spans:
        assert span.stop - span.start >= 1
        assert (span.stop - span.start) * item <= max(item, nk.STACK_ENTRIES)
    if item > nk.STACK_ENTRIES:
        assert len(spans) == count  # large items run one at a time


@settings(max_examples=40, deadline=None)
@given(sizes, sizes, sizes, hst.integers(min_value=0, max_value=4), seeds)
def test_stack_ranks_are_the_ranks_numerical_rank_decides(count, rows, cols, deficient, seed):
    rng = np.random.default_rng(seed)
    stack = _random(rng, count, rows, cols)
    stack[:, : min(deficient, rows)] = 0.0  # rank-deficient members
    assert nk.stack_ranks(stack) == [nk.numerical_rank(m).rank for m in stack]


# ---------------------------------------------------------------------------
# Every converted site against its loop, at every chunk size
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_generator_matches_its_loops(name, chunk):
    sc = _scenario(name)
    gamma, delta = sc.gamma, sc.delta
    _same(hilbmod.tensor_rep(gamma, delta).mats, ref.tensor_mats(gamma, delta))
    eta, alpha = ref.standard_action_mats(gamma, delta)
    _same(sc.system.eta, eta)
    _same(sc.system.alpha, alpha)
    q = nk.haar_unitary(np.random.default_rng(3), gamma.dim)
    _same(hilbmod.conjugate_rep(gamma, q).mats, ref.conjugated_mats(gamma, q))
    rep = cpmaps.amplified_concrete_representation(hilbmod.standard_module(2, 3), 2)
    images, companion = ref.amplified_images(2, 3, 2)
    _same(rep.images, images)
    _same(rep.companion.images, companion)
    w = sc.witness
    z = nk.complex_normal(np.random.default_rng(4), w.v.dim, sc.cov.u.dim)
    _same(cpmaps.average_intertwiner(w.v, sc.cov.u, z), ref.average_intertwiner(w.v, sc.cov.u, z))


@pytest.mark.parametrize("order", [12, 24])
def test_average_intertwiner_sums_in_the_order_of_t(order, chunk):
    """One-dimensional terms: a reduction over t could sum them pairwise, the
    loop sums them in order."""
    group = hilbmod.cyclic_group(order)
    left, right = hilbmod.cyclic_character_rep(group, 1), hilbmod.cyclic_character_rep(group, 5)
    z = _random(np.random.default_rng(order), 1, 1)
    _same(cpmaps.average_intertwiner(left, right, z), ref.average_intertwiner(left, right, z))


@pytest.mark.parametrize("name", sorted(GROUPS))
@pytest.mark.parametrize("planted", [False, True])
def test_group_checks_match_their_loops(name, planted, chunk):
    sc = _scenario(name)
    system, cov, w = sc.system, sc.cov, sc.witness
    if planted:  # eta off at one t only
        eta = system.eta.copy()
        eta[2, 0, 1] += 1e-4
        system = hilbmod.ModuleDynamicalSystem(system.group, system.module, eta, system.alpha)
    assert hilbmod.group_law_residuals(system.group, system.eta) == ref.group_law(
        system.group, system.eta
    )
    for rep in (w.v, w.w, cov.u, cov.u_prime):
        assert hilbmod.check_unitary_rep(rep).unitary_residual == ref.unitarity(rep)
    assert hilbmod.intertwining_residual(w.v, w.V, cov.u) == ref.intertwining(w.v, w.V, cov.u)
    assert hilbmod.intertwining_residual(w.w, w.W, cov.u_prime) == ref.intertwining(
        w.w, w.W, cov.u_prime
    )
    algebra = system.module.algebra
    assert hilbmod.algebra_action_residuals(system.group, algebra, system.alpha) == (
        ref.algebra_action(system.group, algebra, system.alpha)
    )
    assert tuple(hilbmod.check_dynamical_system(system)) == ref.dynamical_system(system)
    images, comp = cov.base.images, cov.base.companion.images
    for args in (
        (system.eta, images, cov.u_prime.mats, cov.u.mats),
        (system.alpha, comp, cov.u.mats, cov.u.mats),
    ):
        assert hilbmod.covariance_defect(*args) == ref.covariance(*args)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_dilations_match_their_loops(name, chunk):
    sc = _scenario(name)
    cov = sc.cov
    phi = cov.base
    triple = stinespring.gns_construct(phi.companion)
    images, _, v = ref.gns_blocks(triple)
    _same(triple.rep.images, images)
    _same(triple.V, v)

    base = stinespring.dilate_module_cp(phi)
    _same(base.images, ref.module_groups(phi, base.gns, base.W)[0])

    dilation = stinespring.dilate_covariant(cov)
    v_mats, gram_residual, _, w_mats, invariance = ref.covariant_groups(cov, dilation.base)
    _same(dilation.v.mats, v_mats)
    _same(dilation.w.mats, w_mats)
    assert dilation.gram_preservation_residual == gram_residual
    assert dilation.invariance_residual == invariance

    base = dilation.base
    rng = np.random.default_rng(9)
    r1, r2 = nk.haar_unitary(rng, base.gns.dim), nk.haar_unitary(rng, base.dim_codomain)
    alt = stinespring.AltDilation(
        r2 @ base.images @ nk.adjoint(r1), r1 @ base.gns.V, r2 @ base.W
    )
    report = stinespring.uniqueness_intertwiners(dilation, alt)
    assert report.intertwine_images == ref.image_intertwining(
        report.U1, report.U2, base.images, alt.images
    )


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_crossed_checks_match_their_loops(name, chunk):
    sc = _scenario(name, p=1, n=2, amplification=1)
    cm = crossed.build_crossed_module(sc.system)
    report = crossed.check_crossed_algebra(cm.algebra)
    assert (report.associativity_residual, report.involution_residual) == (
        ref.crossed_algebra_check(cm.algebra)
    )
    module_report = crossed.check_crossed_module(cm)
    assert (module_report.module_axiom_residual, module_report.symmetry_residual) == (
        ref.crossed_module_check(cm)
    )
    images = crossed._integrated(sc.cov.base.images, sc.cov.u.mats)
    companion = crossed._integrated(sc.cov.base.companion.images, sc.cov.u.mats)
    assert crossed._identity_defect(cm, images, companion) == ref.crossed_identity_defect(
        cm, images, companion
    )


@pytest.mark.parametrize("entries", [CHUNKS["one item"], CHUNKS["several items"]])
def test_the_stacks_above_span_several_chunks(entries, monkeypatch):
    """At the small chunk sizes the converted sites cut their stacks, so the
    comparisons above cover a maximum over several chunks."""
    sc = _scenario("S4")
    module, g = sc.system.module, sc.group.order
    monkeypatch.setattr(nk, "STACK_ENTRIES", entries)
    assert len(nk.stack_spans(g, module.dim**2 * module.algebra.dim)) > 1
    assert len(nk.stack_spans(g, sc.cov.base.images.size)) > 1


# ---------------------------------------------------------------------------
# Planted defects: the stacked gates report what the loops reported
# ---------------------------------------------------------------------------


def _with_defect(rep, t, eps):
    mats = rep.mats.copy()
    mats[t, 0, -1] += eps
    return hilbmod.UnitaryRep(rep.group, rep.dim, mats)


@pytest.mark.parametrize("name", sorted(GROUPS))
@pytest.mark.parametrize("v_at, w_at", [(2, None), (None, 1), (2, 1), (1, 2), (2, 2)])
def test_planted_intertwining_defect_reports_the_loops_error(name, v_at, w_at, chunk):
    sc = _scenario(name)
    w, cov = sc.witness, sc.cov
    rep_v = w.v if v_at is None else _with_defect(w.v, v_at, 1e-5)
    rep_w = w.w if w_at is None else _with_defect(w.w, w_at, 1e-5)
    with pytest.raises(NotIntertwiningError) as expected:
        ref.check_intertwiners(rep_v, rep_w, w.V, w.W, cov.u, cov.u_prime)
    with pytest.raises(NotIntertwiningError) as caught:
        cpmaps.covariant_cp_from_representation(
            w.rep, rep_v, rep_w, w.V, w.W, cov.u, cov.u_prime, sc.system
        )
    assert str(caught.value) == str(expected.value)
    first = min(t for t in (v_at, w_at) if t is not None)
    assert f"fails at t={first} " in str(caught.value)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_planted_image_defect_reports_the_loops_error(name, chunk):
    """One x_i's image off: the defining identity fails, by the loop's residual."""
    phi = _scenario(name).cov.base
    images = phi.images.copy()
    images[1] *= 1.001
    bad = cpmaps.ModuleCPMap(phi.module, images, phi.companion)
    residual = ref.identity_defect(images, phi.module.inner, phi.companion.images)
    with pytest.raises(QuotientLeakError) as caught:
        stinespring.dilate_module_cp(bad)
    assert str(caught.value) == (
        f"defining identity fails by {residual:.3e}; "
        "the pair (Phi, phi) is inconsistent and cannot descend"
    )


def _gate_reads(call, leak, what, monkeypatch):
    """``call``'s leak gate, named by ``what``, trips with the gate just below
    ``leak`` and not with the gate at it: the leak it reads is ``leak`` to the bit."""
    monkeypatch.setattr(nk, "RESIDUAL_TOL", np.nextafter(leak, 0.0))
    with pytest.raises(QuotientLeakError, match=what) as caught:
        call()
    assert f"(leak {leak:.3e})" in str(caught.value)
    monkeypatch.setattr(nk, "RESIDUAL_TOL", leak)
    try:
        call()
    except ComputeError as error:  # a later gate at the same value may trip
        assert what not in str(error)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_leak_gates_report_the_loops_leak(name, chunk, monkeypatch):
    """Each leak gate reads the worst leak of the loop: over the blocks for the
    E_k, over x_i and their live block rows, then over t and block rows."""
    cov = _scenario(name).cov
    phi = cov.base
    triple = stinespring.gns_construct(phi.companion)
    base = stinespring.dilate_module_cp(phi)
    gns_leak = ref.gns_blocks(triple)[1]
    module_leak = ref.module_groups(phi, triple, base.W)[1]
    group_leak = ref.covariant_groups(cov, base)[2]
    assert min(gns_leak, module_leak, group_leak) > 0.0

    _gate_reads(lambda: stinespring.gns_construct(phi.companion), gns_leak, "left multiplication", monkeypatch)
    monkeypatch.setattr(stinespring, "gns_construct", lambda companion: triple)
    _gate_reads(lambda: stinespring.dilate_module_cp(phi), module_leak, "module maps", monkeypatch)
    monkeypatch.setattr(stinespring, "dilate_module_cp", lambda cp_map: base)
    _gate_reads(lambda: stinespring.dilate_covariant(cov), group_leak, "group unitaries", monkeypatch)


# ---------------------------------------------------------------------------
# The module checks on tiny inputs
# ---------------------------------------------------------------------------


def _modules():
    standard = hilbmod.standard_module(3, 2)
    algebra = cstar.CStarAlgebra((2, 1))
    rng = np.random.default_rng(8)
    dense = hilbmod.HilbertModule(
        algebra, 3, _random(rng, 3, algebra.dim, 3), _random(rng, 3, 3, algebra.dim)
    )
    planted = standard.inner.copy()
    planted[4, 1, 2] = 1e-3  # one side of a pair nonzero, the other exactly 0
    return {
        "standard": standard,
        "dense": dense,
        "planted": hilbmod.HilbertModule(standard.algebra, standard.dim, standard.action, planted),
    }


@pytest.mark.parametrize("name", ["standard", "dense", "planted"])
def test_symmetry_on_the_support_is_the_dense_residual(name):
    module = _modules()[name]
    scale = max(1.0, nk.maxabs(module.inner))
    expected = ref.module_symmetry(module) / scale
    assert hilbmod.check_module_axioms(module).symmetry_residual == expected
    if name == "planted":
        assert expected == 1e-3


def _every_pair(count, others, stack):
    """``nk.PairTargets`` with ``T_ij = stack[i * others + j]`` for every pair."""
    pair_i, pair_j = np.divmod(np.arange(count * others), others)
    entries = np.arange(count * others)
    shape = (count, others, len(stack))
    return nk.PairTargets(shape, pair_i, pair_j, entries, np.ones(len(entries)))


def test_pair_defect_takes_a_small_input_in_one_chunk(monkeypatch):
    """Every row live: one chunk while all pairs fit STACK_ENTRIES, not one
    chunk per left map."""
    rng = np.random.default_rng(6)
    left, right, stack = _random(rng, 4, 3, 5), _random(rng, 6, 5, 2), _random(rng, 24, 3, 2)
    spans = []
    stack_spans = nk.stack_spans

    def recorded(count, item_entries):
        chunks = stack_spans(count, item_entries)
        spans.extend(chunks)
        return chunks

    monkeypatch.setattr(nk, "stack_spans", recorded)
    residual = nk.pair_defect(left, right, stack, _every_pair(4, 6, stack))
    assert spans == [slice(0, 4)]
    products = (left[:, None] @ right[None]).reshape(24, 3, 2)
    assert residual == pytest.approx(nk.maxabs(products - stack), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(sizes, sizes, sizes, sizes, sizes, hst.floats(0.2, 1.0), seeds, hst.sampled_from([1, 9, 60]))
def test_pair_defect_in_several_chunks_is_the_one_chunk_residual(
    count, others, rows, inner, cols, keep, seed, entries
):
    """Dead rows and columns, untargeted pairs, pairs with two targets, and
    chunk boundaries anywhere.  A chunk stacks the rows of its items into one
    GEMM, and GEMMs of other shapes may round differently in the last bits."""
    rng = np.random.default_rng(seed)
    left, right = _random(rng, count, rows, inner), _random(rng, others, inner, cols)
    left *= (rng.random((count, rows)) < keep)[..., None]
    right *= (rng.random((others, cols)) < keep)[:, None, :]
    stack = _random(rng, count * others + 1, rows, cols)
    stack *= (rng.random((len(stack), rows)) < keep)[..., None]
    pair_i, pair_j = (rng.random((count, others)) < keep).nonzero()
    twice = rng.random(len(pair_i)) < keep / 2  # these pairs get a second target
    pair_i, pair_j = np.repeat(pair_i, 1 + twice), np.repeat(pair_j, 1 + twice)
    unit = rng.integers(0, len(stack), size=len(pair_i))
    shape = (count, others, len(stack))
    targets = nk.PairTargets(shape, pair_i, pair_j, unit, _random(rng, len(pair_i)))
    whole = nk.pair_defect(left, right, stack, targets)
    with mock.patch.object(nk, "STACK_ENTRIES", entries):
        chunked = nk.pair_defect(left, right, stack, targets)
    assert chunked == pytest.approx(whole, rel=1e-12, abs=1e-15)
