"""The module axioms on the module's support: ``check_module_axioms`` reads the
nonzeros of the structure tensors once and checks linearity on the grouped
inner rows.  Its report is compared with the dense form kept in
``dense_reference.module_axioms`` (every field bitwise on 0/1 modules, within
rel 1e-12 on modules on a dense basis), also with planted defects, and its
peak memory is held under the size of the inner tensor.  The support's reads
(pair rows, mirrors, live action rows) are held bit for bit to the dense gathers
on modules given by tensors, and a standard module, held by its support alone,
is held to memory bounds.  The tests take the module's orthogonal components
from ``dense_reference.component_labels`` on its link graph."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dense_reference
from covstine import cli, cstar, hilbmod
from covstine import numkernel as nk
from test_kernels import _algebra_module, _dense_basis_module
from test_scale_invariance import _run

# A module with no zeros to skip: ``_represented_on_dense_basis((2, 1), seed=5)``
# compressed by ``cpmaps.cp_from_representation`` with V a complex normal and W
# a Haar unitary (``default_rng(21)``), written as an explicit ``dilate`` payload.
DENSE_PAYLOAD = Path(__file__).resolve().parent / "scenarios" / "dense_basis_21.json"

SHAPES = [(p, n) for p in range(1, 9) for n in range(1, 9)]
BLOCKS = [(1,), (2, 1), (1, 2, 3), (2, 2), (4, 2), (5, 3)]


def _fields(report):
    return dict(zip(report._fields, report))


def _components(module):
    """The smallest basis vector of each one's component: x_i and x_j are linked
    when ``<x_i, x_j>`` is not 0 or some ``x_i . E_k`` has an ``x_j`` coordinate."""
    linked = module.inner.any(axis=2) | module.action.any(axis=1)
    return dense_reference.component_labels(linked | linked.T)


@pytest.mark.parametrize("p, n", SHAPES)
def test_standard_modules_match_the_dense_form_bitwise(p, n):
    module = hilbmod.standard_module(p, n)
    report = hilbmod.check_module_axioms(module)
    assert _fields(report) == _fields(dense_reference.module_axioms(module))
    assert report.linearity_residual == report.symmetry_residual == 0.0
    assert report.positive and report.definite and report.full


@pytest.mark.parametrize("blocks", BLOCKS)
def test_algebra_modules_match_the_dense_form_bitwise(blocks):
    """A block algebra over itself: one component per block row."""
    module = _algebra_module(blocks)
    assert _fields(hilbmod.check_module_axioms(module)) == _fields(
        dense_reference.module_axioms(module)
    )
    assert len(set(_components(module).tolist())) == sum(blocks)


@pytest.mark.parametrize("blocks", [(4, 2), (6,), (5, 3), (2, 1), (1, 2, 3)])
def test_dense_basis_modules_match_the_dense_form(blocks):
    """One component with every action row live: the grid is the whole comparison."""
    module = _dense_basis_module(blocks, seed=5)
    assert (_components(module) == 0).all()
    assert len(module.support.row_j) == module.dim * module.algebra.dim
    report, dense = hilbmod.check_module_axioms(module), dense_reference.module_axioms(module)
    for field, value in _fields(dense).items():
        assert getattr(report, field) == pytest.approx(value, rel=1e-12), field


def test_a_zero_basis_vector_is_its_own_component():
    """``standard_module(2, 2)`` with a zero fifth basis vector: still a module, not definite."""
    module = hilbmod.standard_module(2, 2)
    m, n_dim = module.dim + 1, module.algebra.dim
    action = np.zeros((m, n_dim, m), dtype=complex)
    inner = np.zeros((m, m, n_dim), dtype=complex)
    action[:-1, :, :-1], inner[:-1, :-1] = module.action, module.inner
    padded = hilbmod.HilbertModule(module.algebra, m, action, inner)
    report = hilbmod.check_module_axioms(padded)
    assert _components(padded).tolist() == [0, 0, 2, 2, 4]
    assert _fields(report) == _fields(dense_reference.module_axioms(padded))
    assert report.linearity_residual == 0.0 and report.positive and report.full
    assert not report.definite


def _plant(module, defect, eps, rng):
    """``module`` with one planted defect; the first two merge two components, or
    link two basis vectors of the one component there is."""
    action, inner = module.action.copy(), module.inner.copy()
    labels, n_dim = _components(module), module.algebra.dim
    links = np.argwhere(labels[:, None] != labels[None, :])  # pairs in different components
    if not len(links):
        links = np.argwhere(labels[:, None] == labels[None, :])
    if defect == "inner link":
        i, j = links[rng.integers(len(links))]
        inner[i, j, rng.integers(n_dim)] += eps
    elif defect == "action link":
        j, l = links[rng.integers(len(links))]
        action[j, rng.integers(n_dim), l] += eps
    elif defect == "zeroed row":
        live = np.argwhere(action.any(axis=2))
        action[tuple(live[rng.integers(len(live))])] = 0.0
    elif defect == "asymmetric":
        nonzero = np.argwhere(inner != 0)
        inner[tuple(nonzero[rng.integers(len(nonzero))])] += eps * (1 + 1j)
    else:  # a negative eigenvalue inside one component
        component = labels == labels[rng.integers(module.dim)]
        inner[np.ix_(component, component)] *= -eps
    return hilbmod.HilbertModule(module.algebra, module.dim, action, inner)


DEFECTS = ["inner link", "action link", "zeroed row", "asymmetric", "negative"]


@pytest.mark.parametrize("defect", DEFECTS)
@pytest.mark.parametrize("eps", [1e-3, 1e-7])
def test_planted_defects_read_the_same_in_both_forms(defect, eps):
    rng = np.random.default_rng(len(defect))
    modules = [hilbmod.standard_module(3, 2), hilbmod.standard_module(2, 3), _algebra_module((2, 1))]
    modules.append(hilbmod.standard_module(1, 3))  # one head per unit: rows padded to depth 2
    for module in modules:
        for _ in range(3):
            broken = _plant(module, defect, eps, rng)
            report = hilbmod.check_module_axioms(broken)
            assert _fields(report) == _fields(dense_reference.module_axioms(broken)), defect
            if defect == "negative":
                assert not report.positive
            elif defect == "asymmetric":
                assert report.symmetry_residual > 0.0
            else:
                assert report.linearity_residual > 0.0


def test_linked_components_merge():
    module = hilbmod.standard_module(3, 2)
    assert _components(module).tolist() == [0, 0, 2, 2, 4, 4]
    inner = module.inner.copy()
    inner[0, 4, 0] = 1e-3
    broken = hilbmod.HilbertModule(module.algebra, module.dim, module.action, inner)
    assert _components(broken).tolist() == [0, 0, 2, 2, 0, 0]


def test_the_8x8_check_peaks_below_the_inner_tensor():
    module = hilbmod.standard_module(8, 8)
    tracemalloc.start()
    try:
        report = hilbmod.check_module_axioms(module)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.full and report.positive
    assert peak < 64**3 * 16  # the (64, 64, 64) inner tensor, never formed
    assert "inner" not in vars(module) and "action" not in vars(module)


def test_the_8x8_module_and_its_fullness_factor_peak_below_1_mib():
    """``standard_module(8, 8)`` holds its 512 nonzeros per tensor, and the fullness
    Gram is summed from its (512, 64) pair rows a chunk at a time."""
    tracemalloc.start()
    try:
        module = hilbmod.standard_module(8, 8)
        factor = module.fullness_factor
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert factor.rank == 64 and module.pair_rows.shape == (512, 64)
    assert peak < 2**20


def _tensor_modules():
    """Modules given by their tensors: a standard module's, on the unit basis, one on
    a dense basis, and a two-block algebra over itself."""
    unit = hilbmod.standard_module(3, 2)
    given = hilbmod.HilbertModule(unit.algebra, unit.dim, unit.action, unit.inner)
    return [given, _dense_basis_module((2, 1), seed=5), _algebra_module((1, 2))]


@pytest.mark.parametrize("index", range(3))
def test_support_reads_are_the_dense_gathers_bit_for_bit(index):
    module = _tensor_modules()[index]
    m, n_dim, support = module.dim, module.algebra.dim, module.support
    i, j, k = support.i, support.j, support.k
    perm = cstar.star_permutation(module.algebra)
    pairs = module.inner.reshape(m * m, n_dim)[support.pairs]
    live = module.action[support.row_j, support.row_k].T
    for got, dense in [
        (module.pair_rows, pairs),
        (hilbmod._mirrored_values(module), module.inner[j, i, perm[k]]),
        (module.live_action_rows, live),
    ]:
        assert got.shape == dense.shape and got.dtype == dense.dtype
        assert got.tobytes() == np.ascontiguousarray(dense).tobytes()


def _traced_dilate(tmp_path, p, n, amplification):
    """``(exit code, tracemalloc peak, numpy.ma imported, stderr)`` of ``dilate`` p,n,a
    seed 11 in a fresh process, traced from after the import."""
    path = tmp_path / "dilate.json"
    path.write_bytes(cli.canonical_bytes(cli.generate_scenario("dilate", p, n, amplification, 11)))
    child = (
        "import sys, tracemalloc\n"
        "tracemalloc.start()\n"
        "import covstine.cli as cli\n"
        "tracemalloc.reset_peak()\n"
        "code = cli.main(['dilate', '--scenario', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, tracemalloc.get_traced_memory()[1], int('numpy.ma' in sys.modules))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", child, str(path), str(tmp_path / "cert.json")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    return (*map(int, done.stdout.split()), done.stderr)


def test_dilate_888_peaks_below_29_mib(tmp_path):
    """``dilate`` 8,8,8 seed 11 in a fresh process, traced from after the import:
    no dense structure tensor of the standard 8 x 8 module is built."""
    code, peak, masked, stderr = _traced_dilate(tmp_path, 8, 8, 8)
    assert code == 0, stderr
    assert peak <= 29 * 2**20, peak / 2**20
    assert not masked  # np.unique's first call would import numpy.ma, about 1 MiB


def test_dilate_666_peaks_below_11_25_mib(tmp_path):
    """``dilate`` 6,6,6 seed 11, as above: the dilation is built and verified on its
    parts, never as dense stacks (11.0 MiB; 12.8 MiB when ``verify_dilation`` read the
    dense images)."""
    code, peak, _, stderr = _traced_dilate(tmp_path, 6, 6, 6)
    assert code == 0, stderr
    assert peak <= 11.25 * 2**20, peak / 2**20


@pytest.mark.parametrize("p, n", SHAPES)
def test_the_closed_form_support_is_the_scan(p, n):
    """``standard_module`` builds its support in closed form; field by field it is
    ``module_support``'s scan of the tensors scattered from it, in values, order and
    dtype, also for a module read from a payload."""
    payload = cli.module_from_json({"standard_module": [p, n]})
    for module in (hilbmod.standard_module(p, n), payload):
        assert "support" in vars(module)  # set when built, not scanned when first read
        closed, scanned = module.support, hilbmod.module_support(module)
        for field, got, expected in zip(closed._fields, closed, scanned):
            if field != "act":  # the one field that is a tuple of arrays
                got, expected = (got,), (expected,)
            for a, b in zip(got, expected, strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b), field


def test_component_labels_follow_the_edges():
    first, second = np.array([0, 5, 3, 6]), np.array([5, 2, 6, 3])
    assert nk.component_labels(8, first, second).tolist() == [0, 1, 0, 3, 4, 0, 3, 7]
    chain = np.arange(63)
    assert (nk.component_labels(64, chain[::-1], chain[::-1] + 1) == 0).all()


@pytest.mark.parametrize("kind", ["dilate", "verify"])
def test_the_dense_basis_payload_passes_and_replays_byte_identically(tmp_path, capsys, kind):
    payload = {**json.loads(DENSE_PAYLOAD.read_text()), "kind": kind}
    module = cli.module_from_json(payload["objects"]["module"])
    assert (_components(module) == 0).all()
    assert len(module.support.row_j) == module.dim * module.algebra.dim
    code, first = _run(tmp_path, capsys, payload)
    assert code == 0 and json.loads(first)["pass"]
    assert _run(tmp_path, capsys, payload) == (0, first)
