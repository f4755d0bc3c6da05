"""Plain dilations on their blocks: ``verify_dilation`` reads the GNS triple's
``M_b`` and the dilation's live parts, and ``dense_reference.plain_rows`` keeps
the dense forms on the views ``GnsTriple.rep`` and ``StinespringDilation.images``.
Both forms are compared on a standard module, on the two-block algebra (1, 2)
over itself and on a module on a dense basis (several live block rows per x_i),
also with a defect planted in one ``M_b`` and in one part.  A plain run never
builds the dense views."""

import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest

import dense_reference
from covstine import cli, cpmaps, cstar, hilbmod, stinespring
from covstine import numkernel as nk
from test_kernels import _algebra_module, _represented_on_dense_basis

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "covstine" / "scenarios"
PAYLOADS = Path(__file__).resolve().parent / "scenarios"
RESIDUALS = ["gns_reconstruction", "gns_representation", "reconstruction", "representation_identity"]
RANKS = ["gns_minimality", "range_density", "corange_density"]


def _through(module, images, companion, h, seed):
    """The map ``W* pi(x) V`` of a representation of ``module``, V a complex normal
    (E, h) and W the identity."""
    rep = hilbmod.ModuleRepresentation(
        module, cstar.AlgebraRepresentation(module.algebra, len(companion[0]), companion), images
    )
    v = nk.complex_normal(np.random.default_rng(seed), len(companion[0]), h)
    return cpmaps.cp_from_representation(rep, v, nk.eye(images.shape[1]))


def _map(kind):
    if kind == "standard":
        return cpmaps.random_module_cp(3, 2, 2, seed=4)[0]
    if kind == "two blocks":
        module = _algebra_module((1, 2))
        embedding = cstar.embedding_representation(module.algebra).images
        return _through(module, embedding, embedding, 2, seed=1)
    return _through(*_represented_on_dense_basis((2, 1), seed=3), 2, seed=2)


KINDS = ["standard", "two blocks", "dense basis"]


def _compare(phi, dilation, rel):
    """Both forms of every plain row: residuals within ``rel`` (and 1e-15) of each
    other, ranks equal and singular values within 1e-12."""
    cert = stinespring.verify_dilation(phi, dilation)
    residuals, profiles = dense_reference.plain_rows(phi, dilation)
    for name in RESIDUALS:
        assert cert.residuals[name] == pytest.approx(residuals[name], rel=rel, abs=1e-15), name
    for name in RANKS:
        assert cert.ranks[name][0] == profiles[name].rank, name
        if name != "gns_minimality":  # its profile is not in the certificate
            np.testing.assert_allclose(
                cert.singular_values[name], profiles[name].singular_values, rtol=0, atol=1e-12
            )
    return cert, residuals


@pytest.mark.parametrize("kind", KINDS)
def test_block_rows_match_the_dense_rows(kind):
    phi = _map(kind)
    dilation = stinespring.dilate_module_cp(phi)
    cert, _ = _compare(phi, dilation, rel=1e-6)
    assert cert.passed
    xs = dilation.parts.xs
    if kind == "dense basis":  # several live block rows per x_i
        assert np.bincount(xs).min() > 1
    else:
        assert np.bincount(xs).max() == 1


@pytest.mark.parametrize("kind", KINDS)
def test_the_constructor_scans_the_dense_images_into_the_same_parts(kind):
    dilation = stinespring.dilate_module_cp(_map(kind))
    rebuilt = stinespring.StinespringDilation(
        dilation.cp_map, dilation.gns, dilation.dim_codomain, dilation.W,
        dilation.images, dilation.codomain_gram_eigenvalues,
    )
    # the scan lists the parts by (x_i, row), dilate_module_cp block by block
    order = [np.lexsort((parts.rows, parts.xs)) for parts in (rebuilt.parts, dilation.parts)]
    for got, expected in zip(rebuilt.parts, dilation.parts, strict=True):
        assert got.dtype == expected.dtype
        assert got[order[0]].tobytes() == expected[order[1]].tobytes()
    assert rebuilt.images is dilation.images  # kept as the dense view


@pytest.mark.parametrize("kind", KINDS)
def test_a_defect_in_one_m_b_shows_in_both_forms(kind):
    phi = _map(kind)
    dilation = stinespring.dilate_module_cp(phi)
    block = int(np.argmax([b.rank for b in dilation.gns.blocks]))
    moves = dilation.gns.M.copy()
    moves[block, 0, -1] += 1e-3  # off the diagonal where the block keeps two or more
    gns = dataclasses.replace(dilation.gns, M=moves)
    planted = stinespring.StinespringDilation.from_parts(
        phi, gns, dilation.dim_codomain, dilation.W, dilation.parts,
        dilation.codomain_gram_eigenvalues,
    )
    cert, residuals = _compare(phi, planted, rel=1e-9)
    for name in ("gns_reconstruction", "gns_representation", "representation_identity"):
        assert residuals[name] > 1e-5, name
    assert not cert.passed


@pytest.mark.parametrize("kind", KINDS)
def test_a_defect_in_one_part_shows_in_both_forms(kind):
    phi = _map(kind)
    dilation = stinespring.dilate_module_cp(phi)
    xs, rows, maps = dilation.parts
    maps = maps.copy()
    maps[len(maps) // 2, 0, 0] += 1e-3  # a coordinate every block keeps
    planted = stinespring.StinespringDilation.from_parts(
        phi, dilation.gns, dilation.dim_codomain, dilation.W,
        stinespring.DilationParts(xs, rows, maps), dilation.codomain_gram_eigenvalues,
    )
    cert, residuals = _compare(phi, planted, rel=1e-9)
    for name in ("reconstruction", "representation_identity"):
        assert residuals[name] > 1e-5, name
    assert not cert.passed


@pytest.fixture
def dense_views(monkeypatch):
    """The name of each dense view built: ``GnsTriple.rep`` or ``StinespringDilation.images``."""
    reads = []
    for cls, name in [(stinespring.GnsTriple, "rep"), (stinespring.StinespringDilation, "images")]:
        build = vars(cls)[name].func

        def reading(obj, name=name, build=build):
            reads.append(name)
            return build(obj)

        counted = functools.cached_property(reading)
        counted.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, counted)
    return reads


def _plain_scenarios():
    for p, n, amplification in [(2, 2, 2), (8, 8, 2), (1, 3, 1)]:
        yield f"{p},{n},{amplification}", cli.generate_scenario("dilate", p, n, amplification, 11)
    for path in [SCENARIOS / "identity.json", *sorted(PAYLOADS.glob("*.json"))]:
        yield path.name, cli.load_scenario(str(path))


PLAIN_RUNS = [
    (kind, name)
    for name, scenario in _plain_scenarios()
    for kind in ("dilate", "verify")
    if kind == "dilate" or "generate" not in scenario
]


@pytest.mark.parametrize("kind, source", PLAIN_RUNS)
def test_no_plain_run_builds_a_dense_view(tmp_path, dense_views, kind, source):
    """``dilate`` on every scenario, and ``verify`` on the plain payloads: a generated
    scenario holds a (trivial) group, so ``verify`` runs its covariant rows, which read
    the dense views."""
    scenario = {**dict(_plain_scenarios())[source], "kind": kind}
    path = tmp_path / "scenario.json"
    path.write_bytes(cli.canonical_bytes(scenario))
    assert cli.main([kind, "--scenario", str(path), "--out", str(tmp_path / "cert.json")]) == 0
    assert dense_views == []


def test_reading_a_dense_view_builds_it_once(dense_views):
    """The counting of the guard above sees a build where there is one."""
    dilation = stinespring.dilate_module_cp(_map("standard"))
    assert dilation.images is dilation.images and dilation.gns.rep is dilation.gns.rep
    assert dense_views == ["images", "rep"]


def test_the_dense_views_are_the_placed_blocks():
    """``rep`` places ``M_b`` at block rows (c, d) of ``E_cd``; ``images`` places each
    part at its block row, as ``dense_reference.gns_blocks`` and ``module_groups`` do."""
    phi = _map("two blocks")
    dilation = stinespring.dilate_module_cp(phi)
    images, _, v = dense_reference.gns_blocks(dilation.gns)
    np.testing.assert_array_equal(dilation.gns.rep.images, images)
    np.testing.assert_array_equal(dilation.gns.V, v)
    expected, _ = dense_reference.module_groups(phi, dilation.gns, dilation.W)
    np.testing.assert_allclose(dilation.images, expected, rtol=0, atol=1e-14)


def test_one_formation_of_the_live_action_rows_per_covariant_verify(tmp_path, monkeypatch):
    """``_linearity_defect`` and ``check_dynamical_system`` share the module's cached
    live action rows."""
    formed = []
    build = vars(hilbmod.HilbertModule)["live_action_rows"].func

    def counting(module):
        formed.append(module)
        return build(module)

    counted = functools.cached_property(counting)
    counted.__set_name__(hilbmod.HilbertModule, "live_action_rows")
    monkeypatch.setattr(hilbmod.HilbertModule, "live_action_rows", counted)
    path = tmp_path / "scenario.json"
    path.write_bytes(cli.canonical_bytes(cli.generate_scenario("verify", 3, 2, 2, 11, "cyclic:2")))
    assert cli.main(["verify", "--scenario", str(path), "--out", str(tmp_path / "cert.json")]) == 0
    assert len(formed) == 1


GROUPS = {
    "trivial": hilbmod.trivial_group(),
    "Z3": hilbmod.cyclic_group(3),
    "S3": hilbmod.symmetric_group(3),
    "S4": hilbmod.symmetric_group(4),
}


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("dim", [1, 2, 3, 6, 8])
def test_seeded_rep_is_the_chained_direct_sum_byte_for_byte(group, dim):
    """One block diagonal gives the bytes the chain of ``direct_sum_rep`` gave, and
    draws the same numbers from the stream."""
    group = GROUPS[group]
    for seed in range(5):
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        got = hilbmod.seeded_rep(group, dim, rngs[0])
        expected = dense_reference.composed_seeded_rep(group, dim, rngs[1])
        assert got.mats.tobytes() == expected.mats.tobytes()
        assert rngs[0].integers(2**62) == rngs[1].integers(2**62)
