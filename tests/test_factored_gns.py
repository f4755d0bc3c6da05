"""The factored GNS descent against its dense form in ``dense_reference``.

The package carries the GNS Gram as one factor per algebra block and lifts
every raw map block row by block row; the dense form places the factors into
the (rank, N h) ``F`` and (N h, rank) ``L`` and lifts every raw map over all
of ``A (x) H``.  Both must give the same ranks and dims, the same ``F* F``,
GNS images, ``V`` and dilation images, and, for a defect planted in the Choi
eigenvectors, at one ``x_i`` or at one ``t``, the same leak.  The GNS images are
placed as identities, never descended, so they hold only 0 and 1.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import builders
import dense_reference as ref
from covstine import cli, cpmaps, cstar, hilbmod, stinespring
from covstine import numkernel as nk
from covstine.errors import NotPsdError, QuotientLeakError


def _through_gram(blocks, h, spectra, seed=3):
    phi = ref.cp_from_choi_spectra(blocks, h, spectra, seed)
    return ref.module_map_through(phi, nk.gram_factor(ref.dense_gns_gram(phi)))


def _standard():
    return builders.random_module_cp(2, 3, 2, seed=4)[0]


def _two_block():
    return _through_gram((2, 1), 2, [[2.0, 1.5, 0.7, 0.0], [0.9, 0.4]])


def _vanishing_block():
    """The companion is 0 on the C block, which keeps no eigenvector."""
    return _through_gram((2, 1), 2, [[2.0, 1.5, 0.7, 0.3], [0.0, 0.0]])


def _zero_map():
    algebra = cstar.CStarAlgebra((2, 1))
    return _through_gram(algebra.blocks, 2, [[0.0] * 4, [0.0] * 2])


MAPS = {
    "standard": _standard,
    "two-block": _two_block,
    "vanishing block": _vanishing_block,
    "zero map": _zero_map,
}


def _close(actual, expected, atol=1e-10):
    assert actual.shape == expected.shape
    np.testing.assert_allclose(actual, expected, rtol=0, atol=atol)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_factored_dilation_matches_the_dense_one(name):
    phi = MAPS[name]()
    dilation = stinespring.dilate_module_cp(phi)
    gns = dilation.gns
    dense = ref.dense_dilation(phi)

    assert gns.dim == dense.F.shape[0] == dense.L.shape[1]
    assert dilation.dim_codomain == dense.W.shape[0]
    f_map = ref.dense_factors(gns)[0]
    _close(nk.adjoint(f_map) @ f_map, nk.adjoint(dense.F) @ dense.F)
    _close(gns.rep.images, dense.gns_images)
    _close(gns.V, dense.V)
    _close(ref.dilation_images(dilation), dense.images)
    cert = stinespring.verify_dilation(dilation)
    assert cert.passed
    if name == "vanishing block":
        assert [b.rank for b in gns.blocks] == [4, 0]
    if name == "zero map":
        assert gns.dim == dilation.dim_codomain == 0


BUNDLED = Path(__file__).resolve().parents[1] / "src" / "covstine" / "scenarios"
PAYLOADS = Path(__file__).resolve().parent / "scenarios"
PLACED = {  # a scenario file, or the arguments of cli.generate_scenario
    **{path.name: path for path in (*sorted(BUNDLED.glob("*.json")), *sorted(PAYLOADS.glob("*.json")))},
    "8,8,8": ("dilate", 8, 8, 8, 11),
    "6,6,6": ("dilate", 6, 6, 6, 11),
    "2,2,2 symmetric:3": ("verify", 2, 2, 2, 7, "symmetric:3"),
}


@pytest.mark.parametrize("name", PLACED)
def test_the_placed_representation_is_the_dense_descent(name):
    """``GnsTriple.rep`` places ``pi(E_cd) = E_cd (x) I`` exactly, so its images hold
    only 0 and 1, and they are the dense descent ``F (E_k (x) I_h) L`` to rounding: a
    run checks this identity nowhere, as it cannot fail on a consistent factor."""
    source = PLACED[name]
    scenario = cli.load_scenario(str(source)) if isinstance(source, Path) else cli.generate_scenario(*source)
    companion = cli.resolve_scenario(scenario, name).phi.companion
    images = stinespring.gns_construct(companion).rep.images
    assert np.isin(images, (0.0, 1.0)).all()
    _close(images, ref.dense_gns(companion)[2], atol=1e-14)


def _covariant(seed=5):
    group = hilbmod.symmetric_group(3)
    rng = np.random.default_rng(seed)
    gamma, delta = hilbmod.seeded_rep(group, 2, rng), hilbmod.seeded_rep(group, 2, rng)
    system = hilbmod.standard_action(group, gamma, delta)
    return cpmaps.random_covariant_cp(system, 2, seed)[0]


def test_factored_covariant_descent_matches_the_dense_one():
    cov = _covariant()
    dilation = stinespring.dilate_covariant(cov)
    dense, v_mats, gram_residual = ref.dense_covariant(cov)
    _close(dilation.v.mats, v_mats)
    assert abs(dilation.gram_preservation_residual - gram_residual) <= 1e-12
    _close(ref.dilation_images(dilation.base), dense.images)


# ---------------------------------------------------------------------------
# Planted defects: each leak gate trips in both forms, on the same leak
# ---------------------------------------------------------------------------


def _both_raise(package_call, dense_call, factored_leak, what):
    with pytest.raises(QuotientLeakError, match=what) as caught:
        package_call()
    assert f"(leak {factored_leak:.3e})" in str(caught.value)
    with pytest.raises(ref.DenseLeakError) as dense:
        dense_call()
    assert factored_leak > nk.RESIDUAL_TOL
    assert abs(dense.value.leak - factored_leak) <= 1e-12 * factored_leak


def _ungated(monkeypatch, call):
    """``call()`` with every leak gate open."""
    with monkeypatch.context() as patch:
        patch.setattr(nk, "RESIDUAL_TOL", np.inf)
        return call()


def test_planted_choi_defect_trips_the_module_map_gate(monkeypatch):
    """Eigenvectors no longer orthonormal: ``S B/sqrt(Λ)`` is not the identity that
    ``GnsTriple.rep`` places, and the module maps no longer descend."""
    phi = _covariant().base
    assert phi.companion.choi_report.cp
    vectors = phi.companion.choi_report.spectra[0].vectors
    vectors[:, 0] += 1e-4 * vectors[:, 1]
    base = _ungated(monkeypatch, lambda: stinespring.dilate_module_cp(phi))
    _both_raise(
        lambda: stinespring.dilate_module_cp(phi),
        lambda: ref.dense_dilation(phi),
        ref.module_groups(phi, base.gns, base.W)[1],
        "module maps",
    )


def test_planted_image_defect_trips_the_module_map_gate(monkeypatch):
    """One x_i's image moved off the GNS range after the identity was checked."""
    phi = _covariant().base
    assert phi.cp_report.identity_residual <= nk.PRECONDITION_TOL
    phi.images[1] += 1e-4 * np.random.default_rng(2).standard_normal(phi.images[1].shape)
    base = _ungated(monkeypatch, lambda: stinespring.dilate_module_cp(phi))
    _both_raise(
        lambda: stinespring.dilate_module_cp(phi),
        lambda: ref.dense_dilation(phi),
        ref.module_groups(phi, base.gns, base.W)[1],
        "module maps",
    )


def test_planted_unitary_defect_trips_the_group_gate(monkeypatch):
    """``u_t`` off at one t after covariance was checked."""
    checked = _covariant()
    assert checked.covariance_report.max_residual <= nk.PRECONDITION_TOL
    mats = checked.u.mats.copy()
    mats[2] += 1e-4 * np.random.default_rng(2).standard_normal(mats[2].shape)
    cov = replace(checked, u=hilbmod.UnitaryRep(checked.u.group, checked.u.dim, mats))
    vars(cov)["covariance_report"] = checked.covariance_report  # read before u_2 moved
    base = stinespring.dilate_module_cp(cov.base)
    _both_raise(
        lambda: stinespring.dilate_covariant(cov),
        lambda: ref.dense_covariant(cov),
        ref.covariant_groups(cov, base)[2],
        "group unitaries",
    )


def test_a_choi_eigenvalue_below_the_cutoff_fails_the_one_gram_rule(monkeypatch):
    """The Choi matrix diag(0.1, -5e-11) of a map on M_1 passes the CP test,
    whose slack is ``REL_TOL`` times max(1, |eigenvalues|), but its least
    eigenvalue lies below minus the Gram cutoff ``REL_TOL * 0.1 = 1e-11``: the
    GNS blocks and ``gram_factor`` of the same matrix both refuse it through
    ``nk.psd_cutoff``, with one message."""
    choi = np.diag([0.1, -5e-11]).astype(np.complex128)
    phi = cpmaps.CPMapAlgebra(cstar.CStarAlgebra((1,)), 2, choi[None])
    assert phi.choi_report.cp
    decided = []
    original = nk.psd_cutoff
    monkeypatch.setattr(nk, "psd_cutoff", lambda values: decided.append(values) or original(values))
    with pytest.raises(NotPsdError) as gns:
        stinespring.gns_construct(phi)
    with pytest.raises(NotPsdError) as factor:
        nk.gram_factor(choi)
    message = "Gram matrix has eigenvalue -5.000e-11 below -1.000e-11"
    assert str(gns.value) == str(factor.value) == message
    assert len(decided) == 2
