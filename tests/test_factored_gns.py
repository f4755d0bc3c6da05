"""The leak gates of the factored GNS descent against the dense descent of
``dense_reference``, on objects a run cannot receive.

The package carries the GNS Gram as one factor per algebra block and lifts every raw
map block row by block row; the dense form places the factors into the (rank, N h)
``F`` and (N h, rank) ``L`` and lifts every raw map over all of ``A (x) H``.  For a
defect planted in the Choi eigenvectors, at one ``x_i`` after the identity was checked
or at one ``t`` after covariance was, both trip the same gate on the same leak.  Whole
runs are compared with the dense form in ``test_oracle.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

import dense_reference as ref
from covstine import cpmaps, cstar, hilbmod, stinespring
from covstine import numkernel as nk
from covstine.errors import NotPsdError, QuotientLeakError


def _covariant(seed=5):
    group = hilbmod.symmetric_group(3)
    rng = np.random.default_rng(seed)
    gamma, delta = hilbmod.seeded_rep(group, 2, rng), hilbmod.seeded_rep(group, 2, rng)
    system = hilbmod.standard_action(group, gamma, delta)
    return cpmaps.random_covariant_cp(system, 2, seed)[0]


# ---------------------------------------------------------------------------
# Planted defects: each leak gate trips in both forms, on the same leak
# ---------------------------------------------------------------------------


def _both_raise(package_call, dense_call, factored_leak, what):
    with pytest.raises(QuotientLeakError, match=what) as caught:
        package_call()
    assert f"(leak {factored_leak:.3e})" in str(caught.value)
    with pytest.raises(ref.Refused) as dense:
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
        lambda: ref.dense_dilation(phi, ref.dense_gns(phi.companion, phi.companion.choi_report.spectra)),
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
        lambda: ref.dense_dilation(phi, ref.dense_gns(phi.companion)),
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
        lambda: ref.dense_covariant(cov, ref.dense_dilation(cov.base, ref.dense_gns(cov.base.companion))),
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
