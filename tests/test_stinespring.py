import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import builders
from builders import concrete_cp, z2_diag_system
from covstine import cli, cpmaps, cstar, hilbmod, stinespring as st
from covstine import numkernel as nk
from covstine.errors import (
    NotCoisometryError,
    NotCovariantError,
    NotCpError,
    NotMinimalError,
    QuotientLeakError,
)
from dense_reference import (
    conjugated, dense_gns_gram, dilation_from_images, dilation_images, module_map_through, multiplicativity_defect,
)
from test_acceptance import oracle_dims


def _verified_through_gram(phi):
    """``verify_dilation`` of a module CP map whose companion is ``phi``."""
    phi_module = module_map_through(phi, nk.gram_factor(dense_gns_gram(phi)))
    return st.verify_dilation(st.dilate_module_cp(phi_module))


def _padded(dilation):
    """``(W, images)`` of ``dilation`` with the codomain extended by one orthonormal direction
    nothing maps onto."""
    padded_w = np.vstack([dilation.W, np.linalg.svd(dilation.W)[2][-1:]])
    images = dilation_images(dilation)
    return padded_w, np.pad(images, ((0, 0), (0, 1), (0, 0)))


class TestGns:
    def test_scalar_identity(self):
        algebra = cstar.CStarAlgebra((1,))
        phi = cpmaps.CPMapAlgebra(algebra, 1, np.ones((1, 1, 1)))
        gns = st.gns_construct(phi)
        assert gns.dim == 1
        np.testing.assert_allclose(np.abs(gns.V), [[1.0]], atol=1e-12)
        np.testing.assert_allclose(gns.rep.images, [[[1.0]]], atol=1e-12)

    def test_zero_map(self):
        algebra = cstar.CStarAlgebra((2,))
        phi = cpmaps.CPMapAlgebra(algebra, 2, np.zeros((4, 2, 2)))
        gns = st.gns_construct(phi)
        assert gns.dim == 0
        assert gns.V.shape == (0, 2)
        cert = _verified_through_gram(phi)
        assert cert.residuals["gns_reconstruction"] == 0
        assert cert.ranks["gns_minimality"] == (0, 0)

    def test_trace_map_gram_is_identity(self):
        # phi(a) = tr(a) I_2: <E_k (x) h_i, E_l (x) h_j> = delta_kl delta_ij
        algebra = cstar.CStarAlgebra((2,))
        images = np.stack(
            [
                np.trace(builders.coords_to_blocks(algebra, np.eye(4)[k])[0]) * np.eye(2)
                for k in range(4)
            ]
        )
        phi = cpmaps.CPMapAlgebra(algebra, 2, images)
        gns = st.gns_construct(phi)
        assert gns.dim == 8
        np.testing.assert_allclose(
            np.sort(gns.gram_eigenvalues), np.ones(8), atol=1e-12
        )
        cert = _verified_through_gram(phi)
        assert cert.residuals["gns_reconstruction"] <= 1e-10
        assert cert.ranks["gns_minimality"] == (8, 8)

    @pytest.mark.parametrize("source", ["generated 2,2,2", "dense_basis_21.json"])
    def test_rep_is_a_cp_map_and_a_representation(self, source):
        if source == "generated 2,2,2":
            companion = builders.random_module_cp(2, 2, 2, seed=7)[0].companion
        else:
            path = Path(__file__).resolve().parent / "scenarios" / source
            companion = cli.resolve_scenario(cli.load_scenario(str(path)), str(path)).phi.companion
            assert len(companion.algebra.blocks) == 2
        rep = st.gns_construct(companion).rep
        assert isinstance(rep, cpmaps.CPMapAlgebra)
        assert rep.choi_report.cp
        assert max(multiplicativity_defect(rep), rep.choi_report.hermiticity) <= nk.RESIDUAL_TOL

    def test_reconstruction_for_seeded_maps(self):
        for seed in range(4):
            phi_mod, _ = builders.random_module_cp(2, 2, 2, seed=seed)
            dilation = st.dilate_module_cp(phi_mod)
            cert = st.verify_dilation(dilation)
            assert cert.residuals["gns_reconstruction"] <= 1e-9
            assert cert.ranks["gns_minimality"] == (dilation.gns.dim, dilation.gns.dim)


class TestDilateModuleCp:
    def test_scalar_identity(self):
        dilation = st.dilate_module_cp(concrete_cp(1, 1))
        assert dilation.dims == {"H": 1, "K": 1, "H_dilation": 1, "K_dilation": 1}
        np.testing.assert_allclose(np.abs(dilation_images(dilation)), [[[1.0]]], atol=1e-12)

    def test_column_module_concrete(self):
        phi = concrete_cp(2, 1)
        dilation = st.dilate_module_cp(phi)
        assert dilation.dims == {"H": 1, "K": 2, "H_dilation": 1, "K_dilation": 2}
        cert = st.verify_dilation(dilation, tol=1e-12)
        assert cert.passed

    def test_right_multiplication_dims_match_oracle(self):
        rng = np.random.default_rng(42)
        t_mat = nk.complex_normal(rng, 2, 2) + 2 * np.eye(2)
        module = hilbmod.standard_module(1, 2)
        images = np.stack([b @ t_mat for b in hilbmod.standard_basis_matrices(1, 2)])
        units = cpmaps.concrete_representation(1, 2).companion  # Phi(x) = x T forces phi(a) = T* a T
        companion = cpmaps.CPMapAlgebra(module.algebra, 2, t_mat.conj().T @ units.images @ t_mat)
        phi = cpmaps.ModuleCPMap(module, images, companion)
        dilation = st.dilate_module_cp(phi)
        dim_h, dim_k = oracle_dims(phi)
        assert dilation.gns.dim == dim_h
        assert dilation.dim_codomain == dim_k
        assert st.verify_dilation(dilation).passed

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_dims_match_oracle(self, seed):
        phi, _ = builders.random_module_cp(2, 2, 2, seed=seed)
        dilation = st.dilate_module_cp(phi)
        dim_h, dim_k = oracle_dims(phi)
        assert (dilation.gns.dim, dilation.dim_codomain) == (dim_h, dim_k)

    def test_minimality_idempotent(self):
        phi, _ = builders.random_module_cp(2, 2, 2, seed=17)
        dilation = st.dilate_module_cp(phi)
        compressed = np.einsum(
            "ab,iac,cd->ibd", np.conj(dilation.W), dilation_images(dilation), dilation.gns.V
        )
        companion = np.einsum(
            "ab,kac,cd->kbd",
            np.conj(dilation.gns.V),
            dilation.gns.rep.images,
            dilation.gns.V,
        )
        rebuilt = cpmaps.ModuleCPMap(
            phi.module,
            compressed,
            cpmaps.CPMapAlgebra(phi.module.algebra, phi.space_dims[0], companion),
        )
        again = st.dilate_module_cp(rebuilt)
        assert (again.gns.dim, again.dim_codomain) == (
            dilation.gns.dim,
            dilation.dim_codomain,
        )

    def test_rejects_inconsistent_pair(self):
        phi = concrete_cp(1, 2)
        wrong = cpmaps.CPMapAlgebra(
            phi.module.algebra, 2, 2.0 * phi.companion.images
        )
        broken = cpmaps.ModuleCPMap(phi.module, phi.images, wrong)
        with pytest.raises(QuotientLeakError):
            st.dilate_module_cp(broken)

    def test_refuses_a_non_cp_companion_before_the_identity(self):
        """The transpose on M_2 is not CP, and the pair also misses its identity by 1:
        ``gns_construct``, the one CP gate, refuses it first."""
        phi = concrete_cp(1, 2)
        transpose = cpmaps.CPMapAlgebra(phi.module.algebra, 2, phi.companion.images.transpose(0, 2, 1))
        broken = cpmaps.ModuleCPMap(phi.module, phi.images, transpose)
        assert broken.cp_report.identity_residual > nk.PRECONDITION_TOL
        with pytest.raises(NotCpError, match="not completely positive"):
            st.dilate_module_cp(broken)

    def test_zero_map(self):
        module = hilbmod.standard_module(2, 2)
        companion = cpmaps.CPMapAlgebra(module.algebra, 2, np.zeros((4, 2, 2)))
        phi = cpmaps.ModuleCPMap(module, np.zeros((4, 3, 2)), companion)
        dilation = st.dilate_module_cp(phi)
        assert dilation.dims["H_dilation"] == 0
        assert dilation.dims["K_dilation"] == 0
        cert = st.verify_dilation(dilation)
        assert cert.passed


class TestDilateCovariant:
    def test_trivial_group_reduces_to_plain(self):
        group = hilbmod.trivial_group()
        sys = hilbmod.standard_action(
            group, hilbmod.trivial_rep(group, 1), hilbmod.trivial_rep(group, 2)
        )
        phi = concrete_cp(1, 2)
        cov = cpmaps.CovariantCPMap(
            phi, sys, hilbmod.trivial_rep(group, 2), hilbmod.trivial_rep(group, 1)
        )
        plain = st.dilate_module_cp(phi)
        dilation = st.dilate_covariant(cov)
        np.testing.assert_array_equal(dilation_images(dilation.base), dilation_images(plain))
        np.testing.assert_array_equal(dilation.base.W, plain.W)
        np.testing.assert_allclose(dilation.v.mats, [np.eye(2)], atol=1e-12)
        np.testing.assert_allclose(dilation.w.mats, [np.eye(1)], atol=1e-12)

    def test_z2_concrete(self):
        sys = z2_diag_system()
        phi = concrete_cp(1, 2)
        cov = cpmaps.CovariantCPMap(phi, sys, sys.delta, sys.gamma)
        dilation = st.dilate_covariant(cov)
        cert = st.verify_dilation(dilation, tol=1e-10)
        assert cert.passed
        for name in (
            "reconstruction",
            "intertwine_V",
            "intertwine_W",
            "covariant_representation",
        ):
            assert cert.residuals[name] <= 1e-10
        assert cert.ranks["range_density"] == (1, 1)
        assert cert.ranks["corange_density"] == (2, 2)
        # the descended domain unitary at the nontrivial element has eigenvalues +-1
        eigs = np.sort(np.linalg.eigvals(dilation.v.mats[1]).real)
        np.testing.assert_allclose(eigs, [-1.0, 1.0], atol=1e-10)

    def test_random_s3_certificate(self):
        group = hilbmod.symmetric_group(3)
        sys = hilbmod.standard_action(
            group, hilbmod.trivial_rep(group, 1), builders.permutation_rep(3)
        )
        cov, _ = cpmaps.random_covariant_cp(sys, 6, seed=11)
        dilation = st.dilate_covariant(cov)
        cert = st.verify_dilation(dilation, tol=1e-8)
        assert cert.passed
        assert max(cert.residuals.values()) <= 1e-8

    def test_rejects_non_covariant_input(self):
        sys = z2_diag_system()
        phi = concrete_cp(1, 2)
        cov = cpmaps.CovariantCPMap(
            phi, sys, hilbmod.trivial_rep(sys.group, 2), hilbmod.trivial_rep(sys.group, 1)
        )
        with pytest.raises(NotCovariantError):
            st.dilate_covariant(cov)


class TestVerifyDilation:
    def test_a_map_planted_in_the_dilation_is_the_one_verified(self):
        """The map a dilation holds is its input: a perturbed one planted there shows in
        the reconstruction and in the input identity, and fails."""
        phi, _ = builders.random_module_cp(2, 2, 2, seed=4)
        dilation = st.dilate_module_cp(phi)
        noise = np.random.default_rng(4).standard_normal(phi.images.shape)
        perturbed = replace(phi, images=phi.images + 1e-6 * noise)
        rows = st.verify_dilation(dilation).residuals
        assert max(rows["reconstruction"], rows["input_identity"]) <= 1e-12
        cert = st.verify_dilation(replace(dilation, cp_map=perturbed))
        assert cert.residuals["reconstruction"] == pytest.approx(1e-6 * nk.maxabs(noise), rel=1e-6)
        assert cert.residuals["input_identity"] > nk.RESIDUAL_TOL
        assert not cert.passed

    def test_reports_padded_codomain_as_rank_deficit(self):
        phi, _ = builders.random_module_cp(2, 2, 2, seed=2, k_dim=5)
        dilation = st.dilate_module_cp(phi)
        assert dilation.dim_codomain < phi.space_dims[1]
        padded_w, padded_images = _padded(dilation)
        padded = dilation_from_images(
            phi, dilation.gns, dilation.dim_codomain + 1, padded_w, padded_images, dilation.codomain_gram_eigenvalues
        )
        cert = st.verify_dilation(padded)
        assert cert.residuals["reconstruction"] <= 1e-12
        assert cert.residuals["coisometry_rows"] <= 1e-12
        achieved, required = cert.ranks["range_density"]
        assert required - achieved == 1
        assert not cert.passed

    def test_zero_map_certificate(self):
        module = hilbmod.standard_module(1, 1)
        companion = cpmaps.CPMapAlgebra(module.algebra, 1, np.zeros((1, 1, 1)))
        phi = cpmaps.ModuleCPMap(module, np.zeros((1, 1, 1)), companion)
        dilation = st.dilate_module_cp(phi)
        cert = st.verify_dilation(dilation)
        assert cert.passed
        assert cert.dims["H_dilation"] == 0 and cert.dims["K_dilation"] == 0

    def test_certificate_json_shape(self):
        phi = concrete_cp(2, 2)
        cert = st.verify_dilation(st.dilate_module_cp(phi), provenance={"scenario": "t"})
        payload = cert.to_json()
        for key in ("dims", "residuals", "ranks", "checks", "singular_values", "tolerance"):
            assert key in payload
        assert payload["pass"] is True


class TestUniqueness:
    def test_self_comparison_gives_identity(self):
        phi, _ = builders.random_module_cp(2, 2, 2, seed=1)
        dilation = st.dilate_module_cp(phi)
        alt = st.AltDilation(dilation_images(dilation), dilation.gns.V, dilation.W)
        report = st.uniqueness_intertwiners(dilation, alt)
        np.testing.assert_allclose(report.U1, np.eye(dilation.gns.dim), atol=1e-9)
        np.testing.assert_allclose(report.U2, np.eye(dilation.dim_codomain), atol=1e-9)
        assert max(report[2:]) <= 1e-9  # every residual after U1 and U2

    @pytest.mark.parametrize("seed", range(4))
    def test_recovers_seeded_conjugators(self, seed):
        phi, _ = builders.random_module_cp(2, 2, 2, seed=seed + 40)
        dilation = st.dilate_module_cp(phi)
        alt, r1, r2 = conjugated(dilation, np.random.default_rng(seed))
        report = st.uniqueness_intertwiners(dilation, alt)
        assert nk.maxabs(report.U1 - r1) <= 1e-9
        assert nk.maxabs(report.U2 - r2) <= 1e-9
        assert max(report[2:]) <= 1e-9  # every residual after U1 and U2

    def test_covariant_roundtrip_carries_group_data(self):
        sys = z2_diag_system()
        cov, _ = cpmaps.random_covariant_cp(sys, 2, seed=6)
        dilation = st.dilate_covariant(cov)
        report = st.uniqueness_intertwiners(dilation, conjugated(dilation, np.random.default_rng(8))[0])
        assert report.covariant_v_residual <= 1e-9
        assert report.covariant_w_residual <= 1e-9

    @pytest.mark.parametrize("field, size", [("W", 3e-9), ("V", 3e-9), ("image", 1e-9)])
    def test_corrupted_competitor_is_surfaced(self, field, size):
        """W', V' or the image pi'(x_0) moved by seeded noise of ``size``: the competitor
        passes the coisometry, minimality and unitarity gates, and a row shows the move
        over 1e-9.  V' enters the U2 solve only, W' the U1 solve only; the image moves
        both, so at 3e-9 the unitarity gate refuses it."""
        phi, _ = builders.random_module_cp(2, 2, 2, seed=3)
        dilation = st.dilate_module_cp(phi)
        rng = np.random.default_rng(3)
        images, v, w = dilation_images(dilation), dilation.gns.V, dilation.W
        if field == "W":
            w = w + size * nk.complex_normal(rng, *w.shape)
        elif field == "V":
            v = v + size * nk.complex_normal(rng, *v.shape)
        else:
            images[0] += size * nk.complex_normal(rng, *images[0].shape)
        report = st.uniqueness_intertwiners(dilation, st.AltDilation(images, v, w))
        assert max(report.unitarity_U1, report.unitarity_U2) <= nk.PRECONDITION_TOL
        assert max(report[4:]) > 1e-9

    @pytest.mark.parametrize("scenario", [None, "cyclic:2", "module_333_1e4.json", "K=0", "K=66"])
    def test_solves_no_companion_and_builds_no_gns_view(self, tmp_path, monkeypatch, scenario):
        """U1 is solved on the corange stacks, so the uniqueness run reads no dense GNS
        images."""
        def refuse(*args):
            raise AssertionError("read on the uniqueness path")

        monkeypatch.setattr(st.GnsTriple, "rep", property(refuse))
        if scenario and scenario.endswith(".json"):
            source = Path(__file__).resolve().parent / "scenarios" / scenario
            payload = {**json.loads(source.read_text()), "kind": "uniqueness"}
        elif scenario and scenario.startswith("K="):  # a partial isometry of C into C^K
            payload = builders.partial_isometry_scenario("uniqueness", int(scenario[2:]), 1)
        else:  # a generated 2, 2, 2, plain or with the group
            payload = cli.generate_scenario("uniqueness", 2, 2, 2, 11, scenario)
        path = tmp_path / "scenario.json"
        path.write_bytes(cli.canonical_bytes(payload))
        out = tmp_path / "cert.json"
        assert cli.main(["uniqueness", "--scenario", str(path), "--out", str(out)]) == 0

    def test_non_coisometry_rejected(self):
        phi, _ = builders.random_module_cp(2, 2, 2, seed=3)
        dilation = st.dilate_module_cp(phi)
        alt = st.AltDilation(dilation_images(dilation), dilation.gns.V, 3.0 * dilation.W)
        with pytest.raises(NotCoisometryError):
            st.uniqueness_intertwiners(dilation, alt)

    def test_non_minimal_alt_rejected(self):
        phi, _ = builders.random_module_cp(2, 2, 2, seed=2, k_dim=5)
        dilation = st.dilate_module_cp(phi)
        padded_w, padded_images = _padded(dilation)
        alt = st.AltDilation(padded_images, dilation.gns.V, padded_w)
        with pytest.raises(NotMinimalError):
            st.uniqueness_intertwiners(dilation, alt)
