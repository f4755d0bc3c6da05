import numpy as np
import pytest

from covstine import cpmaps, cstar, hilbmod, stinespring as st
from covstine import numkernel as nk
from covstine.errors import (
    NotCoisometryError,
    NotCovariantError,
    NotMinimalError,
    NotUnitaryError,
    QuotientLeakError,
)
from dense_reference import dense_gns_gram, module_map_through


def z2_diag_system():
    group = hilbmod.cyclic_group(2)
    delta = hilbmod.UnitaryRep(
        group, 2, np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex)
    )
    return hilbmod.standard_action(group, hilbmod.trivial_rep(group, 1), delta)


def _verified_through_gram(phi):
    """``verify_dilation`` of a module CP map whose companion is ``phi``."""
    phi_module = module_map_through(phi, nk.gram_factor(dense_gns_gram(phi)))
    return st.verify_dilation(phi_module, st.dilate_module_cp(phi_module))


def concrete_cp(p, n):
    rep = hilbmod.concrete_representation(p, n)
    return cpmaps.cp_from_representation(rep, nk.eye(n), nk.eye(p))


def oracle_dims(phi: cpmaps.ModuleCPMap) -> tuple[int, int]:
    """Brute-force Gram ranks, built with element arithmetic and plain eigh.

    Independent of the construction path: Gram entries come from explicit
    AlgebraElement products, ranks from numpy eigendecompositions with the
    package's cutoff rule applied by hand.
    """
    algebra = phi.module.algebra
    n_dim, h = algebra.dim, phi.companion.space_dim
    eye = np.eye(n_dim)
    gram = np.zeros((n_dim * h, n_dim * h), dtype=complex)
    for k in range(n_dim):
        a_star = cstar.AlgebraElement.from_coords(algebra, eye[k]).star()
        for l in range(n_dim):
            b = cstar.AlgebraElement.from_coords(algebra, eye[l])
            product = a_star * b
            gram[k * h : (k + 1) * h, l * h : (l + 1) * h] = phi.companion.apply(
                product.coords()
            )
    def lam_rank(matrix):
        values = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2.0)[::-1]
        if values.size == 0:
            return 0
        cutoff = max(1e-10 * max(float(values[0]), 0.0), 1e-12)
        return int(np.count_nonzero(values > cutoff))

    dim_k = phi.space_dims[1]
    span = phi.images.transpose(1, 0, 2).reshape(dim_k, -1)
    return lam_rank(gram), lam_rank(span @ span.conj().T)


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
                np.trace(cstar.coords_to_blocks(algebra, np.eye(4)[k])[0]) * np.eye(2)
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

    def test_reconstruction_for_seeded_maps(self):
        for seed in range(4):
            phi_mod, _ = cpmaps.random_module_cp(2, 2, 2, seed=seed)
            dilation = st.dilate_module_cp(phi_mod)
            cert = st.verify_dilation(phi_mod, dilation)
            assert cert.residuals["gns_reconstruction"] <= 1e-9
            assert cert.ranks["gns_minimality"] == (dilation.gns.dim, dilation.gns.dim)


class TestDilateModuleCp:
    def test_scalar_identity(self):
        dilation = st.dilate_module_cp(concrete_cp(1, 1))
        assert dilation.dims == {"H": 1, "K": 1, "H_dilation": 1, "K_dilation": 1}
        np.testing.assert_allclose(np.abs(dilation.images), [[[1.0]]], atol=1e-12)

    def test_column_module_concrete(self):
        phi = concrete_cp(2, 1)
        dilation = st.dilate_module_cp(phi)
        assert dilation.dims == {"H": 1, "K": 2, "H_dilation": 1, "K_dilation": 2}
        cert = st.verify_dilation(phi, dilation, tol=1e-12)
        assert cert.passed

    def test_right_multiplication_dims_match_oracle(self):
        rng = np.random.default_rng(42)
        t_mat = nk.complex_normal(rng, 2, 2) + 2 * np.eye(2)
        module = hilbmod.standard_module(1, 2)
        images = np.stack([b @ t_mat for b in hilbmod.standard_basis_matrices(1, 2)])
        companion = cpmaps.induced_algebra_cp(images, module, 2)
        phi = cpmaps.ModuleCPMap(module, images, companion)
        dilation = st.dilate_module_cp(phi)
        dim_h, dim_k = oracle_dims(phi)
        assert dilation.gns.dim == dim_h
        assert dilation.dim_codomain == dim_k
        assert st.verify_dilation(phi, dilation).passed

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_dims_match_oracle(self, seed):
        phi, _ = cpmaps.random_module_cp(2, 2, 2, seed=seed)
        dilation = st.dilate_module_cp(phi)
        dim_h, dim_k = oracle_dims(phi)
        assert (dilation.gns.dim, dilation.dim_codomain) == (dim_h, dim_k)

    def test_minimality_idempotent(self):
        phi, _ = cpmaps.random_module_cp(2, 2, 2, seed=17)
        dilation = st.dilate_module_cp(phi)
        compressed = np.einsum(
            "ab,iac,cd->ibd", np.conj(dilation.W), dilation.images, dilation.gns.V
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

    def test_zero_map(self):
        module = hilbmod.standard_module(2, 2)
        companion = cpmaps.CPMapAlgebra(module.algebra, 2, np.zeros((4, 2, 2)))
        phi = cpmaps.ModuleCPMap(module, np.zeros((4, 3, 2)), companion)
        dilation = st.dilate_module_cp(phi)
        assert dilation.dims["H_dilation"] == 0
        assert dilation.dims["K_dilation"] == 0
        cert = st.verify_dilation(phi, dilation)
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
        np.testing.assert_array_equal(dilation.base.images, plain.images)
        np.testing.assert_array_equal(dilation.base.W, plain.W)
        np.testing.assert_allclose(dilation.v.mats, [np.eye(2)], atol=1e-12)
        np.testing.assert_allclose(dilation.w.mats, [np.eye(1)], atol=1e-12)

    def test_z2_concrete(self):
        sys = z2_diag_system()
        phi = concrete_cp(1, 2)
        cov = cpmaps.CovariantCPMap(phi, sys, sys.delta, sys.gamma)
        dilation = st.dilate_covariant(cov)
        cert = st.verify_dilation(cov, dilation, tol=1e-10)
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
            group, hilbmod.trivial_rep(group, 1), hilbmod.permutation_rep(3)
        )
        cov, _ = cpmaps.random_covariant_cp(sys, 6, seed=11)
        dilation = st.dilate_covariant(cov)
        cert = st.verify_dilation(cov, dilation, tol=1e-8)
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
    def test_reports_padded_codomain_as_rank_deficit(self):
        phi, _ = cpmaps.random_module_cp(2, 2, 2, seed=2, k_dim=5)
        dilation = st.dilate_module_cp(phi)
        assert dilation.dim_codomain < phi.space_dims[1]
        # extend the codomain by one orthonormal direction nothing maps onto
        complement = np.linalg.svd(dilation.W)[2][-1:]
        padded_w = np.vstack([dilation.W, complement])
        padded_images = np.zeros(
            (phi.module.dim, dilation.dim_codomain + 1, dilation.gns.dim), dtype=complex
        )
        padded_images[:, : dilation.dim_codomain, :] = dilation.images
        padded = st.StinespringDilation(
            phi,
            dilation.gns,
            dilation.dim_codomain + 1,
            padded_w,
            padded_images,
            dilation.codomain_gram_eigenvalues,
        )
        cert = st.verify_dilation(phi, padded)
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
        cert = st.verify_dilation(phi, dilation)
        assert cert.passed
        assert cert.dims["H_dilation"] == 0 and cert.dims["K_dilation"] == 0

    def test_certificate_json_shape(self):
        phi = concrete_cp(2, 2)
        cert = st.verify_dilation(phi, st.dilate_module_cp(phi), provenance={"scenario": "t"})
        payload = cert.to_json()
        for key in ("dims", "residuals", "ranks", "checks", "singular_values", "tolerance"):
            assert key in payload
        assert payload["pass"] is True


class TestUniqueness:
    def test_self_comparison_gives_identity(self):
        phi, _ = cpmaps.random_module_cp(2, 2, 2, seed=1)
        dilation = st.dilate_module_cp(phi)
        alt = st.AltDilation(dilation.images, dilation.gns.V, dilation.W)
        report = st.uniqueness_intertwiners(dilation, alt)
        np.testing.assert_allclose(report.U1, np.eye(dilation.gns.dim), atol=1e-9)
        np.testing.assert_allclose(report.U2, np.eye(dilation.dim_codomain), atol=1e-9)
        assert report.max_residual <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_recovers_seeded_conjugators(self, seed):
        phi, _ = cpmaps.random_module_cp(2, 2, 2, seed=seed + 40)
        dilation = st.dilate_module_cp(phi)
        rng = np.random.default_rng(seed)
        r1 = nk.haar_unitary(rng, dilation.gns.dim)
        r2 = nk.haar_unitary(rng, dilation.dim_codomain)
        alt = st.AltDilation(
            np.einsum("ab,ibc,dc->iad", r2, dilation.images, np.conj(r1)),
            r1 @ dilation.gns.V,
            r2 @ dilation.W,
        )
        report = st.uniqueness_intertwiners(dilation, alt)
        assert nk.maxabs(report.U1 - r1) <= 1e-9
        assert nk.maxabs(report.U2 - r2) <= 1e-9
        assert report.max_residual <= 1e-9

    def test_covariant_roundtrip_carries_group_data(self):
        sys = z2_diag_system()
        cov, _ = cpmaps.random_covariant_cp(sys, 2, seed=6)
        dilation = st.dilate_covariant(cov)
        base = dilation.base
        rng = np.random.default_rng(8)
        r1 = nk.haar_unitary(rng, base.gns.dim)
        r2 = nk.haar_unitary(rng, base.dim_codomain)
        alt = st.AltDilation(
            np.einsum("ab,ibc,dc->iad", r2, base.images, np.conj(r1)),
            r1 @ base.gns.V,
            r2 @ base.W,
            v=hilbmod.UnitaryRep(
                sys.group, base.gns.dim,
                np.stack([r1 @ m @ r1.conj().T for m in dilation.v.mats]),
            ),
            w=hilbmod.UnitaryRep(
                sys.group, base.dim_codomain,
                np.stack([r2 @ m @ r2.conj().T for m in dilation.w.mats]),
            ),
        )
        report = st.uniqueness_intertwiners(dilation, alt)
        assert report.covariant_v_residual <= 1e-9
        assert report.covariant_w_residual <= 1e-9

    def test_corrupted_w_is_surfaced(self):
        phi, _ = cpmaps.random_module_cp(2, 2, 2, seed=3)
        dilation = st.dilate_module_cp(phi)
        rng = np.random.default_rng(3)
        rogue = cpmaps.polar_coisometry(
            nk.complex_normal(rng, dilation.dim_codomain, phi.space_dims[1])
        )
        alt = st.AltDilation(dilation.images, dilation.gns.V, rogue)
        try:
            report = st.uniqueness_intertwiners(dilation, alt)
        except (NotUnitaryError, NotMinimalError):
            return
        assert max(report.w_map_residual, report.alt_reconstruction) > 1e-6

    def test_non_coisometry_rejected(self):
        phi, _ = cpmaps.random_module_cp(2, 2, 2, seed=3)
        dilation = st.dilate_module_cp(phi)
        alt = st.AltDilation(dilation.images, dilation.gns.V, 3.0 * dilation.W)
        with pytest.raises(NotCoisometryError):
            st.uniqueness_intertwiners(dilation, alt)

    def test_non_minimal_alt_rejected(self):
        phi, _ = cpmaps.random_module_cp(2, 2, 2, seed=2, k_dim=5)
        dilation = st.dilate_module_cp(phi)
        complement = np.linalg.svd(dilation.W)[2][-1:]
        padded_w = np.vstack([dilation.W, complement])
        padded_images = np.zeros(
            (phi.module.dim, dilation.dim_codomain + 1, dilation.gns.dim), dtype=complex
        )
        padded_images[:, : dilation.dim_codomain, :] = dilation.images
        alt = st.AltDilation(padded_images, dilation.gns.V, padded_w)
        with pytest.raises(NotMinimalError):
            st.uniqueness_intertwiners(dilation, alt)
