import numpy as np
import pytest

from covstine import cpmaps, cstar, hilbmod
from covstine import numkernel as nk
from covstine.errors import (
    DegenerateAverageError,
    InconsistentError,
    NotCoisometryError,
    NotFullError,
    NotIntertwiningError,
)


def z2_diag_system():
    group = hilbmod.cyclic_group(2)
    delta = hilbmod.UnitaryRep(
        group, 2, np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex)
    )
    return hilbmod.standard_action(group, hilbmod.trivial_rep(group, 1), delta)


def concrete_cp(p, n):
    rep = hilbmod.concrete_representation(p, n)
    return cpmaps.cp_from_representation(rep, nk.eye(n), nk.eye(p))


class TestInducedAlgebraCp:
    def test_scalar_identity(self):
        module = hilbmod.standard_module(1, 1)
        images = np.ones((1, 1, 1), dtype=complex)
        companion = cpmaps.induced_algebra_cp(images, module, 1)
        np.testing.assert_allclose(companion.images, np.ones((1, 1, 1)))

    def test_concrete_row_module(self):
        module = hilbmod.standard_module(1, 2)
        images = hilbmod.standard_basis_matrices(1, 2)
        companion = cpmaps.induced_algebra_cp(images, module, 2)
        for k in range(4):
            expected = cstar.coords_to_blocks(module.algebra, np.eye(4)[k])[0]
            np.testing.assert_allclose(companion.images[k], expected, atol=1e-12)

    def test_right_multiplication_by_t(self):
        # Phi(x) = x T forces phi(a) = T* a T
        rng = np.random.default_rng(13)
        t_mat = nk.complex_normal(rng, 2, 2)
        module = hilbmod.standard_module(1, 2)
        images = np.stack([b @ t_mat for b in hilbmod.standard_basis_matrices(1, 2)])
        companion = cpmaps.induced_algebra_cp(images, module, 2)
        for k in range(4):
            a = cstar.coords_to_blocks(module.algebra, np.eye(4)[k])[0]
            np.testing.assert_allclose(
                companion.images[k], t_mat.conj().T @ a @ t_mat, atol=1e-10
            )
        assert companion.choi_report.cp

    def test_inconsistent_images_rejected(self):
        # <f_0, f_0> = <f_1, f_1> = 1 in C^2 over C, so images of different
        # norms cannot come from any companion
        module = hilbmod.standard_module(2, 1)
        images = np.zeros((2, 1, 1), dtype=complex)
        images[0, 0, 0] = 1.0
        images[1, 0, 0] = 2.0
        with pytest.raises(InconsistentError):
            cpmaps.induced_algebra_cp(images, module, 1)

    def test_non_full_module_rejected(self):
        # <X, X> misses the off-diagonal units of M_2, so phi is not fixed on them
        module = hilbmod.standard_module(1, 2)
        projected = module.inner.copy()
        projected[:, :, [1, 2]] = 0
        broken = hilbmod.HilbertModule(module.algebra, module.dim, module.action, projected)
        images = hilbmod.standard_basis_matrices(1, 2)
        with pytest.raises(NotFullError, match="rank 2 of 4"):
            cpmaps.induced_algebra_cp(images, broken, 2)


class TestCheckModuleCp:
    def test_concrete(self):
        report = cpmaps.check_module_cp(concrete_cp(2, 2))
        assert report.identity_residual == 0
        assert report.cp

    def test_zero_map(self):
        module = hilbmod.standard_module(2, 1)
        companion = cpmaps.CPMapAlgebra(module.algebra, 2, np.zeros((1, 2, 2)))
        phi = cpmaps.ModuleCPMap(module, np.zeros((2, 3, 2)), companion)
        report = cpmaps.check_module_cp(phi)
        assert report.identity_residual == 0
        assert report.cp

    def test_transpose_companion_flagged(self):
        module = hilbmod.standard_module(1, 2)
        images = hilbmod.standard_basis_matrices(1, 2)
        transpose = np.stack(
            [cstar.coords_to_blocks(module.algebra, np.eye(4)[k])[0].T for k in range(4)]
        )
        phi = cpmaps.ModuleCPMap(
            module, images, cpmaps.CPMapAlgebra(module.algebra, 2, transpose)
        )
        report = cpmaps.check_module_cp(phi)
        assert not report.cp
        assert report.choi_min_eig == pytest.approx(-1.0)


class TestCpFromRepresentation:
    def test_identity_compression(self):
        rep = hilbmod.concrete_representation(2, 1)
        phi = cpmaps.cp_from_representation(rep, nk.eye(1), nk.eye(2))
        np.testing.assert_allclose(phi.images, rep.images)
        assert cpmaps.check_module_cp(phi).max_residual <= 1e-12

    def test_zero_v(self):
        rep = hilbmod.concrete_representation(2, 1)
        phi = cpmaps.cp_from_representation(rep, np.zeros((1, 1)), nk.eye(2))
        assert nk.maxabs(phi.images) == 0

    def test_seeded_amplified_compression(self):
        rng = np.random.default_rng(21)
        rep = cpmaps.amplified_concrete_representation(hilbmod.standard_module(2, 2), 2)
        v = nk.complex_normal(rng, 4, 3)
        w = cpmaps.polar_coisometry(nk.complex_normal(rng, 4, 5))
        phi = cpmaps.cp_from_representation(rep, v, w)
        report = cpmaps.check_module_cp(phi)
        assert report.identity_residual <= 1e-10
        assert report.cp

    def test_rejects_non_coisometry(self):
        rep = hilbmod.concrete_representation(2, 1)
        with pytest.raises(NotCoisometryError):
            cpmaps.cp_from_representation(rep, nk.eye(1), 2 * nk.eye(2))


class TestCovariance:
    def test_trivial_group(self):
        group = hilbmod.trivial_group()
        sys = hilbmod.standard_action(
            group, hilbmod.trivial_rep(group, 2), hilbmod.trivial_rep(group, 2)
        )
        phi = concrete_cp(2, 2)
        report = cpmaps.check_covariance(
            phi, sys, hilbmod.trivial_rep(group, 2), hilbmod.trivial_rep(group, 2)
        )
        assert report.max_residual == 0

    def test_standard_compression_is_covariant(self):
        sys = z2_diag_system()
        rep = hilbmod.concrete_representation(1, 2)
        cov = cpmaps.covariant_cp_from_representation(
            rep, sys.delta, sys.gamma, nk.eye(2), nk.eye(1), sys.delta, sys.gamma, sys
        )
        report = cpmaps.check_covariance(cov.base, sys, cov.u, cov.u_prime)
        assert report.max_residual <= 1e-12

    def test_mismatched_target_rep_reported(self):
        sys = z2_diag_system()
        phi = concrete_cp(1, 2)
        report = cpmaps.check_covariance(
            phi, sys, hilbmod.trivial_rep(sys.group, 2), hilbmod.trivial_rep(sys.group, 1)
        )
        assert report.map_residual > 0.1

    def test_non_intertwining_rejected(self):
        sys = z2_diag_system()
        rep = hilbmod.concrete_representation(1, 2)
        with pytest.raises(NotIntertwiningError, match="t=1"):
            cpmaps.covariant_cp_from_representation(
                rep,
                sys.delta,
                sys.gamma,
                nk.eye(2),
                nk.eye(1),
                hilbmod.trivial_rep(sys.group, 2),
                sys.gamma,
                sys,
            )


class TestAveraging:
    @pytest.mark.parametrize("seed", range(4))
    def test_average_is_exact_intertwiner(self, seed):
        group = hilbmod.symmetric_group(3)
        rng = np.random.default_rng(seed)
        left = hilbmod.seeded_rep(group, 6, rng)
        right = hilbmod.seeded_rep(group, 4, rng)
        avg = cpmaps.average_intertwiner(left, right, nk.complex_normal(rng, 6, 4))
        for t in range(group.order):
            assert nk.maxabs(left.mats[t] @ avg - avg @ right.mats[t]) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_polar_coisometry_keeps_intertwining(self, seed):
        group = hilbmod.cyclic_group(4)
        rng = np.random.default_rng(seed)
        left = hilbmod.seeded_rep(group, 3, rng)
        right = hilbmod.direct_sum_rep(left, hilbmod.seeded_rep(group, 2, rng))
        avg = cpmaps.average_intertwiner(left, right, nk.complex_normal(rng, 3, 5))
        w = cpmaps.polar_coisometry(avg)
        assert nk.maxabs(w @ w.conj().T - np.eye(3)) <= 1e-9
        for t in range(group.order):
            assert nk.maxabs(left.mats[t] @ w - w @ right.mats[t]) <= 1e-9

    def test_degenerate_average_rejected(self):
        with pytest.raises(DegenerateAverageError):
            cpmaps.polar_coisometry(np.zeros((2, 3)))


class TestRandomCovariantCp:
    def test_single_amplification(self):
        sys = z2_diag_system()
        cov, witness = cpmaps.random_covariant_cp(sys, 1, seed=0)
        assert cpmaps.check_covariance(cov.base, sys, cov.u, cov.u_prime).max_residual <= 1e-10
        assert cpmaps.check_module_cp(cov.base).max_residual <= 1e-10

    def test_z2_seed_seven(self):
        group = hilbmod.cyclic_group(2)
        rng = np.random.default_rng(7)
        sys = hilbmod.standard_action(
            group, hilbmod.seeded_rep(group, 2, rng), hilbmod.seeded_rep(group, 2, rng)
        )
        cov, witness = cpmaps.random_covariant_cp(sys, 2, seed=7)
        assert cpmaps.check_covariance(cov.base, sys, cov.u, cov.u_prime).max_residual <= 1e-9
        assert cpmaps.check_module_cp(cov.base).max_residual <= 1e-9

    def test_s3_regular_amplification(self):
        group = hilbmod.symmetric_group(3)
        sys = hilbmod.standard_action(
            group, hilbmod.trivial_rep(group, 1), hilbmod.permutation_rep(3)
        )
        cov, witness = cpmaps.random_covariant_cp(sys, 6, seed=11)
        assert cpmaps.check_covariance(cov.base, sys, cov.u, cov.u_prime).max_residual <= 1e-9
        assert cpmaps.check_module_cp(cov.base).max_residual <= 1e-9

    def test_witness_intertwines(self):
        sys = z2_diag_system()
        cov, witness = cpmaps.random_covariant_cp(sys, 3, seed=5)
        for t in range(sys.group.order):
            assert (
                nk.maxabs(witness.v.mats[t] @ witness.V - witness.V @ cov.u.mats[t]) <= 1e-12
            )
            assert (
                nk.maxabs(witness.w.mats[t] @ witness.W - witness.W @ cov.u_prime.mats[t])
                <= 1e-9
            )

    def test_reproducible(self):
        sys = z2_diag_system()
        first, _ = cpmaps.random_covariant_cp(sys, 2, seed=3)
        second, _ = cpmaps.random_covariant_cp(sys, 2, seed=3)
        np.testing.assert_array_equal(first.base.images, second.base.images)

    def test_plain_generator(self):
        phi, witness = cpmaps.random_module_cp(2, 2, 2, seed=9, h_dim=3, k_dim=5)
        assert phi.space_dims == (3, 5)
        report = cpmaps.check_module_cp(phi)
        assert report.identity_residual <= 1e-10
        assert report.cp

    @pytest.mark.parametrize("eps", [1e-6, 1e-4])
    def test_companion_residual_tracks_map_residual(self, eps):
        # perturbing u by eps moves both covariance residuals by O(eps); the
        # companion residual stays within the reported conditioning constant
        sys = z2_diag_system()
        cov, _ = cpmaps.random_covariant_cp(sys, 2, seed=12)
        rot = np.eye(2, dtype=complex)
        rot[0, 0] = np.exp(1j * eps)
        bent = hilbmod.UnitaryRep(
            sys.group, 2, np.stack([cov.u.mats[0], rot @ cov.u.mats[1]])
        )
        report = cpmaps.check_covariance(cov.base, sys, bent, cov.u_prime)
        assert report.fullness_condition >= 1.0
        assert np.isfinite(report.fullness_condition)
        bound = 50 * report.fullness_condition * (report.map_residual + 1e-14)
        assert report.companion_residual <= bound
