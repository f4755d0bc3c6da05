import numpy as np
import pytest

from covstine import cpmaps, crossed, cstar, hilbmod, stinespring as st
from covstine import numkernel as nk
from covstine.errors import NotActionError, NotCovariantRepError
from dense_reference import reference_inner, reference_structure


def z2_diag_system():
    group = hilbmod.cyclic_group(2)
    delta = hilbmod.UnitaryRep(
        group, 2, np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex)
    )
    return hilbmod.standard_action(group, hilbmod.trivial_rep(group, 1), delta)


def trivial_scalar_system(order=2):
    group = hilbmod.cyclic_group(order)
    return hilbmod.standard_action(
        group, hilbmod.trivial_rep(group, 1), hilbmod.trivial_rep(group, 1)
    )


class TestCrossedAlgebra:
    def test_order_one_is_the_base_algebra(self):
        group = hilbmod.trivial_group()
        base = cstar.CStarAlgebra((2,))
        calg = crossed.build_crossed_algebra(group, np.eye(4)[None].astype(complex), base)
        struct = reference_structure(calg)
        np.testing.assert_allclose(struct, cstar.mult_tensor(base), atol=1e-12)
        unit = calg.unit().reshape(-1)
        np.testing.assert_allclose(unit, cstar.unit_coords(base))

    def test_z2_group_algebra_idempotents(self):
        # (1 +- d_1)/2 are the central idempotents of the group algebra of Z_2
        group = hilbmod.cyclic_group(2)
        base = cstar.CStarAlgebra((1,))
        calg = crossed.build_crossed_algebra(group, np.ones((2, 1, 1), dtype=complex), base)
        for sign in (1.0, -1.0):
            idem = np.array([[0.5], [0.5 * sign]], dtype=complex)
            np.testing.assert_allclose(calg.multiply(idem, idem), idem, atol=1e-14)
        report = crossed.check_crossed_algebra(calg)
        assert report.max_residual <= 1e-12

    def test_z2_on_m2_exhaustive_axioms(self):
        group = hilbmod.cyclic_group(2)
        base = cstar.CStarAlgebra((2,))
        flip = np.diag([1.0, -1.0]).astype(complex)
        alpha = np.stack([np.eye(4, dtype=complex), np.kron(flip, flip.conj())])
        calg = crossed.build_crossed_algebra(group, alpha, base)
        report = crossed.check_crossed_algebra(calg)
        assert report.max_residual <= 1e-12

    def test_s3_permutation_action_axioms(self):
        sys = hilbmod.standard_action(
            hilbmod.symmetric_group(3),
            hilbmod.permutation_rep(3),
            hilbmod.permutation_rep(3),
        )
        calg = crossed.build_crossed_algebra(sys.group, sys.alpha, sys.module.algebra)
        report = crossed.check_crossed_algebra(calg)
        assert report.max_residual <= 1e-12

    def test_rejects_non_action(self):
        group = hilbmod.cyclic_group(2)
        base = cstar.CStarAlgebra((1,))
        with pytest.raises(NotActionError):
            crossed.build_crossed_algebra(group, np.stack([np.eye(1), 2 * np.eye(1)]), base)

    def test_star_of_basis_element(self):
        # (delta_t a)* = delta_{t^-1} alpha_{t^-1}(a*)
        sys = z2_diag_system()
        calg = crossed.build_crossed_algebra(sys.group, sys.alpha, sys.module.algebra)
        f = calg.basis_element(1, 1)  # delta_1 (x) E_01
        starred = calg.star(f)
        expected = np.zeros((2, 4), dtype=complex)
        expected[1] = sys.alpha[1] @ cstar.star_coords(sys.module.algebra, np.eye(4)[1])
        np.testing.assert_allclose(starred, expected, atol=1e-14)


class TestCrossedModule:
    def test_order_one_is_the_base_module(self):
        group = hilbmod.trivial_group()
        sys = hilbmod.standard_action(
            group, hilbmod.trivial_rep(group, 2), hilbmod.trivial_rep(group, 2)
        )
        cm = crossed.build_crossed_module(sys)
        inner = reference_inner(cm)
        np.testing.assert_allclose(
            inner.reshape(4, 4, 4), sys.module.inner, atol=1e-12
        )

    def test_scalar_correlation_formula(self):
        # trivial action on C over C: <xhat, yhat>(s) = sum_t conj(xhat(t)) yhat(t s)
        sys = trivial_scalar_system(2)
        cm = crossed.build_crossed_module(sys)
        rng = np.random.default_rng(5)
        xhat = nk.complex_normal(rng, 2, 1)
        yhat = nk.complex_normal(rng, 2, 1)
        got = cm.inner(xhat, yhat)
        for s in range(2):
            expected = sum(
                np.conj(xhat[t, 0]) * yhat[sys.group.mult[t, s], 0] for t in range(2)
            )
            np.testing.assert_allclose(got[s, 0], expected, atol=1e-14)

    def test_z2_diag_axioms(self):
        cm = crossed.build_crossed_module(z2_diag_system())
        report = crossed.check_crossed_module(cm)
        assert report.max_residual <= 1e-10
        assert report.full

    def test_basis_inner_closed_form(self):
        # <delta_t x_i, delta_r x_j> = delta_{t^-1 r} alpha_{t^-1}(<x_i, x_j>)
        sys = z2_diag_system()
        cm = crossed.build_crossed_module(sys)
        group, module = sys.group, sys.module
        for t in range(2):
            for r in range(2):
                for i in range(2):
                    for j in range(2):
                        got = cm.inner(cm.basis_element(t, i), cm.basis_element(r, j))
                        slot = group.mult[group.inv[t], r]
                        expected = np.zeros((2, 4), dtype=complex)
                        expected[slot] = sys.alpha[group.inv[t]] @ module.inner[i, j]
                        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_positivity_under_integral_form(self):
        # <zhat, zhat> maps to a PSD operator under the faithful integral form
        sys = z2_diag_system()
        cm = crossed.build_crossed_module(sys)
        rep = hilbmod.concrete_representation(1, 2)
        form, _ = crossed.integral_form(sys, rep, sys.delta, sys.gamma)
        rng = np.random.default_rng(3)
        for _ in range(8):
            zhat = nk.complex_normal(rng, 2, 2)
            image = form.apply_companion(cm.inner(zhat, zhat))
            assert nk.psd_check(image).ok


class TestIntegralForm:
    def test_order_one_is_the_representation_itself(self):
        group = hilbmod.trivial_group()
        sys = hilbmod.standard_action(
            group, hilbmod.trivial_rep(group, 1), hilbmod.trivial_rep(group, 2)
        )
        rep = hilbmod.concrete_representation(1, 2)
        form, report = crossed.integral_form(
            sys, rep, hilbmod.trivial_rep(group, 2), hilbmod.trivial_rep(group, 1)
        )
        np.testing.assert_allclose(form.images, rep.images, atol=1e-14)
        assert report.identity_residual <= 1e-12
        assert report.nondegenerate

    def test_z2_concrete_identity_and_nondegeneracy(self):
        sys = z2_diag_system()
        rep = hilbmod.concrete_representation(1, 2)
        form, report = crossed.integral_form(sys, rep, sys.delta, sys.gamma)
        assert report.identity_residual <= 1e-10
        assert report.nondegenerate
        # two-term sums match a direct computation
        xhat = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        direct = sum(
            rep.apply(xhat[t]) @ sys.delta.mats[t] for t in range(2)
        )
        np.testing.assert_allclose(form.apply(xhat), direct, atol=1e-12)

    def test_degenerate_input_skips_conclusion(self):
        sys = z2_diag_system()
        module = sys.module
        companion = cstar.AlgebraRepresentation(module.algebra, 2, np.zeros((4, 2, 2)))
        zero_rep = hilbmod.ModuleRepresentation(module, companion, np.zeros((2, 1, 2)))
        form, report = crossed.integral_form(
            sys, zero_rep, hilbmod.trivial_rep(sys.group, 2), hilbmod.trivial_rep(sys.group, 1)
        )
        assert nk.maxabs(form.images) == 0
        assert report.range_rank == 0 and report.corange_rank == 0
        assert report.nondegenerate is None
        assert "degenerate" in report.skip_reason

    def test_companion_is_the_algebra_integral_form(self):
        # the companion of (pi_X x v) equals (pi_A x v) built independently
        sys = z2_diag_system()
        rep = hilbmod.concrete_representation(1, 2)
        form, _ = crossed.integral_form(sys, rep, sys.delta, sys.gamma)
        group, algebra = sys.group, sys.module.algebra
        for t in range(group.order):
            for k in range(algebra.dim):
                expected = rep.companion.images[k] @ sys.delta.mats[t]
                np.testing.assert_allclose(
                    form.companion_images[t * algebra.dim + k], expected, atol=1e-12
                )

    def test_rejects_non_covariant_representation(self):
        sys = z2_diag_system()
        rep = hilbmod.concrete_representation(1, 2)
        with pytest.raises(NotCovariantRepError):
            crossed.integral_form(
                sys, rep, hilbmod.trivial_rep(sys.group, 2), hilbmod.trivial_rep(sys.group, 1)
            )


class TestInducedCp:
    def test_order_one_reduces_to_the_map(self):
        group = hilbmod.trivial_group()
        sys = hilbmod.standard_action(
            group, hilbmod.trivial_rep(group, 1), hilbmod.trivial_rep(group, 2)
        )
        rep = hilbmod.concrete_representation(1, 2)
        phi = cpmaps.cp_from_representation(rep, nk.eye(2), nk.eye(1))
        cov = cpmaps.CovariantCPMap(
            phi, sys, hilbmod.trivial_rep(group, 2), hilbmod.trivial_rep(group, 1)
        )
        induced = crossed.induced_cp(cov)
        np.testing.assert_allclose(induced.images, phi.images, atol=1e-14)
        np.testing.assert_allclose(induced.companion_images, phi.companion.images, atol=1e-14)

    def test_sign_representation_hand_example(self):
        # scalar module, Phi = id, u = u' = sign of Z_2: the induced map is
        # xhat -> xhat(e) - xhat(1)
        sys = trivial_scalar_system(2)
        sign = hilbmod.cyclic_character_rep(sys.group, 1)
        rep = hilbmod.concrete_representation(1, 1)
        phi = cpmaps.cp_from_representation(rep, nk.eye(1), nk.eye(1))
        cov = cpmaps.CovariantCPMap(phi, sys, sign, sign)
        induced = crossed.induced_cp(cov)
        xhat = np.array([[2.0], [3.0]], dtype=complex)
        np.testing.assert_allclose(induced.apply(xhat), [[-1.0]], atol=1e-12)
        assert induced.max_residual <= 1e-12

    @pytest.mark.parametrize("seed", [3, 4])
    def test_seeded_z2_certificate(self, seed):
        sys = z2_diag_system()
        cov, _ = cpmaps.random_covariant_cp(sys, 2, seed=seed)
        induced = crossed.induced_cp(cov)
        assert induced.identity_residual <= 1e-9
        assert induced.factorization_residual <= 1e-9

    def test_companion_recovered_through_crossed_fullness(self):
        # solve the companion from the crossed identity and compare
        sys = z2_diag_system()
        cov, _ = cpmaps.random_covariant_cp(sys, 2, seed=3)
        induced = crossed.induced_cp(cov)
        cm = induced.crossed
        report = crossed.check_crossed_module(cm)
        assert report.full
        inner = reference_inner(cm)
        d_x, d_a = cm.dim, cm.algebra.dim
        dim_h = cov.base.space_dims[0]
        flat = inner.reshape(d_x * d_x, d_a)
        grams = np.einsum("aij,bik->abjk", np.conj(induced.images), induced.images)
        solved = nk.least_squares_solve(flat, grams.reshape(d_x * d_x, dim_h * dim_h))
        assert nk.maxabs(flat @ solved - grams.reshape(d_x * d_x, -1)) <= 1e-9
        np.testing.assert_allclose(
            solved.reshape(d_a, dim_h, dim_h), induced.companion_images, atol=1e-9
        )


class TestIntegralStinespring:
    def test_order_one_reduces_to_minimality(self):
        group = hilbmod.trivial_group()
        sys = hilbmod.standard_action(
            group, hilbmod.trivial_rep(group, 1), hilbmod.trivial_rep(group, 2)
        )
        rep = hilbmod.concrete_representation(1, 2)
        phi = cpmaps.cp_from_representation(rep, nk.eye(2), nk.eye(1))
        cov = cpmaps.CovariantCPMap(
            phi, sys, hilbmod.trivial_rep(group, 2), hilbmod.trivial_rep(group, 1)
        )
        dilation = st.dilate_covariant(cov)
        induced = crossed.induced_cp(cov, dilation)
        assert induced.minimal
        assert induced.factorization_residual <= 1e-10

    def test_z2_concrete_ranks_match(self):
        sys = z2_diag_system()
        phi = cpmaps.cp_from_representation(
            hilbmod.concrete_representation(1, 2), nk.eye(2), nk.eye(1)
        )
        cov = cpmaps.CovariantCPMap(phi, sys, sys.delta, sys.gamma)
        dilation = st.dilate_covariant(cov)
        induced = crossed.induced_cp(cov, dilation)
        assert induced.range_density.rank == dilation.base.dim_codomain
        assert induced.corange_density.rank == dilation.base.gns.dim
        assert induced.factorization_residual <= 1e-10

    def test_seeded_s3_scenario(self):
        group = hilbmod.symmetric_group(3)
        sys = hilbmod.standard_action(
            group, hilbmod.trivial_rep(group, 1), hilbmod.permutation_rep(3)
        )
        cov, _ = cpmaps.random_covariant_cp(sys, 2, seed=11)
        dilation = st.dilate_covariant(cov)
        induced = crossed.induced_cp(cov, dilation)
        assert induced.minimal
        assert induced.factorization_residual <= 1e-8
