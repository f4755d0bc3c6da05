import numpy as np
import pytest

import builders
import dense_reference as ref
import test_oracle as oracle
from builders import z2_diag_system
from covstine import cpmaps, crossed, cstar, hilbmod, stinespring as st
from covstine import numkernel as nk
from covstine.errors import NotActionError, NotCovariantError
from dense_reference import crossed_algebra_check, reference_inner, reference_structure


def action_residual(group, alpha, base):
    """Worst law, multiplicativity and star residual of alpha as a *-automorphism action."""
    return max(hilbmod.algebra_action_residuals(base, hilbmod.UnitaryRep(group, base.dim, alpha)))


def trivial_scalar_system(order=2):
    group = hilbmod.cyclic_group(order)
    return hilbmod.standard_action(
        group, hilbmod.trivial_rep(group, 1), hilbmod.trivial_rep(group, 1)
    )


class TestCrossedAlgebra:
    def test_order_one_is_the_base_algebra(self):
        group = hilbmod.trivial_group()
        base = cstar.CStarAlgebra((2,))
        calg = crossed.CrossedAlgebra(group, base, np.eye(4)[None].astype(complex))
        assert action_residual(group, calg.alpha, base) == 0.0
        struct = reference_structure(calg)
        np.testing.assert_allclose(struct, cstar.mult_tensor(base), atol=1e-12)
        unit = builders.crossed_unit(calg).reshape(-1)
        np.testing.assert_allclose(unit, cstar.unit_coords(base))

    def test_z2_group_algebra_idempotents(self):
        # (1 +- d_1)/2 are the central idempotents of the group algebra of Z_2
        group = hilbmod.cyclic_group(2)
        base = cstar.CStarAlgebra((1,))
        calg = crossed.CrossedAlgebra(group, base, np.ones((2, 1, 1), dtype=complex))
        assert action_residual(group, calg.alpha, base) == 0.0
        for sign in (1.0, -1.0):
            idem = np.array([[0.5], [0.5 * sign]], dtype=complex)
            np.testing.assert_allclose(calg.multiply(idem, idem), idem, atol=1e-14)
        assert max(crossed_algebra_check(calg)) <= 1e-12

    def test_z2_on_m2_exhaustive_axioms(self):
        group = hilbmod.cyclic_group(2)
        base = cstar.CStarAlgebra((2,))
        flip = np.diag([1.0, -1.0]).astype(complex)
        alpha = np.stack([np.eye(4, dtype=complex), np.kron(flip, flip.conj())])
        assert action_residual(group, alpha, base) <= 1e-12
        calg = crossed.CrossedAlgebra(group, base, alpha)
        assert max(crossed_algebra_check(calg)) <= 1e-12

    def test_s3_permutation_action_axioms(self):
        sys = hilbmod.standard_action(
            hilbmod.symmetric_group(3),
            builders.permutation_rep(3),
            builders.permutation_rep(3),
        )
        assert action_residual(sys.group, sys.alpha, sys.module.algebra) <= 1e-12
        calg = crossed.CrossedAlgebra(sys.group, sys.module.algebra, sys.alpha)
        assert max(crossed_algebra_check(calg)) <= 1e-12

    def test_rejects_non_action(self):
        """alpha_1 = 2 is neither multiplicative nor a group law, and ``build_crossed_module``
        refuses a system with it."""
        group = hilbmod.cyclic_group(2)
        base = cstar.CStarAlgebra((1,))
        alpha = np.stack([np.eye(1), 2 * np.eye(1)])
        assert action_residual(group, alpha, base) > nk.RESIDUAL_TOL
        sys = trivial_scalar_system(2)
        with pytest.raises(NotActionError):
            crossed.build_crossed_module(
                hilbmod.ModuleDynamicalSystem(sys.group, sys.module, sys.eta, alpha)
            )

    def test_star_of_basis_element(self):
        # (delta_t a)* = delta_{t^-1} alpha_{t^-1}(a*)
        sys = z2_diag_system()
        calg = crossed.CrossedAlgebra(sys.group, sys.module.algebra, sys.alpha)
        f = builders.basis_element(calg, 1, 1)  # delta_1 (x) E_01
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
        rows = crossed.axiom_rows(cm)
        assert max(rows.algebra_residual, rows.module_residual) <= 1e-12
        assert rows.fullness == (cm.algebra.dim, cm.algebra.dim)

    def test_basis_inner_closed_form(self):
        # <delta_t x_i, delta_r x_j> = delta_{t^-1 r} alpha_{t^-1}(<x_i, x_j>)
        sys = z2_diag_system()
        cm = crossed.build_crossed_module(sys)
        group, module = sys.group, sys.module
        for t in range(2):
            for r in range(2):
                for i in range(2):
                    for j in range(2):
                        xhat = builders.basis_element(cm, t, i)
                        got = cm.inner(xhat, builders.basis_element(cm, r, j))
                        slot = group.mult[group.inv[t], r]
                        expected = np.zeros((2, 4), dtype=complex)
                        expected[slot] = sys.alpha[group.inv[t]] @ module.inner[i, j]
                        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_positivity_under_integral_form(self):
        # <zhat, zhat> maps to a PSD operator under the faithful integral form
        sys = z2_diag_system()
        cm = crossed.build_crossed_module(sys)
        form = integral_form(sys, cpmaps.concrete_representation(1, 2), sys.delta, sys.gamma)
        rng = np.random.default_rng(3)
        for _ in range(8):
            zhat = nk.complex_normal(rng, 2, 2)
            image = builders.apply(builders.companion_images(form), cm.inner(zhat, zhat))
            assert nk.psd_check(image).ok


def integral_form(sys, rep, v, w):
    """The integral form of a covariant representation: the map ``induced_cp`` induces
    from it, a representation being a CP map."""
    return crossed.induced_cp(st.dilate_covariant(cpmaps.CovariantCPMap(rep, sys, v, w)))


def nondegenerate(form) -> bool:
    """A representation's integral form is nondegenerate when the dilation of the map it
    is keeps both spaces and is minimal: with V and W unitary, its ranges are dense."""
    dims = (form.dilation.base.gns.dim, form.dilation.base.dim_codomain)
    return form.minimal and dims == form.dilation.base.cp_map.space_dims


class TestIntegralForm:
    def test_order_one_is_the_representation_itself(self):
        """The trivial group: the induced map and its companion are the map's, and the
        integral form is minimal and factors through the dilation."""
        group = hilbmod.trivial_group()
        sys = hilbmod.standard_action(group, hilbmod.trivial_rep(group, 1), hilbmod.trivial_rep(group, 2))
        rep = cpmaps.concrete_representation(1, 2)
        form = integral_form(sys, rep, hilbmod.trivial_rep(group, 2), hilbmod.trivial_rep(group, 1))
        np.testing.assert_allclose(form.images, rep.images, atol=1e-14)
        np.testing.assert_allclose(builders.companion_images(form), rep.companion.images, atol=1e-14)
        assert form.identity_residual <= 1e-12 and form.factorization_residual <= 1e-10
        assert nondegenerate(form)

    def test_z2_concrete_identity_and_nondegeneracy(self):
        sys = z2_diag_system()
        rep = cpmaps.concrete_representation(1, 2)
        form = integral_form(sys, rep, sys.delta, sys.gamma)
        assert form.identity_residual <= 1e-10
        assert nondegenerate(form)
        # two-term sums match a direct computation
        xhat = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        direct = sum(builders.apply(rep.images, xhat[t]) @ sys.delta.mats[t] for t in range(2))
        np.testing.assert_allclose(builders.apply(form.images, xhat), direct, atol=1e-12)

    def test_degenerate_input_stays_degenerate(self):
        sys = z2_diag_system()
        module = sys.module
        companion = cstar.CPMapAlgebra(module.algebra, 2, np.zeros((4, 2, 2)))
        zero_rep = cpmaps.ModuleCPMap(module, np.zeros((2, 1, 2)), companion)
        form = integral_form(
            sys, zero_rep, hilbmod.trivial_rep(sys.group, 2), hilbmod.trivial_rep(sys.group, 1)
        )
        assert nk.maxabs(form.images) == 0
        assert form.range_density.rank == 0 and form.corange_density.rank == 0
        assert not nondegenerate(form)

    def test_companion_is_the_algebra_integral_form(self):
        # the companion of (pi_X x v) equals (pi_A x v) built independently
        sys = z2_diag_system()
        rep = cpmaps.concrete_representation(1, 2)
        form = integral_form(sys, rep, sys.delta, sys.gamma)
        group, algebra = sys.group, sys.module.algebra
        for t in range(group.order):
            for k in range(algebra.dim):
                expected = rep.companion.images[k] @ sys.delta.mats[t]
                np.testing.assert_allclose(
                    builders.companion_images(form)[t * algebra.dim + k], expected, atol=1e-12
                )

    def test_rejects_non_covariant_representation(self):
        sys = z2_diag_system()
        rep = cpmaps.concrete_representation(1, 2)
        with pytest.raises(NotCovariantError):
            integral_form(
                sys, rep, hilbmod.trivial_rep(sys.group, 2), hilbmod.trivial_rep(sys.group, 1)
            )


class TestInducedCp:
    def test_sign_representation_hand_example(self):
        # scalar module, Phi = id, u = u' = sign of Z_2: the induced map is
        # xhat -> xhat(e) - xhat(1)
        sys = trivial_scalar_system(2)
        sign = builders.cyclic_character_rep(sys.group, 1)
        rep = cpmaps.concrete_representation(1, 1)
        phi = cpmaps.cp_from_representation(rep, nk.eye(1), nk.eye(1))
        cov = cpmaps.CovariantCPMap(phi, sys, sign, sign)
        induced = crossed.induced_cp(st.dilate_covariant(cov))
        xhat = np.array([[2.0], [3.0]], dtype=complex)
        np.testing.assert_allclose(builders.apply(induced.images, xhat), [[-1.0]], atol=1e-12)
        assert induced.max_residual <= 1e-12

    @pytest.mark.parametrize("seed", [3, 4])
    def test_seeded_z2_certificate(self, seed):
        sys = z2_diag_system()
        cov, _ = cpmaps.random_covariant_cp(sys, 2, seed=seed)
        induced = crossed.induced_cp(st.dilate_covariant(cov))
        assert induced.identity_residual <= 1e-9
        assert induced.factorization_residual <= 1e-9

    def test_companion_recovered_through_crossed_fullness(self):
        # solve the companion from the crossed identity and compare
        sys = z2_diag_system()
        cov, _ = cpmaps.random_covariant_cp(sys, 2, seed=3)
        induced = crossed.induced_cp(st.dilate_covariant(cov))
        cm = induced.crossed
        assert crossed.axiom_rows(cm).fullness == (cm.algebra.dim, cm.algebra.dim)
        inner = reference_inner(cm)
        d_x, d_a = cm.dim, cm.algebra.dim
        dim_h = cov.base.space_dims[0]
        flat = inner.reshape(d_x * d_x, d_a)
        grams = np.einsum("aij,bik->abjk", np.conj(induced.images), induced.images)
        solved = nk.least_squares_solve(flat, grams.reshape(d_x * d_x, dim_h * dim_h))
        assert nk.maxabs(flat @ solved - grams.reshape(d_x * d_x, -1)) <= 1e-9
        np.testing.assert_allclose(
            solved.reshape(d_a, dim_h, dim_h), builders.companion_images(induced), atol=1e-9
        )


class TestIntegralStinespring:
    def test_z2_concrete_ranks_match(self):
        sys = z2_diag_system()
        phi = cpmaps.cp_from_representation(
            cpmaps.concrete_representation(1, 2), nk.eye(2), nk.eye(1)
        )
        cov = cpmaps.CovariantCPMap(phi, sys, sys.delta, sys.gamma)
        dilation = st.dilate_covariant(cov)
        induced = crossed.induced_cp(dilation)
        assert induced.range_density.rank == dilation.base.dim_codomain
        assert induced.corange_density.rank == dilation.base.gns.dim
        assert induced.factorization_residual <= 1e-10

    def test_seeded_s3_scenario(self):
        group = hilbmod.symmetric_group(3)
        sys = hilbmod.standard_action(
            group, hilbmod.trivial_rep(group, 1), builders.permutation_rep(3)
        )
        cov, _ = cpmaps.random_covariant_cp(sys, 2, seed=11)
        dilation = st.dilate_covariant(cov)
        induced = crossed.induced_cp(dilation)
        assert induced.minimal
        assert induced.factorization_residual <= 1e-8


@pytest.mark.parametrize(
    "name, where", [(oracle.TWISTED_Z3, where) for where in (None, "alpha", "inner", "action")] + [("2,3,1 symmetric:3", None)]
)
def test_the_slot_formulas_are_the_generic_operations(name, where):
    """The oracle's crossed rows, each axiom alone, and its crossed inner tensor against the
    exhaustive checks through ``CrossedAlgebra.multiply`` and ``.star`` and ``CrossedModule.act``
    and ``.inner``: clean, with alpha, an inner nonzero or an action nonzero off by 1e-3, and on
    the one generated input whose alpha_tr and alpha_rt differ.  So a slip in the slot
    derivation shows here, not only where the run's exact fallback shares it."""
    res = oracle._resolved(name, "crossed")
    system = (res if where is None else oracle.plant(res, where, 1e-3)).cov.system
    cm = crossed.CrossedModule(system, crossed.CrossedAlgebra(system.group, system.module.algebra, system.alpha))
    slots = (*ref.crossed_algebra_axioms(system.group, system.module.algebra, system.alpha), *ref.crossed_module_axioms(system))
    generic = (*crossed_algebra_check(cm.algebra), *ref.crossed_module_check(cm))
    np.testing.assert_allclose(slots, generic, rtol=oracle.SLACK, atol=1e-13)
    np.testing.assert_allclose(ref.crossed_inner(system), reference_inner(cm), rtol=0, atol=1e-14)
    assert (max(generic) > 1e-4) == (where is not None)
