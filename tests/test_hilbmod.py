import tracemalloc

import numpy as np
import pytest

import builders
from covstine import cli, cpmaps, cstar, hilbmod
from covstine import numkernel as nk
from covstine.errors import GroupMismatchError, InconsistentError, NotFullError


def z2_diag_system():
    """Z_2 acting on the standard 1 x 2 module through delta = diag(1, -1)."""
    group = hilbmod.cyclic_group(2)
    delta = hilbmod.UnitaryRep(
        group, 2, np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex)
    )
    return hilbmod.standard_action(group, hilbmod.trivial_rep(group, 1), delta)


class TestStandardModule:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_axioms(self, p, n):
        report = hilbmod.check_module_axioms(hilbmod.standard_module(p, n))
        assert report.max_residual <= 1e-12
        assert report.positive and report.definite and report.full

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fullness(self, p, n):
        report = hilbmod.check_module_axioms(hilbmod.standard_module(p, n))
        assert report.fullness_rank == report.fullness_required == n * n

    def test_scalar_module(self):
        module = hilbmod.standard_module(1, 1)
        inner = builders.inner_coords(module, np.array([2j]), np.array([3.0]))
        np.testing.assert_allclose(inner, [-6j])

    def test_row_module_inner_products_span_matrix_units(self):
        # <e_i, e_j> = E_ij makes the 1 x 2 module full over M_2
        module = hilbmod.standard_module(1, 2)
        for i in range(2):
            for j in range(2):
                expected = np.zeros(4)
                expected[i * 2 + j] = 1.0
                np.testing.assert_allclose(module.inner[i, j], expected)

    def test_negated_inner_fails_positivity(self):
        module = hilbmod.standard_module(2, 1)
        broken = hilbmod.HilbertModule.from_tensors(module.algebra, module.dim, module.action, -module.inner)
        report = hilbmod.check_module_axioms(broken)
        assert not report.positive

    def test_diagonal_restriction_loses_fullness(self):
        # keeping only the diagonal of x* y spans 2 of the 4 dimensions of M_2
        module = hilbmod.standard_module(1, 2)
        projected = module.inner.copy()
        projected[:, :, 1] = 0
        projected[:, :, 2] = 0
        broken = hilbmod.HilbertModule.from_tensors(module.algebra, module.dim, module.action, projected)
        report = hilbmod.check_module_axioms(broken)
        assert report.fullness_rank == 2
        assert report.fullness_required == 4


class TestModuleRepresentations:
    def test_concrete_is_nondegenerate(self):
        rep = cpmaps.concrete_representation(2, 3)
        report = cpmaps.check_module_representation(rep)
        assert report.identity_residual == 0
        assert report.nondegenerate

    def test_zero_representation_is_degenerate(self):
        module = hilbmod.standard_module(1, 2)
        companion = cstar.CPMapAlgebra(module.algebra, 2, np.zeros((4, 2, 2)))
        rep = cpmaps.ModuleCPMap(module, np.zeros((2, 1, 2)), companion)
        report = cpmaps.check_module_representation(rep)
        assert report.identity_residual == 0
        assert report.range_rank == 0 and report.corange_rank == 0
        assert not report.nondegenerate

    def test_padded_codomain_is_degenerate(self):
        # x acting as x (+) 0 into K (+) C misses the extra codomain direction
        base = cpmaps.concrete_representation(1, 2)
        padded = np.zeros((2, 2, 2), dtype=complex)
        padded[:, :1, :] = base.images
        rep = cpmaps.ModuleCPMap(base.module, padded, base.companion)
        report = cpmaps.check_module_representation(rep)
        assert report.identity_residual == 0
        assert report.range_rank == 1
        assert report.range_required == 2
        assert not report.nondegenerate

    @pytest.mark.parametrize("p,n", [(1, 2), (2, 2), (3, 1)])
    def test_companion_acts_on_the_corange(self, p, n):
        # the span of pi(X)* K is already invariant under the companion
        rep = cpmaps.concrete_representation(p, n)
        dim_h, dim_k = rep.space_dims
        corange = np.conj(rep.images.transpose(2, 0, 1)).reshape(dim_h, -1)
        pushed = np.einsum("kab,bc->kac", rep.companion.images, corange)
        pushed = pushed.transpose(1, 0, 2).reshape(dim_h, -1)
        assert (
            nk.numerical_rank(corange).rank
            == nk.numerical_rank(np.hstack([corange, pushed])).rank
        )


class TestGroups:
    def test_cyclic(self):
        group = hilbmod.cyclic_group(4)
        assert group.order == 4
        assert group.mult[3, 2] == 1
        assert group.inv[1] == 3

    def test_symmetric_three(self):
        group = hilbmod.symmetric_group(3)
        assert group.order == 6
        assert group.identity == 0
        # S_3 is nonabelian
        assert any(
            group.mult[s, t] != group.mult[t, s]
            for s in range(6)
            for t in range(6)
        )

    def test_regular_rep(self):
        for group in (hilbmod.cyclic_group(3), hilbmod.symmetric_group(3)):
            report = hilbmod.check_unitary_rep(hilbmod.regular_rep(group))
            assert max(report) == 0

    def test_permutation_rep(self):
        report = hilbmod.check_unitary_rep(builders.permutation_rep(3))
        assert max(report) == 0

    def test_cyclic_characters(self):
        group = hilbmod.cyclic_group(4)
        for k in range(4):
            report = hilbmod.check_unitary_rep(builders.cyclic_character_rep(group, k))
            assert max(report) <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 7])
    def test_seeded_rep(self, dim):
        group = hilbmod.symmetric_group(3)
        rep = hilbmod.seeded_rep(group, dim, np.random.default_rng(dim))
        report = hilbmod.check_unitary_rep(rep)
        assert max(report) <= 1e-12

    @pytest.mark.parametrize("group", [hilbmod.trivial_group(), hilbmod.symmetric_group(3)])
    def test_seeded_rep_of_dimension_zero(self, group):
        rep = hilbmod.seeded_rep(group, 0, np.random.default_rng(0))
        assert rep.mats.shape == (group.order, 0, 0)
        assert max(hilbmod.check_unitary_rep(rep)) == 0

    def test_tensor_and_sum(self):
        group = hilbmod.cyclic_group(2)
        sign = builders.cyclic_character_rep(group, 1)
        combo = hilbmod.direct_sum_rep(hilbmod.tensor_rep(sign, sign), sign)
        report = hilbmod.check_unitary_rep(combo)
        assert max(report) <= 1e-12


class TestStandardAction:
    def test_trivial(self):
        group = hilbmod.cyclic_group(2)
        sys = hilbmod.standard_action(
            group, hilbmod.trivial_rep(group, 2), hilbmod.trivial_rep(group, 2)
        )
        report = hilbmod.check_dynamical_system(sys)
        assert report.max_residual == 0

    def test_z2_diag_formula(self):
        sys = z2_diag_system()
        # eta_1 multiplies the second coordinate of a row vector by -1
        x = np.array([1.0, 2.0], dtype=complex)
        np.testing.assert_allclose(sys.eta[1] @ x, [1.0, -2.0])
        report = hilbmod.check_dynamical_system(sys)
        assert report.max_residual <= 1e-12

    def test_s3_permutation_action(self):
        group = hilbmod.symmetric_group(3)
        perm = builders.permutation_rep(3)
        sys = hilbmod.standard_action(group, perm, perm)
        report = hilbmod.check_dynamical_system(sys)
        assert report.max_residual <= 1e-12
        assert report.invertible

    def test_group_mismatch(self):
        g2, g3 = hilbmod.cyclic_group(2), hilbmod.cyclic_group(3)
        with pytest.raises(GroupMismatchError):
            hilbmod.standard_action(g2, hilbmod.trivial_rep(g2, 1), hilbmod.trivial_rep(g3, 2))

    def test_sign_flip_action_is_valid(self):
        # eta_1 = -id on the scalar module: <  -x, -y > = <x, y>, alpha = id
        group = hilbmod.cyclic_group(2)
        module = hilbmod.standard_module(1, 1)
        eta = np.stack([np.eye(1), -np.eye(1)]).astype(complex)
        alpha = np.stack([np.eye(1), np.eye(1)]).astype(complex)
        sys = hilbmod.ModuleDynamicalSystem(group, module, eta, alpha)
        report = hilbmod.check_dynamical_system(sys)
        assert report.max_residual == 0

    def test_perturbation_is_reported(self):
        sys = z2_diag_system()
        eta = sys.eta.copy()
        eta[1, 0, 0] += 1e-3
        broken = hilbmod.ModuleDynamicalSystem(sys.group, sys.module, eta, sys.alpha)
        report = hilbmod.check_dynamical_system(broken)
        assert 1e-4 < report.equivariance_residual < 1e-2


class TestInducedAction:
    def test_identity_action(self):
        group = hilbmod.cyclic_group(3)
        module = hilbmod.standard_module(2, 2)
        eta = np.stack([np.eye(4)] * 3).astype(complex)
        induced = hilbmod.induced_algebra_action(group, module, eta)
        assert induced.consistency_residual <= 1e-12
        np.testing.assert_allclose(induced.alpha, np.stack([np.eye(4)] * 3), atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_reproduces_standard_action(self, seed):
        group = hilbmod.cyclic_group(4)
        rng = np.random.default_rng(seed)
        gamma = hilbmod.seeded_rep(group, 2, rng)
        delta = hilbmod.seeded_rep(group, 2, rng)
        sys = hilbmod.standard_action(group, gamma, delta)
        induced = hilbmod.induced_algebra_action(group, sys.module, sys.eta)
        assert nk.maxabs(induced.alpha - sys.alpha) <= 1e-10

    @pytest.mark.parametrize("name, p, n", [("S3", 2, 3), ("S4", 1, 2), ("Z3", 3, 2)])
    def test_one_solve_matches_a_solve_per_group_element(self, name, p, n):
        """The g targets solved as one stack give each alpha_t of a separate
        normal-equation solve per group element on the cached fullness factor
        (``least_squares_solve`` without its refinement step), and the
        equivariance row the action is gated on is that solve's residual."""
        group = {
            "S3": hilbmod.symmetric_group(3),
            "S4": hilbmod.symmetric_group(4),
            "Z3": hilbmod.cyclic_group(3),
        }[name]
        rng = np.random.default_rng(p + n)
        sys = hilbmod.standard_action(
            group, hilbmod.seeded_rep(group, p, rng), hilbmod.seeded_rep(group, n, rng)
        )
        induced = hilbmod.induced_algebra_action(group, sys.module, sys.eta)
        flat = sys.module.inner.reshape(-1, sys.module.algebra.dim)
        residual = 0.0
        for t in range(group.order):
            target = hilbmod.transported_inner(sys.eta[t], sys.module.inner)
            target = target.reshape(len(flat), -1)
            solution = sys.module.fullness_factor.solve(nk.adjoint(flat) @ target)
            np.testing.assert_array_equal(induced.alpha[t], solution.T)
            residual = max(residual, nk.maxabs(flat @ solution - target))
        assert induced.consistency_residual == residual

    def test_rejects_scaling(self):
        # eta_1 = 2 id breaks the group law over Z_2
        group = hilbmod.cyclic_group(2)
        module = hilbmod.standard_module(1, 1)
        eta = np.stack([np.eye(1), 2 * np.eye(1)]).astype(complex)
        with pytest.raises(InconsistentError, match="group law"):
            hilbmod.induced_algebra_action(group, module, eta)

    def test_rejects_inconsistent_system(self):
        # eta_1 keeps the Z_2 law but scales f_0 by 1/2 and f_1 by 2 while
        # swapping them: <eta f_0, eta f_0> = 1/4 and <eta f_1, eta f_1> = 4,
        # which no map on C can send both <f_0, f_0> = <f_1, f_1> = 1 to
        group = hilbmod.cyclic_group(2)
        module = hilbmod.standard_module(2, 1)
        eta = np.stack([np.eye(2), [[0.0, 2.0], [0.5, 0.0]]]).astype(complex)
        with pytest.raises(InconsistentError, match="inconsistent: 1.875e\\+00"):
            hilbmod.induced_algebra_action(group, module, eta)

    @pytest.mark.parametrize("broken", ["zeroed row", "NaN entry"])
    def test_rejects_a_singular_or_nan_eta(self, broken):
        """A standard action's eta with one row of an eta_t zeroed, or one entry NaN, is no
        module action and is refused, with no invertibility clause after the law gate."""
        group = hilbmod.cyclic_group(3)
        rng = np.random.default_rng(0)
        sys = hilbmod.standard_action(group, hilbmod.seeded_rep(group, 2, rng), hilbmod.seeded_rep(group, 2, rng))
        eta = sys.eta.copy()
        if broken == "zeroed row":
            eta[1, 2, :] = 0
        else:
            eta[1, 0, 0] = np.nan
        with pytest.raises(InconsistentError):
            hilbmod.induced_algebra_action(group, sys.module, eta)

    def test_rejects_non_full_module(self):
        module = hilbmod.standard_module(1, 2)
        projected = module.inner.copy()
        projected[:, :, 1] = 0
        projected[:, :, 2] = 0
        broken = hilbmod.HilbertModule.from_tensors(module.algebra, module.dim, module.action, projected)
        group = hilbmod.cyclic_group(2)
        eta = np.stack([np.eye(2)] * 2).astype(complex)
        with pytest.raises(NotFullError):
            hilbmod.induced_algebra_action(group, broken, eta)


class TestJson:
    def test_module_round_trip(self):
        module = hilbmod.standard_module(2, 2)
        again = cli.module_from_json(builders.module_to_json(module))
        np.testing.assert_allclose(again.inner, module.inner)
        np.testing.assert_allclose(again.action, module.action)

    def test_standard_module_shorthand(self):
        module = cli.module_from_json({"standard_module": [2, 3]})
        assert module.dim == 6

    def test_group_round_trip(self):
        group = hilbmod.symmetric_group(3)
        again = cli.group_from_json(builders.group_to_json(group))
        assert group.same_as(again)

    def test_group_shorthands(self):
        assert cli.group_from_json({"cyclic": 4}).order == 4
        assert cli.group_from_json({"symmetric": 3}).order == 6

    def test_rep_round_trip(self):
        group = hilbmod.cyclic_group(3)
        rep = hilbmod.regular_rep(group)
        again = cli.unitary_rep_from_json(group, builders.unitary_rep_to_json(rep))
        np.testing.assert_allclose(again.mats, rep.mats)


def test_density_ranks_hold_one_stack_at_a_time():
    """The range stack is ranked before the corange stack is formed, and each
    step of the corange side frees the one before it: on (16, 64, 64) images the
    traced peak stays below 2.25 times the images' bytes (4.03 times while both
    stacks and the conjugate images were alive at once).  The profiles are those
    of the two stacks ranked on their own."""
    rng = np.random.default_rng(5)
    images = rng.standard_normal((16, 64, 64)) + 1j * rng.standard_normal((16, 64, 64))
    tracemalloc.start()
    try:
        ranged, coranged = hilbmod.density_ranks(images)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * images.nbytes
    corange_stack = hilbmod.range_stack(np.conj(images).transpose(0, 2, 1))
    for profile, stack in ((ranged, hilbmod.range_stack(images)), (coranged, corange_stack)):
        alone = nk.numerical_rank(stack)
        assert profile.rank == alone.rank == 64
        assert np.array_equal(profile.singular_values, alone.singular_values)
