import tracemalloc

import numpy as np
import pytest

import builders
from builders import z2_diag_system
from covstine import cli, cpmaps, crossed, hilbmod, stinespring
from covstine import numkernel as nk
from covstine.errors import GroupMismatchError, NotActionError, NotFullError


class TestStandardModule:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_axioms(self, p, n):
        module = hilbmod.standard_module(p, n)
        report = hilbmod.check_module_axioms(module)
        assert max(report.linearity_residual, report.symmetry_residual) <= 1e-12
        assert builders.module_positivity(module).ok and report.definite
        assert report.fullness_rank == report.fullness_required

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
        assert not builders.module_positivity(broken).ok

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
        with pytest.raises(NotFullError, match="rank 2 of 4"):
            hilbmod.require_full(broken)


class TestModuleRepresentations:
    """The defining identity of a representation and the ranks of ``[pi(X) H]`` and
    ``[pi(X)* K]``: it is nondegenerate when they are (dim K, dim H)."""

    @staticmethod
    def _identity_and_ranks(rep):
        ranks = [nk.numerical_rank(stack(rep.images)).rank for stack in (hilbmod.range_stack, hilbmod.corange_stack)]
        return hilbmod.identity_defect(rep.images, rep.module, rep.companion.images), ranks

    def test_concrete_is_nondegenerate(self):
        rep = cpmaps.concrete_representation(2, 3)
        assert self._identity_and_ranks(rep) == (0, [2, 3])

    def test_zero_representation_is_degenerate(self):
        module = hilbmod.standard_module(1, 2)
        companion = cpmaps.CPMapAlgebra(module.algebra, 2, np.zeros((4, 2, 2)))
        rep = cpmaps.ModuleCPMap(module, np.zeros((2, 1, 2)), companion)
        assert self._identity_and_ranks(rep) == (0, [0, 0])

    def test_padded_codomain_is_degenerate(self):
        # x acting as x (+) 0 into K (+) C misses the extra codomain direction
        base = cpmaps.concrete_representation(1, 2)
        padded = np.zeros((2, 2, 2), dtype=complex)
        padded[:, :1, :] = base.images
        rep = cpmaps.ModuleCPMap(base.module, padded, base.companion)
        assert self._identity_and_ranks(rep) == (0, [1, 2])

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


def _explicit(sys, eta=None, alpha=None):
    """The system on explicit stacks, so that ``check_dynamical_system`` runs on them."""
    eta, alpha = sys.eta if eta is None else eta, sys.alpha if alpha is None else alpha
    return hilbmod.ModuleDynamicalSystem(sys.group, sys.module, eta, alpha)


def _refused(sys, match):
    """``build_crossed_module``, the gate of every ``crossed`` run, refuses the system."""
    with pytest.raises(NotActionError, match=match):
        crossed.build_crossed_module(sys)


class TestExplicitAction:
    """A run takes alpha beside eta; on a full module equivariance fixes alpha, and the
    ``dynamical_system`` row with the crossed gate on it refuses an alpha or eta that
    does not fit."""

    def test_identity_action(self):
        group, module = hilbmod.cyclic_group(3), hilbmod.standard_module(2, 2)
        sys = hilbmod.ModuleDynamicalSystem(group, module, np.stack([np.eye(4)] * 3), np.stack([np.eye(4)] * 3))
        report = hilbmod.check_dynamical_system(sys)
        assert report.max_residual == 0 and report.invertible
        assert crossed.build_crossed_module(sys).system is sys

    @pytest.mark.parametrize("seed", range(3))
    def test_reproduces_standard_action(self, seed):
        """Per element, the least-squares solve of ``<eta_t x_i, eta_t x_j> =
        alpha_t(<x_i, x_j>)`` on the fullness rows is the standard action's alpha_t."""
        group, rng = hilbmod.cyclic_group(4), np.random.default_rng(seed)
        gamma, delta = hilbmod.seeded_rep(group, 2, rng), hilbmod.seeded_rep(group, 2, rng)
        sys = _explicit(hilbmod.standard_action(group, gamma, delta))
        assert hilbmod.check_dynamical_system(sys).max_residual <= 1e-12
        flat = sys.module.inner.reshape(-1, sys.module.algebra.dim)
        for eta, alpha in zip(sys.eta, sys.alpha):
            moved = np.einsum("ai,abk,bj->ijk", np.conj(eta), sys.module.inner, eta).reshape(flat.shape)
            assert nk.maxabs(nk.least_squares_solve(flat, moved).T - alpha) <= 1e-12

    @pytest.mark.parametrize("name, p, n", [("S3", 2, 3), ("Z3", 3, 3), ("Z4", 2, 2)])
    def test_rejects_the_action_of_a_conjugated_delta(self, name, p, n):
        """alpha of ``conjugate_rep(delta, q)`` is a *-automorphism action, but not the one
        eta induces: only equivariance and compatibility see it."""
        group = {"S3": hilbmod.symmetric_group(3), "Z3": hilbmod.cyclic_group(3), "Z4": hilbmod.cyclic_group(4)}[name]
        rng = np.random.default_rng(p + n)
        gamma, delta = hilbmod.seeded_rep(group, p, rng), hilbmod.seeded_rep(group, n, rng)
        moved = hilbmod.standard_action(group, gamma, hilbmod.conjugate_rep(delta, nk.haar_unitary(rng, n)))
        sys = _explicit(hilbmod.standard_action(group, gamma, delta), alpha=moved.alpha)
        report = hilbmod.check_dynamical_system(sys)
        automorphism = report.automorphism_mult_residual, report.automorphism_star_residual
        assert max(report.group_law_residual, *automorphism) <= 1e-12 and report.invertible
        assert min(report.equivariance_residual, report.compatibility_residual) > 0.1
        _refused(sys, "fails its axioms")

    def test_rejects_scaling(self):
        # eta_1 = 2 id breaks the group law over Z_2
        group, module = hilbmod.cyclic_group(2), hilbmod.standard_module(1, 1)
        sys = hilbmod.ModuleDynamicalSystem(group, module, np.stack([np.eye(1), 2 * np.eye(1)]), np.ones((2, 1, 1)))
        report = hilbmod.check_dynamical_system(sys)
        assert report.group_law_residual == 3.0 and not report.invertible
        _refused(sys, "residual 3.000e\\+00")

    def test_rejects_inconsistent_system(self):
        # eta_1 keeps the Z_2 law but scales f_0 by 1/2 and f_1 by 2 while swapping them:
        # <eta f_1, eta f_1> = 4 against alpha_1(1) = 1, the one automorphism of C
        group, module = hilbmod.cyclic_group(2), hilbmod.standard_module(2, 1)
        eta = np.stack([np.eye(2), [[0.0, 2.0], [0.5, 0.0]]])
        sys = hilbmod.ModuleDynamicalSystem(group, module, eta, np.ones((2, 1, 1)))
        report = hilbmod.check_dynamical_system(sys)
        assert report.group_law_residual == 0 and report.equivariance_residual == 3.0
        _refused(sys, "residual 3.000e\\+00")

    @pytest.mark.parametrize("broken", ["zeroed row", "NaN entry"])
    def test_rejects_a_singular_or_nan_eta(self, broken):
        """A standard action's eta with one row of an eta_t zeroed, or one entry NaN, is no
        module action: its law row fails and it is not invertible."""
        group, rng = hilbmod.cyclic_group(3), np.random.default_rng(0)
        sys = hilbmod.standard_action(group, hilbmod.seeded_rep(group, 2, rng), hilbmod.seeded_rep(group, 2, rng))
        eta = sys.eta.copy()
        if broken == "zeroed row":
            eta[1, 2, :] = 0
        else:
            eta[1, 0, 0] = np.nan
        broken = _explicit(sys, eta=eta)
        report = hilbmod.check_dynamical_system(broken)
        assert not report.group_law_residual < 1 and not report.invertible  # 1, or inf of a NaN
        _refused(broken, "fails its axioms")

    def test_rejects_non_full_module(self):
        """Fullness is decided on the run's path before the GNS step, even for a map (here
        0) whose identity holds on the module that lost two of four ranks."""
        module = hilbmod.standard_module(1, 2)
        projected = module.inner.copy()
        projected[:, :, 1:3] = 0
        broken = hilbmod.HilbertModule.from_tensors(module.algebra, module.dim, module.action, projected)
        companion = cpmaps.CPMapAlgebra(broken.algebra, 2, np.zeros((4, 2, 2)))
        zero = cpmaps.ModuleCPMap(broken, np.zeros((2, 1, 2)), companion)
        with pytest.raises(NotFullError, match="rank 2 of 4"):
            stinespring.dilate_module_cp(zero)


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


def test_the_corange_stack_holds_one_copy_at_a_time():
    """Each step of ``corange_stack`` frees the one before it: ranking the range stack and
    then the corange stack of (16, 64, 64) images peaks below 2.25 times the images'
    bytes (4.03 times while both stacks and the conjugate images were alive at once).
    The corange stack is that of the conjugate transposes."""
    rng = np.random.default_rng(5)
    images = rng.standard_normal((16, 64, 64)) + 1j * rng.standard_normal((16, 64, 64))
    tracemalloc.start()
    try:
        ranked = nk.numerical_rank(hilbmod.range_stack(images)), nk.numerical_rank(hilbmod.corange_stack(images))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * images.nbytes
    corange_stack = hilbmod.range_stack(np.conj(images).transpose(0, 2, 1))
    assert np.array_equal(hilbmod.corange_stack(images), corange_stack)
    assert [profile.rank for profile in ranked] == [64, 64]
