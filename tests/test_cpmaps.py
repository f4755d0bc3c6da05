import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import builders
from builders import concrete_cp, z2_diag_system
import covstine
from covstine import cpmaps, hilbmod
from covstine import numkernel as nk
from covstine.errors import (
    DegenerateAverageError,
    NotCoisometryError,
    NotIntertwiningError,
)


class TestCheckModuleCp:
    def test_concrete(self):
        phi = concrete_cp(2, 2)
        assert cpmaps.check_module_cp(phi).identity_residual == 0
        assert phi.companion.choi_report.cp

    def test_zero_map(self):
        module = hilbmod.standard_module(2, 1)
        companion = cpmaps.CPMapAlgebra(module.algebra, 2, np.zeros((1, 2, 2)))
        phi = cpmaps.ModuleCPMap(module, np.zeros((2, 3, 2)), companion)
        assert cpmaps.check_module_cp(phi).identity_residual == 0
        assert phi.companion.choi_report.cp

    def test_transpose_companion_flagged(self):
        module = hilbmod.standard_module(1, 2)
        images = hilbmod.standard_basis_matrices(1, 2)
        transpose = np.stack(
            [builders.coords_to_blocks(module.algebra, np.eye(4)[k])[0].T for k in range(4)]
        )
        phi = cpmaps.ModuleCPMap(
            module, images, cpmaps.CPMapAlgebra(module.algebra, 2, transpose)
        )
        report = cpmaps.check_module_cp(phi)
        assert not phi.companion.choi_report.cp
        assert report.choi_min_eig == pytest.approx(-1.0)


def _record_types():
    """``(module.name, field names)`` of each dataclass and NamedTuple a covstine module defines."""
    for info in pkgutil.iter_modules(covstine.__path__):
        module = importlib.import_module(f"covstine.{info.name}")
        for name, obj in vars(module).items():
            if not isinstance(obj, type) or obj.__module__ != module.__name__:
                continue
            if dataclasses.is_dataclass(obj):
                yield f"{info.name}.{name}", frozenset(f.name for f in dataclasses.fields(obj))
            elif issubclass(obj, tuple) and hasattr(obj, "_fields"):
                yield f"{info.name}.{name}", frozenset(obj._fields)


def test_no_two_record_types_share_their_fields():
    """One type per kind of object: a *-representation is held as the CP map it is."""
    by_fields = {}
    for name, fields in _record_types():
        by_fields.setdefault(fields, []).append(name)
    assert len(by_fields) > 20
    assert [names for names in by_fields.values() if len(names) > 1] == []


@pytest.mark.parametrize("p, n", [(1, 1), (2, 3), (3, 2)])
def test_concrete_representation_is_a_module_cp_map(p, n):
    rep = cpmaps.concrete_representation(p, n)
    assert rep.cp_report.identity_residual == 0.0
    assert rep.companion.choi_report.cp


class TestCpFromRepresentation:
    def test_identity_compression(self):
        rep = cpmaps.concrete_representation(2, 1)
        phi = cpmaps.cp_from_representation(rep, nk.eye(1), nk.eye(2))
        np.testing.assert_allclose(phi.images, rep.images)
        assert max(cpmaps.check_module_cp(phi)[:2]) <= 1e-12

    def test_zero_v(self):
        rep = cpmaps.concrete_representation(2, 1)
        phi = cpmaps.cp_from_representation(rep, np.zeros((1, 1)), nk.eye(2))
        assert nk.maxabs(phi.images) == 0

    def test_seeded_amplified_compression(self):
        rng = np.random.default_rng(21)
        rep = cpmaps.amplified_concrete_representation(hilbmod.standard_module(2, 2), 2)
        v = nk.complex_normal(rng, 4, 3)
        w = cpmaps.polar_coisometry(nk.complex_normal(rng, 4, 5))
        phi = cpmaps.cp_from_representation(rep, v, w)
        assert cpmaps.check_module_cp(phi).identity_residual <= 1e-10
        assert phi.companion.choi_report.cp

    def test_rejects_non_coisometry(self):
        rep = cpmaps.concrete_representation(2, 1)
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
        rep = cpmaps.concrete_representation(1, 2)
        cpmaps.require_intertwiners(sys.delta, sys.gamma, nk.eye(2), nk.eye(1), sys.delta, sys.gamma)
        base = cpmaps.cp_from_representation(rep, nk.eye(2), nk.eye(1))
        cov = cpmaps.CovariantCPMap(base, sys, sys.delta, sys.gamma)
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
        with pytest.raises(NotIntertwiningError, match="t=1"):
            cpmaps.require_intertwiners(
                sys.delta,
                sys.gamma,
                nk.eye(2),
                nk.eye(1),
                hilbmod.trivial_rep(sys.group, 2),
                sys.gamma,
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
        assert max(cpmaps.check_module_cp(cov.base)[:2]) <= 1e-10

    def test_z2_seed_seven(self):
        group = hilbmod.cyclic_group(2)
        rng = np.random.default_rng(7)
        sys = hilbmod.standard_action(
            group, hilbmod.seeded_rep(group, 2, rng), hilbmod.seeded_rep(group, 2, rng)
        )
        cov, witness = cpmaps.random_covariant_cp(sys, 2, seed=7)
        assert cpmaps.check_covariance(cov.base, sys, cov.u, cov.u_prime).max_residual <= 1e-9
        assert max(cpmaps.check_module_cp(cov.base)[:2]) <= 1e-9

    def test_s3_regular_amplification(self):
        group = hilbmod.symmetric_group(3)
        sys = hilbmod.standard_action(
            group, hilbmod.trivial_rep(group, 1), builders.permutation_rep(3)
        )
        cov, witness = cpmaps.random_covariant_cp(sys, 6, seed=11)
        assert cpmaps.check_covariance(cov.base, sys, cov.u, cov.u_prime).max_residual <= 1e-9
        assert max(cpmaps.check_module_cp(cov.base)[:2]) <= 1e-9

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
        phi, witness = builders.random_module_cp(2, 2, 2, seed=9, h_dim=3, k_dim=5)
        assert phi.space_dims == (3, 5)
        assert cpmaps.check_module_cp(phi).identity_residual <= 1e-10
        assert phi.companion.choi_report.cp

    @pytest.mark.parametrize("eps", [1e-6, 1e-4])
    def test_companion_residual_tracks_map_residual(self, eps):
        # perturbing u by eps moves both covariance residuals by O(eps); the
        # companion residual stays within the conditioning constant of the fullness
        # rows, the ratio of their extreme kept singular values
        sys = z2_diag_system()
        cov, _ = cpmaps.random_covariant_cp(sys, 2, seed=12)
        rot = np.eye(2, dtype=complex)
        rot[0, 0] = np.exp(1j * eps)
        bent = hilbmod.UnitaryRep(
            sys.group, 2, np.stack([cov.u.mats[0], rot @ cov.u.mats[1]])
        )
        report = cpmaps.check_covariance(cov.base, sys, bent, cov.u_prime)
        rank, values = cov.base.module.fullness
        assert rank == sys.module.algebra.dim
        bound = 50 * (values[0] / values[rank - 1]) * (report.map_residual + 1e-14)
        assert report.companion_residual <= bound


# The generator's shapes (p, n, amplification), from 1 x 1 to the 8,8,8 corner
GENERATED = [(1, 1, 1), (1, 2, 1), (2, 3, 1), (3, 2, 2), (6, 6, 6), (8, 8, 2), (8, 6, 2), (8, 8, 8)]
GENERATOR_GROUPS = {
    "trivial": hilbmod.trivial_group,
    "cyclic:3": lambda: hilbmod.cyclic_group(3),
    "symmetric:3": lambda: hilbmod.symmetric_group(3),
}


class TestPlacedCompression:
    @pytest.mark.parametrize("group", sorted(GENERATOR_GROUPS))
    @pytest.mark.parametrize("p, n, amplification", GENERATED)
    def test_placed_products_are_the_sandwich(self, p, n, amplification, group):
        """``random_covariant_cp`` places each ``(x (x) I_r) V`` where
        ``cp_from_representation`` multiplies through the 0/1 stacks of the amplified
        representation: images and companion are that ``nk.sandwich``, byte for byte.
        The witness builds the representation only when it is read."""
        group = GENERATOR_GROUPS[group]()
        rng = np.random.default_rng(11)
        gamma, delta = hilbmod.seeded_rep(group, p, rng), hilbmod.seeded_rep(group, n, rng)
        system = hilbmod.standard_action(group, gamma, delta)
        cov, witness = cpmaps.random_covariant_cp(system, amplification, seed=11)
        assert "rep" not in vars(witness)
        rep = cpmaps.amplified_concrete_representation(system.module, amplification)
        for got, expected in [
            (cov.base.images, nk.sandwich(witness.W, rep.images, witness.V)),
            (cov.base.companion.images, nk.sandwich(witness.V, rep.companion.images, witness.V)),
        ]:
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
        assert witness.rep.images.tobytes() == rep.images.tobytes()

    def test_generator_gates_its_intertwiners(self, monkeypatch):
        """The intertwiner gate runs on the generator's path: with the average
        replaced by its unaveraged draw, V fails to intertwine at t=1."""
        monkeypatch.setattr(cpmaps, "average_intertwiner", lambda left, right, z: z)
        with pytest.raises(NotIntertwiningError, match=r"^v_t V = V u_t fails at t=1 by "):
            cpmaps.random_covariant_cp(z2_diag_system(), 2, seed=3)

    def test_generator_gates_its_coisometry(self, monkeypatch):
        """The ``W W* = I`` gate runs on the generator's path: a doubled W still
        intertwines, and is refused."""
        polar = cpmaps.polar_coisometry
        monkeypatch.setattr(cpmaps, "polar_coisometry", lambda y: 2 * polar(y))
        with pytest.raises(NotCoisometryError, match="deviates from the identity by 3.000e"):
            cpmaps.random_covariant_cp(z2_diag_system(), 2, seed=3)
