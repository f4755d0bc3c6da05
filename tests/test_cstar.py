import numpy as np
import pytest

import builders
from covstine import cli, cstar, hilbmod
from covstine import numkernel as nk
from covstine.errors import ShapeMismatchError
from dense_reference import multiplicativity_defect

ALGEBRAS = [(1,), (2,), (3,), (1, 1), (2, 1), (2, 3)]


def seeded_element(algebra, seed):
    rng = np.random.default_rng(seed)
    return builders.AlgebraElement.from_blocks(
        algebra, [nk.complex_normal(rng, n, n) for n in algebra.blocks]
    )


class TestAlgebraBasics:
    def test_dims(self):
        algebra = cstar.CStarAlgebra((2, 3))
        assert algebra.dim == 13
        assert algebra.embed_dim == 5
        assert len(algebra.basis_labels()) == 13
        assert algebra.basis_labels()[0] == "0:0:0"

    def test_rejects_empty_blocks(self):
        with pytest.raises(ShapeMismatchError):
            cstar.CStarAlgebra(())

    def test_unit_is_identity_embedding(self):
        algebra = cstar.CStarAlgebra((2, 1))
        np.testing.assert_allclose(
            builders.embed_coords(algebra, cstar.unit_coords(algebra)), np.eye(3)
        )

    @pytest.mark.parametrize("blocks", ALGEBRAS)
    def test_mult_tensor_matches_embedding(self, blocks):
        algebra = cstar.CStarAlgebra(blocks)
        mul = cstar.mult_tensor(algebra)
        eye = np.eye(algebra.dim)
        for k in range(algebra.dim):
            for l in range(algebra.dim):
                lhs = builders.embed_coords(algebra, mul[k, l])
                rhs = builders.embed_coords(algebra, eye[k]) @ builders.embed_coords(
                    algebra, eye[l]
                )
                np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_star_is_involutive(self):
        algebra = cstar.CStarAlgebra((2, 3))
        a = seeded_element(algebra, 3)
        np.testing.assert_allclose(a.star().star().coords(), a.coords())

    def test_element_coords_round_trip(self):
        algebra = cstar.CStarAlgebra((2, 2))
        a = seeded_element(algebra, 5)
        again = builders.AlgebraElement.from_coords(algebra, a.coords())
        for left, right in zip(a.data, again.data):
            np.testing.assert_allclose(left, right)


class TestElementPositive:
    """Positivity decided on the block-diagonal embedding of an element."""

    def test_module_gram_positive(self):
        # <x, x> = x* x inside the standard module of 3 x 2 matrices
        module = hilbmod.standard_module(3, 2)
        rng = np.random.default_rng(11)
        xi = nk.complex_normal(rng, 1, module.dim)[0]
        gram = builders.inner_coords(module, xi, xi)
        assert nk.psd_check(builders.embed_coords(module.algebra, gram)).ok

    @pytest.mark.parametrize("seed", range(4))
    def test_star_products_positive(self, seed):
        algebra = cstar.CStarAlgebra((2, 3))
        a = seeded_element(algebra, seed)
        product = builders.element_product(a.star(), a).coords()
        assert nk.psd_check(builders.embed_coords(algebra, product)).ok


class TestRepresentations:
    """Multiplicativity, hermiticity and the image of the unit, which the ``dilate`` rows
    read of the GNS representation."""

    @staticmethod
    def _rep(images, dim):
        return cstar.CPMapAlgebra(cstar.CStarAlgebra((2,)), dim, np.stack(images))

    def _unit_image(self, rep):
        return builders.apply(rep.images, cstar.unit_coords(rep.algebra))

    def test_identity_representation(self):
        rep = self._rep([builders.coords_to_blocks(cstar.CStarAlgebra((2,)), e)[0] for e in np.eye(4)], 2)
        assert multiplicativity_defect(rep) == 0 and rep.choi_report.hermiticity == 0
        np.testing.assert_array_equal(self._unit_image(rep), np.eye(2))

    def test_doubled_representation(self):
        blocks = [builders.coords_to_blocks(cstar.CStarAlgebra((2,)), e)[0] for e in np.eye(4)]
        rep = self._rep([np.kron(np.eye(2), b) for b in blocks], 4)
        assert multiplicativity_defect(rep) == 0 and rep.choi_report.hermiticity == 0
        np.testing.assert_array_equal(self._unit_image(rep), np.eye(4))

    def test_transpose_is_not_multiplicative(self):
        # transpose(e12 e21) differs from transpose(e12) transpose(e21); it keeps the star
        rep = self._rep([builders.coords_to_blocks(cstar.CStarAlgebra((2,)), e)[0].T for e in np.eye(4)], 2)
        assert multiplicativity_defect(rep) > 0.5 and rep.choi_report.hermiticity == 0

    def test_zero_map_is_proper_projection(self):
        unit = self._unit_image(self._rep([np.zeros((2, 2))] * 4, 2))
        np.testing.assert_array_equal(unit @ unit, unit)
        assert not np.array_equal(unit, np.eye(2))

    @pytest.mark.parametrize("blocks", ALGEBRAS)
    def test_embedding_representation_passes(self, blocks):
        algebra = cstar.CStarAlgebra(blocks)
        rep = cstar.embedding_representation(algebra)
        assert multiplicativity_defect(rep) == 0 and rep.choi_report.hermiticity == 0
        np.testing.assert_array_equal(builders.apply(rep.images, cstar.unit_coords(algebra)), np.eye(algebra.embed_dim))


class TestChoi:
    def test_identity_channel(self):
        algebra = cstar.CStarAlgebra((2,))
        images = np.stack(
            [builders.coords_to_blocks(algebra, np.eye(4)[k])[0] for k in range(4)]
        )
        report = cstar.choi_blocks(algebra, images)
        assert report.cp
        np.testing.assert_allclose(report.spectra[0].values, [2, 0, 0, 0], atol=1e-12)

    def test_transpose_not_cp(self):
        algebra = cstar.CStarAlgebra((2,))
        images = np.stack(
            [builders.coords_to_blocks(algebra, np.eye(4)[k])[0].T for k in range(4)]
        )
        report = cstar.choi_blocks(algebra, images)
        assert not report.cp
        assert report.min_eig == pytest.approx(-1.0)

    def test_depolarizing(self):
        algebra = cstar.CStarAlgebra((2,))
        images = np.stack(
            [
                np.trace(builders.coords_to_blocks(algebra, np.eye(4)[k])[0]) * np.eye(2)
                for k in range(4)
            ]
        )
        report = cstar.choi_blocks(algebra, images)
        assert report.cp
        np.testing.assert_allclose(report.spectra[0].values, np.ones(4), atol=1e-14)  # Choi = I

    @pytest.mark.parametrize("blocks", ALGEBRAS)
    @pytest.mark.parametrize("seed", range(3))
    def test_kraus_built_maps_are_cp(self, blocks, seed):
        algebra = cstar.CStarAlgebra(blocks)
        rng = np.random.default_rng(seed)
        space_dim = 3
        kraus = [nk.complex_normal(rng, algebra.embed_dim, space_dim) for _ in range(2)]
        images = np.stack(
            [
                sum(
                    t.conj().T @ builders.embed_coords(algebra, np.eye(algebra.dim)[k]) @ t
                    for t in kraus
                )
                for k in range(algebra.dim)
            ]
        )
        report = cstar.choi_blocks(algebra, images)
        assert report.cp
        assert report.min_eig >= -1e-10


class TestJson:
    def test_algebra_round_trip(self):
        algebra = cstar.CStarAlgebra((2, 3))
        assert cli.algebra_from_json(builders.algebra_to_json(algebra)) == algebra

    def test_representation_round_trip(self):
        algebra = cstar.CStarAlgebra((2,))
        rep = cstar.embedding_representation(algebra)
        again = cli.representation_from_json(algebra, builders.representation_to_json(rep))
        np.testing.assert_allclose(again.images, rep.images)
