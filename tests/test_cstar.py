import numpy as np
import pytest

import builders
from covstine import cli, cstar, hilbmod
from covstine import numkernel as nk
from covstine.errors import NotHermitianError, ShapeMismatchError

ALGEBRAS = [(1,), (2,), (3,), (1, 1), (2, 1), (2, 3)]


def seeded_element(algebra, seed):
    rng = np.random.default_rng(seed)
    return cstar.AlgebraElement.from_blocks(
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
        again = cstar.AlgebraElement.from_coords(algebra, a.coords())
        for left, right in zip(a.data, again.data):
            np.testing.assert_allclose(left, right)


class TestElementPositive:
    def test_unit_positive(self):
        for blocks in ALGEBRAS:
            algebra = cstar.CStarAlgebra(blocks)
            report = cstar.element_positive(cstar.AlgebraElement.unit(algebra))
            assert report.ok
            assert report.min_eig == pytest.approx(1.0)

    def test_indefinite(self):
        algebra = cstar.CStarAlgebra((2,))
        a = cstar.AlgebraElement.from_blocks(algebra, [np.diag([1.0, -1.0])])
        report = cstar.element_positive(a)
        assert not report.ok
        assert report.min_eig == pytest.approx(-1.0)

    def test_rejects_non_hermitian(self):
        algebra = cstar.CStarAlgebra((2,))
        a = cstar.AlgebraElement.from_blocks(algebra, [np.array([[0, 1], [0, 0]])])
        with pytest.raises(NotHermitianError):
            cstar.element_positive(a)

    def test_module_gram_positive(self):
        # <x, x> = x* x inside the standard module of 3 x 2 matrices
        module = hilbmod.standard_module(3, 2)
        rng = np.random.default_rng(11)
        xi = nk.complex_normal(rng, 1, module.dim)[0]
        gram = cstar.AlgebraElement.from_coords(
            module.algebra, builders.inner_coords(module, xi, xi)
        )
        assert cstar.element_positive(gram).ok

    @pytest.mark.parametrize("seed", range(4))
    def test_star_products_positive(self, seed):
        algebra = cstar.CStarAlgebra((2, 3))
        a = seeded_element(algebra, seed)
        assert cstar.element_positive(builders.element_product(a.star(), a)).ok


class TestRepresentations:
    def test_identity_representation(self):
        algebra = cstar.CStarAlgebra((2,))
        images = np.stack(
            [cstar.coords_to_blocks(algebra, np.eye(4)[k])[0] for k in range(4)]
        )
        rep = cstar.AlgebraRepresentation(algebra, 2, images)
        report = cstar.check_representation(rep)
        assert report.max_residual == 0
        assert report.unital

    def test_doubled_representation(self):
        algebra = cstar.CStarAlgebra((2,))
        images = np.stack(
            [
                np.kron(np.eye(2), cstar.coords_to_blocks(algebra, np.eye(4)[k])[0])
                for k in range(4)
            ]
        )
        report = cstar.check_representation(cstar.AlgebraRepresentation(algebra, 4, images))
        assert report.max_residual == 0
        assert report.unital

    def test_transpose_is_not_multiplicative(self):
        algebra = cstar.CStarAlgebra((2,))
        images = np.stack(
            [cstar.coords_to_blocks(algebra, np.eye(4)[k])[0].T for k in range(4)]
        )
        report = cstar.check_representation(cstar.AlgebraRepresentation(algebra, 2, images))
        # transpose(e12 e21) differs from transpose(e12) transpose(e21)
        assert report.mult_residual > 0.5

    @pytest.mark.parametrize("blocks", ALGEBRAS)
    def test_embedding_representation_passes(self, blocks):
        algebra = cstar.CStarAlgebra(blocks)
        report = cstar.check_representation(cstar.embedding_representation(algebra))
        assert report.max_residual <= 1e-14
        assert report.unital

    def test_zero_map_is_proper_projection(self):
        algebra = cstar.CStarAlgebra((2,))
        rep = cstar.AlgebraRepresentation(algebra, 2, np.zeros((4, 2, 2)))
        report = cstar.check_representation(rep)
        assert not report.unital
        assert report.unit_projection_defect == 0


class TestChoi:
    def test_identity_channel(self):
        algebra = cstar.CStarAlgebra((2,))
        images = np.stack(
            [cstar.coords_to_blocks(algebra, np.eye(4)[k])[0] for k in range(4)]
        )
        report = cstar.choi_blocks(algebra, images)
        assert report.cp
        values = np.linalg.eigvalsh(report.choi[0])
        np.testing.assert_allclose(sorted(values), [0, 0, 0, 2], atol=1e-12)

    def test_transpose_not_cp(self):
        algebra = cstar.CStarAlgebra((2,))
        images = np.stack(
            [cstar.coords_to_blocks(algebra, np.eye(4)[k])[0].T for k in range(4)]
        )
        report = cstar.choi_blocks(algebra, images)
        assert not report.cp
        assert report.min_eig == pytest.approx(-1.0)

    def test_depolarizing(self):
        algebra = cstar.CStarAlgebra((2,))
        images = np.stack(
            [
                np.trace(cstar.coords_to_blocks(algebra, np.eye(4)[k])[0]) * np.eye(2)
                for k in range(4)
            ]
        )
        report = cstar.choi_blocks(algebra, images)
        assert report.cp
        np.testing.assert_allclose(report.choi[0], np.eye(4), atol=1e-14)

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
