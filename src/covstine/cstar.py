"""Finite-dimensional C*-algebras as direct sums of full matrix blocks.

An algebra is described by its block sizes ``[n_1, ..., n_k]``.  Elements
live either as per-block matrices (``AlgebraElement``) or as coordinate
vectors over the canonical matrix-unit basis; the basis is enumerated block
by block, row-major, with labels ``"b:i:j"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import numkernel as nk
from .errors import NotHermitianError, ShapeMismatchError


@dataclass(frozen=True)
class CStarAlgebra:
    """Direct sum of matrix algebras, held abstractly by block sizes."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        if len(self.blocks) < 1 or any(n < 1 for n in self.blocks):
            raise ShapeMismatchError(f"invalid block sizes {self.blocks}")
        object.__setattr__(self, "blocks", tuple(int(n) for n in self.blocks))

    @property
    def dim(self) -> int:
        """Linear dimension N = sum of squared block sizes."""
        return sum(n * n for n in self.blocks)

    @property
    def embed_dim(self) -> int:
        """Size E of the block-diagonal embedding, sum of block sizes."""
        return sum(self.blocks)

    def basis_labels(self) -> list[str]:
        return [
            f"{b}:{i}:{j}"
            for b, n in enumerate(self.blocks)
            for i in range(n)
            for j in range(n)
        ]


@lru_cache(maxsize=None)
def _structure(blocks: tuple[int, ...]):
    """Product and right-product tables, star permutation, unit vector, and the
    place of each matrix unit in the embedding.

    A product of two matrix units is a unit or zero, so multiplication is a
    table: ``product[k, l]`` is m when ``E_k E_l = E_m`` and N when the
    product vanishes.  ``right[:, l]``
    lists the ``(k, m)`` with ``E_l E_k = E_m``, one per column of the
    block of ``E_l``, padded with N to the largest block.  ``E_k`` embeds as
    the single entry ``(embed_at[0][k], embed_at[1][k])`` of the E x E matrix.
    """
    algebra = CStarAlgebra(blocks)
    dim = algebra.dim
    product = np.full((dim, dim), dim, dtype=np.int64)
    star_perm = np.zeros(dim, dtype=np.int64)
    unit = np.zeros(dim, dtype=np.complex128)
    embed_at = np.zeros((2, dim), dtype=np.int64)
    right = np.full((2, dim, max(algebra.blocks)), dim, dtype=np.int64)
    offset = corner = 0
    for n in algebra.blocks:
        for i in range(n):
            for j in range(n):
                idx = offset + i * n + j
                star_perm[idx] = offset + j * n + i
                embed_at[:, idx] = corner + i, corner + j
                if i == j:
                    unit[idx] = 1.0
                # E_{ij} E_{jk} = E_{ik} inside the block; every other product is 0
                for k in range(n):
                    product[idx, offset + j * n + k] = offset + i * n + k
                    right[:, idx, k] = offset + j * n + k, offset + i * n + k
        offset += n * n
        corner += n
    for table in (product, embed_at, right):
        table.setflags(write=False)
    return product, star_perm, unit, embed_at, right


@lru_cache(maxsize=None)
def _product_targets(blocks: tuple[int, ...]) -> nk.PairTargets:
    """The nonzero products ``E_k E_l = E_m`` as ``nk.pair_defect`` targets, the
    pair (k, l) with the m-th matrix of the basis."""
    product = _structure(blocks)[0]
    k, l = (product < len(product)).nonzero()
    return nk.PairTargets((len(product),) * 3, k, l, product[k, l], np.ones(len(k)))


@lru_cache(maxsize=None)
def _mult_tensor(blocks: tuple[int, ...]) -> np.ndarray:
    product = _structure(blocks)[0]
    dim = len(product)
    mul = np.zeros((dim, dim, dim), dtype=np.complex128)
    k, l = np.nonzero(product < dim)
    mul[k, l, product[k, l]] = 1.0
    return mul


def mult_tensor(algebra: CStarAlgebra) -> np.ndarray:
    """``mul[k, l, :]`` are the coordinates of ``E_k E_l``, densely (N^3 entries)."""
    return _mult_tensor(algebra.blocks)


def product_index(algebra: CStarAlgebra) -> np.ndarray:
    """``index[k, l]`` is m when ``E_k E_l = E_m`` and N when the product is 0."""
    return _structure(algebra.blocks)[0]


def right_product_index(algebra: CStarAlgebra) -> np.ndarray:
    """``(units, products)``, each (N, largest block): row l lists the k with
    ``E_l E_k`` not 0 and the unit ``E_l E_k`` is, padded with N."""
    return _structure(algebra.blocks)[4]


def embedding_index(algebra: CStarAlgebra) -> np.ndarray:
    """``(rows, cols)``: ``E_k`` embeds as the one entry ``(rows[k], cols[k])``."""
    return _structure(algebra.blocks)[3]


def star_permutation(algebra: CStarAlgebra) -> np.ndarray:
    """Index permutation sending each matrix unit to its adjoint."""
    return _structure(algebra.blocks)[1].copy()


def star_coords(algebra: CStarAlgebra, coords: np.ndarray) -> np.ndarray:
    """Coordinates of the adjoint: conjugate and transpose each block."""
    perm = _structure(algebra.blocks)[1]
    out = np.zeros_like(coords, dtype=np.complex128)
    out[perm] = np.conj(coords)
    return out


def unit_coords(algebra: CStarAlgebra) -> np.ndarray:
    return _structure(algebra.blocks)[2].copy()


def coords_to_blocks(algebra: CStarAlgebra, coords: np.ndarray) -> list[np.ndarray]:
    out, offset = [], 0
    for n in algebra.blocks:
        out.append(np.asarray(coords[offset : offset + n * n]).reshape(n, n).copy())
        offset += n * n
    return out


def blocks_to_coords(algebra: CStarAlgebra, data) -> np.ndarray:
    parts = []
    for n, blk in zip(algebra.blocks, data, strict=True):
        blk = nk.as_matrix(blk)
        if blk.shape != (n, n):
            raise ShapeMismatchError(f"block of shape {blk.shape}, expected ({n},{n})")
        parts.append(blk.reshape(-1))
    return np.concatenate(parts)


@dataclass(frozen=True)
class AlgebraElement:
    """Element of a block algebra, stored as one matrix per block."""

    algebra: CStarAlgebra
    data: tuple[np.ndarray, ...]

    @classmethod
    def from_blocks(cls, algebra: CStarAlgebra, data) -> "AlgebraElement":
        return cls.from_coords(algebra, blocks_to_coords(algebra, data))

    @classmethod
    def from_coords(cls, algebra: CStarAlgebra, coords) -> "AlgebraElement":
        return cls(algebra, tuple(coords_to_blocks(algebra, np.asarray(coords))))

    @classmethod
    def unit(cls, algebra: CStarAlgebra) -> "AlgebraElement":
        return cls.from_coords(algebra, unit_coords(algebra))

    def coords(self) -> np.ndarray:
        return blocks_to_coords(self.algebra, self.data)

    def star(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(nk.adjoint(b) for b in self.data))


def element_positive(a: AlgebraElement) -> nk.PsdReport:
    """Positivity of an algebra element, decided block by block.

    Raises ``NotHermitianError`` when some block is not Hermitian within
    ``nk.REL_TOL`` relative to its scale.
    """
    min_eig, max_eig = np.inf, -np.inf
    worst_defect = 0.0
    ok = True
    for blk in a.data:
        defect = nk.frobenius(blk - nk.adjoint(blk))
        scale = max(1.0, nk.frobenius(blk))
        if defect > nk.REL_TOL * scale:
            raise NotHermitianError(
                f"block Hermitian defect {defect:.3e} exceeds {nk.REL_TOL:.1e} * {scale:.3e}"
            )
        report = nk.psd_check(blk)
        ok = ok and report.ok
        min_eig = min(min_eig, report.min_eig)
        max_eig = max(max_eig, report.max_eig)
        worst_defect = max(worst_defect, report.herm_defect)
    return nk.PsdReport(bool(ok), float(min_eig), worst_defect, float(max_eig))


@dataclass(frozen=True)
class AlgebraRepresentation:
    """Linear map into L(H) stored on the matrix-unit basis."""

    algebra: CStarAlgebra
    space_dim: int
    images: np.ndarray  # shape (N, space_dim, space_dim)

    def __post_init__(self):
        images = np.asarray(self.images, dtype=np.complex128)
        if images.shape != (self.algebra.dim, self.space_dim, self.space_dim):
            raise ShapeMismatchError(
                f"images shape {images.shape}, expected "
                f"({self.algebra.dim},{self.space_dim},{self.space_dim})"
            )
        object.__setattr__(self, "images", images)

    def apply(self, coords: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(coords), self.images, axes=(0, 0))


def embedding_representation(algebra: CStarAlgebra) -> AlgebraRepresentation:
    """The faithful representation on C^E by block-diagonal matrices."""
    total = algebra.embed_dim
    images = np.zeros((algebra.dim, total, total), dtype=np.complex128)
    images[(np.arange(algebra.dim), *embedding_index(algebra))] = 1.0
    return AlgebraRepresentation(algebra, total, images)


class RepresentationReport(NamedTuple):
    mult_residual: float
    star_residual: float
    unit_deviation: float  # || pi(1) - I ||
    unit_projection_defect: float  # how far pi(1) is from a projection
    unital: bool

    @property
    def max_residual(self) -> float:
        return max(self.mult_residual, self.star_residual)


def check_representation(rep: AlgebraRepresentation) -> RepresentationReport:
    """Residuals of multiplicativity, star-preservation and the unit image.

    The unit image is either close to the identity (``unital``) or it is
    reported as a (possibly proper) projection via its idempotency defect.
    """
    algebra = rep.algebra
    star_perm, unit = _structure(algebra.blocks)[1:3]
    images = rep.images
    scale = max(1.0, nk.maxabs(images))

    # pi(E_k) pi(E_l) against pi(E_k E_l), where E_k E_l is not 0
    targets = _product_targets(algebra.blocks)
    mult_residual = nk.pair_defect(images, images, images, targets) / scale

    def star_defects(k):  # pi(E_k*) against pi(E_k)*, a chunk of k at a time
        return images[star_perm[k]] - np.conj(images[k]).transpose(0, 2, 1)

    star_residual = nk.stack_max(len(images), rep.space_dim**2, star_defects) / scale

    unit_image = np.tensordot(unit, images, axes=(0, 0))
    identity = nk.eye(rep.space_dim)
    unit_deviation = nk.maxabs(unit_image - identity)
    proj_defect = max(
        nk.maxabs(unit_image @ unit_image - unit_image),
        nk.maxabs(unit_image - nk.adjoint(unit_image)),
    )
    return RepresentationReport(
        mult_residual,
        star_residual,
        unit_deviation,
        proj_defect,
        bool(unit_deviation <= nk.REL_TOL * scale),
    )


class ChoiReport(NamedTuple):
    choi: list[np.ndarray]  # one Choi matrix per block
    cp: bool
    min_eig: float
    spectra: list[nk.EigDecomposition]  # of each block's Hermitian part, descending


def choi_blocks(algebra: CStarAlgebra, images: np.ndarray) -> ChoiReport:
    """Per-block Choi matrices of a linear map given on the matrix-unit basis.

    For a block of size n the Choi matrix is ``sum_{ij} phi(E_ij) (x) e_ij``;
    the map is completely positive iff every block matrix is PSD.  Complete
    positivity for a direct-sum algebra reduces to its simple blocks, so this
    is equivalent to positivity of all matrix amplifications.  Each block is
    eigendecomposed once, for this verdict and for ``stinespring.gns_construct``.
    """
    images = np.asarray(images, dtype=np.complex128)
    space_dim = images.shape[1]
    choi, spectra = [], []
    min_eig = np.inf
    cp = True
    offset = 0
    for n in algebra.blocks:
        blk_images = images[offset : offset + n * n].reshape(n, n, space_dim, space_dim)
        # entry [(p,a),(q,b)] = phi(E_ab)[p,q]
        c = blk_images.transpose(2, 0, 3, 1).reshape(n * space_dim, n * space_dim)
        choi.append(c)
        # One eigensolve of the Hermitian part: a non-Hermitian block fails
        # the CP test below instead of raising NotHermitianError here.
        spectra.append(nk._descending_eigh(c))
        report = nk.spectrum_psd(spectra[-1].values, nk.frobenius(c - nk.adjoint(c)))
        herm_ok = report.herm_defect <= nk.REL_TOL * max(1.0, nk.frobenius(c))
        cp = cp and report.ok and herm_ok
        min_eig = min(min_eig, report.min_eig)
        offset += n * n
    return ChoiReport(choi, bool(cp), float(min_eig), spectra)
