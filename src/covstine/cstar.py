"""Finite-dimensional C*-algebras as direct sums of full matrix blocks.

An algebra is described by its block sizes ``[n_1, ..., n_k]``.  Elements
are coordinate vectors over the canonical matrix-unit basis; the basis is
enumerated block by block, row-major, with labels ``"b:i:j"``.  A map
``A -> L(H)`` is a ``CPMapAlgebra``, a *-representation too: it is a CP map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import numkernel as nk
from .errors import ShapeMismatchError


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


@dataclass(frozen=True)
class CPMapAlgebra:
    """Linear map A -> L(H) on the matrix-unit basis, expected CP, as a *-representation is."""

    algebra: CStarAlgebra
    space_dim: int
    images: np.ndarray  # (N, space_dim, space_dim)

    def __post_init__(self):
        images = np.asarray(self.images, dtype=np.complex128)
        if images.shape != (self.algebra.dim, self.space_dim, self.space_dim):
            raise ShapeMismatchError(
                f"images shape {images.shape}, expected "
                f"({self.algebra.dim},{self.space_dim},{self.space_dim})"
            )
        object.__setattr__(self, "images", images)

    @cached_property
    def choi_report(self) -> ChoiReport:
        """``choi_blocks`` of this map, computed once.

        The CP test of ``cpmaps.check_module_cp`` and the GNS factor of
        ``stinespring.gns_construct`` both read these per-block matrices.
        """
        return choi_blocks(self.algebra, self.images)


def embedding_representation(algebra: CStarAlgebra) -> CPMapAlgebra:
    """The faithful representation on C^E by block-diagonal matrices."""
    total = algebra.embed_dim
    images = np.zeros((algebra.dim, total, total), dtype=np.complex128)
    images[(np.arange(algebra.dim), *embedding_index(algebra))] = 1.0
    return CPMapAlgebra(algebra, total, images)


class ChoiReport(NamedTuple):
    cp: bool
    min_eig: float
    hermiticity: float  # worst |phi(E_k*) - phi(E_k)*|, the largest entry of C - C*
    spectra: list[nk.EigDecomposition]  # of each block's Hermitian part, descending


def choi_blocks(algebra: CStarAlgebra, images: np.ndarray) -> ChoiReport:
    """Per-block Choi matrices of a linear map given on the matrix-unit basis.

    For a block of size n the Choi matrix is ``sum_{ij} phi(E_ij) (x) e_ij``;
    the map is completely positive iff every block matrix is PSD.  Complete
    positivity for a direct-sum algebra reduces to its simple blocks, so this
    is equivalent to positivity of all matrix amplifications.  Each block is
    eigendecomposed once, for this verdict and for ``stinespring.gns_construct``.
    The entry ``[(p,a),(q,b)]`` of ``C - C*`` is ``phi(E_ab)[p,q] - conj(phi(E_ba)[q,p])``, so
    the largest over the blocks is the map's hermiticity residual.
    """
    images = np.asarray(images, dtype=np.complex128)
    space_dim = images.shape[1]
    spectra = []
    min_eig, hermiticity = np.inf, 0.0
    cp = True
    offset = 0
    for n in algebra.blocks:
        blk_images = images[offset : offset + n * n].reshape(n, n, space_dim, space_dim)
        # entry [(p,a),(q,b)] = phi(E_ab)[p,q]
        c = blk_images.transpose(2, 0, 3, 1).reshape(n * space_dim, n * space_dim)
        # One eigensolve of the Hermitian part: a non-Hermitian block fails
        # the CP test below instead of raising NotHermitianError here.
        spectra.append(nk._descending_eigh(c))
        skew = c - nk.adjoint(c)
        hermiticity = max(hermiticity, nk.maxabs(skew))
        report = nk.spectrum_psd(spectra[-1].values, nk.frobenius(skew))
        herm_ok = report.herm_defect <= nk.REL_TOL * max(1.0, nk.frobenius(c))
        cp = cp and report.ok and herm_ok
        min_eig = min(min_eig, report.min_eig)
        offset += n * n
    return ChoiReport(bool(cp), float(min_eig), hermiticity, spectra)
