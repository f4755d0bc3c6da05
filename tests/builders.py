"""Builders and writers that only the tests use.

The package reads scenarios and never writes one, and no run reaches the
helpers below: the JSON writers (inverses of the ``cli.*_from_json`` readers),
named representations, element products, crossed basis elements and the
companion of an integral form.  They live here so that ``src/covstine``
holds only what a run or the exported API reaches; the guard
``test_every_package_function_is_reached`` in ``test_kernels.py`` keeps it so.
"""

from __future__ import annotations

import numpy as np

from covstine import cstar, hilbmod
from covstine import numkernel as nk

# ---------------------------------------------------------------------------
# JSON writers: the scenario payloads the CLI reads
# ---------------------------------------------------------------------------


def entries_to_json(arr) -> list:
    """The ``[re, im]`` wire format shared by every matrix and tensor payload."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(arr).reshape(-1)]


def mat_to_json(m) -> dict:
    """Serialize a matrix as row-major [re, im] pairs with explicit shape."""
    m = nk.as_matrix(m)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": entries_to_json(m)}


def tensor_to_json(tensor: np.ndarray) -> dict:
    return {"shape": list(tensor.shape), "entries": entries_to_json(tensor)}


def algebra_to_json(algebra: cstar.CStarAlgebra) -> dict:
    return {"blocks": list(algebra.blocks)}


def representation_to_json(rep: cstar.AlgebraRepresentation) -> dict:
    labels = rep.algebra.basis_labels()
    return {
        "space_dim": rep.space_dim,
        "images": {label: mat_to_json(img) for label, img in zip(labels, rep.images)},
    }


def module_to_json(module: hilbmod.HilbertModule) -> dict:
    return {
        "algebra": algebra_to_json(module.algebra),
        "dim": module.dim,
        "action": tensor_to_json(module.action),
        "inner": tensor_to_json(module.inner),
    }


def group_to_json(group: hilbmod.FiniteGroup) -> dict:
    return {
        "order": group.order,
        "mult": group.mult.tolist(),
        "inv": group.inv.tolist(),
        "e": group.identity,
    }


def unitary_rep_to_json(rep: hilbmod.UnitaryRep) -> dict:
    return {
        "space_dim": rep.dim,
        "mats": [mat_to_json(m) for m in rep.mats],
    }


# ---------------------------------------------------------------------------
# Algebras and modules
# ---------------------------------------------------------------------------


def trace_coords(algebra: cstar.CStarAlgebra) -> np.ndarray:
    """tr of the block-diagonal embedding, as a linear functional on coords:
    1 on each diagonal matrix unit, the same vector as the unit's coordinates."""
    return cstar.unit_coords(algebra)


def left_factor_index(algebra: cstar.CStarAlgebra) -> np.ndarray:
    """``index[k, m]`` is the l with ``E_l E_k = E_m``, N when there is none."""
    product = cstar.product_index(algebra)
    index = np.full((algebra.dim, algebra.dim + 1), algebra.dim, dtype=np.int64)
    l, k = (product < algebra.dim).nonzero()
    index[k, product[l, k]] = l
    return index[:, :-1]


def embed_coords(algebra: cstar.CStarAlgebra, coords: np.ndarray) -> np.ndarray:
    """Block-diagonal E x E matrix of the element (the embedding representation)."""
    total = algebra.embed_dim
    out = np.zeros((total, total), dtype=np.complex128)
    pos = 0
    for blk in cstar.coords_to_blocks(algebra, coords):
        n = blk.shape[0]
        out[pos : pos + n, pos : pos + n] = blk
        pos += n
    return out


def element_product(a: cstar.AlgebraElement, b: cstar.AlgebraElement) -> cstar.AlgebraElement:
    """``a b``, block by block."""
    return cstar.AlgebraElement(a.algebra, tuple(x @ y for x, y in zip(a.data, b.data)))


def inner_coords(module: hilbmod.HilbertModule, xi: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """A-coordinates of the inner product of two X-coordinate vectors."""
    m, n_dim = module.dim, module.algebra.dim
    return zeta @ (np.conj(xi) @ module.inner.reshape(m, m * n_dim)).reshape(m, n_dim)


# ---------------------------------------------------------------------------
# Named unitary representations
# ---------------------------------------------------------------------------


def cyclic_character_rep(group: hilbmod.FiniteGroup, k: int) -> hilbmod.UnitaryRep:
    """One-dimensional character t -> exp(2 pi i k t / n) of a cyclic group."""
    n = group.order
    omega = np.exp(2j * np.pi * k / n)
    mats = np.array([[[omega**t]] for t in range(n)], dtype=np.complex128)
    return hilbmod.UnitaryRep(group, 1, mats)


def permutation_rep(n: int) -> hilbmod.UnitaryRep:
    """The natural n-dimensional permutation representation of S_n."""
    group = hilbmod.symmetric_group(n)
    perms = hilbmod._permutations(n)
    mats = np.zeros((group.order, n, n), dtype=np.complex128)
    for a, pa in enumerate(perms):
        for x in range(n):
            mats[a, pa[x], x] = 1.0
    return hilbmod.UnitaryRep(group, n, mats)


def coset_permutation_rep(group: hilbmod.FiniteGroup, t: int) -> hilbmod.UnitaryRep:
    """Permutation representation on the left cosets of the subgroup <t>.

    Gives nontrivial content at dimension |G| / ord(t); the regular
    representation is the ``t = identity`` case.
    """
    return hilbmod.coset_rep(group, hilbmod.coset_labels(group, t))


# ---------------------------------------------------------------------------
# Crossed products
# ---------------------------------------------------------------------------


def basis_element(crossed, t: int, k: int) -> np.ndarray:
    """``delta_t (x) e_k`` of a ``CrossedAlgebra`` (e_k = E_k) or a
    ``CrossedModule`` (e_k = x_k), as a (|G|, N) or (|G|, m) coordinate array."""
    out = np.zeros((crossed.group.order, crossed.dim // crossed.group.order), dtype=np.complex128)
    out[t, k] = 1.0
    return out


def apply_companion(form, f: np.ndarray) -> np.ndarray:
    """The companion image of a crossed-algebra element under an ``IntegralForm``."""
    return np.tensordot(np.ravel(f).astype(np.complex128), form.companion_images, axes=(0, 0))
