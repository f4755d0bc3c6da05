"""Builders and writers that only the tests use.

The package reads scenarios and never writes one, and no run reaches the
helpers below: the JSON writers (inverses of the ``cli.*_from_json`` readers)
and the H-amplified payload of a generated scenario, algebra elements held
block by block and their products, a module's positivity verdict, the seeded
plain module map, named representations, crossed basis elements, the companion
images of an induced map, and the image of an element under a map given on the
basis.  They live here so that ``src/covstine`` holds only what a run or the API
list of README.md reaches; the guard ``test_every_package_function_is_reached``
in ``test_kernels.py`` keeps it so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from covstine import cli, cpmaps, crossed, cstar, hilbmod
from covstine import numkernel as nk
from covstine.errors import ShapeMismatchError

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


def representation_to_json(rep: cstar.CPMapAlgebra) -> dict:
    labels = rep.algebra.basis_labels()
    return {
        "space_dim": rep.space_dim,
        "images": {label: mat_to_json(img) for label, img in zip(labels, rep.images)},
    }


def partial_isometry_scenario(kind: str, k: int, h: int) -> dict:
    """A scenario on C over itself (``standard_module`` [1, 1]) whose map sends the one
    basis vector to the (k, h) partial isometry ``T = [I 0; 0 0]`` with companion image
    ``T* T``: K = k and H = h, either one possibly 0, with a seed for ``uniqueness``."""
    image = np.eye(k, h)
    return {
        "schema": 1,
        "kind": kind,
        "seed": 3,
        "objects": {
            "module": {"standard_module": [1, 1]},
            "cp_map": {
                "images": {"0": mat_to_json(image)},
                "companion": {"space_dim": h, "images": {"0:0:0": mat_to_json(image.T @ image)}},
            },
        },
    }


def h_amplified_scenario(scenario: dict, r: int) -> dict:
    """The H-amplified payload of a generated covariant scenario, with a fixed unit
    vector psi of C^r: the map ``Phi(x) (I (x) <psi|)``, its companion
    ``phi (x) |psi><psi|``, u as ``u (x) I_r`` and u' kept, on the scenario's own
    ``standard_action``, as explicit objects.  The map stays covariant and its
    companion's, so H grows r times and K, the GNS space and every rank stay."""
    cov = cli.resolve_scenario(scenario, "generated.json").cov
    system, dim_h = cov.system, cov.base.space_dims[0]
    psi = np.arange(1, r + 1) + 1j * np.arange(r)[::-1]
    psi = psi / np.linalg.norm(psi)
    bra = np.kron(np.eye(dim_h), np.conj(psi)[None, :])
    projector = np.outer(psi, np.conj(psi))
    labels = system.module.algebra.basis_labels()
    companion = {
        label: mat_to_json(np.kron(image, projector))
        for label, image in zip(labels, cov.base.companion.images)
    }
    u = [mat_to_json(np.kron(mat, np.eye(r))) for mat in cov.u.mats]
    objects = {
        "system": {
            "standard_action": {
                "group": group_to_json(system.group),
                "gamma": unitary_rep_to_json(system.gamma),
                "delta": unitary_rep_to_json(system.delta),
            }
        },
        "cp_map": {
            "images": {str(i): mat_to_json(image @ bra) for i, image in enumerate(cov.base.images)},
            "companion": {"space_dim": dim_h * r, "images": companion},
        },
        "u": {"space_dim": dim_h * r, "mats": u},
        "u_prime": unitary_rep_to_json(cov.u_prime),
    }
    return {"schema": 1, "kind": scenario["kind"], "seed": scenario["seed"], "objects": objects}


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
    for blk in coords_to_blocks(algebra, coords):
        n = blk.shape[0]
        out[pos : pos + n, pos : pos + n] = blk
        pos += n
    return out


def coords_to_blocks(algebra: cstar.CStarAlgebra, coords: np.ndarray) -> list[np.ndarray]:
    out, offset = [], 0
    for n in algebra.blocks:
        out.append(np.asarray(coords[offset : offset + n * n]).reshape(n, n).copy())
        offset += n * n
    return out


def blocks_to_coords(algebra: cstar.CStarAlgebra, data) -> np.ndarray:
    parts = []
    for n, blk in zip(algebra.blocks, data, strict=True):
        blk = nk.as_matrix(blk)
        if blk.shape != (n, n):
            raise ShapeMismatchError(f"block of shape {blk.shape}, expected ({n},{n})")
        parts.append(blk.reshape(-1))
    return np.concatenate(parts)


@dataclass(frozen=True)
class AlgebraElement:
    """Element of a block algebra, stored as one matrix per block: the form the
    brute-force oracles multiply, beside the coordinate vectors every run uses."""

    algebra: cstar.CStarAlgebra
    data: tuple[np.ndarray, ...]

    @classmethod
    def from_blocks(cls, algebra: cstar.CStarAlgebra, data) -> "AlgebraElement":
        return cls.from_coords(algebra, blocks_to_coords(algebra, data))

    @classmethod
    def from_coords(cls, algebra: cstar.CStarAlgebra, coords) -> "AlgebraElement":
        return cls(algebra, tuple(coords_to_blocks(algebra, np.asarray(coords))))

    def coords(self) -> np.ndarray:
        return blocks_to_coords(self.algebra, self.data)

    def star(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(nk.adjoint(b) for b in self.data))


def element_product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """``a b``, block by block."""
    return AlgebraElement(a.algebra, tuple(x @ y for x, y in zip(a.data, b.data)))


def inner_coords(module: hilbmod.HilbertModule, xi: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """A-coordinates of the inner product of two X-coordinate vectors."""
    m, n_dim = module.dim, module.algebra.dim
    return zeta @ (np.conj(xi) @ module.inner.reshape(m, m * n_dim)).reshape(m, n_dim)


def module_positivity(module: hilbmod.HilbertModule) -> nk.PsdReport:
    """``nk.psd_check_by_components`` of the embedded Gram super-matrix ``[<x_i, x_j>]``, the
    decomposition whose ``min_eig`` ``hilbmod.check_module_axioms`` reports: its verdict."""
    support, e_dim = module.support, module.algebra.embed_dim
    unit_row, unit_col = cstar.embedding_index(module.algebra)[:, support.k]
    rows, cols = support.i * e_dim + unit_row, support.j * e_dim + unit_col
    return nk.psd_check_by_components(module.dim * e_dim, rows, cols, support.values)


def random_module_cp(
    p: int,
    n: int,
    amplification: int,
    seed: int,
    h_dim: int | None = None,
    k_dim: int | None = None,
) -> tuple[cpmaps.ModuleCPMap, cpmaps.CovariantWitness]:
    """Seeded plain module CP map: the trivial-group covariant generator.

    ``h_dim``/``k_dim`` override the domain spaces (``k_dim`` must be at
    least ``p * amplification`` for the compressing coisometry to exist).
    """
    group = hilbmod.trivial_group()
    system = hilbmod.standard_action(
        group, hilbmod.trivial_rep(group, p), hilbmod.trivial_rep(group, n)
    )
    u = hilbmod.trivial_rep(group, h_dim) if h_dim is not None else None
    u_prime = hilbmod.trivial_rep(group, k_dim) if k_dim is not None else None
    cov, witness = cpmaps.random_covariant_cp(system, amplification, seed, u=u, u_prime=u_prime)
    return cov.base, witness


# ---------------------------------------------------------------------------
# Named unitary representations
# ---------------------------------------------------------------------------


def concrete_cp(p: int, n: int) -> cpmaps.ModuleCPMap:
    """The defining representation of the standard p x n module, compressed by identities."""
    return cpmaps.cp_from_representation(cpmaps.concrete_representation(p, n), nk.eye(n), nk.eye(p))


def z2_diag_system() -> hilbmod.ModuleDynamicalSystem:
    """Z_2 acting on the standard 1 x 2 module through delta = diag(1, -1)."""
    group = hilbmod.cyclic_group(2)
    delta = hilbmod.UnitaryRep(group, 2, np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex))
    return hilbmod.standard_action(group, hilbmod.trivial_rep(group, 1), delta)


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


def twisted_system(group: hilbmod.FiniteGroup, p: int, n: int, seed: int) -> hilbmod.ModuleDynamicalSystem:
    """A standard action whose gamma and delta each hold a faithful summand with elements
    of order 3 or more: the regular representation of ``cyclic:3``, or the representation
    of ``symmetric:3`` on the 3 cosets of a transposition, padded with trivial summands to
    p and n (at least 3) and conjugated by seeded Haar unitaries.  So alpha_t, eta_t and
    u_t = delta_t differ from their values at t^-1, where generated systems mostly draw
    trivial summands at small sizes and have ``alpha_t == alpha_{t^-1}``."""
    rng = np.random.default_rng(seed)
    faithful = hilbmod.regular_rep(group) if group.order == 3 else coset_permutation_rep(group, 1)

    def twisted(dim):
        rep = faithful
        if dim > faithful.dim:
            rep = hilbmod.direct_sum_rep(faithful, hilbmod.trivial_rep(group, dim - faithful.dim))
        return hilbmod.conjugate_rep(rep, nk.haar_unitary(rng, dim))

    return hilbmod.standard_action(group, twisted(p), twisted(n))


def twisted_scenario(family: str, size: int, p: int, n: int, amplification: int, seed: int) -> dict:
    """A ``dilate-covariant`` payload of ``cpmaps.random_covariant_cp`` on
    ``twisted_system``, written out explicitly, with u = delta and the seed that
    ``uniqueness`` reads; the group is named (``{"symmetric": 3}``)."""
    group = cli.group_from_json({family: size})
    system = twisted_system(group, p, n, seed)
    cov, _ = cpmaps.random_covariant_cp(system, amplification, seed)
    labels = system.module.algebra.basis_labels()
    objects = {
        "system": {
            "standard_action": {
                "group": {family: size},
                "gamma": unitary_rep_to_json(system.gamma),
                "delta": unitary_rep_to_json(system.delta),
            }
        },
        "cp_map": {
            "images": {str(i): mat_to_json(image) for i, image in enumerate(cov.base.images)},
            "companion": {
                "space_dim": cov.base.space_dims[0],
                "images": {label: mat_to_json(c) for label, c in zip(labels, cov.base.companion.images)},
            },
        },
        "u": "delta",
        "u_prime": unitary_rep_to_json(cov.u_prime),
    }
    return {"schema": 1, "kind": "dilate-covariant", "seed": seed, "objects": objects}


def explicit_system_scenario(scenario: dict) -> dict:
    """``scenario``, a payload of a standard action with u = delta (as ``twisted_scenario``
    writes), with that system written as explicit stacks: ``{"standard_module": [p, n]}``,
    eta and alpha, and u as delta's matrices; the map and u' are the same."""
    system = cli.resolve_scenario(scenario, "standard").cov.system
    action = scenario["objects"]["system"]["standard_action"]
    explicit = {
        "group": action["group"],
        "module": {"standard_module": [system.gamma.dim, system.delta.dim]},
        "eta": tensor_to_json(system.eta),
        "alpha": tensor_to_json(system.alpha),
    }
    objects = {**scenario["objects"], "system": explicit, "u": unitary_rep_to_json(system.delta)}
    return {**scenario, "objects": objects}


def conditioned_scenario(cov: cpmaps.CovariantCPMap, kind: str, condition: float = 20.0) -> dict:
    """``cov`` on a module basis ``y_a = sum_i s[i, a] x_i`` of the given condition (seeded),
    written out as an explicit payload of ``kind``: in it eta is not unitary in coordinates,
    and the gains ||eta_s|| compound along the words of the bounds."""
    module, system, rng = cov.system.module, cov.system, np.random.default_rng(5)
    s = np.diag(np.geomspace(1.0, condition, module.dim)) @ nk.haar_unitary(rng, module.dim)
    inv = np.linalg.inv(s)
    inner = np.einsum("ia,jb,ijk->abk", np.conj(s), s, module.inner)
    action = np.einsum("cl,ikl,ia->akc", inv, module.action, s)
    moved = hilbmod.HilbertModule.from_tensors(module.algebra, module.dim, action, inner)
    labels = module.algebra.basis_labels()
    objects = {
        "system": {
            "group": group_to_json(system.group),
            "module": module_to_json(moved),
            "eta": tensor_to_json(inv @ system.eta @ s),
            "alpha": tensor_to_json(system.alpha),
        },
        "cp_map": {
            "images": {str(i): mat_to_json(image) for i, image in enumerate(np.einsum("ia,ikl->akl", s, cov.base.images))},
            "companion": {
                "space_dim": cov.base.space_dims[0],
                "images": {k: mat_to_json(c) for k, c in zip(labels, cov.base.companion.images)},
            },
        },
        "u": unitary_rep_to_json(cov.u),
        "u_prime": unitary_rep_to_json(cov.u_prime),
    }
    return {"schema": 1, "kind": kind, "seed": 7, "objects": objects}


# ---------------------------------------------------------------------------
# Crossed products
# ---------------------------------------------------------------------------


def basis_element(crossed, t: int, k: int) -> np.ndarray:
    """``delta_t (x) e_k`` of a ``CrossedAlgebra`` (e_k = E_k) or a
    ``CrossedModule`` (e_k = x_k), as a (|G|, N) or (|G|, m) coordinate array."""
    out = np.zeros((crossed.group.order, crossed.dim // crossed.group.order), dtype=np.complex128)
    out[t, k] = 1.0
    return out


def crossed_unit(calg) -> np.ndarray:
    """The unit ``delta_e (x) 1`` of a ``CrossedAlgebra``, as a (|G|, N) coordinate array."""
    out = np.zeros((calg.group.order, calg.base.dim), dtype=np.complex128)
    out[calg.group.identity] = cstar.unit_coords(calg.base)
    return out


def companion_images(induced) -> np.ndarray:
    """The companion's integral form ``phi(E_k) u_t`` of a ``crossed.InducedCP``, at
    crossed index ``t N + k``, integrated from the pair its dilation holds."""
    cov = induced.dilation.cov_map
    return crossed._integrated(cov.base.companion.images, cov.u.mats)


def apply(images: np.ndarray, coords) -> np.ndarray:
    """The image ``sum_k coords[k] images[k]`` of an element given by its coordinates (a
    crossed element's (|G|, N) array read flat) under a map given on the basis."""
    return np.tensordot(np.ravel(coords).astype(np.complex128), images, axes=(0, 0))
