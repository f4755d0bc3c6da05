"""Finite-dimensional Hilbert C*-modules, finite groups and dynamical systems.

A module ``X`` over a block algebra ``A`` is given by structure tensors on a
chosen basis, ``action[i, k, :]`` the X-coordinates of ``x_i . E_k`` and
``inner[i, j, :]`` the A-coordinates of ``<x_i, x_j>`` (conjugate-linear in
the first slot), and held by their nonzeros alone; whether it is full is read
off the module.  Groups come as explicit multiplication tables; actions on
modules are invertible matrices per group element together with the induced
*-automorphisms of the coefficient algebra.
Maps on a module, representations among them, are ``cpmaps.ModuleCPMap``s.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import bounds, cstar
from . import numkernel as nk
from .errors import (
    GroupMismatchError,
    NotFullError,
    ShapeMismatchError,
)


class ModuleSupport(NamedTuple):
    """The nonzeros of a module's structure tensors: the data a module is held by.
    A standard p x n module has m n of each, 512 of 262,144 at 8 x 8."""

    i: np.ndarray  # the nonzero entries inner[i, j, k], in row-major order
    j: np.ndarray
    k: np.ndarray
    values: np.ndarray
    pairs: np.ndarray  # i m + j for each pair with <x_i, x_j> not 0, ascending
    row_j: np.ndarray  # the live action rows (j, k), x_j . E_k not 0, row-major
    row_k: np.ndarray
    act: tuple[np.ndarray, np.ndarray, np.ndarray]  # (j, k, l) of each nonzero action[j, k, l]
    act_values: np.ndarray


@dataclass(frozen=True, eq=False)
class HilbertModule:
    """A module held by the nonzeros of its structure tensors.  ``action`` and
    ``inner`` are scattered from them on first read, for API use only: no run
    path reads them."""

    algebra: cstar.CStarAlgebra
    dim: int  # complex dimension m of X
    support: ModuleSupport

    @classmethod
    def from_tensors(cls, algebra: cstar.CStarAlgebra, dim: int, action, inner) -> "HilbertModule":
        """The module with these structure tensors, shape-checked, held by their nonzeros."""
        m, n_dim = dim, algebra.dim
        action = np.asarray(action, dtype=np.complex128)
        inner = np.asarray(inner, dtype=np.complex128)
        if action.shape != (m, n_dim, m):
            raise ShapeMismatchError(f"action tensor shape {action.shape}")
        if inner.shape != (m, m, n_dim):
            raise ShapeMismatchError(f"inner tensor shape {inner.shape}")
        i, j, k = inner.nonzero()
        act = action.nonzero()
        linked, live = np.zeros((m, m), dtype=bool), np.zeros((m, n_dim), dtype=bool)
        linked[i, j] = live[act[:2]] = True
        support = ModuleSupport(
            i, j, k, inner[i, j, k], linked.reshape(-1).nonzero()[0], *live.nonzero(),
            act, action[act],
        )
        return cls(algebra, dim, support)

    @cached_property
    def action(self) -> np.ndarray:  # (m, N, m): coordinates of x_i . E_k
        action = np.zeros((self.dim, self.algebra.dim, self.dim), dtype=np.complex128)
        action[self.support.act] = self.support.act_values
        return action

    @cached_property
    def inner(self) -> np.ndarray:  # (m, m, N): coordinates of <x_i, x_j>
        inner = np.zeros((self.dim, self.dim, self.algebra.dim), dtype=np.complex128)
        inner[self.support[:3]] = self.support.values
        return inner

    @cached_property
    def pair_rows(self) -> np.ndarray:
        """(pairs, N): the nonzero rows ``<x_i, x_j>``, at ``support.pairs``."""
        sup = self.support
        return rows_at(sup.pairs, sup.i * self.dim + sup.j, sup.k, sup.values, self.algebra.dim)

    @cached_property
    def live_action_rows(self) -> np.ndarray:
        """(m, count): ``action[j_r, k_r, q]`` at the live rows r = (j, k) of ``support``,
        read once by linearity and compatibility."""
        sup, n_dim = self.support, self.algebra.dim
        j, k, l = sup.act
        return rows_at(sup.row_j * n_dim + sup.row_k, j * n_dim + k, l, sup.act_values, self.dim).T

    @cached_property
    def inner_targets(self) -> nk.PairTargets:
        """The nonzero ``inner[i, j, k]`` as ``nk.pair_defect`` targets, read once:
        each weighs the k-th matrix of the basis in the target of the pair (i, j)."""
        support = self.support
        shape = (self.dim, self.dim, self.algebra.dim)
        return nk.PairTargets(shape, support.i, support.j, support.k, support.values)

    @cached_property
    def inner_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``_grouped_rows`` of the inner tensor by unit, read once by linearity and
        equivariance: ``rows[c * depth + d] = inner[heads[c, d], :, c]``."""
        support, m = self.support, self.dim
        shape = (self.algebra.dim, m, m)
        return _grouped_rows(shape, support.k, support.i, support.j, support.values)

    @cached_property
    def axiom_report(self) -> "ModuleAxiomReport":
        """``check_module_axioms`` of this module, computed once."""
        return check_module_axioms(self)

    @cached_property
    def fullness(self) -> nk.RankProfile:
        """``psd_rank`` of the (N, N) Gram ``flat* flat`` of the rows
        ``flat[(i, j)] = <x_i, x_j>``, computed once, on its eigenvalues alone: fullness
        is its rank.  It is ``nk.gram`` of ``pair_rows``: the zero rows add nothing."""
        return nk.psd_rank(nk.gram(self.pair_rows))

    @property
    def full(self) -> bool:  # the rows <x_i, x_j> span the algebra
        return self.fullness.rank == self.algebra.dim


def standard_module(p: int, n: int) -> HilbertModule:
    """The p x n complex matrices over M_n, with ``<x, y> = x* y``.

    Basis of X: matrix units in row-major order.  This module is always full:
    the inner products of basis vectors already run through all matrix units
    of the coefficient algebra.  It is held by its support, in closed form.
    """
    if p < 1 or n < 1:
        raise ShapeMismatchError(f"standard module needs p, n >= 1, got ({p},{n})")
    m = p * n
    q, i, b = np.indices((p, n, n)).reshape(3, -1)
    row, col, unit = q * n + i, q * n + b, i * n + b
    # <f_{q,i}, f_{q,b}> = E_{i,b} and f_{q,i} . E_{i,b} = f_{q,b}: one nonzero 1 per
    # (q, i, b) in each tensor, in row-major order
    values, act_values = (np.ones(len(row), dtype=np.complex128) for _ in range(2))
    support = ModuleSupport(
        row, col, unit, values, row * m + col, row, unit, (row, unit, col), act_values
    )
    return HilbertModule(cstar.CStarAlgebra((n,)), m, support)


def standard_basis_matrices(p: int, n: int) -> np.ndarray:
    """The p x n matrix units in the basis order used by ``standard_module``."""
    return nk.eye(p * n).reshape(p * n, p, n)


def rows_at(keys, at, cols, values, width) -> np.ndarray:
    """The (len(keys), width) rows of a tensor flattened to rows, at the ascending
    row ``keys``, from its nonzero ``values`` at row ``at`` and column ``cols``."""
    rows = np.zeros((len(keys), width), dtype=np.complex128)
    rows[keys.searchsorted(at), cols] = values
    return rows


def same_structure(first: HilbertModule, second: HilbertModule) -> bool:
    """Whether two modules have one algebra, dimension and structure tensors, compared
    on their supports: equal tensors have equal nonzeros."""
    a, b = ((x.algebra.blocks, x.dim, *x.support[:4], *x.support.act, x.support.act_values)
            for x in (first, second))
    return all(np.array_equal(u, v) for u, v in zip(a, b))


def require_full(module: HilbertModule) -> None:
    """Raises ``NotFullError`` when ``<X, X>`` does not span the coefficient algebra;
    a map on a full module's algebra is fixed by its values there."""
    if not module.full:
        raise NotFullError(
            f"module is not full: rank {module.fullness.rank} of {module.algebra.dim}"
        )


class ModuleAxiomReport(NamedTuple):
    linearity_residual: float  # <x, y.a> = <x,y> a
    symmetry_residual: float  # <x,y>* = <y,x>
    positivity_min_eig: float  # Gram super-matrix in M_m(A), embedded
    definite: bool  # <x,x> = 0 only for x = 0
    fullness_rank: int
    fullness_required: int


def check_module_axioms(module: HilbertModule) -> ModuleAxiomReport:
    """Residuals for the Hilbert-module axioms plus fullness of the span.

    Only ``verify`` reads this report; fullness is decided by ``require_full``.
    Everything is read from ``module.support``; linearity and symmetry are
    ``module_defects`` over the largest entry (at least 1).

    Positivity is the least eigenvalue of the Gram super-matrix ``[<x_i, x_j>]``
    in ``M_m(A)``, embedded, which ``verify``'s row gates.  Each ``E_k`` embeds as one entry, so the nonzeros
    of ``inner`` are its nonzeros, and ``nk.psd_check_by_components``
    eigensolves it one connected component of its sparsity at a time: a
    standard p x n module has p components of order n.  No (m E)^2 array is
    formed, and no array the size of ``inner`` unless one component spans
    the module.
    """
    algebra = module.algebra
    m, e_dim = module.dim, algebra.embed_dim
    support = module.support
    i, j, k, values = support.i, support.j, support.k, support.values
    scale = max(1.0, np.abs(values).max(initial=0.0))
    linearity, symmetry = (defect / scale for defect in module_defects(module))

    unit_row, unit_col = cstar.embedding_index(algebra)
    unit_row, unit_col = unit_row[k], unit_col[k]
    psd = nk.psd_check_by_components(
        m * e_dim, i * e_dim + unit_row, j * e_dim + unit_col, values
    )

    # <x,x> = 0 iff the trace of its embedding vanishes, so definiteness is
    # positive-definiteness of the trace Gram, summed over the diagonal units.
    diagonal = unit_row == unit_col
    trace_gram = np.zeros((m, m), dtype=np.complex128)
    np.add.at(trace_gram, (i[diagonal], j[diagonal]), values[diagonal])
    trace_rank = nk.psd_rank(trace_gram)

    return ModuleAxiomReport(
        linearity,
        symmetry,
        psd.min_eig,
        trace_rank.rank == m,
        module.fullness.rank,
        algebra.dim,
    )


def module_defects(module: HilbertModule) -> tuple[float, float]:
    """Worst ``|<x_i, x_j . E_k> - <x_i, x_j> E_k|`` by ``_linearity_defect``, on the grouped inner
    rows that equivariance reads as well, and worst ``|<x_i, x_j>* - <x_j, x_i>|``: each nonzero
    ``<x_i, x_j>`` against its mirror, where both are 0 they agree exactly.  Unscaled."""
    values = module.support.values
    return _linearity_defect(module, np.abs(values)), nk.maxabs(np.conj(values) - _mirrored_values(module))


def _mirrored_values(module: HilbertModule) -> np.ndarray:
    """``inner[j, i, perm k]`` at each nonzero (i, j, k), ``perm`` the star permutation (an
    involution), so that ``<x_i, x_j>* = <x_j, x_i>`` compares it with ``conj(inner[i, j, k])``;
    the mirror of a zero entry is compared where it is itself a nonzero entry."""
    sup, m, n_dim = module.support, module.dim, module.algebra.dim
    keys = (sup.i * m + sup.j) * n_dim + sup.k
    mirrors = (sup.j * m + sup.i) * n_dim + cstar.star_permutation(module.algebra)[sup.k]
    at = keys.searchsorted(mirrors).clip(max=len(keys) - 1)
    return np.where(keys[at] == mirrors, sup.values[at], 0)


def _linearity_defect(module: HilbertModule, magnitudes: np.ndarray) -> float:
    """Unscaled worst ``|<x_i, x_j . E_k> - <x_i, x_j> E_k|`` over all (i, j, k)
    and units, ``magnitudes`` being ``|values|`` of the support.

    The left side ``sum_q inner[h, q, c] action[j, k, q]`` is formed on the grid
    of the heads h of each unit c (``inner[h, :, c]`` not 0, the rows of
    ``module.inner_rows``) by the live rows (j, k) (``x_j . E_k`` not 0): one GEMM
    per chunk of units under the chunk rule.  The right side is read from the
    nonzero list: ``inner[i, j, l] E_k`` is ``inner[i, j, l] E_c`` for at most one
    unit c.  On the grid it is subtracted at (c, i, (j, k)), so never at the zero
    padding rows; off it (a dead row or a column that is no head) the left side
    is exactly 0 and its magnitude is the defect.  The residual is the same
    maximum of the same absolute values as on the full (m, m, N, N) comparison.
    """
    algebra = module.algebra
    m, n_dim = module.dim, algebra.dim
    support = module.support
    i, j = support.i, support.j
    # live rows and heads; the padding unit N counts as live, so the padding
    # of the right-product table is never off the grid
    live_rows = np.zeros((m, n_dim + 1), dtype=bool)
    live_cols = np.zeros((m, n_dim + 1), dtype=bool)
    live_rows[support.row_j, support.row_k] = True
    live_cols[i, support.k] = True
    live_rows[:, n_dim] = live_cols[:, n_dim] = True
    units, products = cstar.right_product_index(algebra)[:, support.k]
    on_grid = live_rows[j[:, None], units] & live_cols[i[:, None], products]
    worst = magnitudes[~on_grid.all(axis=1)].max(initial=0.0)

    rows, heads = module.inner_rows
    depth, count = heads.shape[1], len(support.row_j)
    live = module.live_action_rows
    # the flat place of each on-grid target in the (N, depth, count) grid, by unit
    head_at = live_cols[:, :n_dim].cumsum(axis=0) - 1  # [i, c]: i's place among c's heads
    row_at = live_rows[:, :n_dim].reshape(-1).cumsum() - 1  # [j N + k]: the row of (j, k)
    nonzero, slot = (on_grid & (units < n_dim)).nonzero()
    unit, c = units[nonzero, slot], products[nonzero, slot]
    at = (c * depth + head_at[i[nonzero], c]) * count + row_at[j[nonzero] * n_dim + unit]
    order = at.argsort()
    at, targets = at[order], support.values[nonzero[order]]

    def defects(span):
        first, last = span.start * depth * count, span.stop * depth * count
        grid = rows[span.start * depth : span.stop * depth] @ live
        lo, hi = at.searchsorted([first, last])
        grid.reshape(-1)[at[lo:hi] - first] -= targets[lo:hi]
        return grid

    return float(max(worst, nk.stack_max(n_dim, depth * count, defects)))


def range_stack(images, v=None) -> np.ndarray:
    """The column stack spanning ``[pi(X) V H]``, ``images`` one map ``(dim K', dim H')``
    per module basis vector and ``v: H -> H'`` defaulting to the identity."""
    ranged = images if v is None else images @ v
    return ranged.transpose(1, 0, 2).reshape(ranged.shape[1], ranged.shape[0] * ranged.shape[2])


def corange_stack(images, w=None) -> np.ndarray:
    """The column stack spanning ``[pi(X)* W K]``, ``w: K -> K'`` defaulting to the
    identity; each rebinding of ``coranged`` frees the step before it (two copies at most)."""
    coranged = np.conj(images).transpose(0, 2, 1)
    if w is not None:
        coranged = coranged @ w
    return range_stack(coranged)


def identity_defect(images: np.ndarray, module: HilbertModule, companion: np.ndarray) -> float:
    """Unscaled worst ``|images[i]* images[j] - sum_k inner[i, j, k] companion[k]|``.

    This is ``pi(x)* pi(y) = pi_A(<x, y>)`` on basis pairs, by ``nk.pair_defect``
    with the targets ``module.inner_targets``, read from its nonzero inner products.
    """
    return nk.pair_defect(
        np.conj(images).transpose(0, 2, 1), images, companion, module.inner_targets
    )


# ---------------------------------------------------------------------------
# Finite groups and unitary representations
# ---------------------------------------------------------------------------


# Groups are tabulated densely, so their order is bounded before any table is built.
MAX_GROUP_ORDER = 24


class GroupTree(NamedTuple):
    """A generating set S and a BFS tree of the left Cayley graph of the subgroup it generates."""

    generators: np.ndarray  # S: each the smallest element outside the subgroup of those before
    edges: list[tuple[int, int, int]]  # (t, k, t') in BFS order: t = s t', s = generators[k]


def _bfs(mult: list, e: int, generators: list[int]) -> GroupTree:
    edges, reached = [(e, -1, e)], {e}
    for x, _, _ in edges:  # grows while it is read
        for k, t in enumerate(mult[s][x] for s in generators):
            if t not in reached:
                reached.add(t)
                edges.append((t, k, x))
    return GroupTree(np.array(generators, dtype=np.int64), edges[1:])


@dataclass(frozen=True)
class FiniteGroup:
    """Group given by an explicit multiplication table over indices 0..g-1.

    The tables are copied and made read-only, so a group can be shared and
    what it caches (``coset_candidates``) stays valid.  Its ``tree`` (``_bfs``) is
    built with it over S taken greedily, the smallest element outside the subgroup
    generated so far: S = {1} of depth n - 1 for ``cyclic:n``, {1, 2} of depth 3 for
    ``symmetric:3``, {1, 2, 6} of depth 6 for ``symmetric:4``, empty for the trivial group.
    """

    order: int
    mult: np.ndarray  # (g, g) index table
    identity: int
    inv: np.ndarray  # (g,) inverse indices
    tree: GroupTree = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mult = np.array(self.mult, dtype=np.int64)
        inv = np.array(self.inv, dtype=np.int64)
        mult.setflags(write=False)
        inv.setflags(write=False)
        g = self.order
        if g < 1 or mult.shape != (g, g) or inv.shape != (g,):
            raise ShapeMismatchError("group table shapes inconsistent with order")
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "inv", inv)
        e = self.identity
        if not 0 <= e < g or min(mult.min(), inv.min()) < 0 or max(mult.max(), inv.max()) >= g:
            raise ShapeMismatchError(f"group table entries outside 0..{g - 1}")
        if not (np.all(mult[e] == np.arange(g)) and np.all(mult[:, e] == np.arange(g))):
            raise ShapeMismatchError("identity element does not act as identity")
        elements = np.arange(g)
        if not ((mult[elements, inv] == e).all() and (mult[inv, elements] == e).all()):
            raise ShapeMismatchError("inverse table is wrong")
        # (s t) r against s (t r) for all triples at once, in (s, t, r) order
        failures = mult[mult] != mult[:, mult]
        if failures.any():
            triple = tuple(int(i) for i in np.argwhere(failures)[0])
            raise ShapeMismatchError(f"multiplication not associative at {triple}")
        table, generators = mult.tolist(), []
        while len((tree := _bfs(table, e, generators)).edges) < g - 1:
            generators.append(min(set(range(g)) - {e, *(t for t, _, _ in tree.edges)}))
        object.__setattr__(self, "tree", tree)

    @cached_property
    def coset_candidates(self) -> dict[int, np.ndarray]:
        """``coset_labels`` of the first ``t`` of each coset count, keyed by that
        count, computed once per group and read-only: ``seeded_rep`` draws its
        summands from their ``coset_rep``."""
        candidates: dict[int, np.ndarray] = {}
        for t in range(self.order):
            cosets = self.order // len(cyclic_subgroup(self, t))
            if cosets not in candidates:
                candidates[cosets] = coset_labels(self, t)
                candidates[cosets].setflags(write=False)
        return candidates

    def same_as(self, other: "FiniteGroup") -> bool:
        return (
            self.order == other.order
            and self.identity == other.identity
            and np.array_equal(self.mult, other.mult)
        )


# Groups are built once per process and shared, their tables read-only.  The
# ones a scenario can name are built with their coset candidates when the
# module loads (``_build_named_groups``), so no scenario builds one.
@lru_cache(maxsize=None)
def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return FiniteGroup(n, (idx[:, None] + idx[None, :]) % n, 0, (-idx) % n)


def trivial_group() -> FiniteGroup:
    return cyclic_group(1)


def _permutations(n: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(n)))


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> FiniteGroup:
    """S_n with elements in lexicographic permutation order (identity first)."""
    perms = np.array(_permutations(n), dtype=np.int64).reshape(-1, n)
    # base-n codes, ascending in lexicographic order, locate a permutation
    codes = perms @ n ** np.arange(n - 1, -1, -1)
    composed = perms[np.arange(len(perms))[:, None, None], perms]  # [a, b, x]: pa[pb[x]]
    mult = codes.searchsorted(composed @ n ** np.arange(n - 1, -1, -1))
    inv = codes.searchsorted(perms.argsort(axis=1) @ n ** np.arange(n - 1, -1, -1))
    return FiniteGroup(len(perms), mult, 0, inv)


def frozen(values) -> np.ndarray:
    """``values`` as a read-only complex array that no other reference can write: kept where
    it is one already and owns its data (a stack built and frozen for its holder), else copied."""
    kept = isinstance(values, np.ndarray) and values.dtype == np.complex128 and values.flags.owndata
    if not kept or values.flags.writeable:
        values = np.array(values, dtype=np.complex128)
        values.setflags(write=False)
    return values


@dataclass(frozen=True)
class UnitaryRep:
    group: FiniteGroup
    dim: int
    mats: np.ndarray  # (g, dim, dim)

    def __post_init__(self):  # read-only, as the cached ``law`` reads them
        mats = frozen(self.mats)
        if mats.shape != (self.group.order, self.dim, self.dim):
            raise ShapeMismatchError(f"representation matrices shape {mats.shape}")
        object.__setattr__(self, "mats", mats)

    @cached_property
    def law(self) -> bounds.GroupLaw:  # computed once
        return group_law(self.group, self.mats)


class UnitaryRepReport(NamedTuple):
    hom_residual: float  # u_s u_t = u_{st}
    unit_residual: float  # u_e = I
    unitary_residual: float  # u_t* u_t = I


def edge_defects(group: FiniteGroup, mats: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``m_s m_t - m_st`` for the elements s and every t, read as [s, row, t, col]: one GEMM
    of the rows ``[m_s]`` against the columns ``[m_t]``."""
    g, d = mats.shape[:2]
    columns = mats.transpose(1, 0, 2).reshape(d, g * d)
    products = (mats[s].reshape(len(s) * d, d) @ columns).reshape(len(s), d, g, d)
    return products - mats[group.mult[s]].transpose(0, 2, 1, 3)


def _unitarity_defects(mats: np.ndarray, s: np.ndarray) -> np.ndarray:  # m_s* m_s - I
    return np.conj(mats[s]).transpose(0, 2, 1) @ mats[s] - nk.eye(mats.shape[1])


def group_law(group: FiniteGroup, mats: np.ndarray) -> bounds.GroupLaw:
    """The group law of ``mats``, one square matrix m_t per element, read on the generators:
    ``bounds.group_law`` of the ``edge_defects`` and ``m_s* m_s - I`` for s in S, formed a chunk
    of s at a time, with their Frobenius norms eps and rho, and of ``m_e - I``."""
    g, d = mats.shape[:2]
    hom, eps, unitary, rho = 0.0, [], 0.0, []
    for span in nk.stack_spans(len(group.tree.generators), (g + 1) * d * d):
        s = group.tree.generators[span]
        grid, square = np.abs(edge_defects(group, mats, s)), np.abs(_unitarity_defects(mats, s))
        hom, unitary = max(hom, nk.maxabs(grid)), max(unitary, nk.maxabs(square))
        eps += np.sqrt(np.square(grid, out=grid).sum(axis=(1, 3))).tolist()  # [k][t]: eps_{s,t}
        rho += np.sqrt(np.square(square, out=square).sum(axis=(1, 2))).tolist()
    unit, kernel = mats[group.identity] - nk.eye(d), (g * d * d, lambda s: edge_defects(group, mats, s))
    return bounds.group_law(group, (hom, eps), (unitary, rho), (nk.maxabs(unit), nk.frobenius(unit)), [kernel])


def check_unitary_rep(rep: UnitaryRep) -> UnitaryRepReport:
    """The group law and unitarity of a representation, bounded on every pair and t, the latter
    from the unitarity defects on S that ``group_law`` formed."""
    law, group, on = rep.law, rep.group, rep.law.premises
    same = bounds.Premises([1.0] * len(group.tree.generators), [0.0] * len(group.tree.edges), 0.0, [1.0] * group.order)
    kernel = (rep.dim**2, lambda t: _unitarity_defects(rep.mats, t))
    unitary = bounds.bounded(group, same, on.times(on, group), law.unitarity, math.sqrt(rep.dim), [kernel])
    return UnitaryRepReport(law.hom, law.unit, unitary)


def intertwining_defects(left: UnitaryRep, x: np.ndarray, right: UnitaryRep) -> np.ndarray:
    """``|left_t X - X right_t|``, its largest entry, for each t of the group: the
    input check of a generated covariant map names the first t that fails."""
    spans = nk.stack_spans(left.group.order, x.size)
    return np.concatenate([nk.stack_maxabs(left.mats[t] @ x - x @ right.mats[t]) for t in spans])


def intertwining_residual(left: UnitaryRep, x: np.ndarray, right: UnitaryRep) -> float:
    """Worst ``|left_t X - X right_t|`` over the group, formed on the generators and
    bounded by ``bounds.intertwining_bound``; 0 when X intertwines."""
    kernel = (x.size, lambda t: left.mats[t] @ x - x @ right.mats[t])
    return bounds.checked(left.group, left.law.premises, right.law.premises, [kernel], nk.frobenius(x))


def covariance_defect(
    transport: UnitaryRep, images: np.ndarray, left: UnitaryRep, right: UnitaryRep
) -> float:
    """Worst ``|sum_q transport[t, q, i] images[q] - left_t images[i] right_t*|`` over t.

    This is ``Phi(eta_t x) = u'_t Phi(x) u_t*`` for module maps and
    ``phi(alpha_t a) = u_t phi(a) u_t*`` for algebra maps, on basis images, formed
    on the generators, one chunk at a time, and bounded on every t by ``bounds.intertwining_bound``.
    """
    flat = images.reshape(len(images), math.prod(images.shape[1:]))

    def defects(t):
        transported = np.swapaxes(transport.mats[t], 1, 2) @ flat
        transported = transported.reshape(transported.shape[:2] + images.shape[1:])
        star_right = np.conj(right.mats[t]).transpose(0, 2, 1)
        return transported - left.mats[t, None] @ images @ star_right[:, None]

    group, sides = transport.group, left.law.premises.times(right.law.premises, transport.group)
    return bounds.checked(group, sides, transport.law.premises, [(images.size, defects)], nk.frobenius(images))


def trivial_rep(group: FiniteGroup, dim: int = 1) -> UnitaryRep:
    return UnitaryRep(group, dim, np.stack([nk.eye(dim)] * group.order))


def regular_rep(group: FiniteGroup) -> UnitaryRep:
    g = group.order
    mats = np.zeros((g, g, g), dtype=np.complex128)
    for t in range(g):
        for s in range(g):
            mats[t, group.mult[t, s], s] = 1.0
    return UnitaryRep(group, g, mats)


def direct_sum_rep(first: UnitaryRep, second: UnitaryRep) -> UnitaryRep:
    if not first.group.same_as(second.group):
        raise GroupMismatchError("direct sum needs representations of one group")
    g, d1, d2 = first.group.order, first.dim, second.dim
    mats = np.zeros((g, d1 + d2, d1 + d2), dtype=np.complex128)
    mats[:, :d1, :d1] = first.mats
    mats[:, d1:, d1:] = second.mats
    return UnitaryRep(first.group, d1 + d2, mats)


def tensor_rep(first: UnitaryRep, second: UnitaryRep) -> UnitaryRep:
    if not first.group.same_as(second.group):
        raise GroupMismatchError("tensor product needs representations of one group")
    mats = nk.kron_stack(first.mats, second.mats)
    return UnitaryRep(first.group, first.dim * second.dim, mats)


def conjugate_rep(rep: UnitaryRep, q: np.ndarray) -> UnitaryRep:
    q = nk.as_matrix(q)
    mats = q @ rep.mats @ nk.adjoint(q)
    mats.setflags(write=False)  # built for the representation, which keeps it uncopied
    return UnitaryRep(rep.group, rep.dim, mats)


def cyclic_subgroup(group: FiniteGroup, t: int) -> list[int]:
    """Elements of the subgroup generated by ``t``, in power order."""
    elements = [group.identity]
    current = t
    while current != group.identity:
        elements.append(current)
        current = group.mult[current, t]
    return elements


def coset_labels(group: FiniteGroup, t: int) -> np.ndarray:
    """The left coset of the subgroup <t> that holds each element, the cosets
    numbered in the order of their smallest elements."""
    smallest = group.mult[:, cyclic_subgroup(group, t)].min(axis=1)
    minimal = np.zeros(group.order, dtype=np.int64)
    minimal[smallest] = 1
    return (minimal.cumsum() - 1)[smallest]


def coset_rep(group: FiniteGroup, labels: np.ndarray) -> UnitaryRep:
    """Permutation representation of the group on the cosets ``labels`` numbers."""
    cosets = int(labels.max()) + 1
    mats = np.zeros((group.order, cosets, cosets), dtype=np.complex128)
    mats[np.arange(group.order)[:, None], labels[group.mult], labels] = 1.0
    return UnitaryRep(group, cosets, mats)


def seeded_rep(group: FiniteGroup, dim: int, rng: np.random.Generator) -> UnitaryRep:
    """A generic unitary representation on C^dim.

    Greedy seeded direct sum of coset permutation representations (the
    regular representation included), padded with trivial summands where
    nothing smaller fits, then conjugated by a Haar-random unitary so the
    invariant subspaces sit in generic position.
    """
    candidates = group.coset_candidates
    sizes = sorted(candidates)
    mats = np.zeros((group.order, dim, dim), dtype=np.complex128)  # the summands' block diagonal
    start = 0
    while start < dim:
        fitting = [s for s in sizes if s <= dim - start]
        if fitting:
            block = coset_rep(group, candidates[fitting[int(rng.integers(0, len(fitting)))]]).mats
        else:  # trivial summands
            block = nk.eye(dim - start)
        size = block.shape[-1]
        mats[:, start : start + size, start : start + size] = block
        start += size
    return conjugate_rep(UnitaryRep(group, dim, mats), nk.haar_unitary(rng, dim))


def _build_named_groups() -> None:
    """Build every group a scenario can name by family and size, those of order
    at most ``MAX_GROUP_ORDER`` (``cyclic:1`` .. ``cyclic:24`` and
    ``symmetric:1`` .. ``symmetric:4``), with its ``coset_candidates``."""
    for size in range(1, MAX_GROUP_ORDER + 1):
        cyclic_group(size).coset_candidates
    size = 1
    while math.factorial(size) <= MAX_GROUP_ORDER:
        symmetric_group(size).coset_candidates
        size += 1


# ---------------------------------------------------------------------------
# Dynamical systems on modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleDynamicalSystem:
    """Finite-group action on a module with the induced action on the algebra, checked on its
    stacks (``check_dynamical_system``) unless ``standard_action``, the one setter of gamma and
    delta (so not ``dataclasses.replace``), built it: eta and alpha are then, bit for bit, the
    krons of the read-only gamma and delta on ``standard_module(p, n)`` (``derived``)."""

    group: FiniteGroup
    module: HilbertModule
    eta: np.ndarray  # (g, m, m): action on X coordinates
    alpha: np.ndarray  # (g, N, N): induced automorphisms on A coordinates
    gamma: UnitaryRep | None = field(default=None, init=False)
    delta: UnitaryRep | None = field(default=None, init=False)

    def __post_init__(self):  # read-only, as ``eta_rep``, ``alpha_rep`` and ``derived`` are cached
        eta, alpha = frozen(self.eta), frozen(self.alpha)
        g, m, n_dim = self.group.order, self.module.dim, self.module.algebra.dim
        if eta.shape != (g, m, m):
            raise ShapeMismatchError(f"eta tensor shape {eta.shape}")
        if alpha.shape != (g, n_dim, n_dim):
            raise ShapeMismatchError(f"alpha tensor shape {alpha.shape}")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "alpha", alpha)

    @cached_property
    def derived(self) -> "DerivedAction | None":
        """``derive_standard_action`` of this system, computed once."""
        return derive_standard_action(self)

    def _rep(self, mats: np.ndarray, law: str) -> UnitaryRep:
        rep = UnitaryRep(self.group, mats.shape[1], mats)
        if self.derived is not None:  # its cached law is the one derived from gamma and delta
            vars(rep)["law"] = getattr(self.derived, law)
        return rep

    @cached_property
    def eta_rep(self) -> UnitaryRep:
        return self._rep(self.eta, "eta_law")

    @cached_property
    def alpha_rep(self) -> UnitaryRep:
        return self._rep(self.alpha, "alpha_law")

    @cached_property
    def action_report(self) -> "DynamicalSystemReport":
        """The ``derived`` report, else ``check_dynamical_system`` of this system, computed once."""
        return check_dynamical_system(self) if self.derived is None else self.derived.report


def standard_action(
    group: FiniteGroup, gamma: UnitaryRep, delta: UnitaryRep
) -> ModuleDynamicalSystem:
    """Action ``x -> gamma_t x delta_t*`` on the standard p x n module.

    The induced algebra action is ``a -> delta_t a delta_t*``.
    """
    if not (group.same_as(gamma.group) and group.same_as(delta.group)):
        raise GroupMismatchError("gamma and delta must represent the given group")
    p, n = gamma.dim, delta.dim
    module = standard_module(p, n)
    # row-major vec: vec(g x d*) = (g (x) conj(d)) vec(x)
    eta = nk.kron_stack(gamma.mats, np.conj(delta.mats))
    alpha = nk.kron_stack(delta.mats, np.conj(delta.mats))
    system = ModuleDynamicalSystem(group, module, eta, alpha)
    vars(system).update(gamma=gamma, delta=delta)
    return system


class DynamicalSystemReport(NamedTuple):
    group_law_residual: float  # eta_s eta_t = eta_{st}, eta_e = id
    equivariance_residual: float  # <eta x, eta y> = alpha(<x,y>)
    compatibility_residual: float  # eta(x.a) = eta(x).alpha(a)
    automorphism_mult_residual: float
    automorphism_star_residual: float
    invertible: bool

    @property
    def max_residual(self) -> float:
        return max(self[:-1])  # every field before invertible


class DerivedAction(NamedTuple):  # what ``derive_standard_action`` derives of a standard action
    eta_law: bounds.GroupLaw
    alpha_law: bounds.GroupLaw
    report: DynamicalSystemReport


def derive_standard_action(sys: ModuleDynamicalSystem) -> DerivedAction | None:
    """``bounds.standard_action`` of the ``group_law`` and ``check_unitary_rep`` of gamma and
    delta, with ``DynamicalSystemReport`` rows; no kernel runs on eta or alpha.  None
    (``check_dynamical_system`` runs) where gamma is None or a row exceeds the limit."""
    if sys.gamma is None:
        return None
    gamma, delta = sys.gamma, sys.delta
    unitarity = check_unitary_rep(gamma).unitary_residual, check_unitary_rep(delta).unitary_residual
    u = 0.0 if all(np.isin(m.view(np.float64), (-1.0, 0.0, 1.0)).all() for m in (gamma.mats, delta.mats)) else 2.0**-53
    derived = bounds.standard_action(sys.group, gamma.law, delta.law, unitarity, (gamma.dim, delta.dim), u)
    return None if derived is None else DerivedAction(*derived[:2], DynamicalSystemReport(*derived[2]))


def algebra_action_residuals(algebra: cstar.CStarAlgebra, alpha: UnitaryRep) -> tuple[float, float, float]:
    """``(law, mult, star)`` residuals of ``alpha`` as a *-automorphism action: its
    ``group_law`` (unit included), ``alpha_t(E_k E_l) = alpha_t(E_k) alpha_t(E_l)`` and
    the commutation with the involution, formed on the generators s and bounded on every
    t by ``bounds.intertwining_bound``.  For each block of size n a chunk of s is one GEMM of the
    (N n, n) rows of the images' blocks against their (n, N n) columns, read as [s, k, row,
    l, col]; ``alpha_s(E_k E_l)`` is subtracted only at the sum of n_b^3 pairs where
    ``E_k E_l = E_m`` is not 0, a gather of ``alpha_s(E_m)``.
    """
    group, mats, law = alpha.group, alpha.mats, alpha.law
    g, dim, product = group.order, algebra.dim, cstar.product_index(algebra)
    k, l = (product < dim).nonzero()
    offset, kernels = 0, []
    for n in algebra.blocks:
        part = mats[:, offset : offset + n * n].transpose(0, 2, 1).reshape(g, dim, n, n)

        def mult_defects(s, part=part, n=n):  # part[s, k]: the block's entries of alpha_s(E_k)
            columns = part[s].transpose(0, 2, 1, 3).reshape(len(s), n, dim * n)
            grid = (part[s].reshape(len(s), dim * n, n) @ columns).reshape(len(s), dim, n, dim, n)
            grid[:, k, :, l, :] -= part[s][:, product[k, l]].transpose(1, 0, 2, 3)
            return grid

        kernels, offset = kernels + [((dim * n) ** 2, mult_defects)], offset + n * n

    # alpha_s(E_k*) against alpha_s(E_k)*; the star permutation is an involution
    perm, on = cstar.star_permutation(algebra), law.premises
    star = (dim * dim, lambda s: mats[s][:, :, perm] - np.conj(mats[s][:, perm, :]))
    return (
        max(law.hom, law.unit),
        bounds.checked(group, on, on.times(on, group), kernels, math.sqrt(len(k))),
        bounds.checked(group, on, on, [star], math.sqrt(dim)),
    )


def check_dynamical_system(sys: ModuleDynamicalSystem) -> DynamicalSystemReport:
    """The group laws, equivariance ``<eta_t x_i, eta_t x_j> = alpha_t(<x_i, x_j>)``,
    compatibility ``eta_t(x_i . E_k) = eta_t(x_i) . alpha_t(E_k)`` and
    ``algebra_action_residuals``, formed on the generators s and bounded on every t by
    ``bounds.intertwining_bound``.  Equivariance and compatibility are one grouped GEMM per chunk of s
    each, from the nonzeros of ``module.support``, read as [s, k, i, j] and [s, r, i, k]: sums over the live rows
    (a, k) of inner of ``conj(eta_s[a, i]) (inner[a, :, k] @ eta_s)[j]`` and over the live
    columns (l, r) of action of ``(action[:, l, r] @ eta_s)[i] alpha_s[l, k]``, minus the
    targets where they can be nonzero: the values of the dense comparisons.  Invertibility is
    read off the law row, ``bounds.invertible`` with d = max(m, N).
    """
    group, module, eta, alpha = sys.group, sys.module, sys.eta, sys.alpha
    m, n_dim = module.dim, module.algebra.dim
    alpha_law, auto_mult, auto_star = algebra_action_residuals(module.algebra, sys.alpha_rep)
    on_eta, on_alpha = sys.eta_rep.law.premises, sys.alpha_rep.law.premises
    law = max(sys.eta_rep.law.hom, sys.eta_rep.law.unit, alpha_law)

    sup, act = module.support, module.support.act
    inner_rows, heads_k = module.inner_rows
    action_rows, heads_r = _grouped_rows((m, n_dim, m), act[2], act[1], act[0], sup.act_values)
    pair_rows, live_rows = module.pair_rows.T, module.live_action_rows
    # the targets' flat places in one s's grid, [k, (i, j)] and [i, (j, k)]
    pair_at = (np.arange(n_dim)[:, None] * (m * m) + sup.pairs).reshape(-1)
    live_at = (np.arange(m)[:, None] * (m * n_dim) + sup.row_j * n_dim + sup.row_k).reshape(-1)

    def equivariance(s):
        z = (inner_rows @ eta[s]).reshape(len(s), n_dim, heads_k.shape[1], m)
        grid = np.conj(eta[s][:, heads_k]).swapaxes(-1, -2) @ z
        grid.reshape(len(grid), -1)[:, pair_at] -= (alpha[s] @ pair_rows).reshape(len(grid), -1)
        return grid

    def compatibility(s):
        c = (action_rows @ eta[s]).reshape(len(s), m, heads_r.shape[1], m)
        grid = c.swapaxes(-1, -2) @ alpha[s][:, heads_r]
        grid.reshape(len(grid), -1)[:, live_at] -= (eta[s] @ live_rows).reshape(len(grid), -1)
        return grid

    item = m * m * n_dim
    return DynamicalSystemReport(
        law,
        bounds.checked(group, on_alpha, on_eta.times(on_eta, group), [(item, equivariance)], nk.frobenius(sup.values)),
        bounds.checked(group, on_eta, on_eta.times(on_alpha, group), [(item, compatibility)], nk.frobenius(sup.act_values)),
        auto_mult, auto_star, bounds.invertible(law, max(m, n_dim)),
    )


def _grouped_rows(shape, first, second, third, values):
    """``(rows, heads)`` of a (count, span, width) tensor given by its ``values`` at
    (first, second, third): ``rows[c * depth + d]`` is its d-th nonzero row (c, h) in
    order of h and ``heads[c, d]`` that h, padded with zero rows (h 0) to the most
    rows of one c, and to 2 if that is 1: OpenBLAS rounds a depth-1 complex GEMM
    unlike deeper ones, whose zero terms leave the sums of a dense contraction."""
    count, span, width = shape
    live = np.zeros((count, span), dtype=bool)
    live[first, second] = True
    place, most = live.cumsum(axis=1) - 1, int(live.sum(axis=1).max(initial=0))
    depth = max(2, most) if most else 0
    rows = np.zeros((count, depth, width), dtype=np.complex128)
    heads, slot = np.zeros((count, depth), dtype=np.int64), place[first, second]
    rows[first, slot, third], heads[first, slot] = values, second
    return rows.reshape(count * depth, width), heads


_build_named_groups()
