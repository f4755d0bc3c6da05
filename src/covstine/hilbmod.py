"""Finite-dimensional Hilbert C*-modules, finite groups and dynamical systems.

A module ``X`` over a block algebra ``A`` is given by structure tensors on a
chosen basis, ``action[i, k, :]`` the X-coordinates of ``x_i . E_k`` and
``inner[i, j, :]`` the A-coordinates of ``<x_i, x_j>`` (conjugate-linear in
the first slot), and held by their nonzeros.  Groups come as explicit
multiplication tables; actions on modules are invertible matrices per group
element together with the induced *-automorphisms of the coefficient algebra.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import cstar
from . import numkernel as nk
from .errors import (
    GroupMismatchError,
    InconsistentError,
    NotFullError,
    ShapeMismatchError,
)


@dataclass(frozen=True, init=False, eq=False)
class HilbertModule:
    """A module held by the nonzeros of its structure tensors (``support``), scanned on
    first read from the tensors it is given; a module built ``from_support`` scatters
    ``action`` and ``inner`` on first read, for API use only: no run path reads them."""

    algebra: cstar.CStarAlgebra
    dim: int  # complex dimension m of X

    def __init__(self, algebra: cstar.CStarAlgebra, dim: int, action, inner):
        m, n_dim = dim, algebra.dim
        action = np.asarray(action, dtype=np.complex128)
        inner = np.asarray(inner, dtype=np.complex128)
        if action.shape != (m, n_dim, m):
            raise ShapeMismatchError(f"action tensor shape {action.shape}")
        if inner.shape != (m, m, n_dim):
            raise ShapeMismatchError(f"inner tensor shape {inner.shape}")
        self.__dict__.update(algebra=algebra, dim=dim, action=action, inner=inner)

    @classmethod
    def from_support(cls, algebra, dim: int, support: "ModuleSupport") -> "HilbertModule":
        module = cls.__new__(cls)
        module.__dict__.update(algebra=algebra, dim=dim, support=support)
        return module

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
    def support(self) -> "ModuleSupport":
        """``module_support`` of a module given by its tensors, scanned once."""
        return module_support(self)

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
    def fullness_factor(self) -> nk.GramFactor:
        """``gram_factor`` of the (N, N) Gram ``flat* flat`` of the rows
        ``flat[(i, j)] = <x_i, x_j>``, computed once: fullness is its rank, and
        every ``<X, X>`` solve is one GEMM with its pseudo-inverse.  It is summed over
        ``pair_rows`` (the zero rows add nothing) in chunks of rows under the chunk rule,
        an item being a row and its conjugate: no conjugate of all the rows is formed."""
        rows = self.pair_rows
        first, *rest = nk.stack_spans(max(1, len(rows)), 2 * self.algebra.dim)
        gram = nk.adjoint(rows[first]) @ rows[first]
        for span in rest:
            gram += nk.adjoint(rows[span]) @ rows[span]
        return nk.gram_factor(gram)


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
    return HilbertModule.from_support(cstar.CStarAlgebra((n,)), m, support)


def standard_basis_matrices(p: int, n: int) -> np.ndarray:
    """The p x n matrix units in the basis order used by ``standard_module``."""
    return nk.eye(p * n).reshape(p * n, p, n)


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


def module_support(module: HilbertModule) -> ModuleSupport:
    """One pass over each structure tensor: its nonzeros."""
    m, n_dim = module.dim, module.algebra.dim
    i, j, k = module.inner.nonzero()
    act_j, act_k, act_l = module.action.nonzero()
    linked, live = np.zeros((m, m), dtype=bool), np.zeros((m, n_dim), dtype=bool)
    linked[i, j] = live[act_j, act_k] = True
    return ModuleSupport(
        i, j, k, module.inner[i, j, k], linked.reshape(-1).nonzero()[0], *live.nonzero(),
        (act_j, act_k, act_l), module.action[act_j, act_k, act_l],
    )


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


class FullnessSystem(NamedTuple):
    module: HilbertModule  # its rows <x_i, x_j> span <X, X>
    factor: nk.GramFactor  # of their (N, N) Gram, on which fullness is decided

    @property
    def full(self) -> bool:  # the rows span the algebra
        return self.factor.rank == self.module.algebra.dim

    @property
    def condition(self) -> float:
        """Ratio of the extreme kept singular values, inf at rank 0."""
        kept = self.factor.eigenvalues[: self.factor.rank]
        return math.sqrt(kept[0] / kept[-1]) if self.factor.rank else float("inf")

    def solve(self, images: np.ndarray) -> np.ndarray:
        """The (N, h, h) least-squares companion ``phi(<x_i, x_j>) = images[i]* images[j]``:
        one GEMM of ``L L*`` with ``sum_ij conj(<x_i, x_j>) T_ij``, summed over the pairs
        with ``<x_i, x_j>`` nonzero in chunks of whole pairs, so no (m^2, h^2) target
        is formed.  The caller gates on ``identity_defect``."""
        dim_k, dim_h = images.shape[1:]
        pair_i, pair_j = np.divmod(self.module.support.pairs, self.module.dim)
        coeffs = np.conj(self.module.pair_rows).T
        star = np.conj(images).transpose(0, 2, 1)
        projected = np.zeros((len(coeffs), dim_h * dim_h), dtype=np.complex128)
        for span in nk.stack_spans(len(pair_i), dim_h * (2 * dim_k + dim_h)):
            products = star[pair_i[span]] @ images[pair_j[span]]
            projected += coeffs[:, span] @ products.reshape(len(products), dim_h * dim_h)
        return self.factor.solve(projected).reshape(len(coeffs), dim_h, dim_h)


def fullness_system(module: HilbertModule) -> FullnessSystem:
    """The inner products of basis pairs as rows spanning ``<X, X>``.

    The factor is the module's cached ``fullness_factor``.  Raises
    ``NotFullError`` when the rows do not span the coefficient algebra.  A map
    on a full module's algebra is fixed by its values on ``<X, X>``, solved by
    one GEMM with ``factor.solve``.
    """
    fullness = FullnessSystem(module, module.fullness_factor)
    if not fullness.full:
        raise NotFullError(
            f"module is not full: rank {fullness.factor.rank} of {module.algebra.dim}"
        )
    return fullness


class ModuleAxiomReport(NamedTuple):
    linearity_residual: float  # <x, y.a> = <x,y> a
    symmetry_residual: float  # <x,y>* = <y,x>
    positivity_min_eig: float  # Gram super-matrix in M_m(A), embedded
    positive: bool
    definite: bool  # <x,x> = 0 only for x = 0
    fullness_rank: int
    fullness_required: int
    fullness_condition: float  # ratio of the extreme kept singular values, inf at rank 0

    @property
    def full(self) -> bool:
        return self.fullness_rank == self.fullness_required

    @property
    def max_residual(self) -> float:
        return max(self.linearity_residual, self.symmetry_residual)


def check_module_axioms(module: HilbertModule) -> ModuleAxiomReport:
    """Residuals for the Hilbert-module axioms plus fullness of the span.

    Only ``verify`` reads this report; fullness is decided by ``FullnessSystem``.
    Everything is read from ``module.support``.  Linearity
    ``<x_i, x_j . E_k> = <x_i, x_j> E_k`` is compared by ``_linearity_defect`` on
    the grouped inner rows that equivariance reads as well.  Symmetry compares
    each nonzero ``<x_i, x_j>`` with its mirror; where both are 0 they agree exactly.

    Positivity is decided on the Gram super-matrix ``[<x_i, x_j>]`` in
    ``M_m(A)``, embedded.  Each ``E_k`` embeds as one entry, so the nonzeros
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
    magnitudes = np.abs(values)
    scale = max(1.0, magnitudes.max(initial=0.0))
    fullness = FullnessSystem(module, module.fullness_factor)

    linearity = _linearity_defect(module, magnitudes) / scale
    symmetry = nk.maxabs(np.conj(values) - _mirrored_values(module)) / scale

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
        psd.ok,
        trace_rank.rank == m,
        fullness.factor.rank,
        algebra.dim,
        fullness.condition,
    )


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


@dataclass(frozen=True)
class ModuleRepresentation:
    """Map X -> L(H, K) with a companion *-representation of A on H."""

    module: HilbertModule
    companion: cstar.AlgebraRepresentation
    images: np.ndarray  # (m, dim K, dim H)

    def __post_init__(self):
        images = np.asarray(self.images, dtype=np.complex128)
        if images.ndim != 3 or images.shape[0] != self.module.dim:
            raise ShapeMismatchError(f"module images shape {images.shape}")
        if images.shape[2] != self.companion.space_dim:
            raise ShapeMismatchError(
                f"images act on H of dim {images.shape[2]}, companion on "
                f"{self.companion.space_dim}"
            )
        object.__setattr__(self, "images", images)

    @property
    def space_dims(self) -> tuple[int, int]:
        return self.images.shape[2], self.images.shape[1]  # (dim H, dim K)

    def apply(self, xi: np.ndarray) -> np.ndarray:
        return np.tensordot(np.asarray(xi), self.images, axes=(0, 0))


def concrete_representation(p: int, n: int) -> ModuleRepresentation:
    """The defining representation of the standard module: x acts as itself."""
    module = standard_module(p, n)
    companion = cstar.embedding_representation(module.algebra)  # M_n acting on C^n
    return ModuleRepresentation(module, companion, standard_basis_matrices(p, n))


class ModuleRepresentationReport(NamedTuple):
    identity_residual: float  # pi(x)* pi(y) = pi_A(<x,y>)
    range_rank: int  # rank of [pi(X) H]
    range_required: int  # dim K
    corange_rank: int  # rank of [pi(X)* K]
    corange_required: int  # dim H

    @property
    def nondegenerate(self) -> bool:
        return (
            self.range_rank == self.range_required
            and self.corange_rank == self.corange_required
        )


def range_stack(images, v=None) -> np.ndarray:
    """The column stack spanning ``[pi(X) V H]``, ``images`` one map ``(dim K', dim H')``
    per module basis vector and ``v: H -> H'`` defaulting to the identity."""
    ranged = images if v is None else images @ v
    return ranged.transpose(1, 0, 2).reshape(ranged.shape[1], ranged.shape[0] * ranged.shape[2])


def density_ranks(images, v=None, w=None) -> tuple[nk.RankProfile, nk.RankProfile]:
    """Rank profiles of the column stacks spanning ``[pi(X) V H]`` (range) and
    ``[pi(X)* W K]`` (corange), ``w: K -> K'`` defaulting to the identity.  A map
    is nondegenerate, or a dilation minimal, when both have full row rank.

    The stacks are formed and ranked one at a time, and each rebinding of
    ``coranged`` frees the step before it, so no more than two copies of the
    images are alive at once.
    """
    ranged = nk.numerical_rank(range_stack(images, v))
    coranged = np.conj(images).transpose(0, 2, 1)
    if w is not None:
        coranged = coranged @ w
    coranged = range_stack(coranged)
    return ranged, nk.numerical_rank(coranged)


def identity_defect(images: np.ndarray, module: HilbertModule, companion: np.ndarray) -> float:
    """Unscaled worst ``|images[i]* images[j] - sum_k inner[i, j, k] companion[k]|``.

    This is ``pi(x)* pi(y) = pi_A(<x, y>)`` on basis pairs, by ``nk.pair_defect``
    with the targets ``module.inner_targets``, read from its nonzero inner products.
    """
    return nk.pair_defect(
        np.conj(images).transpose(0, 2, 1), images, companion, module.inner_targets
    )


def check_module_representation(rep: ModuleRepresentation) -> ModuleRepresentationReport:
    images = rep.images
    dim_h, dim_k = rep.space_dims
    residual = identity_defect(images, rep.module, rep.companion.images)
    ranged, coranged = density_ranks(images)
    return ModuleRepresentationReport(residual, ranged.rank, dim_k, coranged.rank, dim_h)


# ---------------------------------------------------------------------------
# Finite groups and unitary representations
# ---------------------------------------------------------------------------


# Groups are tabulated densely, so their order is bounded before any table is built.
MAX_GROUP_ORDER = 24


@dataclass(frozen=True)
class FiniteGroup:
    """Group given by an explicit multiplication table over indices 0..g-1.

    The tables are copied and made read-only, so a group can be shared and
    what it caches (``coset_candidates``) stays valid.
    """

    order: int
    mult: np.ndarray  # (g, g) index table
    identity: int
    inv: np.ndarray  # (g,) inverse indices

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


@dataclass(frozen=True)
class UnitaryRep:
    group: FiniteGroup
    dim: int
    mats: np.ndarray  # (g, dim, dim)

    def __post_init__(self):
        mats = np.asarray(self.mats, dtype=np.complex128)
        if mats.shape != (self.group.order, self.dim, self.dim):
            raise ShapeMismatchError(f"representation matrices shape {mats.shape}")
        object.__setattr__(self, "mats", mats)


class UnitaryRepReport(NamedTuple):
    hom_residual: float  # u_s u_t = u_{st}
    unit_residual: float  # u_e = I
    unitary_residual: float  # u_t* u_t = I


def group_law_residuals(group: FiniteGroup, mats: np.ndarray) -> tuple[float, float]:
    """``(hom, unit)``: worst ``|m_s m_t - m_st|`` over all pairs, and ``|m_e - I|``.

    ``mats`` holds one square matrix per group element; this is the group
    law of every action and representation in the package.  A chunk of s is one
    GEMM of the rows ``[m_s]`` against the columns ``[m_t]``, read as [s, row, t, col].
    """
    g, d = mats.shape[:2]
    columns, rows = mats.transpose(1, 0, 2).reshape(d, g * d), np.arange(d)[:, None]

    def defects(s):
        count = s.stop - s.start
        grid = (mats[s].reshape(count * d, d) @ columns).reshape(count, d, g, d)
        grid -= mats[group.mult[s][:, None, :], rows]
        return grid

    hom = nk.stack_max(g, g * d * d, defects)
    return hom, nk.maxabs(mats[group.identity] - nk.eye(d))


def check_unitary_rep(rep: UnitaryRep) -> UnitaryRepReport:
    hom, unit = group_law_residuals(rep.group, rep.mats)
    mats, ident = rep.mats, nk.eye(rep.dim)
    unitary = nk.stack_max(
        len(mats),
        rep.dim * rep.dim,
        lambda t: np.conj(mats[t]).transpose(0, 2, 1) @ mats[t] - ident,
    )
    return UnitaryRepReport(hom, unit, unitary)


def intertwining_defects(left: UnitaryRep, x: np.ndarray, right: UnitaryRep) -> np.ndarray:
    """``|left_t X - X right_t|``, its largest entry, for each t of the group."""
    return np.concatenate(
        [
            nk.stack_maxabs(left.mats[t] @ x - x @ right.mats[t])
            for t in nk.stack_spans(left.group.order, x.size)
        ]
    )


def intertwining_residual(left: UnitaryRep, x: np.ndarray, right: UnitaryRep) -> float:
    """Worst ``|left_t X - X right_t|`` over the group; 0 when X intertwines."""
    return float(intertwining_defects(left, x, right).max(initial=0.0))


def covariance_defect(
    transport: np.ndarray, images: np.ndarray, left: np.ndarray, right: np.ndarray
) -> float:
    """Unscaled worst ``|sum_q transport[t, q, i] images[q] - left_t images[i] right_t*|``.

    This is ``Phi(eta_t x) = u'_t Phi(x) u_t*`` for module maps and
    ``phi(alpha_t a) = u_t phi(a) u_t*`` for algebra maps, on basis images,
    one chunk of group elements at a time.
    """
    star_right = np.conj(right).transpose(0, 2, 1)
    flat = images.reshape(len(images), math.prod(images.shape[1:]))

    def defects(t):
        transported = np.swapaxes(transport[t], 1, 2) @ flat
        transported = transported.reshape(transported.shape[:2] + images.shape[1:])
        return transported - left[t, None] @ images @ star_right[t, None]

    return nk.stack_max(len(transport), images.size, defects)


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
    return UnitaryRep(rep.group, rep.dim, q @ rep.mats @ nk.adjoint(q))


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
    """Finite-group action on a module with the induced action on the algebra."""

    group: FiniteGroup
    module: HilbertModule
    eta: np.ndarray  # (g, m, m): action on X coordinates
    alpha: np.ndarray  # (g, N, N): induced automorphisms on A coordinates
    gamma: UnitaryRep | None = None  # retained by standard_action
    delta: UnitaryRep | None = None

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=np.complex128)
        alpha = np.asarray(self.alpha, dtype=np.complex128)
        g, m, n_dim = self.group.order, self.module.dim, self.module.algebra.dim
        if eta.shape != (g, m, m):
            raise ShapeMismatchError(f"eta tensor shape {eta.shape}")
        if alpha.shape != (g, n_dim, n_dim):
            raise ShapeMismatchError(f"alpha tensor shape {alpha.shape}")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "alpha", alpha)

    @cached_property
    def action_report(self) -> "DynamicalSystemReport":
        """``check_dynamical_system`` of this system, computed once."""
        return check_dynamical_system(self)


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
    return ModuleDynamicalSystem(group, module, eta, alpha, gamma, delta)


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


def algebra_action_residuals(
    group: FiniteGroup, algebra: cstar.CStarAlgebra, alpha: np.ndarray
) -> tuple[float, float, float]:
    """``(law, mult, star)`` residuals of ``alpha`` as a *-automorphism action.

    ``law`` is the group law (unit included), ``mult`` the multiplicativity
    ``alpha_t(E_k E_l) = alpha_t(E_k) alpha_t(E_l)`` and ``star`` the
    commutation with the involution, each the worst over the group.  For
    each block of size n a chunk of t is one GEMM of the (N n, n) rows of the
    images' blocks against their (n, N n) columns, read as [t, k, row, l, col];
    ``alpha_t(E_k E_l)`` is subtracted only at the sum of n_b^3 pairs where
    ``E_k E_l = E_m`` is not 0, a gather of ``alpha_t(E_m)``.
    """
    law = max(group_law_residuals(group, alpha))
    g, dim, product = group.order, algebra.dim, cstar.product_index(algebra)
    k, l = (product < dim).nonzero()
    auto_mult, offset = 0.0, 0
    for n in algebra.blocks:
        part = alpha[:, offset : offset + n * n].transpose(0, 2, 1).reshape(g, dim, n, n)

        def mult_defects(t, part=part, n=n):  # part[t, k]: the block's entries of alpha_t(E_k)
            count = t.stop - t.start
            columns = part[t].transpose(0, 2, 1, 3).reshape(count, n, dim * n)
            grid = (part[t].reshape(count, dim * n, n) @ columns).reshape(count, dim, n, dim, n)
            grid[:, k, :, l, :] -= part[t][:, product[k, l]].transpose(1, 0, 2, 3)
            return grid

        auto_mult = max(auto_mult, nk.stack_max(g, (dim * n) ** 2, mult_defects))
        offset += n * n

    # alpha_t(E_k*) against alpha_t(E_k)*; the star permutation is an involution
    perm = cstar.star_permutation(algebra)
    return law, auto_mult, nk.maxabs(alpha[:, :, perm] - np.conj(alpha[:, perm, :]))


def check_dynamical_system(sys: ModuleDynamicalSystem) -> DynamicalSystemReport:
    """The group laws, equivariance ``<eta_t x_i, eta_t x_j> = alpha_t(<x_i, x_j>)``,
    compatibility ``eta_t(x_i . E_k) = eta_t(x_i) . alpha_t(E_k)`` and
    ``algebra_action_residuals``.  Equivariance and compatibility are one grouped
    GEMM per chunk of t each, from the nonzeros of ``module.support``, read as
    [t, k, i, j] and [t, r, i, k]: sums over the live rows (a, k) of inner of
    ``conj(eta_t[a, i]) (inner[a, :, k] @ eta_t)[j]`` and over the live columns
    (l, r) of action of ``(action[:, l, r] @ eta_t)[i] alpha_t[l, k]``, minus the
    targets where they can be nonzero (the pairs with ``<x_i, x_j>`` not 0, the
    live rows (i, k) of action): the maxima of the dense comparisons' values.
    """
    group, module, eta, alpha = sys.group, sys.module, sys.eta, sys.alpha
    g, m, n_dim = group.order, module.dim, module.algebra.dim
    alpha_law, auto_mult, auto_star = algebra_action_residuals(group, module.algebra, alpha)
    law = max(max(group_law_residuals(group, eta)), alpha_law)

    sup, act = module.support, module.support.act
    inner_rows, heads_k = module.inner_rows
    action_rows, heads_r = _grouped_rows((m, n_dim, m), act[2], act[1], act[0], sup.act_values)
    pair_rows, live_rows = module.pair_rows.T, module.live_action_rows
    # the targets' flat places in one t's grid, [k, (i, j)] and [i, (j, k)]
    pair_at = (np.arange(n_dim)[:, None] * (m * m) + sup.pairs).reshape(-1)
    live_at = (np.arange(m)[:, None] * (m * n_dim) + sup.row_j * n_dim + sup.row_k).reshape(-1)

    def equivariance(t):
        z = (inner_rows @ eta[t]).reshape(t.stop - t.start, n_dim, heads_k.shape[1], m)
        grid = np.conj(eta[t][:, heads_k]).swapaxes(-1, -2) @ z
        grid.reshape(len(grid), -1)[:, pair_at] -= (alpha[t] @ pair_rows).reshape(len(grid), -1)
        return grid

    def compatibility(t):
        c = (action_rows @ eta[t]).reshape(t.stop - t.start, m, heads_r.shape[1], m)
        grid = c.swapaxes(-1, -2) @ alpha[t][:, heads_r]
        grid.reshape(len(grid), -1)[:, live_at] -= (eta[t] @ live_rows).reshape(len(grid), -1)
        return grid

    item = m * m * n_dim
    invertible = nk.stack_ranks(eta) == [m] * g and nk.stack_ranks(alpha) == [n_dim] * g
    return DynamicalSystemReport(
        law,
        nk.stack_max(g, item, equivariance),
        nk.stack_max(g, item, compatibility),
        auto_mult,
        auto_star,
        invertible,
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


def transported_inner(eta: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """A-coordinates of ``<eta_t x_i, eta_t x_j>``, shape (..., m, m, N), from the inner
    tensor, for one ``eta_t`` of shape (m, m) or a stack (..., m, m) of them."""
    eta = eta[..., None, :, :]
    moved = np.conj(eta).swapaxes(-2, -1) @ (inner.transpose(2, 0, 1) @ eta)
    return np.moveaxis(moved, -3, -1)


class InducedAction(NamedTuple):
    alpha: np.ndarray  # (g, N, N)
    consistency_residual: float
    fullness_condition: float  # conditioning of the spanning system


def induced_algebra_action(
    group: FiniteGroup, module: HilbertModule, eta: np.ndarray
) -> InducedAction:
    """Solve the induced algebra action from ``alpha(<x,y>) = <eta x, eta y>``.

    Requires the module to be full; the values on the spanning inner products
    determine each automorphism linearly.  Raises ``NotFullError`` when the
    span is deficient and ``InconsistentError`` when the group law of ``eta``
    fails, the linear system is inconsistent, or the solved maps are not
    *-automorphisms: any of those means ``eta`` is not a module action.
    """
    eta = np.asarray(eta, dtype=np.complex128)
    g, m, n_dim = group.order, module.dim, module.algebra.dim

    law = max(group_law_residuals(group, eta))
    if law > nk.PRECONDITION_TOL:
        raise InconsistentError(f"eta violates the group law by {law:.3e}")

    fullness = fullness_system(module)
    # alpha_t^T solves flat @ x = <eta_t x_i, eta_t x_j>, projected by flat* per chunk of t
    rows = nk.adjoint(module.inner.reshape(m * m, n_dim))
    projected = [
        rows @ transported_inner(eta[t], module.inner).reshape(-1, m * m, n_dim)
        for t in nk.stack_spans(g, m * m * n_dim)
    ]
    alpha = np.swapaxes(fullness.factor.solve(np.concatenate(projected)), 1, 2)
    report = check_dynamical_system(ModuleDynamicalSystem(group, module, eta, alpha))
    residual = report.equivariance_residual  # the consistency residual of the system
    if residual > nk.PRECONDITION_TOL:
        raise InconsistentError(
            f"defining system for the induced action is inconsistent: {residual:.3e}"
        )
    auto = max(report.automorphism_mult_residual, report.automorphism_star_residual)
    if auto > nk.PRECONDITION_TOL or not report.invertible:
        raise InconsistentError(
            f"solved maps are not *-automorphisms (residual {auto:.3e})"
        )
    return InducedAction(alpha, residual, fullness.condition)


_build_named_groups()
