"""Finite-group crossed products of algebras and modules.

Elements of the crossed constructions are functions on the group, stored as
arrays with one coordinate block per group element.  The twisted convolution
product, the involution, the module action and the crossed inner product are
the finite-group forms (counting measure, trivial modular function):

    (f g)(s)        = sum_t f(t) alpha_t(g(t^-1 s))
    f*(s)           = alpha_s(f(s^-1)*)
    (xhat f)(s)     = sum_t xhat(t) . alpha_t(f(t^-1 s))
    <xhat, yhat>(s) = sum_t alpha_{t^-1}(<xhat(t), yhat(t s)>)

The basis of a crossed object enumerates group elements times the base
basis; index ``(t, k)`` lives at ``t * base_dim + k``.  On basis elements
each operation lands on a single group element (the slot), with a base
block that depends on at most one group element:

    e_(t,k) e_(r,l)             = delta_{tr}     E_k alpha_t(E_l)           B[t][k, l]
    e_(s,k)*                    = delta_{s^-1}   alpha_{s^-1}(E_k*)         S[s^-1][:, k]
    (delta_r x_j) e_(s,k)       = delta_{rs}     x_j . alpha_r(E_k)         C[r][j, k]
    <delta_t x_i, delta_r x_j>  = delta_{t^-1 r} alpha_{t^-1}(<x_i, x_j>)   A[t][i, j]

with ``f*(s) = S[s] conj(f(s^-1))``.  The run path and the axiom checks work
on these g blocks (``product_blocks``, ``star_blocks``, ``action_blocks``,
``inner_blocks``) and place them through the group table; the generic
``multiply``, ``star``, ``act`` and ``inner`` are the reference the tests
compare the blocks against.

``induced_cp`` integrates the covariant dilation once, for its factorization
residual and both density profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import cstar, hilbmod, stinespring
from . import numkernel as nk
from .cpmaps import CovariantCPMap, check_covariance  # noqa: F401 (importable from here)
from .errors import NotActionError, NotCovariantError, NotCovariantRepError, ShapeMismatchError


@dataclass(frozen=True)
class CrossedAlgebra:
    """Convolution *-algebra of functions from a finite group into A."""

    group: hilbmod.FiniteGroup
    base: cstar.CStarAlgebra
    alpha: np.ndarray  # (g, N, N) coordinate automorphisms

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.complex128)
        if alpha.shape != (self.group.order, self.base.dim, self.base.dim):
            raise ShapeMismatchError(f"alpha tensor shape {alpha.shape}")
        object.__setattr__(self, "alpha", alpha)

    @property
    def dim(self) -> int:
        return self.group.order * self.base.dim

    def multiply(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Twisted convolution of two coordinate arrays of shape (|G|, N)."""
        f = np.asarray(f, dtype=np.complex128)
        g = np.asarray(g, dtype=np.complex128)
        group = self.group
        n_dim = self.base.dim
        mul = cstar.mult_tensor(self.base).reshape(n_dim, n_dim * n_dim)
        out = np.zeros_like(g)
        for t in range(group.order):
            shifted = g[group.mult[group.inv[t]]]  # row s holds g(t^-1 s)
            transformed = shifted @ self.alpha[t].T
            out += transformed @ (f[t] @ mul).reshape(n_dim, n_dim)  # f(t) times each row
        return out

    def star(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=np.complex128)
        group = self.group
        out = np.zeros_like(f)
        for s in range(group.order):
            out[s] = self.alpha[s] @ cstar.star_coords(self.base, f[group.inv[s]])
        return out

    def unit(self) -> np.ndarray:
        out = np.zeros((self.group.order, self.base.dim), dtype=np.complex128)
        out[self.group.identity] = cstar.unit_coords(self.base)
        return out

    @cached_property
    def product_blocks(self) -> np.ndarray:
        """``B[t, k, l]``: coordinates of ``E_k alpha_t(E_l)``, shape (g, N, N, N).

        ``E_k E_q`` is the unit ``product_index[k, q]`` or zero, so row q of
        ``alpha_t`` lands there; adding 0.0 clears signed zeros, so the
        entries equal those of ``multiply`` bit for bit.
        """
        n = self.base.dim
        product = cstar.product_index(self.base)
        k, q = np.nonzero(product < n)
        out = np.zeros((self.group.order, n, n, n), dtype=np.complex128)
        out[:, k, :, product[k, q]] = self.alpha[:, q, :].transpose(1, 0, 2)
        return out + 0.0

    @cached_property
    def star_blocks(self) -> np.ndarray:
        """``S[s]`` with ``f*(s) = S[s] @ conj(f(s^-1))``: alpha_s after the star permutation."""
        return self.alpha[:, :, cstar.star_permutation(self.base)]


def build_crossed_algebra(
    group: hilbmod.FiniteGroup,
    alpha: np.ndarray,
    base: cstar.CStarAlgebra,
) -> CrossedAlgebra:
    """Assemble the crossed algebra after validating that alpha is an action."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    worst = max(hilbmod.algebra_action_residuals(group, base, alpha))
    if worst > nk.RESIDUAL_TOL:
        raise NotActionError(
            f"alpha is not a *-automorphism action (worst residual {worst:.3e})"
        )
    return CrossedAlgebra(group, base, alpha)


def structure_entries(calg: CrossedAlgebra):
    """Nonzero structure constants on the crossed basis, (d, d, d) with d = |G| N.

    Returns index arrays (rows, cols, slots) and the values, in lexicographic
    order of (row, col, slot): row (t, k) and column (r, l) hold
    ``B[t][k, l]`` at slot tr.  No dense tensor is formed.
    """
    group = calg.group
    g, n = group.order, calg.base.dim
    parts = []
    for t in range(g):
        block = calg.product_blocks[t]
        k, r, l, p = np.nonzero(np.broadcast_to((np.abs(block) > 0)[:, None], (n, g, n, n)))
        parts.append((t * n + k, r * n + l, group.mult[t, r] * n + p, block[k, l, p]))
    return tuple(np.concatenate(column) for column in zip(*parts))


def structure_entry_count(calg: CrossedAlgebra) -> int:
    """Number of entries ``structure_entries`` returns, read off alpha.

    ``B[t, k, l]`` holds the coordinate of ``E_q`` in ``alpha_t(E_l)`` at
    slot ``E_k E_q`` for every k with ``E_k E_q`` nonzero, and each ``B_t``
    is repeated for all g columns r; no block is formed.
    """
    n = calg.base.dim
    left = np.count_nonzero(cstar.product_index(calg.base) < n, axis=0)
    return calg.group.order * int(left @ np.count_nonzero(calg.alpha, axis=(0, 2)))


class CrossedAlgebraReport(NamedTuple):
    associativity_residual: float
    involution_residual: float  # (f g)* = g* f*
    involutive_residual: float  # f** = f
    unital_residual: float

    @property
    def max_residual(self) -> float:
        return max(self)


def check_crossed_algebra(calg: CrossedAlgebra) -> CrossedAlgebraReport:
    """Exhaustive axiom check on basis triples, block by block.

    Every product of basis elements sits at one group element, and the third
    element of a triple only moves that slot, so each identity compares base
    blocks for the pairs (t, r):

        (e_(t,k) e_(r,l)) e_(s,n) = sum_p B_t[k,l,p] B_tr[p,n,:]
        e_(t,k) (e_(r,l) e_(s,n)) = sum_p B_r[l,n,p] B_t[k,p,:]
        (e_(t,k) e_(r,l))*        = S_{(tr)^-1} conj(B_t[k,l])
        e_(r,l)* e_(t,k)*         = sum_pq S_{r^-1}[p,l] S_{t^-1}[q,k] B_{r^-1}[p,q,:]
    """
    group = calg.group
    g, n = group.order, calg.base.dim
    mult, inv = group.mult, group.inv
    prod, star = calg.product_blocks, calg.star_blocks
    flat = prod.reshape(g, n * n, n)
    # [r, q, (l, :)] = sum_p S_{r^-1}[p, l] B_{r^-1}[p, q, :]
    halves = np.swapaxes(star[inv], 1, 2) @ prod[inv].reshape(g, n, n * n)
    halves = halves.reshape(g, n, n, n).transpose(0, 2, 1, 3).reshape(g, n, n * n)

    def assoc_defects(pairs):  # a chunk of the pairs (t, k), in order
        t, k = np.divmod(np.arange(pairs.start, pairs.stop), n)
        left = prod[t, k][:, None]
        lhs = left @ prod[mult[t]].reshape(len(t), g, n, n * n)
        rhs = flat @ left
        return lhs.reshape(rhs.shape) - rhs

    def anti_defects(t):
        starred = np.conj(flat[t])[:, None] @ np.swapaxes(star[inv[mult[t]]], -1, -2)
        reversed_prod = np.swapaxes(star[inv[t]], 1, 2)[:, None] @ halves
        return starred - reversed_prod.reshape(starred.shape)

    assoc = nk.stack_max(g * n, g * n**3, assoc_defects)
    anti = nk.stack_max(g, g * n**3, anti_defects)

    unit, eye = cstar.unit_coords(calg.base), np.eye(n)
    involutive = nk.maxabs(star @ np.conj(star[inv]) - eye)
    left_unit = (unit @ prod[group.identity].reshape(n, n * n)).reshape(n, n)
    unital = max(nk.maxabs(left_unit - eye), nk.maxabs(unit @ prod - eye))
    return CrossedAlgebraReport(assoc, anti, involutive, unital)


# ---------------------------------------------------------------------------
# Crossed module
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossedModule:
    """The crossed product of a module by a dynamical system."""

    system: hilbmod.ModuleDynamicalSystem
    algebra: CrossedAlgebra

    @property
    def group(self) -> hilbmod.FiniteGroup:
        return self.system.group

    @property
    def module(self) -> hilbmod.HilbertModule:
        return self.system.module

    @property
    def dim(self) -> int:
        return self.group.order * self.module.dim

    def act(self, xhat: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Right action of a crossed-algebra element on a crossed-module element."""
        xhat = np.asarray(xhat, dtype=np.complex128)
        f = np.asarray(f, dtype=np.complex128)
        group, module = self.group, self.module
        m, n_dim = module.dim, module.algebra.dim
        action = module.action.reshape(m, n_dim * m)
        out = np.zeros_like(xhat)
        for t in range(group.order):
            shifted = f[group.mult[group.inv[t]]]  # row s holds f(t^-1 s)
            transformed = shifted @ self.system.alpha[t].T
            out += transformed @ (xhat[t] @ action).reshape(n_dim, m)  # xhat(t) . each row
        return out

    def inner(self, xhat: np.ndarray, yhat: np.ndarray) -> np.ndarray:
        """Crossed-algebra valued inner product, conjugate-linear on the left."""
        xhat = np.asarray(xhat, dtype=np.complex128)
        yhat = np.asarray(yhat, dtype=np.complex128)
        group, module = self.group, self.module
        m, n_dim = module.dim, module.algebra.dim
        inner = module.inner.reshape(m, m * n_dim)
        out = np.zeros((group.order, n_dim), dtype=np.complex128)
        for t in range(group.order):
            shifted = yhat[group.mult[t]]  # row s holds yhat(t s)
            base_inner = shifted @ (np.conj(xhat[t]) @ inner).reshape(m, n_dim)
            out += base_inner @ self.system.alpha[group.inv[t]].T
        return out

    @cached_property
    def inner_blocks(self) -> np.ndarray:
        """``A[t, i, j] = alpha_{t^-1}(<x_i, x_j>)``, shape (g, m, m, N): one GEMM of
        the nonzero rows ``pair_rows``; the other pairs' blocks are 0."""
        module, g, m, n = self.module, self.group.order, self.module.dim, self.module.algebra.dim
        alpha = np.swapaxes(self.system.alpha[self.group.inv], 1, 2)
        blocks = np.zeros((g, m * m, n), dtype=np.complex128)
        blocks[:, module.support.pairs] = module.pair_rows @ alpha
        return blocks.reshape(g, m, m, n)

    @cached_property
    def action_blocks(self) -> np.ndarray:
        """``C[r, j, k]``: coordinates of ``x_j . alpha_r(E_k)``, shape (g, m, N, m): one
        GEMM of the nonzero rows ``action[j, :, l]``; the other rows' blocks are 0."""
        module, g, m, n = self.module, self.group.order, self.module.dim, self.module.algebra.dim
        j, k, l = module.support.act
        # not np.unique, whose first call imports numpy.ma (about 1 MiB)
        keys = np.flatnonzero(np.bincount(j * m + l, minlength=m * m))
        rows = hilbmod.rows_at(keys, j * m + l, k, module.support.act_values, n)
        moved = np.zeros((g, m * m, n), dtype=np.complex128)
        moved[:, keys] = rows @ self.system.alpha
        return moved.reshape(g, m, m, n).transpose(0, 1, 3, 2)


def build_crossed_module(
    sys: hilbmod.ModuleDynamicalSystem, tol: float = nk.RESIDUAL_TOL
) -> CrossedModule:
    """Assemble the crossed module over the crossed algebra of the system.

    The system's cached ``action_report`` already covers the law,
    multiplicativity and star residuals of alpha that ``build_crossed_algebra``
    would check, so alpha is not checked a second time.
    """
    report = sys.action_report
    if report.max_residual > tol or not report.invertible:
        raise NotActionError(
            f"dynamical system fails its axioms (residual {report.max_residual:.3e})"
        )
    return CrossedModule(sys, CrossedAlgebra(sys.group, sys.module.algebra, sys.alpha))


class CrossedModuleReport(NamedTuple):
    module_axiom_residual: float  # <xhat, yhat f> = <xhat, yhat> f
    symmetry_residual: float  # <xhat, yhat>* = <yhat, xhat>
    fullness_rank: int
    fullness_required: int

    @property
    def full(self) -> bool:
        return self.fullness_rank == self.fullness_required

    @property
    def max_residual(self) -> float:
        return max(self.module_axiom_residual, self.symmetry_residual)


def check_crossed_module(cm: CrossedModule) -> CrossedModuleReport:
    """Exhaustive right-module and symmetry checks on basis triples, block by block.

    ``<e_(t,i), e_(r,j) f_(s,k)>`` and ``<e_(t,i), e_(r,j)> f_(s,k)`` both sit
    at slot t^-1 r s, where they read ``sum_q C_r[j,k,q] A_t[i,q,:]`` and
    ``sum_p A_t[i,j,p] B_{t^-1 r}[p,k,:]``; s only moves the slot.

    Fullness comes from the grading.  In the (d_X^2, d_A) stack of crossed
    inner products, column block s holds ``A[t, i, j]`` in the rows
    (t, i, ts, j), and these row sets are disjoint across s.  So the stack is
    a row permutation of g diagonal copies of the (g m^2, N) matrix of all
    ``A`` blocks, with g times its rank and its spectrum repeated g times.
    """
    group = cm.group
    g, m, n = group.order, cm.module.dim, cm.module.algebra.dim
    inner, prod, star = cm.inner_blocks, cm.algebra.product_blocks, cm.algebra.star_blocks
    acts = cm.action_blocks.reshape(g, m * n, m)
    swapped = inner.transpose(0, 2, 1, 3).reshape(g, m * m, n)  # [r, (i, j)] = A_r[j, i]
    slots = group.mult[group.inv]  # [t, r]: t^-1 r

    def axiom_defects(pairs):  # a chunk of the pairs (t, i), in order
        t, i = np.divmod(np.arange(pairs.start, pairs.stop), m)
        rows = inner[t, i][:, None]
        lhs = acts @ rows
        rhs = rows @ prod[slots[t]].reshape(len(t), g, n, n * n)
        return lhs.reshape(rhs.shape) - rhs

    def symmetry_defects(t):
        # <e_(t,i), e_(r,j)>* sits at (t^-1 r)^-1 = r^-1 t, where <e_(r,j), e_(t,i)> does
        conj = np.conj(inner[t]).reshape(len(inner[t]), 1, m * m, n)
        starred = conj @ np.swapaxes(star[group.inv[slots[t]]], -1, -2)
        return starred - swapped

    axiom = nk.stack_max(g * m, g * n * n * max(m, n), axiom_defects)
    sym = nk.stack_max(g, g * m * m * n, symmetry_defects)

    rank = g * nk.numerical_rank(inner.reshape(g * m * m, n)).rank
    return CrossedModuleReport(axiom, sym, rank, cm.algebra.dim)


# ---------------------------------------------------------------------------
# Integral forms of covariant representations
# ---------------------------------------------------------------------------


def _integrated(images: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """``images[i] @ mats[t]`` for every pair, at crossed index ``t * len(images) + i``."""
    out = images[None] @ mats[:, None]
    return out.reshape(len(mats) * len(images), *out.shape[2:])


def _identity_defect(cm: CrossedModule, images: np.ndarray, companion: np.ndarray) -> float:
    """``hilbmod.identity_defect`` on the crossed bases, by chunks of the rows (t, i):
    ``<e_(t,i), e_(r,j)>`` is ``A[t, i, j]`` at slot t^-1 r, so the companion
    images of a row of inner products are a gather of ``A[t, i] @ companion``."""
    group = cm.group
    g, m, n = group.order, cm.module.dim, cm.module.algebra.dim
    by_slot = companion.reshape(g, n, -1).transpose(1, 0, 2).reshape(n, -1)
    rows = cm.inner_blocks.reshape(g * m, m, n)
    slots = group.mult[group.inv]  # [t, r]: t^-1 r

    def defects(pairs):  # a chunk of the rows (t, i), at t * m + i
        t = np.arange(pairs.start, pairs.stop) // m
        expected = (rows[pairs] @ by_slot).reshape(len(t), m, g, companion[0].size)
        # [row, r, j]: the companion image of <e_(t,i), e_(r,j)>, at slot t^-1 r
        expected = expected[np.arange(len(t))[:, None], :, slots[t]]
        expected = expected.reshape(len(t), len(images), *companion.shape[1:])
        return np.conj(images[pairs]).transpose(0, 2, 1)[:, None] @ images - expected

    return nk.stack_max(len(images), len(images) * companion[0].size, defects)


def _integrate(cm: CrossedModule, rep, mats: np.ndarray):
    """Integral forms of ``rep.images`` and its companion's, and their crossed identity defect."""
    images, companion = _integrated(rep.images, mats), _integrated(rep.companion.images, mats)
    return images, companion, _identity_defect(cm, images, companion)


@dataclass(frozen=True)
class IntegralForm:
    """Representation of the crossed module induced by a covariant one."""

    crossed: CrossedModule
    images: np.ndarray  # (|G| m, dim K, dim H): image of each crossed basis element
    companion_images: np.ndarray  # (|G| N, dim H, dim H)

    def apply(self, xhat: np.ndarray) -> np.ndarray:
        return np.tensordot(np.ravel(xhat).astype(np.complex128), self.images, axes=(0, 0))


class IntegralFormReport(NamedTuple):
    identity_residual: float  # pi(xhat)* pi(yhat) = pi_A(<xhat, yhat>)
    range_rank: int
    range_required: int
    corange_rank: int
    corange_required: int
    nondegenerate: bool | None  # None when the input was degenerate (check skipped)
    skip_reason: str | None


def integral_form(
    sys: hilbmod.ModuleDynamicalSystem,
    rep: hilbmod.ModuleRepresentation,
    v: hilbmod.UnitaryRep,
    w: hilbmod.UnitaryRep,
) -> tuple[IntegralForm, IntegralFormReport]:
    """Integral form ``xhat -> sum_t pi(xhat(t)) v_t`` of a covariant representation.

    Validates the covariant-representation identities first; degeneracy of
    the input is allowed but the nondegeneracy conclusion is then skipped
    with a reason instead of being asserted.
    """
    dim_h, dim_k = rep.space_dims
    if v.dim != dim_h or w.dim != dim_k:
        raise ShapeMismatchError("group representations do not match (H, K)")

    rep_report = hilbmod.check_module_representation(rep)
    covariance = hilbmod.covariance_defect(sys.eta, rep.images, w.mats, v.mats)
    v_rep = hilbmod.check_unitary_rep(v)
    w_rep = hilbmod.check_unitary_rep(w)
    worst = max(
        rep_report.identity_residual, covariance, v_rep.hom_residual, v_rep.unitary_residual,
        w_rep.hom_residual, w_rep.unitary_residual,
    )
    if worst > nk.RESIDUAL_TOL:
        raise NotCovariantRepError(
            f"input is not a covariant representation (worst residual {worst:.3e})"
        )

    cm = build_crossed_module(sys)
    images, companion, identity = _integrate(cm, rep, v.mats)

    range_rank, corange_rank = (p.rank for p in hilbmod.density_ranks(images))
    nondegenerate, reason = None, "input representation is degenerate"
    if rep_report.nondegenerate:
        nondegenerate, reason = range_rank == dim_k and corange_rank == dim_h, None
    return IntegralForm(cm, images, companion), IntegralFormReport(
        identity, range_rank, dim_k, corange_rank, dim_h, nondegenerate, reason
    )


# ---------------------------------------------------------------------------
# The induced CP map on the crossed product
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InducedCP(IntegralForm):
    """CP map on the crossed module induced by a covariant CP map: the integral form
    of the covariant map, with the residuals and density profiles that certify it."""

    identity_residual: float  # <Phi^(xhat), Phi^(yhat)> = phi^(<xhat, yhat>)
    factorization_residual: float  # Phi^ = W* (integral form of dilation) V
    range_density: nk.RankProfile  # of the integral form of the dilation
    corange_density: nk.RankProfile
    dilation: stinespring.CovariantDilation  # the one the factorization went through

    @property
    def max_residual(self) -> float:
        return max(self.identity_residual, self.factorization_residual)

    @property
    def minimal(self) -> bool:
        base = self.dilation.base  # its integral form dilates Phi^ minimally
        ranks = (self.range_density.rank, self.corange_density.rank)
        return ranks == (base.dim_codomain, base.gns.dim)


def induced_cp(
    cov: CovariantCPMap,
    dilation: stinespring.CovariantDilation | None = None,
) -> InducedCP:
    """Induce a CP map on the crossed product from a covariant one.

    ``Phi^(xhat) = sum_t Phi(xhat(t)) u_t`` with companion
    ``phi^(f) = sum_t phi(f(t)) u_t``.  The certificate checks the defining
    inner-product identity on all crossed basis pairs, and the minimal
    factorization through the covariant dilation that witnesses complete
    positivity.
    """
    report = cov.covariance_report
    if report.max_residual > nk.PRECONDITION_TOL:
        raise NotCovariantError(f"input map is not covariant (residual {report.max_residual:.3e})")
    cm = build_crossed_module(cov.system, nk.PRECONDITION_TOL)
    images, companion, identity = _integrate(cm, cov.base, cov.u.mats)

    if dilation is None:
        dilation = stinespring.dilate_covariant(cov)
    base = dilation.base
    dil_images = _integrated(base.images, dilation.v.mats)
    fact = nk.maxabs(nk.sandwich(base.W, dil_images, base.gns.V) - images)
    ranged, coranged = hilbmod.density_ranks(dil_images, base.gns.V, base.W)
    return InducedCP(cm, images, companion, identity, fact, ranged, coranged, dilation)
