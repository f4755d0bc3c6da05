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
value that reads alpha at one group element:

    e_(t,k) e_(r,l)             = delta_{tr}     E_k alpha_t(E_l)
    e_(s,k)*                    = delta_{s^-1}   alpha_{s^-1}(E_k*)
    (delta_r x_j) e_(s,k)       = delta_{rs}     x_j . alpha_r(E_k)
    <delta_t x_i, delta_r x_j>  = delta_{t^-1 r} alpha_{t^-1}(<x_i, x_j>)

So the crossed axioms follow from alpha being an action by *-automorphisms and
the base module's own axioms (D. P. Williams, *Crossed Products of C*-Algebras*,
AMS 2007, ch. 2), and ``axiom_rows`` bounds them from those premises.  The generic
``multiply``, ``star``, ``act`` and ``inner`` are the tests' reference.

A run forms nothing indexed by the crossed basis: the induced map is held by its
covariant pair, which its crossed identity is read off, and ``induced_cp`` reads the
covariant dilation's integral form through its parts, by chunks of t.  Only a derived axiom
row above ``bounds.exact_limit()`` is formed on the basis triples, by chunks of t.  A covariant
representation is a covariant CP map, and the map it induces is its integral form.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bounds, cstar, hilbmod, stinespring
from . import numkernel as nk
from .cpmaps import check_covariance  # noqa: F401 (bench/tests reads it here)
from .errors import NotActionError, ShapeMismatchError


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


def structure_entries(calg: CrossedAlgebra):
    """Nonzero structure constants on the crossed basis, (d, d, d) with d = |G| N.

    Returns index arrays (rows, cols, slots) and the values, in lexicographic order of
    (row, col, slot): row (t, k) and column (r, l) hold ``E_k alpha_t(E_l)`` at slot tr.
    ``E_k E_q`` is the unit ``product_index[k, q]`` or zero, so row q of ``alpha_t`` lands
    there; adding 0.0 clears signed zeros, so the entries are ``multiply``'s bit for bit.
    """
    group = calg.group
    g, n = group.order, calg.base.dim
    product = cstar.product_index(calg.base)
    left, unit = np.nonzero(product < n)
    parts = []
    for t in range(g):
        block = np.zeros((n, n, n), dtype=np.complex128)
        block[left, :, product[left, unit]] = calg.alpha[t, unit, :]
        block += 0.0
        k, r, l, p = np.nonzero(np.broadcast_to((np.abs(block) > 0)[:, None], (n, g, n, n)))
        parts.append((t * n + k, r * n + l, group.mult[t, r] * n + p, block[k, l, p]))
    return tuple(np.concatenate(column) for column in zip(*parts))


def structure_entry_count(calg: CrossedAlgebra) -> int:
    """Number of entries ``structure_entries`` returns, read off alpha: the coordinate of
    ``E_q`` in ``alpha_t(E_l)`` lands at ``E_k E_q`` for every k with ``E_k E_q`` nonzero,
    once for each of the g columns r."""
    n = calg.base.dim
    left = np.count_nonzero(cstar.product_index(calg.base) < n, axis=0)
    return calg.group.order * int(left @ np.count_nonzero(calg.alpha, axis=(0, 2)))


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


def build_crossed_module(sys: hilbmod.ModuleDynamicalSystem) -> CrossedModule:
    """Assemble the crossed module over the crossed algebra of the system.

    The system's cached ``action_report`` covers the law, multiplicativity and
    star residuals of alpha, so alpha is not checked a second time.  It is gated at
    ``PRECONDITION_TOL``, and invertibility beside it: a law row that passes the gate
    need not give ``bounds.invertible``.
    """
    report = sys.action_report
    if report.max_residual > nk.PRECONDITION_TOL or not report.invertible:
        raise NotActionError(
            f"dynamical system fails its axioms (residual {report.max_residual:.3e})"
        )
    return CrossedModule(sys, CrossedAlgebra(sys.group, sys.module.algebra, sys.alpha))


class CrossedAxioms(NamedTuple):
    algebra_residual: float  # associativity, (f g)* = g* f*, f** = f and the unit
    module_residual: float  # <xhat, yhat f> = <xhat, yhat> f and <xhat, yhat>* = <yhat, xhat>
    fullness: tuple[int, int]  # (rank, required) of the crossed inner products


def axiom_rows(cm: CrossedModule) -> CrossedAxioms:
    """The crossed axioms on every basis triple: ``bounds.crossed_axioms`` of the run's rows and the
    maxima of alpha and the support, and the unit (``alpha_e = I``, ``alpha_t(1) = 1``) and ``f**
    = f``, exact on alpha, O(g N^3).  Through ``bounds.exact_above``, a derived row above
    ``bounds.exact_limit()`` is its exact worst over every basis triple (``_algebra_kernel``,
    ``_module_kernel``), so its verdict is exact: on a module basis far from orthonormal the sizes
    beta and c make the derived rows loose.  Fullness: the crossed inner products at slot s sit in the
    rows (t, i, ts, j), disjoint across s, and equivariance makes ``span <X, X>`` alpha-invariant,
    so the rank is g times the module's (``HilbertModule.fullness``)."""
    sys, module = cm.system, cm.module
    group, algebra, alpha, sup = sys.group, module.algebra, sys.alpha, module.support
    n, m, report, h = algebra.dim, module.dim, sys.action_report, sys.alpha_rep.law.hom
    magnitudes, values = np.abs(alpha), np.abs(sup.values)
    a, c, r = magnitudes.max(), magnitudes.sum(axis=1).max(), magnitudes.sum(axis=2).max()
    beta = np.bincount(sup.i * m + sup.j, weights=values).max(initial=0.0)
    kappa = np.bincount(sup.act[0] * n + sup.act[1], weights=np.abs(sup.act_values)).max(initial=0.0)
    action = h, report.automorphism_mult_residual, report.automorphism_star_residual
    sizes = a, c, r, beta, values.max(initial=0.0), kappa
    algebra_row, module_row = bounds.crossed_axioms(action, hilbmod.module_defects(module), sizes, (n, m))
    algebra_row = bounds.exact_above(group, algebra_row, [_algebra_kernel(cm.algebra)])
    module_row = bounds.exact_above(group, module_row, [_module_kernel(cm)])

    star, eye, unit = alpha[:, :, cstar.star_permutation(algebra)], nk.eye(n), cstar.unit_coords(algebra)
    involutive = nk.maxabs(star @ np.conj(star[group.inv]) - eye)
    unital = max(nk.maxabs(alpha[group.identity] - eye), nk.maxabs(alpha @ unit - unit))
    fullness = (group.order * module.fullness.rank, cm.algebra.dim)
    return CrossedAxioms(max(algebra_row, involutive, unital), module_row, fullness)


def _embedded(algebra: cstar.CStarAlgebra, coords: np.ndarray) -> np.ndarray:
    """The block-diagonal matrices of coordinate vectors along the last axis."""
    return np.tensordot(coords, cstar.embedding_representation(algebra).images, axes=(-1, 0))


def _coordinates(algebra: cstar.CStarAlgebra, mats: np.ndarray) -> np.ndarray:
    rows, cols = cstar.embedding_index(algebra)
    return mats[..., rows, cols]


def _algebra_kernel(calg: CrossedAlgebra) -> tuple:
    """``(entries, defects)`` of associativity and ``(f g)* = g* f*`` for ``bounds.exact_above``:
    ``defects(ts)`` on the basis triples with left factor e_(t,k), t in ``ts``, and any r.  With
    ``(delta_a x)(delta_b y) = delta_ab x alpha_a(y)`` and ``(delta_a x)* = delta_{a^-1}
    alpha_{a^-1}(x*)`` both sides sit at one slot, ``E_k [alpha_t(E_l) alpha_tr(E_n) - alpha_t(E_l
    alpha_r(E_n))]`` and ``alpha_v(alpha_t(E_l)* E_k*) - alpha_{r^-1}(E_l*) alpha_{r^-1}
    alpha_{t^-1}(E_k*)``, v = (tr)^-1; E_k only moves rows, so associativity is formed without it.
    What does not depend on t is formed at the first call; a t forms (g, N, N, E, E) products."""
    group, base, alpha = calg.group, calg.base, calg.alpha
    inv, mult = group.inv, group.mult

    @functools.cache
    def parts():
        units, moved_by = cstar.embedding_representation(base).images, alpha.transpose(0, 2, 1)
        images, stars = _embedded(base, moved_by), np.conj(units).swapaxes(1, 2)  # alpha_t(E_l), E_k*
        unit_stars = _coordinates(base, stars)
        reversed_left = _embedded(base, unit_stars[None] @ moved_by[inv])  # [r, l]: alpha_{r^-1}(E_l*)
        inside = _coordinates(base, units[None, :, None] @ images[:, None])  # [r, l, n]: E_l alpha_r(E_n)
        return moved_by, images, stars, unit_stars, reversed_left, inside

    def defects(ts):
        moved_by, images, stars, unit_stars, reversed_left, inside = parts()
        out = []
        for t in ts:
            first = _coordinates(base, images[t][None, :, None] @ images[mult[t]][:, None])
            starred = _coordinates(base, np.conj(images[t]).swapaxes(1, 2)[None] @ stars[:, None])  # [k, l]
            right = _embedded(base, (unit_stars @ moved_by[inv[t]])[None] @ moved_by[inv])  # [r, k]
            anti = starred[None] @ moved_by[inv[mult[t]]][:, None]  # alpha_v of them
            anti -= _coordinates(base, reversed_left[:, None] @ right[:, :, None])
            out += [(first - inside @ moved_by[t]).reshape(-1), anti.reshape(-1)]
        return np.concatenate(out)

    return group.order * base.dim**2 * base.embed_dim**2, defects


def _module_kernel(cm: CrossedModule) -> tuple:
    """``(entries, defects)`` of ``<xhat, yhat f> = <xhat, yhat> f`` and ``<xhat, yhat>* = <yhat,
    xhat>`` for ``bounds.exact_above``: ``defects(ts)``, the worst on the basis triples with left
    factor delta_t x_i, t in ``ts``, and any r, by chunks of i.  With ``(delta_r x_j) e_(s,k) =
    delta_rs x_j . alpha_r(E_k)`` and ``<delta_t x_i, delta_r x_j> = delta_{t^-1 r}
    alpha_{t^-1}(<x_i, x_j>)``, ``alpha_w(<x_i, x_j . alpha_r(E_k)>) - alpha_w(<x_i, x_j>)
    alpha_wr(E_k)`` and ``alpha_{r^-1 t}(alpha_w(<x_i, x_j>)*) - alpha_{r^-1}(<x_j, x_i>)``, w =
    t^-1.  What does not depend on t is formed at the first call; an i forms (g, m, N, E, E)
    products."""
    group, module, alpha, sup = cm.group, cm.module, cm.system.alpha, cm.module.support
    algebra, m, n, inv, mult = module.algebra, module.dim, module.algebra.dim, group.inv, group.mult
    per_row = group.order * m * n * algebra.embed_dim**2

    @functools.cache
    def parts():
        inner, action = np.zeros((m, m, n), dtype=np.complex128), np.zeros((m, n, m), dtype=np.complex128)
        inner[sup.i, sup.j, sup.k], action[sup.act] = sup.values, sup.act_values  # whole, for these triples alone
        moved_by = alpha.transpose(0, 2, 1)
        moved = np.einsum("rlk,jlq->rjkq", alpha, action)  # [r, j, k]: x_j . alpha_r(E_k)
        mirrored = inner.swapaxes(0, 1)[None] @ moved_by[inv][:, None]  # [r, i, j]: alpha_{r^-1}(<x_j, x_i>)
        return inner, moved_by, _embedded(algebra, moved_by), moved, mirrored  # [t, k]: alpha_t(E_k)

    def defects(ts):
        inner, moved_by, images, moved, mirrored = parts()
        perm, worst = cstar.star_permutation(algebra), []
        for t, rows in itertools.product(ts, nk.stack_spans(m, per_row)):
            w = inv[t]
            pushed = inner[rows] @ moved_by[w]  # [i, j]: alpha_w(<x_i, x_j>)
            times = _coordinates(algebra, _embedded(algebra, pushed)[None, :, :, None] @ images[mult[w]][:, None, None])
            axiom = (moved[:, None] @ inner[rows, None]) @ moved_by[w] - times  # at [r, i, j, k]
            symmetry = np.conj(pushed[..., perm])[None] @ moved_by[mult[inv, t]][:, None] - mirrored[:, rows]
            worst.append(max(nk.maxabs(axiom), nk.maxabs(symmetry)))
        return np.array(worst)

    return m * per_row, defects


# ---------------------------------------------------------------------------
# The induced CP map on the crossed product
# ---------------------------------------------------------------------------


def _integrated(images: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """``images[i] @ mats[t]`` for every pair, at crossed index ``t * len(images) + i``."""
    out = images[None] @ mats[:, None]
    return out.reshape(len(mats) * len(images), *out.shape[2:])


def _identity_defect(cm: CrossedModule, images, companion, mats) -> float:
    """The crossed identity of the integral form of ``(images, mats)`` on all crossed basis
    pairs: ``u_t* P_ij u_r`` against ``(<x_i, x_j> @ Q_t) u_{t^-1 r}``, where the companion
    moved by the action, ``Q_t = alpha_{t^-1}^T companion``, gives ``companion(A[t, i, j])``,
    and ``P_ij = images[i]* images[j]`` is formed once by chunks of i, by chunks of rows (i, t)."""
    g, m, h = cm.group.order, len(images), mats.shape[-1]
    star, columns = np.conj(mats).swapaxes(1, 2).copy(), mats.swapaxes(0, 1).reshape(h, -1)  # u_r
    slotted = mats[cm.group.mult[cm.group.inv]].swapaxes(1, 2).reshape(g, h, -1)  # u_(t^-1 r)
    moved = np.swapaxes(cm.system.alpha[cm.group.inv], 1, 2) @ companion.reshape(len(companion), h * h)
    at_pairs, worst = cm.module.support.pairs, 0.0
    for span in nk.stack_spans(m, m * h * h):
        pairs = np.conj(images[span]).transpose(0, 2, 1)[:, None] @ images  # [i, j]: P_ij
        inner = np.zeros((len(pairs), m, len(companion)), dtype=np.complex128)  # [i, j]: <x_i, x_j>
        at = slice(*at_pairs.searchsorted([span.start * m, span.stop * m]))
        inner.reshape(-1, len(companion))[at_pairs[at] - span.start * m] = cm.module.pair_rows[at]

        def defects(rows):  # the rows (i, t) of the chunk, at i * g + t
            i, t = np.divmod(np.arange(rows.start, rows.stop), g)
            lhs = (star[t, None] @ pairs[i]).reshape(len(t), m * h, h) @ columns
            rhs = (inner[i] @ moved[t]).reshape(len(t), m * h, h)
            lhs -= rhs @ slotted[t]
            return lhs

        worst = max(worst, nk.stack_max(len(pairs) * g, 2 * g * m * h * h, defects))
    return worst


@dataclass(frozen=True)
class InducedCP:
    """CP map on the crossed module induced by a covariant CP map, held by its pair:
    ``e_(t,i) -> Phi(x_i) u_t``, the dilation's ``cov_map`` with ``u_t = u.mats[t]``, with
    the residuals and density profiles that certify it.  Of a covariant representation
    it is the integral form."""

    crossed: CrossedModule
    identity_residual: float  # <Phi^(xhat), Phi^(yhat)> = phi^(<xhat, yhat>)
    factorization_residual: float  # Phi^ = W* (integral form of dilation) V
    range_density: nk.RankProfile  # of the integral form of the dilation
    corange_density: nk.RankProfile
    dilation: stinespring.CovariantDilation  # the one the factorization went through

    @property
    def images(self) -> np.ndarray:  # (|G| m, dim K, dim H): each crossed basis element's image
        cov = self.dilation.cov_map
        return _integrated(cov.base.images, cov.u.mats)

    @property
    def max_residual(self) -> float:
        return max(self.identity_residual, self.factorization_residual)

    @property
    def minimal(self) -> bool:
        base = self.dilation.base  # its integral form dilates Phi^ minimally
        ranks = (self.range_density.rank, self.corange_density.rank)
        return ranks == (base.dim_codomain, base.gns.dim)


def induced_cp(dilation: stinespring.CovariantDilation) -> InducedCP:
    """Induce a CP map on the crossed product from a covariant one, given by its dilation.

    ``Phi^(xhat) = sum_t Phi(xhat(t)) u_t`` with companion
    ``phi^(f) = sum_t phi(f(t)) u_t``, for the dilation's ``cov_map``, whose covariance
    ``dilate_covariant`` gated.  The certificate checks the defining inner-product
    identity on all crossed basis pairs, and the minimal factorization through the
    covariant dilation that witnesses complete positivity.
    """
    cov = dilation.cov_map
    cm = build_crossed_module(cov.system)
    phi, u = cov.base.images, cov.u.mats
    identity = _identity_defect(cm, phi, cov.base.companion.images, u)

    # pi(x_i) v_t V from the dilation's parts, as verify reads pi(x_i) V, by chunks of t: columns
    # (t, h); W* of it against Phi(x_i) u_t, and the range Gram summed over the chunks
    base, v, dim = dilation.base, dilation.v.mats, dilation.base.dim_codomain
    fact, gram = 0.0, np.zeros((dim, dim), dtype=np.complex128)
    for t in nk.stack_spans(len(u), len(phi) * dim * phi.shape[2]):
        columns = (t.stop - t.start) * phi.shape[2]
        ranged = stinespring._ranged(base, (v[t] @ base.gns.V).transpose(1, 0, 2).reshape(base.gns.dim, columns))
        rebuilt = (nk.adjoint(base.W) @ ranged).reshape(len(phi), phi.shape[1], t.stop - t.start, phi.shape[2])
        fact = max(fact, nk.maxabs(rebuilt - (phi @ u[t, None]).transpose(1, 2, 0, 3)))  # at [i, :, t]
        stack = hilbmod.range_stack(ranged)
        gram += stack @ nk.adjoint(stack)
    ranged, coranged = nk.psd_rank(gram), stinespring._corange_rank(base, v)
    return InducedCP(cm, identity, fact, ranged, coranged, dilation)
