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
basis; index ``(t, k)`` lives at ``t * base_dim + k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import cstar, hilbmod, stinespring
from . import numkernel as nk
# check_covariance stays importable from here; this module reads its report
# through the cached covariance_report.
from .cpmaps import CovariantCPMap, check_covariance  # noqa: F401
from .errors import (
    NotActionError,
    NotCovariantError,
    NotCovariantRepError,
    ShapeMismatchError,
)


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

    def basis_element(self, t: int, k: int) -> np.ndarray:
        out = np.zeros((self.group.order, self.base.dim), dtype=np.complex128)
        out[t, k] = 1.0
        return out


def build_crossed_algebra(
    group: hilbmod.FiniteGroup,
    alpha: np.ndarray,
    base: cstar.CStarAlgebra,
    tol: float = 1e-9,
) -> CrossedAlgebra:
    """Assemble the crossed algebra after validating that alpha is an action."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    worst = max(hilbmod.algebra_action_residuals(group, base, alpha))
    if worst > tol:
        raise NotActionError(
            f"alpha is not a *-automorphism action (worst residual {worst:.3e})"
        )
    return CrossedAlgebra(group, base, alpha)


def structure_constants(calg: CrossedAlgebra) -> np.ndarray:
    """Full multiplication tensor on the crossed basis, (d, d, d) with d = |G| N."""
    d = calg.dim
    n_dim = calg.base.dim
    out = np.zeros((d, d, d), dtype=np.complex128)
    for t in range(calg.group.order):
        for k in range(n_dim):
            left = calg.basis_element(t, k)
            for r in range(calg.group.order):
                for l in range(n_dim):
                    prod = calg.multiply(left, calg.basis_element(r, l))
                    out[t * n_dim + k, r * n_dim + l] = prod.reshape(d)
    return out


class CrossedAlgebraReport(NamedTuple):
    associativity_residual: float
    involution_residual: float  # (f g)* = g* f*
    involutive_residual: float  # f** = f
    unital_residual: float

    @property
    def max_residual(self) -> float:
        return max(
            self.associativity_residual,
            self.involution_residual,
            self.involutive_residual,
            self.unital_residual,
        )


def check_crossed_algebra(calg: CrossedAlgebra) -> CrossedAlgebraReport:
    """Exhaustive axiom check on basis triples, via the generic operations."""
    d = calg.dim
    n_dim = calg.base.dim
    struct = structure_constants(calg)

    # (e_i e_j) e_k versus e_i (e_j e_k), chunked over i to bound memory
    assoc = 0.0
    for i in range(d):
        lhs = nk.coords_apply(struct[i], struct)
        rhs = struct @ struct[i]
        assoc = max(assoc, nk.maxabs(lhs - rhs))

    stars = np.stack(
        [
            calg.star(calg.basis_element(t, k)).reshape(d)
            for t in range(calg.group.order)
            for k in range(n_dim)
        ]
    )
    double_star = np.stack(
        [
            calg.star(stars[i].reshape(calg.group.order, n_dim)).reshape(d)
            for i in range(d)
        ]
    )
    involutive = nk.maxabs(double_star - np.eye(d))

    anti = 0.0
    for i in range(d):
        prod_star = np.stack(
            [
                calg.star(struct[i, j].reshape(calg.group.order, n_dim)).reshape(d)
                for j in range(d)
            ]
        )
        star_i = stars[i].reshape(calg.group.order, n_dim)
        reversed_prod = np.stack(
            [
                calg.multiply(stars[j].reshape(calg.group.order, n_dim), star_i).reshape(d)
                for j in range(d)
            ]
        )
        anti = max(anti, nk.maxabs(prod_star - reversed_prod))

    unit = calg.unit()
    unital = 0.0
    for i in range(d):
        elem = np.zeros(d, dtype=np.complex128)
        elem[i] = 1.0
        shaped = elem.reshape(calg.group.order, n_dim)
        unital = max(
            unital,
            nk.maxabs(calg.multiply(unit, shaped).reshape(d) - elem),
            nk.maxabs(calg.multiply(shaped, unit).reshape(d) - elem),
        )
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

    def basis_element(self, t: int, i: int) -> np.ndarray:
        out = np.zeros((self.group.order, self.module.dim), dtype=np.complex128)
        out[t, i] = 1.0
        return out


def build_crossed_module(
    sys: hilbmod.ModuleDynamicalSystem, tol: float = 1e-9
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


def crossed_inner_tensor(cm: CrossedModule) -> np.ndarray:
    """Inner products of all crossed basis pairs, shape (d_X, d_X, d_A)."""
    d_x, d_a = cm.dim, cm.algebra.dim
    g, m = cm.group.order, cm.module.dim
    out = np.zeros((d_x, d_x, d_a), dtype=np.complex128)
    for t in range(g):
        for i in range(m):
            left = cm.basis_element(t, i)
            for r in range(g):
                for j in range(m):
                    out[t * m + i, r * m + j] = cm.inner(
                        left, cm.basis_element(r, j)
                    ).reshape(d_a)
    return out


def check_crossed_module(cm: CrossedModule) -> CrossedModuleReport:
    """Exhaustive right-module and symmetry checks on basis triples."""
    g, m = cm.group.order, cm.module.dim
    n_dim = cm.module.algebra.dim
    d_x, d_a = cm.dim, cm.algebra.dim
    inner = crossed_inner_tensor(cm)
    struct = structure_constants(cm.algebra)

    # action of every crossed-algebra basis element on every module basis element
    act = np.zeros((d_x, d_a, d_x), dtype=np.complex128)
    for r in range(g):
        for j in range(m):
            xhat = cm.basis_element(r, j)
            for s in range(g):
                for k in range(n_dim):
                    act[r * m + j, s * n_dim + k] = cm.act(
                        xhat, cm.algebra.basis_element(s, k)
                    ).reshape(d_x)

    lhs = nk.coords_apply(act, inner.transpose(1, 0, 2)).transpose(2, 0, 1, 3)
    rhs = nk.coords_apply(inner, struct)
    axiom = nk.maxabs(lhs - rhs)

    sym = 0.0
    for a in range(d_x):
        starred = np.stack(
            [
                cm.algebra.star(inner[a, b].reshape(g, n_dim)).reshape(d_a)
                for b in range(d_x)
            ]
        )
        sym = max(sym, nk.maxabs(starred - inner[:, a, :]))

    rank = nk.numerical_rank(inner.reshape(d_x * d_x, d_a)).rank
    return CrossedModuleReport(axiom, sym, rank, d_a)


# ---------------------------------------------------------------------------
# Integral forms of covariant representations
# ---------------------------------------------------------------------------


def _integrated(images: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """``images[i] @ mats[t]`` for every pair, at crossed index ``t * len(images) + i``."""
    out = images[None] @ mats[:, None]
    return out.reshape(len(mats) * len(images), *out.shape[2:])


@dataclass(frozen=True)
class IntegralForm:
    """Representation of the crossed module induced by a covariant one."""

    crossed: CrossedModule
    images: np.ndarray  # (|G| m, dim K, dim H): image of each crossed basis element
    companion_images: np.ndarray  # (|G| N, dim H, dim H)

    def apply(self, xhat: np.ndarray) -> np.ndarray:
        flat = np.asarray(xhat, dtype=np.complex128).reshape(-1)
        return np.tensordot(flat, self.images, axes=(0, 0))

    def apply_companion(self, f: np.ndarray) -> np.ndarray:
        flat = np.asarray(f, dtype=np.complex128).reshape(-1)
        return np.tensordot(flat, self.companion_images, axes=(0, 0))


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
    tol: float = 1e-9,
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
    scale = max(1.0, nk.maxabs(rep.images))
    covariance = hilbmod.covariance_defect(sys.eta, rep.images, w.mats, v.mats) / scale
    v_rep = hilbmod.check_unitary_rep(v)
    w_rep = hilbmod.check_unitary_rep(w)
    worst = max(
        rep_report.identity_residual,
        covariance,
        v_rep.hom_residual,
        v_rep.unitary_residual,
        w_rep.hom_residual,
        w_rep.unitary_residual,
    )
    if worst > tol:
        raise NotCovariantRepError(
            f"input is not a covariant representation (worst residual {worst:.3e})"
        )

    cm = build_crossed_module(sys, tol)
    images = _integrated(rep.images, v.mats)
    companion = _integrated(rep.companion.images, v.mats)
    form = IntegralForm(cm, images, companion)
    identity = hilbmod.identity_defect(images, crossed_inner_tensor(cm), companion)
    identity /= max(1.0, scale * scale)

    range_rank, corange_rank = (p.rank for p in hilbmod.density_ranks(images))
    if rep_report.nondegenerate:
        nondegenerate = range_rank == dim_k and corange_rank == dim_h
        reason = None
    else:
        nondegenerate, reason = None, "input representation is degenerate"
    return form, IntegralFormReport(
        identity, range_rank, dim_k, corange_rank, dim_h, nondegenerate, reason
    )


# ---------------------------------------------------------------------------
# The induced CP map on the crossed product
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InducedCP(IntegralForm):
    """CP map on the crossed module induced by a covariant CP map.

    It is the integral form of the covariant map: images and companion images
    on the crossed bases, with the residuals that certify it.
    """

    identity_residual: float  # <Phi^(xhat), Phi^(yhat)> = phi^(<xhat, yhat>)
    factorization_residual: float  # Phi^ = W* (integral form of dilation) V

    @property
    def max_residual(self) -> float:
        return max(self.identity_residual, self.factorization_residual)


def induced_cp(
    cov: CovariantCPMap,
    dilation: stinespring.CovariantDilation | None = None,
    tol: float = 1e-8,
) -> InducedCP:
    """Induce a CP map on the crossed product from a covariant one.

    ``Phi^(xhat) = sum_t Phi(xhat(t)) u_t`` with companion
    ``phi^(f) = sum_t phi(f(t)) u_t``.  The certificate checks the defining
    inner-product identity on all crossed basis pairs and the factorization
    through the covariant dilation, which witnesses complete positivity.
    """
    report = cov.covariance_report
    if report.max_residual > tol:
        raise NotCovariantError(
            f"input map is not covariant (residual {report.max_residual:.3e})"
        )
    sys = cov.system
    group, module = sys.group, sys.module
    g, m = group.order, module.dim

    cm = build_crossed_module(sys, tol)
    images = _integrated(cov.base.images, cov.u.mats)
    companion = _integrated(cov.base.companion.images, cov.u.mats)

    identity = hilbmod.identity_defect(images, crossed_inner_tensor(cm), companion)
    identity /= max(1.0, nk.maxabs(images) ** 2)

    if dilation is None:
        dilation = stinespring.dilate_covariant(cov)
    base = dilation.base
    fact = 0.0
    for t in range(g):
        for i in range(m):
            rebuilt = (
                nk.adjoint(base.W)
                @ base.images[i]
                @ dilation.v.mats[t]
                @ base.gns.V
            )
            fact = max(fact, nk.maxabs(rebuilt - images[t * m + i]))
    fact /= max(1.0, nk.maxabs(images))
    return InducedCP(cm, images, companion, identity, fact)


class IntegralStinespringReport(NamedTuple):
    reconstruction_residual: float
    range_rank: int
    range_required: int  # dim of the dilation codomain
    corange_rank: int
    corange_required: int  # dim of the dilation domain

    @property
    def minimal(self) -> bool:
        return (
            self.range_rank == self.range_required
            and self.corange_rank == self.corange_required
        )


def check_integral_stinespring(
    cov: CovariantCPMap,
    dilation: stinespring.CovariantDilation,
    induced: InducedCP | None = None,
) -> IntegralStinespringReport:
    """Verify that the integral form of the covariant dilation dilates the
    induced crossed-product map minimally: same reconstruction, same spaces."""
    if induced is None:
        induced = induced_cp(cov, dilation)
    base = dilation.base
    dil_images = _integrated(base.images, dilation.v.mats)

    rebuilt = nk.sandwich(base.W, dil_images, base.gns.V)
    recon = nk.maxabs(rebuilt - induced.images) / max(1.0, nk.maxabs(induced.images))

    range_rank, corange_rank = (
        p.rank for p in hilbmod.density_ranks(dil_images, base.gns.V, base.W)
    )
    return IntegralStinespringReport(
        recon, range_rank, base.dim_codomain, corange_rank, base.gns.dim
    )
