"""Completely positive maps on algebras and on Hilbert modules.

A module CP map ``Phi: X -> L(H, K)`` carries a companion CP map
``phi: A -> L(H)`` tied to it by ``Phi(x)* Phi(y) = phi(<x, y>)``.  Maps are
stored by their images on basis elements, a representation of the module as
the ``ModuleCPMap`` it is, with a *-representation as companion
(``concrete_representation``).  Covariant maps additionally carry
a dynamical system and the two unitary group representations they intertwine.

Random instances are produced by compressing an amplified concrete
representation with group-averaged intertwiners; averaging the map itself
would destroy the defining identity, compressing a representation never does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import cstar, hilbmod
from . import numkernel as nk
from .cstar import CPMapAlgebra
from .errors import (
    DegenerateAverageError,
    InconsistentError,
    NotCoisometryError,
    NotIntertwiningError,
    ShapeMismatchError,
)


@dataclass(frozen=True)
class ModuleCPMap:
    """CP map on a module together with its companion on the algebra, or a representation."""

    module: hilbmod.HilbertModule
    images: np.ndarray  # (m, dim K, dim H)
    companion: CPMapAlgebra

    def __post_init__(self):
        images = np.asarray(self.images, dtype=np.complex128)
        if images.ndim != 3 or images.shape[0] != self.module.dim:
            raise ShapeMismatchError(f"module cp-map images shape {images.shape}")
        if images.shape[2] != self.companion.space_dim:
            raise ShapeMismatchError(
                "module cp-map domain does not match its companion's space"
            )
        object.__setattr__(self, "images", images)

    @property
    def space_dims(self) -> tuple[int, int]:
        return self.images.shape[2], self.images.shape[1]  # (dim H, dim K)

    @cached_property
    def cp_report(self) -> "ModuleCPReport":
        """``check_module_cp`` of this map, computed once."""
        return check_module_cp(self)


@dataclass(frozen=True)
class CovariantCPMap:
    """Module CP map intertwining a dynamical system with (u', u)."""

    base: ModuleCPMap
    system: hilbmod.ModuleDynamicalSystem
    u: hilbmod.UnitaryRep  # on H
    u_prime: hilbmod.UnitaryRep  # on K

    def __post_init__(self):
        dim_h, dim_k = self.base.space_dims
        if self.u.dim != dim_h or self.u_prime.dim != dim_k:
            raise ShapeMismatchError("covariance representations do not fit (H, K)")
        if self.system.module is not self.base.module and not hilbmod.same_structure(
            self.system.module, self.base.module
        ):
            raise ShapeMismatchError("system and map live on different modules")

    @cached_property
    def covariance_report(self) -> "CovarianceReport":
        """``check_covariance`` of this map, computed once."""
        return check_covariance(self.base, self.system, self.u, self.u_prime)


def normalize(phi: ModuleCPMap, cov: CovariantCPMap | None = None):
    """The map at unit scale, ``(Phi/s, cov on Phi/s, s)`` for ``s = maxabs(images)``:
    residuals are absolute, so on it they are unit-free.  The companion becomes ``phi/s/s``,
    two divisions so that no step over- or underflows (``InconsistentError`` if the result
    leaves the float range).  A zero map comes back unchanged, with s = 0."""
    s = nk.maxabs(phi.images)
    if s == 0.0:
        return phi, cov, s
    with np.errstate(over="ignore"):  # reported below
        companion = replace(phi.companion, images=phi.companion.images / s / s)
    if not np.isfinite(companion.images).all():
        raise InconsistentError(f"companion images are out of scale with images of size {s:.3e}")
    phi = replace(phi, images=phi.images / s, companion=companion)
    return phi, None if cov is None else replace(cov, base=phi), s


class ModuleCPReport(NamedTuple):
    identity_residual: float  # Phi(x)* Phi(y) = phi(<x,y>)
    companion_herm_residual: float
    choi_min_eig: float


def check_module_cp(phi: ModuleCPMap) -> ModuleCPReport:
    """The identity residual; the hermiticity and CP verdict are the companion's ``choi_report``."""
    companion, choi = phi.companion, phi.companion.choi_report
    residual = hilbmod.identity_defect(phi.images, phi.module, companion.images)
    return ModuleCPReport(residual, choi.hermiticity, choi.min_eig)


def concrete_representation(p: int, n: int) -> ModuleCPMap:
    """The defining representation of the standard module: x acts as itself."""
    module = hilbmod.standard_module(p, n)
    companion = cstar.embedding_representation(module.algebra)  # M_n acting on C^n
    return ModuleCPMap(module, hilbmod.standard_basis_matrices(p, n), companion)


def require_coisometry(w: np.ndarray) -> None:
    """Raise ``NotCoisometryError`` unless ``W W* = I``: the gate of every compression."""
    defect = nk.maxabs(w @ nk.adjoint(w) - nk.eye(w.shape[0]))
    if defect > nk.REL_TOL:
        raise NotCoisometryError(f"W W* deviates from the identity by {defect:.3e}")


def cp_from_representation(rep: ModuleCPMap, v: np.ndarray, w: np.ndarray) -> ModuleCPMap:
    """Compress a module representation to a CP map: ``Phi(x) = W* pi(x) V``.

    ``V: H -> H'`` is arbitrary, ``W: K -> K'`` must be a coisometry onto the
    representation's codomain (``W W* = I``).  The companion is
    ``phi(a) = V* pi_A(a) V``.
    """
    v = nk.as_matrix(v)
    w = nk.as_matrix(w)
    dim_h_rep, dim_k_rep = rep.space_dims
    if v.shape[0] != dim_h_rep:
        raise ShapeMismatchError(f"V maps into C^{v.shape[0]}, representation has H' of dim {dim_h_rep}")
    if w.shape[0] != dim_k_rep:
        raise ShapeMismatchError(f"W maps into C^{w.shape[0]}, representation has K' of dim {dim_k_rep}")
    require_coisometry(w)
    images = nk.sandwich(w, rep.images, v)
    companion_images = nk.sandwich(v, rep.companion.images, v)
    companion = CPMapAlgebra(rep.module.algebra, v.shape[1], companion_images)
    return ModuleCPMap(rep.module, images, companion)


class CovarianceReport(NamedTuple):
    map_residual: float  # Phi(eta_t x) = u'_t Phi(x) u_t*
    companion_residual: float  # phi(alpha_t a) = u_t phi(a) u_t*

    @property
    def max_residual(self) -> float:
        return max(self.map_residual, self.companion_residual)


def check_covariance(
    phi: ModuleCPMap,
    system: hilbmod.ModuleDynamicalSystem,
    u: hilbmod.UnitaryRep,
    u_prime: hilbmod.UnitaryRep,
) -> CovarianceReport:
    """Absolute covariance residuals of a map and its companion, bounded on every t."""
    map_residual = hilbmod.covariance_defect(system.eta_rep, phi.images, u_prime, u)
    comp_residual = hilbmod.covariance_defect(system.alpha_rep, phi.companion.images, u, u)
    return CovarianceReport(map_residual, comp_residual)


def require_intertwiners(rep_v, rep_w, v: np.ndarray, w: np.ndarray, u, u_prime) -> None:
    """Raise ``NotIntertwiningError`` unless ``rep_v_t V = V u_t`` and ``rep_w_t W = W u'_t``
    for every t of the unitary representations, naming which relation fails at which t."""
    relations = (("v_t V = V u_t", rep_v, v, u), ("w_t W = W u'_t", rep_w, w, u_prime))
    defects = np.array([hilbmod.intertwining_defects(*r[1:]) for r in relations])
    gates = np.array([[nk.RESIDUAL_TOL * max(1.0, nk.maxabs(r[2]))] for r in relations])
    # the first t at which a relation fails, and at that t the first failing one
    failing = np.argwhere((defects > gates).T)
    if len(failing):
        t, which = failing[0]
        raise NotIntertwiningError(
            f"{relations[which][0]} fails at t={t} by {defects[which, t]:.3e}"
        )


def average_intertwiner(
    reps_left: hilbmod.UnitaryRep, reps_right: hilbmod.UnitaryRep, z: np.ndarray
) -> np.ndarray:
    """Group average ``(1/|G|) sum_t left_t Z right_t*``, an exact intertwiner.

    The terms of a chunk come from two batched products and are added in the
    order of t, so the sum does not depend on the chunks.
    """
    z = nk.as_matrix(z)
    star_right = np.conj(reps_right.mats).transpose(0, 2, 1)
    total = np.zeros((reps_left.dim, reps_right.dim), dtype=np.complex128)
    for t in nk.stack_spans(reps_left.group.order, total.size):
        for term in reps_left.mats[t] @ z @ star_right[t]:
            total += term
    return total / reps_left.group.order


def polar_coisometry(y: np.ndarray) -> np.ndarray:
    """Turn a full-row-rank map into a coisometry, ``(Y Y*)^{-1/2} Y``.

    The correction preserves any intertwining relations of ``Y`` because
    ``Y Y*`` commutes with the left representation.  Raises
    ``DegenerateAverageError`` when ``Y Y*`` is singular beyond the cutoff.
    """
    y = nk.as_matrix(y)
    if y.shape[0] == 0:
        return y
    values, vectors = nk.hermitian_eigendecomposition(y @ nk.adjoint(y))
    if float(values[-1]) < nk.DEGENERACY_FLOOR or nk.spectral_rank(values)[0] < values.size:
        raise DegenerateAverageError(
            f"averaged map has Gram min eigenvalue {float(values[-1]):.3e}, below "
            f"{nk.DEGENERACY_FLOOR:.1e} or the rank cutoff"
        )
    return (vectors / np.sqrt(values)[None, :]) @ nk.adjoint(vectors) @ y


@dataclass(frozen=True)
class CovariantWitness:
    """The intertwiners behind a generated covariant map."""

    module: hilbmod.HilbertModule
    amplification: int
    v: hilbmod.UnitaryRep
    w: hilbmod.UnitaryRep
    V: np.ndarray
    W: np.ndarray

    @cached_property
    def rep(self) -> ModuleCPMap:
        """The representation ``V`` and ``W`` compress, built at its first read."""
        return amplified_concrete_representation(self.module, self.amplification)


def amplified_concrete_representation(
    module: hilbmod.HilbertModule, amplification: int
) -> ModuleCPMap:
    """Concrete representation of ``module``, a standard p x n module, tensored
    with C^amplification: the ``_amplified_products`` of the identity."""
    n = module.algebra.blocks[0]
    ident = nk.eye(n * amplification)
    images = _amplified_products(ident, module.dim // n, amplification)
    companion_images = _amplified_products(ident, n, amplification)
    companion = CPMapAlgebra(module.algebra, n * amplification, companion_images)
    return ModuleCPMap(module, images, companion)


def _amplified_products(v: np.ndarray, rows: int, amplification: int) -> np.ndarray:
    """``(E_ab (x) I_r) V`` for each rows x n matrix unit ``E_ab`` in the order of
    ``standard_basis_matrices`` (r = amplification, V of n r rows): V's block-b rows
    placed at block a.  These are the values a GEMM through the 0/1 stack returns,
    each entry one product by 1 plus products by 0, with no stack formed."""
    n, cols = v.shape[0] // amplification, v.shape[1]
    placed = np.zeros((rows, n, rows, amplification, cols), dtype=np.complex128)
    units = np.arange(rows)
    placed[units, :, units] = v.reshape(n, amplification, cols)
    return placed.reshape(rows * n, rows * amplification, cols)


def random_covariant_cp(
    system: hilbmod.ModuleDynamicalSystem,
    amplification: int,
    seed: int,
    u: hilbmod.UnitaryRep | None = None,
    u_prime: hilbmod.UnitaryRep | None = None,
) -> tuple[CovariantCPMap, CovariantWitness]:
    """Seeded covariant CP map on a standard-action system.

    Amplifies the concrete representation by ``C^m`` (m = amplification),
    equips it with ``v = delta (x) sigma`` and ``w = gamma (x) sigma`` for a
    seeded representation ``sigma``, picks target representations ``u`` on H
    and ``u'`` on K (defaults: ``u = delta``; ``u'`` a conjugated copy of
    ``w`` padded by a small seeded summand), and compresses along
    group-averaged intertwiners: each ``(x (x) I_m) V`` is placed, not multiplied,
    so the map is ``cp_from_representation(witness.rep, V, W)`` to the byte.  All
    randomness is drawn from per-purpose streams spawned off the seed, so results
    do not depend on call order.
    """
    if system.gamma is None or system.delta is None:
        raise ShapeMismatchError("random covariant maps need a system built by standard_action")
    group, module = system.group, system.module
    gamma, delta = system.gamma, system.delta
    streams = [np.random.Generator(np.random.Philox(c)) for c in np.random.SeedSequence(seed).spawn(4)]
    sigma = hilbmod.seeded_rep(group, amplification, streams[0])
    rep_v = hilbmod.tensor_rep(delta, sigma)
    rep_w = hilbmod.tensor_rep(gamma, sigma)

    if u is None:
        u = delta
    if u_prime is None:
        pad = int(streams[1].integers(0, 3))
        padded = rep_w if pad == 0 else hilbmod.direct_sum_rep(
            rep_w, hilbmod.seeded_rep(group, pad, streams[1])
        )
        u_prime = hilbmod.conjugate_rep(
            padded, nk.haar_unitary(streams[1], padded.dim)
        )

    z = nk.complex_normal(streams[2], rep_v.dim, u.dim)
    big_v = average_intertwiner(rep_v, u, z)
    z_prime = nk.complex_normal(streams[3], rep_w.dim, u_prime.dim)
    big_w = polar_coisometry(average_intertwiner(rep_w, u_prime, z_prime))

    require_intertwiners(rep_v, rep_w, big_v, big_w, u, u_prime)
    require_coisometry(big_w)
    n = module.algebra.blocks[0]
    images = nk.adjoint(big_w) @ _amplified_products(big_v, module.dim // n, amplification)
    companion_images = nk.adjoint(big_v) @ _amplified_products(big_v, n, amplification)
    companion = CPMapAlgebra(module.algebra, u.dim, companion_images)
    cov = CovariantCPMap(ModuleCPMap(module, images, companion), system, u, u_prime)
    return cov, CovariantWitness(module, amplification, rep_v, rep_w, big_v, big_w)
