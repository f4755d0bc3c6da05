"""Minimal dilations of CP maps on modules, plain and group-covariant.

The construction follows the finite-dimensional GNS recipe: put the
semi-inner product ``<a (x) h, b (x) k> = <h, phi(a* b) k>`` on ``A (x) H``,
factor its Gram block by block from the companion's Choi matrices (the
quotient by null vectors), and realize every descended map as
``F (raw map) L``, one block row of ``A (x) H`` at a time, with an explicit
kernel-annihilation residual.  The codomain space of the module dilation is
the span of ``Phi(X) H`` inside ``K``, carried in orthonormal coordinates by
a coisometry with orthonormal rows.

All verification is numerical: certificates list named absolute residuals, unit-free
on a map scaled by ``cpmaps.normalize``, and the rank decisions and profiles behind them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import __version__, cstar, hilbmod
from . import numkernel as nk
# check_covariance and check_module_cp stay importable from here; this module
# reads their reports through the cached cp_report and covariance_report.
from .cpmaps import (  # noqa: F401
    CovariantCPMap,
    CPMapAlgebra,
    ModuleCPMap,
    check_covariance,
    check_module_cp,
)
from .errors import (
    InvarianceLeakError,
    NotCoisometryError,
    NotCovariantError,
    NotCpError,
    NotMinimalError,
    NotUnitaryError,
    QuotientLeakError,
    ShapeMismatchError,
)


@dataclass(frozen=True)
class GnsTriple:
    """Minimal dilation data of a CP map on the algebra.

    The representation acts on the quotient of ``A (x) H`` by the Gram kernel, in
    coordinates over (block, block row a, kept index), as ``pi(E_cd) = E_cd (x) M_b``;
    ``rep``, its dense images, is built on first read.  ``F`` and ``L`` are
    ``I_n (x) S`` and ``I_n (x) B/sqrt(Λ)`` on each block and are never formed: maps on
    the raw space descend through ``blocks``, each block's ``GramFactor``
    ``(S, B/sqrt(Λ))`` of its Choi matrix with columns (rows) over (c, i), one block row
    ``sum_c E_ac (x) h_c`` at a time.
    """

    cp_map: CPMapAlgebra
    dim: int  # rank of the GNS Gram
    V: np.ndarray  # (dim, dim H)
    blocks: tuple[nk.GramFactor, ...]  # one per algebra block
    gram_eigenvalues: np.ndarray  # descending spectrum of the GNS Gram
    M: np.ndarray  # (blocks, width, width), M_b = S B/sqrt(Λ) in its kept x kept corner

    @cached_property
    def row_cols(self) -> np.ndarray:
        """(E, width): the coordinates of each block row, padded with ``dim``."""
        kept = np.repeat([block.rank for block in self.blocks], self.cp_map.algebra.blocks)
        at = np.arange(self.M.shape[1])
        return np.where(at < kept[:, None], (kept.cumsum() - kept)[:, None] + at, self.dim)

    @cached_property
    def rep(self) -> cstar.AlgebraRepresentation:
        algebra = self.cp_map.algebra
        rows, cols = self.row_cols[cstar.embedding_index(algebra)]  # (N, width) each
        images = np.zeros((algebra.dim, self.dim + 1, self.dim + 1), dtype=np.complex128)
        units = np.arange(algebra.dim)[:, None, None]
        images[units, rows[:, :, None], cols[:, None, :]] = self.M[_unit_blocks(algebra)]
        return cstar.AlgebraRepresentation(algebra, self.dim, images[:, :-1, :-1].copy())


def _unit_blocks(algebra: cstar.CStarAlgebra) -> np.ndarray:
    return np.repeat(np.arange(len(algebra.blocks)), np.square(algebra.blocks))


def _spans(sizes: tuple[int, ...], blocks):
    """``(n, units, cols, block)`` per algebra block: its size, the slices of its
    matrix units and of its quotient coordinates, and its ``GramFactor``."""
    unit = col = 0
    for n, block in zip(sizes, blocks):
        cols = slice(col, col + n * block.rank)
        yield n, slice(unit, unit + n * n), cols, block
        unit, col = unit + n * n, cols.stop


def _descend(groups: np.ndarray, block: nk.GramFactor):
    """``(groups @ L, defect, size)`` of raw maps on one block row: per map, how far
    it fails to vanish on the Gram kernel, ``maxabs(groups (I - L F))``, and its maxabs."""
    lifted = groups @ block.L
    defect = lifted @ block.F
    defect -= groups  # in place: no second stack
    return lifted, nk.stack_maxabs(defect), nk.stack_maxabs(groups)


def _add_at(out: np.ndarray, index: tuple, keys: np.ndarray, terms: np.ndarray) -> None:
    """``np.add.at(out, index, terms)`` into zeros, ``index`` repeating where ``keys`` do, as
    one fancy assignment per pass over the d-th occurrences (``np.add.at`` is slow on stacks)."""
    if (keys[1:] > keys[:-1]).all():  # one pass, no copies
        out[index] = terms
        return
    order, place = np.argsort(keys, kind="stable"), np.arange(len(keys))
    ordered, depth = keys[order], np.empty_like(place)
    first = np.r_[True, ordered[1:] != ordered[:-1]]
    depth[order] = place - np.maximum.accumulate(np.where(first, place, 0))
    for d in range(depth.max() + 1):
        at = tuple(i[depth == d] if isinstance(i, np.ndarray) else i for i in index)
        out[at] = out[at] + terms[depth == d] if d else terms[depth == d]


def gns_construct(phi: CPMapAlgebra) -> GnsTriple:
    """GNS/Stinespring data for a CP map ``phi: A -> L(H)``.

    The GNS Gram ``G[(k,i),(l,j)] = phi(E_k* E_l)[i, j]`` is never formed. For
    units ``E_ab, E_cd`` of a block of size n, ``E_ba E_cd`` is ``E_bd`` when
    ``a = c`` and 0 otherwise, so up to a permutation ``G`` is the direct sum
    over blocks of ``I_n (x) C``, with ``C`` the block's Choi matrix.  The
    companion's cached ``choi_report`` already holds the eigendecomposition of
    each ``C`` (of size n h, not N h); ``nk.psd_cutoff`` of the merged spectrum,
    whose largest eigenvalue over all blocks sets the cutoff as on the dense
    Gram, decides the rank; and ``nk.kept_factor`` of each block's spectrum at
    that cutoff is its factor, as ``nk.gram_factor`` forms it, with F's columns
    and L's rows reordered from the Choi order (i, c) to the block-row order
    (c, i).  ``E_cd`` moves block row d onto row c, so ``pi(E_cd)`` is
    ``E_cd (x) S B/sqrt(Λ)``, and every E_k of a block leaks ``S - (S B/sqrt(Λ)) S``.
    ``gram_eigenvalues`` is the spectrum of ``G``: each block's eigenvalues
    repeated n times, in descending order.  The reconstruction and minimality
    of the triple are checked by ``verify_dilation``.

    Raises ``NotCpError`` when the Choi test fails, ``NotPsdError`` (from
    ``nk.psd_cutoff``) when an eigenvalue lies below minus the cutoff, and
    ``QuotientLeakError`` when left multiplication does not descend to the
    quotient, which signals an inconsistent input.
    """
    choi = phi.choi_report
    if not choi.cp:
        raise NotCpError(
            f"input map is not completely positive (Choi min eig {choi.min_eig:.3e})"
        )
    algebra, h = phi.algebra, phi.space_dim
    spectra = choi.spectra
    merged = nk.merged_spectrum([s.values for s in spectra], algebra.blocks)
    cutoff = nk.psd_cutoff(merged)

    blocks = []
    for n, spectrum in zip(algebra.blocks, spectra):
        kept, F, L, values = nk.kept_factor(*spectrum, cutoff)
        # Choi rows run over (i, c), block-row rows over (c, i)
        F = F.reshape(kept, h, n).transpose(0, 2, 1).reshape(kept, n * h)
        L = L.reshape(h, n, kept).transpose(1, 0, 2).reshape(n * h, kept)
        blocks.append(nk.GramFactor(kept, F, L, values))
    rank = sum(n * block.rank for n, block in zip(algebra.blocks, blocks))
    v_map = np.zeros((rank, h), dtype=np.complex128)
    width = max(block.rank for block in blocks)
    moves, leak = np.zeros((len(blocks), width, width), dtype=np.complex128), 0.0
    for b, (n, units, cols, block) in enumerate(_spans(algebra.blocks, blocks)):
        (moved,), (defect,), (size,) = _descend(block.F[None], block)
        leak = max(leak, float(defect) / max(1.0, float(size)))
        moves[b, : block.rank, : block.rank] = moved
        # V h = F (1 (x) h): block row a of the unit reads S on its (a, i) columns
        v_map[cols] = block.F.reshape(block.rank, n, h).transpose(1, 0, 2).reshape(-1, h)
    if leak > nk.RESIDUAL_TOL:
        raise QuotientLeakError(
            f"left multiplication does not descend to the quotient (leak {leak:.3e}); "
            "the input map is not consistent"
        )
    return GnsTriple(phi, rank, v_map, tuple(blocks), merged, moves)


class DilationParts(NamedTuple):
    """``maps[r]``, padded like ``GnsTriple.row_cols``: ``pi(x_{xs[r]})`` on block row ``rows[r]``."""

    xs: np.ndarray
    rows: np.ndarray  # over the rows of the embedding
    maps: np.ndarray


@dataclass(frozen=True, init=False, eq=False)
class StinespringDilation:
    """Minimal dilation ``Phi(x) = W* pi(x) V`` of a module CP map, held by the live parts
    of ``pi(x_i)``: ``images``, (m, dim_codomain, gns.dim), is built on first read, and
    the constructor scans the dense images it takes into parts."""

    cp_map: ModuleCPMap
    gns: GnsTriple
    dim_codomain: int  # dim of the span of Phi(X) H inside K
    W: np.ndarray  # (dim_codomain, dim K), orthonormal rows
    parts: DilationParts
    codomain_gram_eigenvalues: np.ndarray

    def __init__(self, cp_map, gns, dim_codomain, W, images, codomain_gram_eigenvalues):
        images = np.asarray(images, dtype=np.complex128)
        rows = np.pad(images, ((0, 0), (0, 0), (0, 1)))[:, :, gns.row_cols]  # (m, K', E, width)
        xs, live = rows.any(axis=(1, 3)).nonzero()
        values = (cp_map, gns, dim_codomain, W, DilationParts(xs, live, rows[xs, :, live]))
        vars(self).update(vars(self.from_parts(*values, codomain_gram_eigenvalues)), images=images)

    @classmethod
    def from_parts(cls, *values) -> "StinespringDilation":
        """The dilation with these values of its fields, in their order."""
        dilation = cls.__new__(cls)
        vars(dilation).update(zip([f.name for f in fields(cls)], values, strict=True))
        return dilation

    @cached_property
    def images(self) -> np.ndarray:
        (xs, rows, maps), gns = self.parts, self.gns
        images = np.zeros((self.cp_map.module.dim, self.dim_codomain, gns.dim + 1), dtype=np.complex128)
        images[xs[:, None], :, gns.row_cols[rows]] = maps.transpose(0, 2, 1)
        return images[:, :, :-1].copy()

    @property
    def V(self) -> np.ndarray:
        return self.gns.V

    @property
    def dims(self) -> dict:
        dim_h, dim_k = self.cp_map.space_dims
        return {
            "H": dim_h,
            "K": dim_k,
            "H_dilation": self.gns.dim,
            "K_dilation": self.dim_codomain,
        }


def dilate_module_cp(phi: ModuleCPMap) -> StinespringDilation:
    """Construct the minimal dilation of a CP map on a full module.

    The dilation's domain space is the GNS space of the companion, the
    codomain space is the span of ``Phi(X) H`` in orthonormal coordinates,
    and the representation is the descended right-multiplication action.
    The raw map of ``x_i`` is formed and lifted only on the block rows ``a`` with
    some ``x_i . E_ac`` nonzero, read from ``module.support``: a gather of the
    images ``Phi(x_l)`` along the action's nonzeros, scaled by their values and
    summed where a row (x_i, a, c) has several.  Elsewhere it, its lift and leak
    are 0, and the live ``W (raw map) L`` are the dilation's parts.
    """
    module = phi.module
    report = phi.cp_report
    if not report.cp:
        raise NotCpError(
            f"companion fails the Choi test (min eig {report.choi_min_eig:.3e})"
        )
    if report.identity_residual > nk.PRECONDITION_TOL:
        raise QuotientLeakError(
            f"defining identity fails by {report.identity_residual:.3e}; "
            "the pair (Phi, phi) is inconsistent and cannot descend"
        )
    hilbmod.fullness_system(module)  # raises NotFullError on a module that is not full
    gns = gns_construct(phi.companion)

    dim_h, dim_k = phi.space_dims
    span = phi.images.transpose(1, 0, 2).reshape(dim_k, module.dim * dim_h)
    k_eigs, vectors = nk.hermitian_eigendecomposition(span @ nk.adjoint(span))
    dim_codomain = nk.spectral_rank(k_eigs)[0]
    w_map = nk.adjoint(vectors[:, :dim_codomain])

    m = module.dim  # the raw map of x_i sends E_l (x) h to Phi(x_i E_l) h
    (act_j, act_k, act_l), act_values = module.support.act, module.support.act_values
    worst = np.zeros((2, m))  # per x_i: the largest defect and size of its block rows
    parts, corner = [], 0
    for n, units, cols, block in _spans(module.algebra.blocks, gns.blocks):
        inside = ((units.start <= act_k) & (act_k < units.stop)).nonzero()[0]
        unit_row, unit_col = np.divmod(act_k[inside] - units.start, n)
        at = act_j[inside] * n + unit_row  # the nonzero x_j . E_ac, ascending in (j, a, c)
        # not np.unique, whose first call imports numpy.ma (about 1 MiB)
        keys = np.flatnonzero(np.bincount(at, minlength=m * n))
        xs, rows = np.divmod(keys, n)  # the live (x_i, a), row-major
        at = keys.searchsorted(at)
        maps = np.zeros((len(keys), dim_codomain, gns.M.shape[1]), dtype=np.complex128)
        for span in nk.stack_spans(len(xs), dim_k * n * dim_h):
            lo, hi = at.searchsorted([span.start, span.stop])
            raw = np.zeros((span.stop - span.start, dim_k, n, dim_h), dtype=np.complex128)
            terms, values = phi.images[act_l[inside[lo:hi]]], act_values[inside[lo:hi], None, None]
            if (values != 1).any():  # a value 1 leaves its term as it is
                terms *= values  # in place: no second stack
            slots = (at[lo:hi] - span.start, slice(None), unit_col[lo:hi])
            _add_at(raw, slots, at[lo:hi] * n + unit_col[lo:hi], terms)
            del terms  # before the lift forms its stacks
            lifted, defect, size = _descend(raw.reshape(len(raw), dim_k, n * dim_h), block)
            maps[span, :, : block.rank] = w_map @ lifted  # W (raw map) L
            np.maximum.at(worst, (slice(None), xs[span]), (defect, size))
        parts.append((xs, rows + corner, maps))
        corner += n
    leak = nk.maxabs(worst[0] / np.maximum(1.0, worst[1]))
    if leak > nk.RESIDUAL_TOL:
        raise QuotientLeakError(
            f"module maps do not descend to the GNS quotient (leak {leak:.3e})"
        )
    parts = DilationParts(*(np.concatenate(field) for field in zip(*parts)))
    return StinespringDilation.from_parts(phi, gns, dim_codomain, w_map, parts, k_eigs)


@dataclass(frozen=True)
class CovariantDilation:
    """Dilation of a covariant CP map with its two compressed group actions."""

    base: StinespringDilation
    cov_map: CovariantCPMap
    v: hilbmod.UnitaryRep  # on the dilation domain space
    w: hilbmod.UnitaryRep  # on the dilation codomain space
    gram_preservation_residual: float
    invariance_residual: float


def dilate_covariant(cov: CovariantCPMap) -> CovariantDilation:
    """Covariant minimal dilation: group unitaries descend to both spaces.

    The domain unitaries are the descents of ``alpha_t (x) u_t`` (this
    preserves the GNS Gram exactly when the companion is covariant; the
    residual is checked), formed as ``F (alpha_t (x) u_t)`` by two mode products,
    by ``alpha_t`` on the matrix units and by ``u_t`` on H; their Gram has ``S_b* S_b``
    subtracted in place on the n_b diagonal blocks of each block b, the GNS Gram
    ``F* F``.  The codomain space is invariant under ``u'`` up to the reported
    leak, and the codomain unitaries are its compressions.
    """
    report = cov.covariance_report
    if report.max_residual > nk.PRECONDITION_TOL:
        raise NotCovariantError(
            f"input map is not covariant (residual {report.max_residual:.3e})"
        )
    base = dilate_module_cp(cov.base)
    gns = base.gns
    group = cov.system.group
    dim_k = cov.base.space_dims[1]

    algebra, h = cov.base.module.algebra, gns.cp_map.space_dim
    spans = list(_spans(algebra.blocks, gns.blocks))
    raw_dim = algebra.dim * h
    v_mats = np.zeros((group.order, gns.dim, gns.dim), dtype=np.complex128)
    gram_residual = leak = 0.0
    for t in nk.stack_spans(group.order, raw_dim * raw_dim):
        alpha, u = cov.system.alpha[t], cov.u.mats[t]
        count = len(alpha)
        # F (alpha_t (x) u_t): alpha_t on the units of each block row, then u_t on h
        rows = []
        for n, units, cols, block in spans:
            kept = block.rank  # V on block row c is S on its (c, i) columns
            coeffs = alpha[:, units].reshape(count, n, n, algebra.dim).transpose(0, 1, 3, 2)
            on_n = coeffs.reshape(count, n * algebra.dim, n) @ gns.V[cols].reshape(n, kept * h)
            on_n = on_n.reshape(count, n, algebra.dim, kept, h).transpose(0, 1, 3, 2, 4)
            on_h = on_n.reshape(count, n * kept * algebra.dim, h) @ u
            rows.append(on_h.reshape(count, n * kept, raw_dim))
        descended = np.concatenate(rows, axis=1)
        transported = np.conj(descended).transpose(0, 2, 1) @ descended  # raw_t* Gram raw_t
        for n, units, _, block in spans:  # the GNS Gram F* F is S* S on each block row
            raw = slice(units.start * h, units.stop * h)
            block_rows = transported[:, raw, raw].reshape(count, n, n * h, n, n * h)  # a view
            block_rows[:, np.arange(n), :, np.arange(n)] -= nk.adjoint(block.F) @ block.F
        gram_residual = max(gram_residual, nk.maxabs(transported))
        worst = np.zeros((2, count))  # per t: the largest defect and size of its block rows
        for n, units, cols, block in spans:
            groups = descended[:, :, units.start * h : units.stop * h]
            lifted, defect, size = _descend(groups.reshape(count, gns.dim * n, n * h), block)
            v_mats[t, :, cols] = lifted.reshape(count, gns.dim, cols.stop - cols.start)
            worst = np.maximum(worst, (defect, size))
        leak = max(leak, nk.maxabs(worst[0] / np.maximum(1.0, worst[1])))
    if leak > nk.RESIDUAL_TOL:
        raise QuotientLeakError(
            f"group unitaries do not descend to the GNS quotient (leak {leak:.3e})"
        )

    proj = nk.adjoint(base.W) @ base.W  # projection onto the codomain span in K
    outside, w_star = nk.eye(dim_k) - proj, nk.adjoint(base.W)
    invariance = 0.0
    w_mats = np.zeros((group.order, base.dim_codomain, base.dim_codomain), dtype=np.complex128)
    for t in nk.stack_spans(group.order, dim_k * dim_k):
        u_prime = cov.u_prime.mats[t]
        invariance = max(invariance, nk.maxabs(outside @ u_prime @ proj))
        w_mats[t] = base.W @ u_prime @ w_star
    if invariance > nk.RESIDUAL_TOL:
        raise InvarianceLeakError(
            f"span of Phi(X) H is not invariant under u' (leak {invariance:.3e}); "
            "the input data is inconsistent"
        )
    return CovariantDilation(
        base,
        cov,
        hilbmod.UnitaryRep(group, gns.dim, v_mats),
        hilbmod.UnitaryRep(group, base.dim_codomain, w_mats),
        gram_residual,
        invariance,
    )


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def canonical_bytes(payload: dict) -> bytes:
    """Canonical JSON: sorted keys, fixed separators, one trailing newline."""
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


@dataclass
class Certificate:
    """Named residuals, rank decisions and their audit trails.

    ``verify_dilation`` fills in the dilation rows; the command line adds the
    rows of its other checks and the scenario identity (kind, digest, seed).
    A residual passes at most ``tolerance``, a rank when it is achieved.
    """

    tolerance: float
    kind: str = ""
    scenario_digest: str = ""
    seed: int | None = None
    dims: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    ranks: dict = field(default_factory=dict)  # name -> (achieved, required)
    singular_values: dict = field(default_factory=dict)
    skipped: dict = field(default_factory=dict)  # name -> why it did not run
    provenance: dict = field(default_factory=dict)
    duration: float = 0.0  # stderr-only; never serialized

    @property
    def checks(self) -> dict:
        out = {name: float(value) <= self.tolerance for name, value in self.residuals.items()}
        for name, (achieved, required) in self.ranks.items():
            out[name] = achieved == required
        return out

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "artifact_version": __version__,
            "kind": self.kind,
            "scenario_digest": self.scenario_digest,
            "seed": self.seed,
            "tolerance": float(self.tolerance),
            "dims": {k: int(v) for k, v in sorted(self.dims.items())},
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
            "ranks": {
                k: {"achieved": int(a), "required": int(r)}
                for k, (a, r) in sorted(self.ranks.items())
            },
            "checks": dict(sorted(self.checks.items())),
            "pass": self.passed,
            "singular_values": {
                k: [float(x) for x in v] for k, v in sorted(self.singular_values.items())
            },
            "skipped": dict(sorted(self.skipped.items())),
            "provenance": self.provenance,
        }

    def canonical(self) -> bytes:
        return canonical_bytes(self.to_json())


def _unitary_rep_residuals(rep: hilbmod.UnitaryRep) -> tuple[float, float]:
    report = hilbmod.check_unitary_rep(rep)
    return max(report.hom_residual, report.unit_residual), report.unitary_residual


def input_rows(phi, cov: CovariantCPMap | None = None) -> dict[str, float]:
    """Certificate rows of the input checks, from the reports cached on ``phi`` and ``cov``."""
    report = phi.cp_report
    rows = {
        "input_identity": report.identity_residual,
        "companion_cp_defect": max(0.0, -report.choi_min_eig),
        "companion_hermiticity": report.companion_herm_residual,
    }
    if cov is not None:
        cov_report = cov.covariance_report
        rows["input_covariance"] = cov_report.map_residual
        rows["companion_covariance"] = cov_report.companion_residual
    return rows


def verify_dilation(
    phi,
    dilation,
    tol: float = nk.RESIDUAL_TOL,
    provenance: dict | None = None,
) -> Certificate:
    """Recompute every dilation invariant from scratch.

    ``phi`` is the input ``ModuleCPMap`` (plain case) or ``CovariantCPMap``
    (covariant case, with ``dilation`` a ``CovariantDilation``).  The input
    checks are read from the reports cached on ``phi``, so a run computes
    them once.  Nothing is raised: every failure shows up as a residual or a
    rank deficit.
    """
    covariant = isinstance(dilation, CovariantDilation)
    cov = phi if isinstance(phi, CovariantCPMap) and covariant else None
    phi = phi.base if isinstance(phi, CovariantCPMap) else phi
    base = dilation.base if covariant else dilation
    if base.cp_map is not phi and base.cp_map.images.shape != phi.images.shape:
        raise ShapeMismatchError("dilation does not belong to the given map")

    module = phi.module
    gns = base.gns
    residuals: dict[str, float] = {}
    ranks: dict[str, tuple[int, int]] = {}
    singular: dict[str, list] = {}

    residuals.update(input_rows(phi, cov))

    # GNS layer, from each block's M_b and the block rows of V
    residuals["gns_reconstruction"], gns_rank, residuals["gns_representation"] = _gns_rows(gns)
    ranks["gns_minimality"] = (gns_rank, gns.dim)
    singular["gns_gram"] = list(np.sqrt(np.clip(gns.gram_eigenvalues, 0.0, None)))

    # the dilation, from its live parts: Phi(x) = W* pi(x) V and
    # pi(x)* pi(y) = pi_gns(<x,y>)
    ranged = _ranged(base)
    residuals["reconstruction"] = nk.maxabs(nk.adjoint(base.W) @ ranged - phi.images)
    residuals["representation_identity"] = _identity_defect(base)

    # coisometry rows
    residuals["coisometry_rows"] = nk.maxabs(base.W @ nk.adjoint(base.W) - nk.eye(base.dim_codomain))

    # density (minimality) conditions
    range_rank, corange_rank = nk.numerical_rank(hilbmod.range_stack(ranged)), _corange_rank(base)
    ranks["range_density"] = (range_rank.rank, base.dim_codomain)
    singular["range_density"] = list(range_rank.singular_values)
    ranks["corange_density"] = (corange_rank.rank, gns.dim)
    singular["corange_density"] = list(corange_rank.singular_values)
    singular["codomain_gram"] = list(np.sqrt(np.clip(base.codomain_gram_eigenvalues, 0.0, None)))

    dims = dict(base.dims)

    if cov is not None:
        system = cov.system
        u, u_prime = cov.u, cov.u_prime
        v_rep, w_rep = dilation.v, dilation.w

        law_v, unit_v = _unitary_rep_residuals(v_rep)
        law_w, unit_w = _unitary_rep_residuals(w_rep)
        residuals["domain_unitaries_group_law"] = law_v
        residuals["domain_unitaries_unitarity"] = unit_v
        residuals["codomain_unitaries_group_law"] = law_w
        residuals["codomain_unitaries_unitarity"] = unit_w

        residuals["intertwine_V"] = hilbmod.intertwining_residual(v_rep, gns.V, u)
        residuals["intertwine_W"] = hilbmod.intertwining_residual(w_rep, base.W, u_prime)
        residuals["covariant_representation"] = hilbmod.covariance_defect(
            system.eta, base.images, w_rep.mats, v_rep.mats
        )
        residuals["companion_covariant_rep"] = hilbmod.covariance_defect(
            system.alpha, gns.rep.images, v_rep.mats, v_rep.mats
        )
        residuals["gram_preservation"] = dilation.gram_preservation_residual
        residuals["subspace_invariance"] = dilation.invariance_residual

    return Certificate(
        tol,
        dims=dims,
        residuals=residuals,
        ranks=ranks,
        singular_values=singular,
        provenance=provenance or {},
    )


def _gns_rows(gns: GnsTriple) -> tuple[float, int, float]:
    """The GNS rows from ``M_b`` and the block rows ``V_d`` of V, as the dense rows reduce
    on ``pi(E_cd) = E_cd (x) M_b``: ``V_c* M_b V_d - phi(E_cd)``, the range Gram's merged
    spectrum ``I_n (x) (M_b V_b)(M_b V_b)*``, and ``M_b M_b - M_b``, ``M_b - M_b*``."""
    phi, h, move = gns.cp_map, gns.cp_map.space_dim, gns.M
    recon, spectra = 0.0, []
    for (n, units, cols, block), corner in zip(_spans(phi.algebra.blocks, gns.blocks), move):
        rows = gns.V[cols].reshape(n, block.rank, h)
        moved = (corner[: block.rank, : block.rank] @ rows).transpose(1, 0, 2).reshape(-1, n * h)
        rebuilt = (np.conj(rows).transpose(0, 2, 1).reshape(n * h, -1) @ moved).reshape(n, h, n, h)
        target = phi.images[units].reshape(n, n, h, h)
        recon = max(recon, nk.maxabs(rebuilt.transpose(0, 2, 1, 3) - target))
        spectra.append(nk._descending_eigh(moved @ nk.adjoint(moved), vectors=False))
    star = np.conj(move).transpose(0, 2, 1)
    representation = max(nk.maxabs(move @ move - move), nk.maxabs(move - star))
    rank = nk.spectral_rank(nk.merged_spectrum(spectra, phi.algebra.blocks))[0]
    return recon, rank, representation / max(1.0, nk.maxabs(move))


def _ranged(dilation: StinespringDilation) -> np.ndarray:
    """``pi(x_i) V`` of every x_i, (m, dim_codomain, dim H): ``P V_a`` summed over its parts."""
    (xs, rows, maps), gns = dilation.parts, dilation.gns
    products = maps @ np.concatenate([gns.V, np.zeros_like(gns.V[:1])])[gns.row_cols[rows]]
    ranged = np.zeros((dilation.cp_map.module.dim,) + products.shape[1:], dtype=np.complex128)
    _add_at(ranged, (xs,), xs, products)
    return ranged


def _identity_defect(dilation: StinespringDilation) -> float:
    """``hilbmod.identity_defect`` by ``nk.pair_defect`` over pairs of parts: those of x_i and
    x_j on rows a and c have the target ``inner[i, j, k] M_b``, ``E_k = E_ac`` of block b.
    Where x_i or x_j has no part on its row, the product is 0 and the target its defect."""
    gns, module, (xs, rows, maps) = dilation.gns, dilation.cp_map.module, dilation.parts
    sup, at = module.support, np.full((module.dim, module.algebra.embed_dim), -1)
    at[xs, rows] = np.arange(len(maps))
    unit_rows, unit_cols = cstar.embedding_index(module.algebra)[:, sup.k]
    p, q, block = at[sup.i, unit_rows], at[sup.j, unit_cols], _unit_blocks(module.algebra)[sup.k]
    found = (p >= 0) & (q >= 0)
    missed = [nk.maxabs(v * gns.M[b]) for v, b in zip(sup.values[~found], block[~found])]
    order = np.argsort(p[found] * len(maps) + q[found], kind="stable")
    entries = (a[found][order] for a in (p, q, block, sup.values))
    targets = nk.PairTargets((len(maps), len(maps), len(gns.M)), *entries)
    return max([nk.pair_defect(np.conj(maps).transpose(0, 2, 1), maps, gns.M, targets), *missed])


def _corange_rank(dilation: StinespringDilation) -> nk.RankProfile:
    """``numerical_rank`` of the stack ``[pi(x_i)* W]``: its Gram gets ``P* (W W*) Q`` on the
    coordinates of each two parts P, Q of one x_i.  Where dim exceeds m dim K, the
    stack's smaller Gram has the same nonzero spectrum, the first m dim K values."""
    (xs, rows, maps), dim = dilation.parts, dilation.gns.dim
    at = dilation.gns.row_cols[rows]  # each part's coordinates, the padding at dim
    weighted = (dilation.W @ nk.adjoint(dilation.W)) @ maps
    p, q = (xs[:, None] == xs).nonzero()
    gram = np.zeros((dim + 1) ** 2, dtype=np.complex128)
    for span in nk.stack_spans(len(p), (2 * maps.shape[1] + maps.shape[2]) * maps.shape[2]):
        blocks = (np.conj(maps[p[span]]).transpose(0, 2, 1) @ weighted[q[span]]).reshape(-1)
        flat = (at[p[span], :, None] * (dim + 1) + at[q[span], None, :]).reshape(-1)
        gram += np.bincount(flat, blocks.real, len(gram)) + 1j * np.bincount(flat, blocks.imag, len(gram))
    ranked = nk.psd_rank(gram.reshape(dim + 1, dim + 1)[:dim, :dim])
    keep = min(dim, len(dilation.cp_map.images) * dilation.W.shape[1])
    return nk.RankProfile(min(ranked.rank, keep), ranked.singular_values[:keep])


# ---------------------------------------------------------------------------
# Uniqueness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AltDilation:
    """Competing dilation data against which uniqueness is tested."""

    images: np.ndarray  # (m, dim K', dim H')
    V: np.ndarray  # (dim H', dim H)
    W: np.ndarray  # (dim K', dim K)
    v: hilbmod.UnitaryRep | None = None
    w: hilbmod.UnitaryRep | None = None


class UniquenessReport(NamedTuple):
    U1: np.ndarray
    U2: np.ndarray
    unitarity_U1: float
    unitarity_U2: float
    intertwine_images: float  # U2 pi(x) = pi'(x) U1
    v_map_residual: float  # V' = U1 V
    w_map_residual: float  # W' = U2 W
    alt_reconstruction: float  # Phi(x) = W'* pi'(x) V'
    covariant_v_residual: float  # v'_t U1 = U1 v_t
    covariant_w_residual: float  # w'_t U2 = U2 w_t

    @property
    def max_residual(self) -> float:
        return max(self[2:])  # every field after U1 and U2


def uniqueness_intertwiners(
    dilation,
    alt: AltDilation,
    tol: float = nk.PRECONDITION_TOL,
) -> UniquenessReport:
    """Solve the unitaries carrying the dilation onto competing minimal data.

    ``U1`` is solved on the span of ``pi_gns(A) V H``, ``U2`` on the span of
    ``pi(X) V H``; both systems are full-rank exactly when the dilation is
    minimal.  Raises ``NotMinimalError`` when the competing data fails its
    density (rank) conditions and ``NotUnitaryError`` when a solved
    intertwiner is not unitary, which means the inputs are not equivalent
    dilations.  All other discrepancies are reported as residuals.
    """
    base = dilation.base if isinstance(dilation, CovariantDilation) else dilation
    phi = base.cp_map
    module = phi.module
    gns = base.gns
    dim_h, dim_k = phi.space_dims

    alt_images = np.asarray(alt.images, dtype=np.complex128)
    alt_v = nk.as_matrix(alt.V)
    alt_w = nk.as_matrix(alt.W)
    alt_h, alt_k = alt_images.shape[2], alt_images.shape[1]
    if alt_v.shape != (alt_h, dim_h) or alt_w.shape != (alt_k, dim_k):
        raise ShapeMismatchError("competing dilation maps have inconsistent shapes")

    w_gram = alt_w @ nk.adjoint(alt_w)
    w_defect = nk.maxabs(w_gram - nk.eye(alt_k))
    if w_defect > tol:
        raise NotCoisometryError(f"competing W is not a coisometry ({w_defect:.3e})")

    s_cols_alt = hilbmod.range_stack(alt_images, alt_v)
    corange_stack = hilbmod.range_stack(np.conj(alt_images).transpose(0, 2, 1), alt_w)
    range_rank = nk.numerical_rank(s_cols_alt).rank
    corange_rank = nk.numerical_rank(corange_stack).rank
    if range_rank != alt_k or corange_rank != alt_h:
        raise NotMinimalError(
            f"competing dilation is not minimal: range rank {range_rank}/{alt_k}, "
            f"corange rank {corange_rank}/{alt_h}"
        )

    # companion representation of the competing images, via fullness
    alt_companion = hilbmod.fullness_system(module).solve(alt_images)

    alt_rebuilt = nk.sandwich(alt_w, alt_images, alt_v)
    alt_recon = nk.maxabs(alt_rebuilt - phi.images)

    # U1 from the algebra side, U2 from the module side
    m_cols = hilbmod.range_stack(gns.rep.images, gns.V)
    m_cols_alt = hilbmod.range_stack(alt_companion, alt_v)
    u1 = nk.least_squares_solve(m_cols.T, m_cols_alt.T).T
    s_cols = hilbmod.range_stack(base.images, gns.V)
    u2 = nk.least_squares_solve(s_cols.T, s_cols_alt.T).T

    def _unitarity(u: np.ndarray) -> float:
        if u.shape[0] != u.shape[1]:
            return float("inf")
        return max(
            nk.maxabs(nk.adjoint(u) @ u - nk.eye(u.shape[1])),
            nk.maxabs(u @ nk.adjoint(u) - nk.eye(u.shape[0])),
        )

    unit1, unit2 = _unitarity(u1), _unitarity(u2)
    if unit1 > tol or unit2 > tol:
        raise NotUnitaryError(
            f"solved intertwiners are not unitary (defects {unit1:.3e}, {unit2:.3e}); "
            "the competing data is not an equivalent dilation"
        )

    intertwine = nk.stack_max(
        module.dim,
        alt_k * gns.dim,
        lambda i: u2 @ base.images[i] - alt_images[i] @ u1,
    )
    v_resid = nk.maxabs(alt_v - u1 @ gns.V)
    w_resid = nk.maxabs(alt_w - u2 @ base.W)

    cov_v = cov_w = 0.0
    if isinstance(dilation, CovariantDilation) and alt.v is not None and alt.w is not None:
        cov_v = hilbmod.intertwining_residual(alt.v, u1, dilation.v)
        cov_w = hilbmod.intertwining_residual(alt.w, u2, dilation.w)

    return UniquenessReport(
        u1, u2, unit1, unit2, intertwine, v_resid, w_resid, alt_recon, cov_v, cov_w
    )
