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
from dataclasses import dataclass, field
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
    coordinates over (block, block row a, kept index), as ``pi(E_cd) = E_cd (x) I``
    with ``I`` the identity on the block's kept indices; ``rep``, its dense images, is
    built on first read.  ``F`` and ``L`` are ``I_n (x) S`` and ``I_n (x) B/sqrt(Λ)``
    on each block and are never formed: maps on the raw space descend through
    ``blocks``, each block's ``GramFactor`` ``(S, B/sqrt(Λ))`` of its Choi matrix with
    columns (rows) over (c, i), one block row ``sum_c E_ac (x) h_c`` at a time.
    """

    cp_map: CPMapAlgebra
    dim: int  # rank of the GNS Gram
    V: np.ndarray  # (dim, dim H)
    blocks: tuple[nk.GramFactor, ...]  # one per algebra block
    gram_eigenvalues: np.ndarray  # descending spectrum of the GNS Gram

    @cached_property
    def row_cols(self) -> np.ndarray:
        """(E, width): the coordinates of each block row, padded with ``dim``; the width
        is the largest block's kept count."""
        kept = np.repeat([block.rank for block in self.blocks], self.cp_map.algebra.blocks)
        at = np.arange(max(block.rank for block in self.blocks))
        return np.where(at < kept[:, None], (kept.cumsum() - kept)[:, None] + at, self.dim)

    @cached_property
    def rep(self) -> CPMapAlgebra:
        """``pi(E_cd)``: a 1 at ``(row_cols[c][j], row_cols[d][j])`` for each kept j."""
        algebra = self.cp_map.algebra
        rows, cols = self.row_cols[cstar.embedding_index(algebra)]  # (N, width) each
        images = np.zeros((algebra.dim, self.dim + 1, self.dim + 1), dtype=np.complex128)
        images[np.arange(algebra.dim)[:, None], rows, cols] = 1.0
        return CPMapAlgebra(algebra, self.dim, images[:, :-1, :-1].copy())


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
    """``np.add.at(out, index, terms)`` into zeros, ``index`` repeating where ``keys`` do: one
    fancy assignment where the keys ascend, as every generated scenario's do.  Repeated keys
    (an explicit module whose action rows share a unit) go through ``np.add.at``, which adds
    the terms in order; it took 1.4-1.7 times as long as a fancy assignment per repeat depth
    (111 against 79 ms for 16384 terms of 16 x 16, numpy 2.4, one Xeon core)."""
    if (keys[1:] > keys[:-1]).all():  # one pass, no copies
        out[index] = terms
    else:
        np.add.at(out, index, terms)


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
    ``E_cd (x) S B/sqrt(Λ)``, and ``S B/sqrt(Λ) = B* B`` is the identity on the kept
    indices: every representation of a matrix block is an amplification of its
    identity one, and ``GnsTriple.rep`` places it exactly, with no product formed.
    ``gram_eigenvalues`` is the spectrum of ``G``: each block's eigenvalues
    repeated n times, in descending order.  The reconstruction and minimality
    of the triple are checked by ``verify_dilation``.

    Raises ``NotCpError`` when the Choi test fails and ``NotPsdError`` (from
    ``nk.psd_cutoff``) when an eigenvalue lies below minus the cutoff.
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
    for n, units, cols, block in _spans(algebra.blocks, blocks):
        # V h = F (1 (x) h): block row a of the unit reads S on its (a, i) columns
        v_map[cols] = block.F.reshape(block.rank, n, h).transpose(1, 0, 2).reshape(-1, h)
    return GnsTriple(phi, rank, v_map, tuple(blocks), merged)


class DilationParts(NamedTuple):
    """``maps[r]``, padded like ``GnsTriple.row_cols``: ``pi(x_{xs[r]})`` on block row ``rows[r]``."""

    xs: np.ndarray
    rows: np.ndarray  # over the rows of the embedding
    maps: np.ndarray


@dataclass(frozen=True, eq=False)
class StinespringDilation:
    """Minimal dilation ``Phi(x) = W* pi(x) V`` of a module CP map, held by the live parts
    of ``pi(x_i)`` alone: ``_ranged(dilation, right)`` forms ``pi(x_i) @ right``, and a
    reader of the dense images passes the identity and drops the stack when it is done."""

    cp_map: ModuleCPMap
    gns: GnsTriple
    dim_codomain: int  # dim of the span of Phi(X) H inside K
    W: np.ndarray  # (dim_codomain, dim K), orthonormal rows
    parts: DilationParts
    codomain_gram_eigenvalues: np.ndarray

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
    module, gns = phi.module, gns_construct(phi.companion)  # the CP gate, before the identity's
    report = phi.cp_report
    if report.identity_residual > nk.PRECONDITION_TOL:
        raise QuotientLeakError(
            f"defining identity fails by {report.identity_residual:.3e}; "
            "the pair (Phi, phi) is inconsistent and cannot descend"
        )
    hilbmod.require_full(module)

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
        maps = np.zeros((len(keys), dim_codomain, gns.row_cols.shape[1]), dtype=np.complex128)
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
    return StinespringDilation(phi, gns, dim_codomain, w_map, parts, k_eigs)


@dataclass(frozen=True)
class CovariantDilation:
    """Dilation of a covariant CP map with its two compressed group actions."""

    base: StinespringDilation
    cov_map: CovariantCPMap
    v: hilbmod.UnitaryRep  # on the dilation domain space
    w: hilbmod.UnitaryRep  # on the dilation codomain space
    invariance_residual: float

    @cached_property
    def gram_preservation_residual(self) -> float:
        """Worst ``|raw_t* G raw_t - G|`` over t, ``raw_t = F (alpha_t (x) u_t)`` and G the GNS
        Gram ``F* F``, formed on first read (only ``verify_dilation`` reports it): ``S_b* S_b``
        is subtracted in place on the n_b diagonal blocks of each block b."""
        gns, alpha, u, residual = self.base.gns, self.cov_map.system.alpha, self.cov_map.u.mats, 0.0
        spans, h = list(_spans(gns.cp_map.algebra.blocks, gns.blocks)), gns.cp_map.space_dim
        for t in nk.stack_spans(len(alpha), (alpha.shape[1] * h) ** 2):
            descended = _descended(gns, spans, alpha[t], u[t])
            transported = np.conj(descended).transpose(0, 2, 1) @ descended  # raw_t* Gram raw_t
            for n, units, _, block in spans:  # the GNS Gram F* F is S* S on each block row
                raw = slice(units.start * h, units.stop * h)
                block_rows = transported[:, raw, raw].reshape(len(descended), n, n * h, n, n * h)
                block_rows[:, np.arange(n), :, np.arange(n)] -= nk.adjoint(block.F) @ block.F
            residual = max(residual, nk.maxabs(transported))
        return residual


def _descended(gns: GnsTriple, spans: list, alpha: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``F (alpha_t (x) u_t)`` of a chunk of t by two mode products: alpha_t on the units of
    each block row, then u_t on h."""
    algebra, h, count, rows = gns.cp_map.algebra, gns.cp_map.space_dim, len(alpha), []
    for n, units, cols, block in spans:
        kept = block.rank  # V on block row c is S on its (c, i) columns
        coeffs = alpha[:, units].reshape(count, n, n, algebra.dim).transpose(0, 1, 3, 2)
        on_n = coeffs.reshape(count, n * algebra.dim, n) @ gns.V[cols].reshape(n, kept * h)
        on_n = on_n.reshape(count, n, algebra.dim, kept, h).transpose(0, 1, 3, 2, 4)
        on_h = on_n.reshape(count, n * kept * algebra.dim, h) @ u
        rows.append(on_h.reshape(count, n * kept, algebra.dim * h))
    return np.concatenate(rows, axis=1)


def dilate_covariant(cov: CovariantCPMap) -> CovariantDilation:
    """Covariant minimal dilation: group unitaries descend to both spaces.

    The domain unitaries are the descents of ``alpha_t (x) u_t``, formed as
    ``F (alpha_t (x) u_t)`` by ``_descended`` and lifted, on every t; that they preserve
    the GNS Gram, which holds exactly when the companion is covariant, is the
    dilation's ``gram_preservation_residual``, formed only where it is read.  The
    codomain space is invariant under ``u'`` up to the reported leak, and the codomain
    unitaries are its compressions.
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

    spans, h = list(_spans(gns.cp_map.algebra.blocks, gns.blocks)), gns.cp_map.space_dim
    v_mats, leak = np.zeros((group.order, gns.dim, gns.dim), dtype=np.complex128), 0.0
    for t in nk.stack_spans(group.order, (gns.cp_map.algebra.dim * h) ** 2):
        descended = _descended(gns, spans, cov.system.alpha[t], cov.u.mats[t])
        worst = np.zeros((2, len(descended)))  # per t: the largest defect and size of its block rows
        for n, units, cols, block in spans:
            groups = descended[:, :, units.start * h : units.stop * h]
            lifted, defect, size = _descend(groups.reshape(len(descended), gns.dim * n, n * h), block)
            v_mats[t, :, cols] = lifted.reshape(len(descended), gns.dim, cols.stop - cols.start)
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
    v_mats.setflags(write=False)  # built for the representations, which keep them uncopied
    w_mats.setflags(write=False)
    return CovariantDilation(
        base,
        cov,
        hilbmod.UnitaryRep(group, gns.dim, v_mats),
        hilbmod.UnitaryRep(group, base.dim_codomain, w_mats),
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
    dilation,
    tol: float = nk.RESIDUAL_TOL,
    provenance: dict | None = None,
) -> Certificate:
    """Recompute every dilation invariant from scratch.

    The input is the dilation's own map: ``cp_map`` of a ``StinespringDilation``, or
    ``cov_map`` of a ``CovariantDilation``, whose covariant rows are added.  The input
    checks are read from the reports cached on it, so a run computes them once.
    Nothing is raised: every failure shows up as a residual or a rank deficit.
    """
    cov = dilation.cov_map if isinstance(dilation, CovariantDilation) else None
    base = dilation if cov is None else dilation.base
    phi, gns = base.cp_map, base.gns
    residuals: dict[str, float] = {}
    ranks: dict[str, tuple[int, int]] = {}
    singular: dict[str, list] = {}

    residuals.update(input_rows(phi, cov))

    # GNS layer, from the block rows of V on pi(E_cd) = E_cd (x) I
    residuals["gns_reconstruction"], gns_rank = _gns_rows(gns)
    ranks["gns_minimality"] = (gns_rank, gns.dim)
    singular["gns_gram"] = list(np.sqrt(np.clip(gns.gram_eigenvalues, 0.0, None)))

    # the dilation, from its live parts: Phi(x) = W* pi(x) V and
    # pi(x)* pi(y) = pi_gns(<x,y>)
    ranged = _ranged(base, gns.V)
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
            system.eta_rep, _ranged(base, nk.eye(gns.dim)), w_rep, v_rep
        )
        residuals["companion_covariant_rep"] = hilbmod.covariance_defect(
            system.alpha_rep, gns.rep.images, v_rep, v_rep
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


def _gns_rows(gns: GnsTriple) -> tuple[float, int]:
    """The GNS rows from the block rows ``V_d`` of V, as the dense rows reduce on
    ``pi(E_cd) = E_cd (x) I``: ``V_c* V_d - phi(E_cd)``, and the range Gram's merged
    spectrum ``I_n (x) S_b S_b*``, ``S_b`` the block's rows of V side by side."""
    phi, h = gns.cp_map, gns.cp_map.space_dim
    recon, spectra = 0.0, []
    for n, units, cols, block in _spans(phi.algebra.blocks, gns.blocks):
        rows = gns.V[cols].reshape(n, block.rank, h).transpose(1, 0, 2).reshape(-1, n * h)
        rebuilt = (nk.adjoint(rows) @ rows).reshape(n, h, n, h)
        target = phi.images[units].reshape(n, n, h, h)
        recon = max(recon, nk.maxabs(rebuilt.transpose(0, 2, 1, 3) - target))
        spectra.append(nk._descending_eigh(rows @ nk.adjoint(rows), vectors=False))
    return recon, nk.spectral_rank(nk.merged_spectrum(spectra, phi.algebra.blocks))[0]


def _ranged(dilation: StinespringDilation, right: np.ndarray) -> np.ndarray:
    """``pi(x_i) @ right`` of every x_i, (m, dim_codomain, cols): ``P right_a`` over its parts.
    The one form of the dilation's parts as dense matrices; ``right = I`` gives ``pi(x_i)``."""
    (xs, rows, maps), gns = dilation.parts, dilation.gns
    products = maps @ np.concatenate([right, np.zeros_like(right[:1])])[gns.row_cols[rows]]
    ranged = np.zeros((dilation.cp_map.module.dim,) + products.shape[1:], dtype=np.complex128)
    _add_at(ranged, (xs,), xs, products)
    return ranged


def _identity_defect(dilation: StinespringDilation) -> float:
    """``hilbmod.identity_defect`` by ``nk.pair_defect`` over pairs of parts: those of x_i and
    x_j on rows a and c have the target ``inner[i, j, k] I``, ``E_k = E_ac`` of block b and
    ``I`` the identity on its kept indices, zero-padded to the parts' width.  Where x_i or
    x_j has no part on its row, the product is 0 and the target its defect."""
    gns, module, (xs, rows, maps) = dilation.gns, dilation.cp_map.module, dilation.parts
    sup, at = module.support, np.full((module.dim, module.algebra.embed_dim), -1)
    at[xs, rows] = np.arange(len(maps))
    unit_rows, unit_cols = cstar.embedding_index(module.algebra)[:, sup.k]
    p, q, block = at[sup.i, unit_rows], at[sup.j, unit_cols], _unit_blocks(module.algebra)[sup.k]
    found = (p >= 0) & (q >= 0)
    kept = np.array([b.rank for b in gns.blocks])
    width = maps.shape[2]
    identities = nk.eye(width) * (np.arange(width) < kept[:, None])[:, None, :]
    missed = nk.maxabs(sup.values[~found][kept[block[~found]] > 0])
    order = np.argsort(p[found] * len(maps) + q[found], kind="stable")
    entries = (a[found][order] for a in (p, q, block, sup.values))
    targets = nk.PairTargets((len(maps), len(maps), len(identities)), *entries)
    return max(nk.pair_defect(np.conj(maps).transpose(0, 2, 1), maps, identities, targets), missed)


def _corange_rank(dilation: StinespringDilation, v: np.ndarray | None = None) -> nk.RankProfile:
    """``numerical_rank`` of ``[pi(x_i)* W]``, or given the group's ``v`` of the integrated
    ``[v_t* pi(x_i)* W]``: its Gram C gets ``P* (W W*) Q`` on the coordinates of each two
    parts P, Q of one x_i, and the integrated one is ``sum_t v_t* C v_t``.  Where dim exceeds
    the stack's columns, its smaller Gram has the same nonzero spectrum: that many values."""
    (xs, rows, maps), dim = dilation.parts, dilation.gns.dim
    at = dilation.gns.row_cols[rows]  # each part's coordinates, the padding at dim
    weighted = (dilation.W @ nk.adjoint(dilation.W)) @ maps
    p, q = (xs[:, None] == xs).nonzero()
    gram = np.zeros((dim + 1) ** 2, dtype=np.complex128)
    for span in nk.stack_spans(len(p), (2 * maps.shape[1] + maps.shape[2]) * maps.shape[2]):
        blocks = (np.conj(maps[p[span]]).transpose(0, 2, 1) @ weighted[q[span]]).reshape(-1)
        flat = (at[p[span], :, None] * (dim + 1) + at[q[span], None, :]).reshape(-1)
        gram += np.bincount(flat, blocks.real, len(gram)) + 1j * np.bincount(flat, blocks.imag, len(gram))
    gram = gram.reshape(dim + 1, dim + 1)[:dim, :dim]
    ranked = nk.psd_rank(gram if v is None else sum(nk.adjoint(v_t) @ gram @ v_t for v_t in v))
    keep = min(dim, (1 if v is None else len(v)) * len(dilation.cp_map.images) * dilation.W.shape[1])
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


def uniqueness_intertwiners(
    dilation,
    alt: AltDilation,
    tol: float = nk.PRECONDITION_TOL,
) -> UniquenessReport:
    """Solve the unitaries carrying the dilation onto competing minimal data.

    A competitor ``pi' = U2 pi U1*``, ``V' = U1 V``, ``W' = U2 W`` has
    ``pi'(x)* W' = U1 pi(x)* W`` and ``pi'(x) V' = U2 pi(x) V``, so ``U1`` is
    solved on the stacks spanning ``[pi(X)* W K]`` and ``U2`` on those spanning
    ``[pi(X) V H]``; the competitor's two are the stacks its minimality check
    ranks.  Both systems are full-rank exactly when the dilation is minimal.  Raises
    ``NotMinimalError`` when the competing data fails its density (rank)
    conditions and ``NotUnitaryError`` when a solved intertwiner is not
    unitary, which means the inputs are not equivalent dilations.  All other
    discrepancies, ``V' = U1 V`` among them, are reported as residuals.
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

    c_cols_alt = hilbmod.corange_stack(alt_images, alt_w)
    s_cols_alt = hilbmod.range_stack(alt_images, alt_v)
    ranged, coranged = nk.numerical_rank(s_cols_alt), nk.numerical_rank(c_cols_alt)
    if ranged.rank != alt_k or coranged.rank != alt_h:
        raise NotMinimalError(
            f"competing dilation is not minimal: range rank {ranged.rank}/{alt_k}, "
            f"corange rank {coranged.rank}/{alt_h}"
        )

    alt_recon = nk.maxabs(nk.sandwich(alt_w, alt_images, alt_v) - phi.images)

    images = _ranged(base, nk.eye(gns.dim))
    u1 = nk.least_squares_solve(hilbmod.corange_stack(images, base.W).T, c_cols_alt.T).T
    u2 = nk.least_squares_solve(hilbmod.range_stack(images, gns.V).T, s_cols_alt.T).T

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
        lambda i: u2 @ images[i] - alt_images[i] @ u1,
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
