"""Dense complex linear-algebra kernel used by every construction.

Matrices are plain ``numpy.ndarray`` values with complex128 entries.  This
module fixes the package-wide rank-cutoff policy (relative cutoff with an
absolute floor), the Gram factorization that stands in for quotienting a
semi-inner-product space by its null vectors, and the JSON wire format for
matrices.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NotHermitianError, NotPsdError, ParseError, ShapeMismatchError

# Every cutoff and gate of the package reads one of these five values.
# Eigenvalues at or below REL_TOL times the largest eigenvalue count as zero;
# it also bounds an eigensolve's Hermitian defect, a PSD test's slack and W W* - I.
REL_TOL = 1e-10
# Tolerances never shrink below this, so near-zero data is not over-resolved.
ABS_FLOOR = 1e-12
# The default certificate tolerance, and the gate on descent leaks and on
# inputs that must satisfy an identity exactly (actions, intertwiners).
RESIDUAL_TOL = 1e-9
# The gate on an input map's identity or covariance and on solved systems; a
# decade above RESIDUAL_TOL, so an input just past the default tolerance is
# still constructed and its certificate shows the failing row.
PRECONDITION_TOL = 1e-8
# The least Gram eigenvalue of an average that polar_coisometry normalizes.
DEGENERACY_FLOOR = 1e-6
# The one size rule of the package: a loop over group or basis elements runs
# as stacks of whole items, at most this many complex entries (512 KiB, about
# one L2) per chunk, or one item when a single item is larger than that.
STACK_ENTRIES = 2**15


def as_matrix(data) -> np.ndarray:
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d matrix, got ndim={m.ndim}")
    return m


def adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def frobenius(m: np.ndarray) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m))


def maxabs(arr) -> float:
    """Largest absolute entry, 0.0 for empty arrays."""
    arr = np.asarray(arr)
    if arr.size == 0:
        return 0.0
    return float(np.abs(arr).max())


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


# Contractions of matrix stacks run as explicit GEMMs (a reshape to 2-D and one
# matmul) or as gathers, never as multi-operand einsums, which numpy evaluates
# as one unordered loop nest over every index at once.


def sandwich(left: np.ndarray, stack: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left* @ stack[i] @ right`` for every i.

    Replaces ``einsum("ab,iac,cd->ibd", conj(left), stack, right)``.
    """
    return adjoint(left) @ (stack @ right)


# Loops over group or basis elements run as stacks: the items of one chunk go
# through one batched op, which forms each item's products exactly as it forms
# them for that item alone, so no entry, and no maximum of their absolute
# values, depends on how the items are cut into chunks.  ``pair_defect`` and
# ``hilbmod.group_law_residuals`` stack a chunk's items into one GEMM instead,
# whose last bits follow its shape.


def stack_spans(count: int, item_entries: int) -> list[slice]:
    """The chunk rule: ``range(count)`` cut into consecutive slices of whole items.

    A slice holds at most ``STACK_ENTRIES`` entries at ``item_entries`` per
    item, or one item when a single item is larger, so large items run one
    at a time and the working set stays that of one item.
    """
    per = max(1, STACK_ENTRIES // max(1, item_entries))
    return [slice(start, min(start + per, count)) for start in range(0, count, per)]


def stack_max(count: int, item_entries: int, residuals) -> float:
    """Largest absolute entry of ``residuals(span)`` over the chunks of
    ``stack_spans``, 0.0 for none.

    ``residuals(span)`` forms the items of one chunk and returns their
    differences, or per-item values such as ``stack_maxabs`` returns.
    """
    worst = 0.0
    for span in stack_spans(count, item_entries):
        # Held until the next chunk's is formed: were every temporary of a
        # chunk freed at once, the allocator could return their pages to the
        # system and fault them in again for the next chunk.
        residual = residuals(span)
        worst = max(worst, maxabs(residual))
    return worst


def stack_maxabs(stack: np.ndarray) -> np.ndarray:
    """``maxabs`` of each matrix of a stack, shape ``stack.shape[:-2]``."""
    return np.abs(stack).max(axis=(-2, -1), initial=0.0)


def kron_stack(a, b) -> np.ndarray:
    """``np.kron`` of ``a[..., :, :]`` and ``b[..., :, :]`` over the broadcast leading axes.

    One broadcast multiply forms the products ``a[i, j] * b[k, l]`` that
    ``np.kron`` forms, and a reshape places them at ``(i r + k, j s + l)``.
    """
    a, b = np.asarray(a), np.asarray(b)
    (p, q), (r, s) = a.shape[-2:], b.shape[-2:]
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    products = a[..., :, None, :, None] * b[..., None, :, None, :]
    return products.reshape(lead + (p * r, q * s))


def stack_ranks(stack: np.ndarray) -> list[int]:
    """``numerical_rank(m).rank`` of each matrix ``m`` of a stack.

    The Grams of a chunk are eigensolved by one batched call and each rank is
    decided by ``spectral_rank``, on the spectrum ``numerical_rank`` reads.
    """
    count, rows, cols = stack.shape
    if rows == 0 or cols == 0:
        return [0] * count
    ranks = []
    for span in stack_spans(count, rows * cols):
        chunk = stack[span]
        star = np.conj(chunk).transpose(0, 2, 1)
        gram = chunk @ star if rows <= cols else star @ chunk
        values = np.linalg.eigvalsh((gram + np.conj(gram).transpose(0, 2, 1)) / 2.0)
        ranks += [spectral_rank(v[::-1])[0] for v in values]
    return ranks


@dataclass(frozen=True, eq=False)
class PairTargets:
    """The targets of ``pair_defect``: ``T_ij = sum_e coeff[e] basis[unit[e]]``
    over the entries e with ``(i[e], j[e]) = (i, j)``, listed in row-major
    order of the pairs, for ``shape`` the numbers of left maps, right maps
    and basis matrices.  The bookkeeping the kernel reads is derived once,
    when the targets are built by the objects they belong to."""

    shape: tuple[int, int, int]
    i: np.ndarray
    j: np.ndarray
    unit: np.ndarray
    coeff: np.ndarray
    # the distinct pairs, row-major
    pair_i: np.ndarray = field(init=False)
    pair_j: np.ndarray = field(init=False)
    ends: np.ndarray = field(init=False)  # (count,): the pairs up to each left map's last
    most: int = field(init=False)  # the most pairs of one left map
    # (pairs, units): each pair's coefficients, where some pair has several
    # entries; None where every pair has one
    pair_coeffs: np.ndarray | None = field(init=False)
    # (count, units) and (others, units): 1.0 where a map has a target on a unit
    left_units: np.ndarray = field(init=False)
    right_units: np.ndarray = field(init=False)

    def __post_init__(self):
        count, others, units = self.shape
        i, j, unit = self.i, self.j, self.unit
        # the entries of a pair are consecutive: a pair starts where they change
        starts = np.ones(len(i), dtype=bool)
        starts[1:] = (i[1:] != i[:-1]) | (j[1:] != j[:-1])
        pair_coeffs = None
        if not starts.all():
            pair_coeffs = np.zeros((int(starts.sum()), units), dtype=np.complex128)
            np.add.at(pair_coeffs, (starts.cumsum() - 1, unit), self.coeff)
        pairs = np.bincount(i[starts], minlength=count)
        left_units, right_units = np.zeros((count, units)), np.zeros((others, units))
        left_units[i, unit] = right_units[j, unit] = 1.0
        object.__setattr__(self, "pair_i", i[starts])
        object.__setattr__(self, "pair_j", j[starts])
        object.__setattr__(self, "ends", pairs.cumsum())
        object.__setattr__(self, "most", int(pairs.max(initial=0)))
        object.__setattr__(self, "pair_coeffs", pair_coeffs)
        object.__setattr__(self, "left_units", left_units)
        object.__setattr__(self, "right_units", right_units)


def pair_defect(
    left: np.ndarray, right: np.ndarray, basis: np.ndarray, targets: PairTargets
) -> float:
    """Unscaled worst ``|left[i] @ right[j] - T_ij|`` over every pair (i, j),
    ``T_ij`` from ``targets`` over the stack ``basis``; 0 for a pair without one.

    Only the support is compared.  The live (not all-zero) rows of each
    ``left[i]`` are widened by the live rows of its targets' basis matrices,
    and the live columns of each ``right[j]`` likewise; off that union
    product and target are both exactly 0.  Every map keeps as many rows
    (columns) as the widest: its live ones and, as padding, dead ones, on
    which both sides are 0 as well.  One GEMM per chunk of whole ``left[i]``
    forms every pair's product on these rows and columns, into one buffer
    reused across chunks.  A pair's target is gathered as the block
    ``coeff basis[unit][rows_i][:, cols_j]``; where pairs have several
    entries, each pair's are summed first, by one GEMM of the pairs'
    coefficients with the basis, and the block is cut from the sum.  The
    blocks are subtracted by one scatter, and the residual is the largest
    absolute entry of the grid: the same maximum of the same absolute values
    as the dense comparison, up to the rounding of the GEMMs, whose shapes
    follow the chunks.  A chunk's grid rows and targets hold at most
    ``STACK_ENTRIES`` entries, or one ``left[i]``'s when that is more.
    """
    count, rows, inner = left.shape
    others, _, cols = right.shape
    if 0 in (count, rows, others, cols):
        return 0.0
    # a row is live in left[i] or in a basis matrix of its targets, whose rows are
    # counted by one GEMM of the map-unit incidence (read off left if it is the basis)
    left_live, right_live = left.any(axis=2), right.any(axis=1)
    basis_rows = left_live if basis is left else basis.any(axis=2)
    basis_cols = right_live if basis is right else basis.any(axis=1)
    live_rows = np.logical_or(left_live, targets.left_units @ basis_rows)
    live_cols = np.logical_or(right_live, targets.right_units @ basis_cols)
    tall, wide = int(live_rows.sum(axis=1).max()), int(live_cols.sum(axis=1).max())
    # each map's dead rows (columns) first, as padding, then its live ones
    row_of = live_rows.argsort(axis=1, kind="stable")[:, rows - tall :]
    col_of = live_cols.argsort(axis=1, kind="stable")[:, cols - wide :]
    row_stack = left[np.arange(count)[:, None], row_of].reshape(count * tall, inner)
    col_stack = right.transpose(1, 0, 2)[:, np.arange(others)[:, None], col_of]
    col_stack = col_stack.reshape(inner, others * wide)

    pair_i, pair_j, pair_coeffs = targets.pair_i, targets.pair_j, targets.pair_coeffs
    target_entries = tall * wide if pair_coeffs is None else rows * cols
    spans = stack_spans(count, tall * others * wide + targets.most * target_entries)
    buffer = np.empty((spans[0].stop - spans[0].start, tall, others, wide), dtype=np.complex128)
    worst, p1 = 0.0, 0
    for span in spans:
        grid = buffer[: span.stop - span.start]
        flat = grid.reshape((span.stop - span.start) * tall, others * wide)
        np.matmul(row_stack[span.start * tall : span.stop * tall], col_stack, out=flat)
        p0, p1 = p1, int(targets.ends[span.stop - 1])  # the pairs of the chunk's maps
        pi, pj = pair_i[p0:p1], pair_j[p0:p1]
        block = (row_of[pi][:, :, None], col_of[pj][:, None, :])
        if pair_coeffs is None:
            blocks = basis[(targets.unit[p0:p1, None, None],) + block]
            blocks *= targets.coeff[p0:p1, None, None]
        else:
            sums = pair_coeffs[p0:p1] @ basis.reshape(len(basis), rows * cols)
            blocks = sums.reshape(p1 - p0, rows, cols)[(np.arange(p1 - p0)[:, None, None],) + block]
            del sums
        grid[pi - span.start, :, pj, :] -= blocks
        del blocks  # before the grid's absolute values are formed
        worst = np.abs(grid).max(initial=worst)
    return float(worst)


class EigDecomposition(NamedTuple):
    values: np.ndarray  # real, descending
    vectors: np.ndarray  # unitary, columns align with values


def hermitian_eigendecomposition(m) -> EigDecomposition:
    """Eigendecompose a Hermitian matrix, eigenvalues sorted descending.

    Raises ``NotHermitianError`` when the Hermitian defect exceeds
    ``REL_TOL * max(1, ||m||_F)``; the defect is reported in the message.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatchError(f"matrix is {m.shape[0]}x{m.shape[1]}, not square")
    defect = frobenius(m - adjoint(m))
    scale = max(1.0, frobenius(m))
    if defect > REL_TOL * scale:
        raise NotHermitianError(
            f"Hermitian defect ||m - m*||_F = {defect:.3e} exceeds {REL_TOL:.1e} * {scale:.3e}"
        )
    return _descending_eigh(m)


def _descending_eigh(m: np.ndarray) -> EigDecomposition:
    """Eigendecomposition of the Hermitian part of ``m``, eigenvalues descending."""
    values, vectors = np.linalg.eigh((m + adjoint(m)) / 2.0)
    return EigDecomposition(values[::-1].copy(), vectors[:, ::-1].copy())


def _descending_eigvals(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian part of ``m``, descending."""
    return np.linalg.eigvalsh((m + adjoint(m)) / 2.0)[::-1]


class GramFactor(NamedTuple):
    rank: int
    F: np.ndarray  # rank x D, maps raw vectors to quotient coordinates
    L: np.ndarray  # D x rank, lifts quotient coordinates to representatives
    eigenvalues: np.ndarray  # full descending profile behind the rank decision

    def solve(self, projected: np.ndarray) -> np.ndarray:
        """``L L* projected``: the pseudo-inverse of the Gram ``G = a* a`` applied to
        ``projected = a* b`` (a matrix or a stack of them) is the minimum-norm
        least-squares ``x`` of ``a @ x = b`` on the rank ``spectral_rank`` decided."""
        return self.L @ (adjoint(self.L) @ projected)


def spectral_rank(values: np.ndarray) -> tuple[int, float]:
    """The package's one rank rule: ``(rank, cutoff)`` of a descending spectrum.

    The rank counts the eigenvalues strictly above ``REL_TOL`` times the
    largest one, or ``ABS_FLOOR`` if that is more.  ``gram_factor``,
    ``psd_rank``, ``numerical_rank`` and ``orthonormal_range`` all decide
    their ranks with it, and every solve pseudo-inverts on a ``gram_factor``.
    """
    if values.size == 0:
        return 0, ABS_FLOOR
    cutoff = max(REL_TOL * max(float(values[0]), 0.0), ABS_FLOOR)
    return int(np.count_nonzero(values > cutoff)), cutoff


def gram_factor(gram) -> GramFactor:
    """Rank-revealing factorization of a PSD Gram matrix.

    Returns ``(r, F, L)`` with ``xi* G zeta = (F xi)*(F zeta)`` and
    ``F @ L = I_r``.  ``F`` plays the role of the quotient map by the null
    space of the semi-inner product ``G``; ``L`` picks representatives.
    """
    gram = as_matrix(gram)
    if gram.shape[0] != gram.shape[1]:
        raise ShapeMismatchError(f"Gram matrix is {gram.shape[0]}x{gram.shape[1]}")
    dim = gram.shape[0]
    if dim == 0:
        empty = np.zeros((0, 0), dtype=np.complex128)
        return GramFactor(0, empty, empty, np.zeros(0))
    values, vectors = hermitian_eigendecomposition(gram)
    rank, cutoff = spectral_rank(values)
    if values[-1] < -cutoff:
        raise NotPsdError(
            f"Gram matrix has eigenvalue {values[-1]:.3e} below -{cutoff:.3e}"
        )
    kept = values[:rank]
    basis = vectors[:, :rank]
    sqrt_vals = np.sqrt(kept)
    F = sqrt_vals[:, None] * adjoint(basis)
    L = basis / sqrt_vals[None, :] if rank else np.zeros((dim, 0), dtype=np.complex128)
    return GramFactor(rank, F, L, values)


class PsdReport(NamedTuple):
    ok: bool
    min_eig: float
    herm_defect: float  # nonzero input asymmetry is symmetrized away but flagged
    max_eig: float  # with min_eig, all the decision reads of the spectrum


def psd_check(m) -> PsdReport:
    """Positive-semidefiniteness test on the Hermitian part of ``m``."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatchError(f"matrix is {m.shape[0]}x{m.shape[1]}, not square")
    return spectrum_psd(_descending_eigvals(m), frobenius(m - adjoint(m)))


def spectrum_psd(values: np.ndarray, herm_defect: float) -> PsdReport:
    """``psd_check``'s rule on a descending spectrum: the smallest eigenvalue may be
    down to ``-REL_TOL`` times the spectrum's scale, never less than ``ABS_FLOOR``."""
    if values.size == 0:
        return PsdReport(True, 0.0, herm_defect, 0.0)
    min_eig, max_eig = float(values[-1]), float(values[0])
    scale = max(1.0, max_eig, -min_eig)
    ok = min_eig >= -max(REL_TOL * scale, ABS_FLOOR)
    return PsdReport(bool(ok), min_eig, herm_defect, max_eig)


def psd_check_by_components(order: int, rows, cols, values) -> PsdReport:
    """``psd_check`` of the (order, order) matrix whose nonzeros are ``values``
    at the distinct positions ``(rows, cols)``, decided one connected component
    at a time.

    The nodes are the indices, linked by every off-diagonal nonzero.  Permuted
    to its components the matrix is block diagonal, so its spectrum is the
    union of theirs.  Each component of two or more nodes is placed densely,
    its nodes in ascending order, and eigensolved by ``psd_check``; an
    isolated node is its diagonal entry, 0 where it has none.
    ``spectrum_psd`` decides on the merged extremes, so the verdict and
    ``min_eig`` are those of ``psd_check`` of the dense matrix, and the
    Hermitian defect is theirs summed in squares over the components.  No
    (order, order) array is formed; a matrix linked throughout takes one
    ``psd_check`` of its full order.
    """
    labels = component_labels(order, rows, cols)
    sizes = np.bincount(labels, minlength=order)
    diagonal = np.zeros(order, dtype=np.complex128)
    on_diagonal = rows == cols
    diagonal[rows[on_diagonal]] = values[on_diagonal]
    alone = diagonal[sizes[labels] == 1]
    lowest, highest = alone.real.min(initial=np.inf), alone.real.max(initial=-np.inf)
    defect = 4.0 * float((alone.imag**2).sum())
    entry_labels = labels[rows]
    for root in (sizes > 1).nonzero()[0]:
        nodes, entries = (labels == root).nonzero()[0], (entry_labels == root).nonzero()[0]
        block = np.zeros((len(nodes), len(nodes)), dtype=np.complex128)
        block[nodes.searchsorted(rows[entries]), nodes.searchsorted(cols[entries])] = values[entries]
        report = psd_check(block)
        lowest, highest = min(lowest, report.min_eig), max(highest, report.max_eig)
        defect += report.herm_defect**2
    extremes = np.array([highest, lowest]) if order else np.zeros(0)
    return spectrum_psd(extremes, math.sqrt(defect))


def component_labels(count: int, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The smallest node of each node's connected component, for the graph on
    ``range(count)`` with an edge ``first[e]``-``second[e]`` for each e.

    Each round lowers every node's label to the smallest label across its
    edges, then lets every node take its label's label; labels only fall,
    and stay within the component, until they agree along every edge.
    """
    ends, others = np.concatenate([first, second]), np.concatenate([second, first])
    labels = np.arange(count)
    while True:
        lowered = labels.copy()
        np.minimum.at(lowered, ends, labels[others])
        lowered = lowered[lowered]
        if (lowered == labels).all():
            return labels
        labels = lowered


def least_squares_solve(a, b) -> np.ndarray:
    """Minimum-norm least-squares solution of ``a @ x = b``, pseudo-inverted on
    ``gram_factor(a* a)``, so its rank is decided by ``spectral_rank``.  One step
    of refinement on that factor, ``x + G+ a* (b - a x)``, takes the error from
    about cond(a)^2 eps, that of the normal equations, to about cond(a) eps."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatchError(
            f"row counts differ: A has {a.shape[0]}, B has {b.shape[0]}"
        )
    star = adjoint(a)
    factor = gram_factor(star @ a)
    x = factor.solve(star @ b)
    return x + factor.solve(star @ (b - a @ x))


class RankProfile(NamedTuple):
    rank: int
    singular_values: np.ndarray  # descending


def psd_rank(gram) -> RankProfile:
    """Rank of a PSD Gram matrix by counting eigenvalues above the cutoff."""
    gram = as_matrix(gram)
    if gram.size == 0:
        return RankProfile(0, np.zeros(0))
    return _gram_profile(gram)


def _gram_profile(gram: np.ndarray) -> RankProfile:
    """Rank and singular-value profile from the eigenvalues of a Gram matrix."""
    values = _descending_eigvals(gram)
    return RankProfile(spectral_rank(values)[0], np.sqrt(np.clip(values, 0.0, None)))


def numerical_rank(m) -> RankProfile:
    """Rank of the column span of ``m``, decided on the eigenvalues of its Gram.

    Using the Gram eigenvalue rule (rather than raw singular values) keeps
    rank decisions here identical to the ones made by ``gram_factor``.
    """
    m = as_matrix(m)
    if m.size == 0:
        return RankProfile(0, np.zeros(0))
    return _gram_profile(m @ adjoint(m) if m.shape[0] <= m.shape[1] else adjoint(m) @ m)


def orthonormal_range(m):
    """Orthonormal basis of the column span of ``m`` with its Gram profile.

    Returns ``(basis, eigenvalues)`` where the columns of ``basis`` are the
    eigenvectors of ``m m*`` above the rank cutoff and ``eigenvalues`` is the
    full descending profile (the audit trail for the rank decision).
    """
    m = as_matrix(m)
    rows = m.shape[0]
    if m.size == 0:
        return np.zeros((rows, 0), dtype=np.complex128), np.zeros(rows)
    values, vectors = _descending_eigh(m @ adjoint(m))
    return vectors[:, : spectral_rank(values)[0]], values


def complex_normal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Standard complex Gaussian matrix (unit-variance entries)."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Gaussian."""
    if dim == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    z = complex_normal(rng, dim, dim)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = diag / np.abs(np.where(np.abs(diag) > 0, diag, 1.0))
    return q * phases[None, :]


def _is_finite_number(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def json_int(value, what: str, minimum: int = 0) -> int:
    """A JSON integer of at least ``minimum``; ``ParseError`` naming ``what`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ParseError(f"{what}: expected an integer >= {minimum}, got {value!r:.60}")
    return int(value)


def json_positive(value, what: str) -> float:
    """A finite positive JSON number; ``ParseError`` naming ``what`` otherwise."""
    if not (_is_finite_number(value) and value > 0):
        raise ParseError(f"{what}: expected a finite positive number, got {value!r:.60}")
    return float(value)


def entries_from_json(entries, what: str) -> np.ndarray:
    """Decode ``[re, im]`` pairs into a flat complex array.

    Every part must be a finite JSON number; strings, booleans, NaN and
    infinities raise ``ParseError`` naming ``what`` and the entry index.
    """
    if not isinstance(entries, list):
        raise ParseError(f"{what}: 'entries' must be a list of [re, im] pairs")
    for index, pair in enumerate(entries):
        if not (
            isinstance(pair, list) and len(pair) == 2 and all(map(_is_finite_number, pair))
        ):
            raise ParseError(
                f"{what}: entries[{index}] must be a pair of finite numbers, got {pair!r:.60}"
            )
    flat = np.array(entries, dtype=np.float64).reshape(-1, 2)
    return flat.view(np.complex128).reshape(-1)


def mat_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError("matrix payload must be an object with rows/cols/entries")
    for key in ("rows", "cols", "entries"):
        if key not in obj:
            raise ParseError(f"matrix payload: missing field '{key}'")
    extra = set(obj) - {"rows", "cols", "entries"}
    if extra:
        raise ParseError(f"matrix payload: unknown field '{sorted(extra)[0]}'")
    rows = json_int(obj["rows"], "matrix payload: 'rows'")
    cols = json_int(obj["cols"], "matrix payload: 'cols'")
    flat = entries_from_json(obj["entries"], "matrix payload")
    if flat.size != rows * cols:
        raise ParseError(
            f"matrix payload: {flat.size} entries for shape {rows}x{cols}"
        )
    return flat.reshape(rows, cols)
