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


def stack_products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left[..., i, :, :] @ right[..., j, :, :]`` for every pair, shape
    ``(..., len(left), len(right), rows, cols)``.

    One GEMM per leading index: the left maps stacked by rows against the
    right maps stacked by columns.
    """
    *lead, k, rows, inner = left.shape
    l, cols = right.shape[-3], right.shape[-1]
    columns = np.swapaxes(right, -3, -2).reshape(*right.shape[:-3], inner, l * cols)
    flat = left.reshape(*lead, k * rows, inner) @ columns
    return np.swapaxes(flat.reshape(*lead, k, rows, l, cols), -3, -2)


def coords_apply(coeffs: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``sum_k coeffs[..., k] stack[k]``: ``einsum("ijk,kac->ijac", coeffs, stack)`` and kin.

    One GEMM of the coefficients, flattened to rows, against the flattened stack.
    """
    lead, trail = coeffs.shape[:-1], stack.shape[1:]
    flat = coeffs.reshape(math.prod(lead), stack.shape[0]) @ stack.reshape(
        stack.shape[0], math.prod(trail)
    )
    return flat.reshape(lead + trail)


def sandwich(left: np.ndarray, stack: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left* @ stack[i] @ right`` for every i.

    Replaces ``einsum("ab,iac,cd->ibd", conj(left), stack, right)``.
    """
    return adjoint(left) @ (stack @ right)


# Loops over group or basis elements run as stacks: the items of one chunk go
# through one batched op, which forms each item's products exactly as it forms
# them for that item alone, so no entry, and no maximum of their absolute
# values, depends on how the items are cut into chunks.


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


def pad_zero(stack: np.ndarray, axis: int = 0) -> np.ndarray:
    """``stack`` with a slice of zeros appended along ``axis``.

    Indexing the result with ``len`` along that axis reads zeros; products of
    matrix units (a unit or zero) become gathers this way.
    """
    shape = list(stack.shape)
    shape[axis] = 1
    return np.concatenate([stack, np.zeros(shape, dtype=stack.dtype)], axis=axis)


def pair_defect(left: np.ndarray, right: np.ndarray, targeted: np.ndarray, targets) -> float:
    """Unscaled worst ``|left[i] @ right[j] - T_ij|`` over every pair (i, j).

    ``T_ij`` is nonzero only where ``targeted[i, j]``.  Those pairs are taken
    in the order of ``np.nonzero(targeted)``, and ``targets(span)`` returns
    the stack of T_ij for the pairs in the slice ``span`` of that order.

    Exact zeros of the inputs are skipped.  Only the live (not all-zero) rows
    of each ``left[i]`` and columns of each ``right[j]`` are stacked, and one
    GEMM of the two stacks holds every pair's product on that grid; off the
    grid a product is exactly 0, so a target counts there with its own size.
    The GEMM runs by chunks of whole ``left[i]`` under the chunk rule, an
    item being one ``left[i]`` against all of ``right``: a chunk's grid rows,
    and its targets, hold at most ``STACK_ENTRIES`` entries, or as many as
    one such item when that is more; one buffer holds each chunk's grid in
    turn, beside at most two stacks the size of its targets.  The residual
    is the maximum of the same absolute values, up to the rounding of the
    GEMM, whose shape follows the chunks; where nothing is zero this is the
    dense work.
    """
    count, rows, _ = left.shape
    others, _, cols = right.shape
    if 0 in (count, rows, others, cols):
        return 0.0
    live_rows, live_cols = left.any(axis=2), right.any(axis=1)
    row_stack = left[live_rows]
    col_stack = right.transpose(1, 0, 2)[:, live_cols]
    width = col_stack.shape[1]
    # live rows of left up to and including each row; the grid column of
    # each column of right, where a dead one reads the zero column that
    # leads every chunk's grid
    row_end = live_rows.cumsum().reshape(count, rows)
    col_at = live_cols.cumsum().reshape(others, cols) * live_cols
    pair_left, pair_right = targeted.nonzero()
    col_at = col_at[pair_right, None, :]

    # the entries of one chunk's grid and of its targets, each
    budget = max(rows * others * cols, STACK_ENTRIES)
    total_rows, total_pairs = int(row_end[-1, -1]), len(pair_left)
    if total_rows * width <= budget and total_pairs * rows * cols <= budget:
        chunks = [(0, total_rows, 0, total_pairs)]
    else:
        limits = (budget // width if width else total_rows, budget // (rows * cols))
        chunks = _pair_chunks(row_end[:, -1], targeted.sum(axis=1).cumsum(), limits)

    worst = 0.0
    buffer = np.zeros((max(c[1] - c[0] for c in chunks) + 1, width + 1), dtype=np.complex128)
    for row_start, row_stop, pair_start, pair_stop in chunks:
        grid = buffer[: row_stop - row_start + 1]
        np.matmul(row_stack[row_start:row_stop], col_stack, out=grid[1:, 1:])
        span = slice(pair_start, pair_stop)
        # the grid row of each row of each targeted pair; a dead one reads
        # the zero row that leads the grid
        pairs = pair_left[span]
        row_at = (row_end[pairs] - row_start) * live_rows[pairs]
        at = row_at[:, :, None] * (width + 1) + col_at[span]  # in the flattened grid
        defect = grid.reshape(-1)[at]
        grid.reshape(-1)[at] = 0.0  # what is left belongs to pairs without a target
        del at
        defect -= targets(span)
        worst = np.abs(defect).max(initial=worst)
        del defect
        worst = np.abs(grid).max(initial=worst)
    return float(worst)


def _pair_chunks(row_ends: np.ndarray, pair_ends: np.ndarray, limits) -> list[tuple]:
    """``(row_start, row_stop, pair_start, pair_stop)`` of each chunk of whole items.

    Item i brings the rows and the pairs up to ``row_ends[i]`` and
    ``pair_ends[i]`` (running totals).  Each chunk takes items while its rows
    and its pairs stay within ``limits`` (a row and a pair count), and at
    least one item.
    """
    ends = [np.concatenate([[0], row_ends]), np.concatenate([[0], pair_ends])]
    chunks, first = [], 0
    while first < len(row_ends):
        stop = min(
            int(np.searchsorted(end[1:], end[first] + limit, "right"))
            for end, limit in zip(ends, limits)
        )
        stop = max(stop, first + 1)
        chunks.append((ends[0][first], ends[0][stop], ends[1][first], ends[1][stop]))
        first = stop
    return chunks


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


def entries_to_json(arr) -> list:
    """The ``[re, im]`` wire format shared by every matrix and tensor payload."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(arr).reshape(-1)]


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


def mat_to_json(m) -> dict:
    """Serialize a matrix as row-major [re, im] pairs with explicit shape."""
    m = as_matrix(m)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": entries_to_json(m)}


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
