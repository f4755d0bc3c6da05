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

# Every cutoff and gate of the package reads one of these four values.
# Eigenvalues at or below REL_TOL times the largest eigenvalue count as zero;
# it also bounds the Hermitian defect of an eigensolve and a PSD test's slack.
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
    return float(np.max(np.abs(arr)))


def opnorm(m: np.ndarray) -> float:
    """Spectral norm, 0.0 for empty matrices."""
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


# Contractions of matrix stacks run as explicit GEMMs (a reshape to 2-D and one
# matmul) or as gathers, never as multi-operand einsums, which numpy evaluates
# as one unordered loop nest over every index at once.


def stack_products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left[i] @ right[j]`` for every pair, shape ``(len(left), len(right), rows, cols)``.

    One GEMM: the left maps stacked by rows against the right maps stacked by columns.
    """
    k, rows, inner = left.shape
    l, _, cols = right.shape
    flat = left.reshape(k * rows, inner) @ right.transpose(1, 0, 2).reshape(inner, l * cols)
    return flat.reshape(k, rows, l, cols).transpose(0, 2, 1, 3)


def pair_products(stack: np.ndarray) -> np.ndarray:
    """``stack[i]* @ stack[j]`` for every pair: ``einsum("iba,jbc->ijac", conj(stack), stack)``."""
    return stack_products(np.conj(stack).transpose(0, 2, 1), stack)


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
    The GEMM runs by chunks of whole ``left[i]`` whose grid rows, and whose
    targets, hold no more entries than ``left[i]`` times all of ``right``, the
    block one ``i`` at a time would form.  The residual is the same maximum of
    the same absolute values; where nothing is zero this is the dense work.
    """
    count, rows, _ = left.shape
    others, _, cols = right.shape
    if 0 in (count, rows, others, cols):
        return 0.0
    live_rows = left.any(axis=2)
    live_cols = right.any(axis=1)
    row_stack = left[live_rows]
    col_stack = right.transpose(1, 0, 2)[:, live_cols]
    width = col_stack.shape[1]

    budget = rows * others * cols
    chunks, offset = [], []  # offset: grid rows before left[i] within its chunk
    start = row_end = pair_end = chunk_rows = chunk_pairs = 0
    counts = zip(live_rows.sum(axis=1).tolist(), targeted.sum(axis=1).tolist())
    for i, (r, p) in enumerate(counts):
        if i > start and ((chunk_rows + r) * width > budget or chunk_pairs + p > others):
            chunks.append((row_end - chunk_rows, row_end, pair_end - chunk_pairs, pair_end))
            start, chunk_rows, chunk_pairs = i, 0, 0
        offset.append(chunk_rows)
        chunk_rows, chunk_pairs = chunk_rows + r, chunk_pairs + p
        row_end, pair_end = row_end + r, pair_end + p
    chunks.append((row_end - chunk_rows, row_end, pair_end - chunk_pairs, pair_end))

    # the grid row (within its chunk) and column of every row and column of
    # each targeted pair; dead ones read the zero row and column appended to
    # every chunk's grid
    pair_left, pair_right = targeted.nonzero()
    row_at = (live_rows.cumsum(axis=1) + np.array(offset)[:, None]) * live_rows - 1
    col_at = live_cols.cumsum().reshape(others, cols) * live_cols - 1
    row_at, col_at = row_at[pair_left, :, None], col_at[pair_right, None, :]

    worst = 0.0
    for row_start, row_stop, pair_start, pair_stop in chunks:
        grid = np.zeros((row_stop - row_start + 1, width + 1), dtype=np.complex128)
        np.matmul(row_stack[row_start:row_stop], col_stack, out=grid[:-1, :-1])
        span = slice(pair_start, pair_stop)
        at = (row_at[span], col_at[span])
        worst = np.abs(grid[at] - targets(span)).max(initial=worst)
        grid[at] = 0.0  # what is left belongs to pairs without a target
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


def spectral_rank(values: np.ndarray) -> tuple[int, float]:
    """The package's one rank rule: ``(rank, cutoff)`` of a descending spectrum.

    The rank counts the eigenvalues strictly above ``REL_TOL`` times the
    largest one, or ``ABS_FLOOR`` if that is more.  ``gram_factor``,
    ``psd_rank``, ``numerical_rank`` and ``orthonormal_range`` all decide
    their ranks with it.
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


def psd_check_by_components(m) -> PsdReport:
    """``psd_check`` of ``m`` decided one connected component at a time.

    The nodes are the indices of ``m``, linked where an off-diagonal entry is
    nonzero in either triangle.  Permuted to its components the matrix is
    block diagonal, so its spectrum is the union of theirs.  Each component of
    two or more nodes is eigensolved by ``psd_check``; an isolated node is its
    diagonal entry.  ``spectrum_psd`` decides on the merged extremes, so the
    verdict and ``min_eig`` are those of ``psd_check(m)``; a matrix linked
    throughout takes one ``psd_check`` of its full order.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatchError(f"matrix is {m.shape[0]}x{m.shape[1]}, not square")
    nonzero = m != 0
    labels = _component_labels(nonzero | nonzero.T)
    sizes = np.bincount(labels, minlength=len(labels))
    alone = m.diagonal().real[sizes[labels] == 1]
    lowest, highest = alone.min(initial=np.inf), alone.max(initial=-np.inf)
    for root in np.flatnonzero(sizes > 1):
        nodes = np.flatnonzero(labels == root)
        report = psd_check(m[nodes[:, None], nodes])
        lowest, highest = min(lowest, report.min_eig), max(highest, report.max_eig)
    extremes = np.array([highest, lowest]) if len(labels) else np.zeros(0)
    return spectrum_psd(extremes, frobenius(m - adjoint(m)))


def _component_labels(linked: np.ndarray) -> np.ndarray:
    """The smallest node of each node's connected component, for a symmetric
    boolean adjacency matrix.

    Each round lowers every label to the smallest among the node's
    neighbours, then lets every node take its label's label; labels only
    fall, and stay within the component, until they agree along every link.
    """
    labels = np.arange(len(linked))
    while True:
        lowered = np.where(linked, labels, labels[:, None]).min(axis=1, initial=len(linked))
        lowered = lowered[lowered]
        if (lowered == labels).all():
            return labels
        labels = lowered


def least_squares_solve(a, b) -> np.ndarray:
    """Minimum-norm least-squares solution of ``a @ x = b``."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatchError(
            f"row counts differ: A has {a.shape[0]}, B has {b.shape[0]}"
        )
    if a.shape[1] == 0:
        return np.zeros((0, b.shape[1]), dtype=np.complex128)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return x


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
