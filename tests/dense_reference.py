"""Dense references the tests compare the package's structured computations with.

The crossed constructions are built from the generic ``multiply``, ``star``,
``act`` and ``inner`` one basis pair at a time, and group-graded blocks are
placed into dense tensors; the package works on the g blocks of each
operation and never forms these tensors.  The GNS Gram of a CP map on an
algebra is formed densely, and ``module_map_through`` turns the map into a
module CP map through a factor of that Gram, so the GNS rows of
``verify_dilation`` can be read for it.  The module identities are checked
densely: ``pi(x)* pi(y) = pi_A(<x, y>)`` one x_i at a time, multiplicativity
one E_k at a time, and positivity by one eigensolve of the whole Gram
super-matrix; the package skips the exact zeros of their inputs.  The module
axioms are also kept whole on the dense tensors (``module_axioms``), where the
package reads the module's nonzeros once and checks linearity on the inner
rows grouped by unit, one GEMM per chunk of units against the live action
rows; here linearity runs on ``pair_defect``, a pair kernel that forms each
targeted pair's target whole, (rows, cols), from a callable, where the
package subtracts its targets, read from the nonzero list, at the heads of
each unit.  The module's
orthogonal components, which the package does not compute, are found by
``component_labels`` on its link graph for the tests that plant defects
across them.  The loops
over group and basis elements that the package runs as chunked stacks are
kept here one element at a time, with ``np.kron`` where the package calls
``numkernel.kron_stack``.  Every ``<X, X>`` solve is kept in its
``np.linalg.lstsq`` form on the whole (m^2, ...) pair target, which the
package never forms: it pseudo-inverts on the cached ``gram_factor`` of the
(N, N) Gram of the inner-product rows.  The group-indexed checks are
kept dense as well: products of automorphism images by ``block_products``
(each block's ``stack_products`` placed into a dense (N, N, N) tensor) minus a
``pad_zero`` gather of every pair's target, the group law one s at a time,
the Gram row against the whole Kronecker Gram, and equivariance and
compatibility on the whole (m, m, N) and (m, N, m) tensors, where the
package reads each in the layout of its GEMM and subtracts targets only on
their support.  The GNS descent is kept in two
forms: dense, with the (rank, N h) ``F`` and (N h, rank) ``L`` placed whole,
every raw module map over the full (m, N, m) action tensor and ``np.kron``
of ``alpha_t`` and ``u_t``; and factored, the package's block rows and live
(x_i, block row) groups one at a time.  The integral form of a covariant
dilation is integrated once for its factorization residual and once more for
its density ranks, where ``crossed.induced_cp`` reads all three off one build.
The plain rows of ``verify_dilation`` are kept on the dense views
``GnsTriple.rep`` and ``StinespringDilation.images`` (``plain_rows``), where the
package reads each block's ``M_b`` and the dilation's live parts, and
``seeded_rep`` as the chain of ``direct_sum_rep`` calls it replaced.
"""

import math
from types import SimpleNamespace

import numpy as np

import builders
from covstine import cpmaps, crossed, cstar, hilbmod
from covstine import numkernel as nk
from covstine.errors import NotIntertwiningError, QuotientLeakError


def coords_apply(coeffs: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``sum_k coeffs[..., k] stack[k]``: ``einsum("ijk,kac->ijac", coeffs, stack)`` and kin,
    for every coefficient row, where the package gathers only the nonzero ones.

    One GEMM of the coefficients, flattened to rows, against the flattened stack.
    """
    lead, trail = coeffs.shape[:-1], stack.shape[1:]
    flat = coeffs.reshape(math.prod(lead), stack.shape[0]) @ stack.reshape(
        stack.shape[0], math.prod(trail)
    )
    return flat.reshape(lead + trail)


def stack_products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left[..., i, :, :] @ right[..., j, :, :]`` for every pair, shape
    ``(..., len(left), len(right), rows, cols)``: one GEMM per leading index, the
    left maps stacked by rows against the right maps stacked by columns, and
    the result permuted to pair order."""
    *lead, k, rows, inner = left.shape
    l, cols = right.shape[-3], right.shape[-1]
    columns = np.swapaxes(right, -3, -2).reshape(*right.shape[:-3], inner, l * cols)
    flat = left.reshape(*lead, k * rows, inner) @ columns
    return np.swapaxes(flat.reshape(*lead, k, rows, l, cols), -3, -2)


def pad_zero(stack: np.ndarray, axis: int = 0) -> np.ndarray:
    """``stack`` with a slice of zeros appended along ``axis``: indexing the result
    with ``len`` along that axis reads zeros, so products of matrix units (a unit
    or zero) become gathers through ``cstar.product_index``."""
    shape = list(stack.shape)
    shape[axis] = 1
    return np.concatenate([stack, np.zeros(shape, dtype=stack.dtype)], axis=axis)


def block_products(algebra, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Coordinates of ``left[..., i, :] right[..., j, :]`` for every pair, shape
    ``(..., len(left), len(right), N)``, each block multiplied on its own by
    ``stack_products`` and placed densely."""
    *lead, count, _ = left.shape
    others = right.shape[-2]
    out = np.empty((*lead, count, others, algebra.dim), dtype=np.complex128)
    offset = 0
    for n in algebra.blocks:
        span = slice(offset, offset + n * n)
        products = stack_products(
            left[..., span].reshape(*lead, count, n, n),
            right[..., span].reshape(*right.shape[:-1], n, n),
        )
        out[..., span] = products.reshape(*lead, count, others, n * n)
        offset += n * n
    return out


def basis(obj):
    g, n = obj.group.order, obj.dim // obj.group.order
    return [builders.basis_element(obj, t, k) for t in range(g) for k in range(n)]


def place(blocks, slot):
    """Dense (g a, g b, g c) tensor with the (a, b, c) block ``blocks[t]`` at row t,
    column r and group slot ``slot[t, r]``, zero elsewhere."""
    g, a, b, c = blocks.shape
    out = np.zeros((g, a, g, b, g, c), dtype=np.complex128)
    rows, cols = np.indices((g, g))
    out[rows, :, cols, :, slot, :] = blocks[:, None]
    return out.reshape(g * a, g * b, g * c)


def reference_structure(calg):
    d = calg.dim
    return np.stack(
        [
            np.stack(
                [calg.multiply(left, right).reshape(d) for right in basis(calg)]
            )
            for left in basis(calg)
        ]
    )


def reference_inner(cm):
    d_a = cm.algebra.dim
    return np.stack(
        [np.stack([cm.inner(x, y).reshape(d_a) for y in basis(cm)]) for x in basis(cm)]
    )


def reference_action(cm):
    """``act[(r, j), (s, k)]``: coordinates of ``(delta_r x_j) e_(s,k)``."""
    return np.stack(
        [np.stack([cm.act(x, f).reshape(cm.dim) for f in basis(cm.algebra)]) for x in basis(cm)]
    )


def reference_stars(calg):
    """Column i is the star of basis element i."""
    return np.stack([calg.star(e).reshape(calg.dim) for e in basis(calg)], axis=1)


def dense_gns_gram(phi):
    """The (N h)^2 GNS Gram ``phi(E_k* E_l)[i, j]``, symmetrized, as formed densely."""
    algebra = phi.algebra
    n_dim, h = algebra.dim, phi.space_dim
    star_products = cstar.product_index(algebra)[cstar.star_permutation(algebra)]
    gram = pad_zero(phi.images)[star_products].transpose(0, 2, 1, 3)
    gram = gram.reshape(n_dim * h, n_dim * h)
    return (gram + nk.adjoint(gram)) / 2.0


def cp_from_choi_spectra(blocks, h, spectra, seed):
    """A CP map whose block b has Choi matrix ``Q diag(spectra[b]) Q*``, Q Haar."""
    algebra = cstar.CStarAlgebra(blocks)
    rng = np.random.default_rng(seed)
    images = []
    for n, values in zip(blocks, spectra):
        q = nk.haar_unitary(rng, n * h)
        choi = (q * np.asarray(values, dtype=float)[None, :]) @ nk.adjoint(q)
        # choi[(p, a), (q, b)] = phi(E_ab)[p, q]
        images.append(choi.reshape(h, n, h, n).transpose(1, 3, 0, 2).reshape(n * n, h, h))
    return cpmaps.CPMapAlgebra(algebra, h, np.concatenate(images))


def module_map_through(phi, factor):
    """The algebra of ``phi`` as a module over itself, ``<a, b> = a* b``, with
    ``Phi(E_k)`` the columns ``(k, .)`` of the factor ``F`` of phi's dense GNS
    Gram ``G[(k, i), (l, j)] = phi(E_k* E_l)[i, j]``.  Then ``Phi(x)* Phi(y)``
    is ``phi(x* y)`` up to the truncation of the factor, and ``phi`` is the
    companion of ``Phi``."""
    algebra = phi.algebra
    mul = cstar.mult_tensor(algebra)
    module = hilbmod.HilbertModule(
        algebra, algebra.dim, mul.copy(), mul[cstar.star_permutation(algebra)].copy()
    )
    images = factor.F.reshape(factor.rank, algebra.dim, phi.space_dim).transpose(1, 0, 2)
    return cpmaps.ModuleCPMap(module, images, phi)


def identity_defect(images, inner, companion):
    """Worst ``|images[i]* images[j] - sum_k inner[i, j, k] companion[k]|``, one
    ``x_i`` at a time against every ``x_j``."""
    return max(
        (
            nk.maxabs(nk.adjoint(image) @ images - coords_apply(row, companion))
            for image, row in zip(images, inner)
        ),
        default=0.0,
    )


def multiplicativity_defect(rep):
    """Worst ``|pi(E_k) pi(E_l) - pi(E_k E_l)|``, one ``E_k`` at a time, unscaled."""
    padded = pad_zero(rep.images)
    rows = zip(rep.images, cstar.product_index(rep.algebra))
    return max((nk.maxabs(image @ rep.images - padded[row]) for image, row in rows), default=0.0)


def gram_super_matrix(module):
    """``[<x_i, x_j>]`` in ``M_m(A)``, each entry embedded block-diagonally."""
    embed = cstar.embedding_representation(module.algebra).images
    order = module.dim * module.algebra.embed_dim
    return coords_apply(module.inner, embed).transpose(0, 2, 1, 3).reshape(order, order)


def module_symmetry(module):
    """Unscaled worst ``|<x_i, x_j>* - <x_j, x_i>|`` on the whole (m, m, N) inner tensor."""
    star_inner = np.conj(module.inner[..., cstar.star_permutation(module.algebra)])
    return nk.maxabs(star_inner - np.transpose(module.inner, (1, 0, 2)))


def module_positivity(module):
    """``psd_check`` of the whole Gram super-matrix, one eigensolve."""
    return nk.psd_check(gram_super_matrix(module))


def component_labels(linked):
    """The smallest node of each node's connected component, for a symmetric
    boolean adjacency matrix, by rounds of label lowering over the dense matrix."""
    labels = np.arange(len(linked))
    while True:
        lowered = np.where(linked, labels, labels[:, None]).min(axis=1, initial=len(linked))
        lowered = lowered[lowered]
        if (lowered == labels).all():
            return labels
        labels = lowered


def psd_by_components(m):
    """``psd_check`` of a dense matrix, one component of its sparsity at a time,
    the components found on its dense adjacency."""
    nonzero = m != 0
    labels = component_labels(nonzero | nonzero.T)
    sizes = np.bincount(labels, minlength=len(labels))
    alone = m.diagonal().real[sizes[labels] == 1]
    lowest, highest = alone.min(initial=np.inf), alone.max(initial=-np.inf)
    for root in np.flatnonzero(sizes > 1):
        nodes = np.flatnonzero(labels == root)
        report = nk.psd_check(m[nodes[:, None], nodes])
        lowest, highest = min(lowest, report.min_eig), max(highest, report.max_eig)
    extremes = np.array([highest, lowest]) if len(labels) else np.zeros(0)
    return nk.spectrum_psd(extremes, nk.frobenius(m - nk.adjoint(m)))


def pair_defect(left, right, targeted, targets):
    """The pair kernel with callable targets that ``module_axioms`` reads:
    unscaled worst ``|left[i] @ right[j] - T_ij|`` over every pair (i, j).

    ``T_ij`` is nonzero only where ``targeted[i, j]``.  Those pairs are taken
    in the order of ``np.nonzero(targeted)``, and ``targets(span)`` returns
    the stack of T_ij for the pairs in the slice ``span`` of that order.

    Exact zeros of the inputs are skipped.  Only the live (not all-zero) rows
    of each ``left[i]`` and columns of each ``right[j]`` are stacked, and one
    GEMM of the two stacks holds every pair's product on that grid; off the
    grid a product is exactly 0, so a target counts there with its own size.
    The GEMM runs by chunks of whole ``left[i]`` under the chunk rule, an
    item being one ``left[i]`` against all of ``right``: a chunk's grid rows,
    and its targets, hold at most ``nk.STACK_ENTRIES`` entries, or as many as
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
    budget = max(rows * others * cols, nk.STACK_ENTRIES)
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


def _pair_chunks(row_ends, pair_ends, limits):
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


def module_axioms(module):
    """``hilbmod.check_module_axioms`` on the dense tensors: linearity by
    ``pair_defect`` over every x_j's live action rows, padded with dead ones,
    and a gather of ``max_i |<x_i, x_j>|`` over the dead rows; symmetry on the
    whole inner tensor; positivity on the dense (m E)^2 Gram super-matrix,
    eigensolved per component of its dense adjacency; the trace Gram and the
    fullness Gram from all m^2 rows of the flattened inner tensor."""
    algebra = module.algebra
    m, n_dim = module.dim, algebra.dim
    inner, action = module.inner, module.action
    scale = max(1.0, nk.maxabs(inner))
    flat = inner.reshape(m * m, n_dim)
    fullness = nk.gram_factor(nk.adjoint(flat) @ flat)
    kept = fullness.eigenvalues[: fullness.rank]
    condition = np.sqrt(kept[0] / kept[-1]) if fullness.rank else float("inf")

    support = inner != 0
    left_factor = builders.left_factor_index(algebra)
    padded = pad_zero(inner, axis=2)
    live = action.any(axis=2)
    dead_j, dead_k = (~live).nonzero()
    column_max = np.abs(padded).max(axis=0, initial=0.0)
    rows = np.argsort(~live, axis=1, kind="stable")[:, : live.sum(axis=1).max(initial=0)]
    targeted = support.any(axis=2).T  # [j, i]: <x_i, x_j> is not 0
    pair_j, pair_i = targeted.nonzero()
    linearity = max(
        column_max[dead_j[:, None], left_factor[dead_k]].max(initial=0.0),
        pair_defect(
            np.take_along_axis(action, rows[:, :, None], axis=1),
            inner,
            targeted,
            lambda span: padded[
                pair_i[span, None, None], pair_j[span, None, None], left_factor[rows[pair_j[span]]]
            ],
        ),
    ) / scale

    psd = psd_by_components(gram_super_matrix(module))
    trace_rank = nk.psd_rank(inner @ builders.trace_coords(algebra))
    return hilbmod.ModuleAxiomReport(
        linearity,
        module_symmetry(module) / scale,
        psd.min_eig,
        psd.ok,
        trace_rank.rank == m,
        fullness.rank,
        n_dim,
        float(condition),
    )


# ---------------------------------------------------------------------------
# Per-element loops: the package runs each of these as stacks over the group
# or basis elements, in chunks; each loop here is the form it replaced.
# ---------------------------------------------------------------------------


def tensor_mats(first, second):
    return np.stack([np.kron(a, b) for a, b in zip(first.mats, second.mats)])


def standard_action_mats(gamma, delta):
    """``(eta, alpha)`` of ``hilbmod.standard_action``, one t at a time."""
    g = gamma.group.order
    eta = np.stack([np.kron(gamma.mats[t], np.conj(delta.mats[t])) for t in range(g)])
    alpha = np.stack([np.kron(delta.mats[t], np.conj(delta.mats[t])) for t in range(g)])
    return eta, alpha


def conjugated_mats(rep, q):
    return np.stack([q @ m @ nk.adjoint(q) for m in rep.mats])


def amplified_images(p, n, amplification):
    """Images and companion images of ``cpmaps.amplified_concrete_representation``."""
    ident = nk.eye(amplification)
    images = np.stack([np.kron(b, ident) for b in hilbmod.standard_basis_matrices(p, n)])
    embed = cstar.embedding_representation(cstar.CStarAlgebra((n,))).images
    return images, np.stack([np.kron(e, ident) for e in embed])


def average_intertwiner(reps_left, reps_right, z):
    total = np.zeros((reps_left.dim, reps_right.dim), dtype=np.complex128)
    for t in range(reps_left.group.order):
        total += reps_left.mats[t] @ z @ nk.adjoint(reps_right.mats[t])
    return total / reps_left.group.order


def check_intertwiners(rep_v, rep_w, v, w, u, u_prime):
    """The input check of ``cpmaps.covariant_cp_from_representation``, one t at a time."""
    for t in range(rep_v.group.order):
        left = rep_v.mats[t] @ v - v @ u.mats[t]
        if nk.maxabs(left) > nk.RESIDUAL_TOL * max(1.0, nk.maxabs(v)):
            raise NotIntertwiningError(f"v_t V = V u_t fails at t={t} by {nk.maxabs(left):.3e}")
        right = rep_w.mats[t] @ w - w @ u_prime.mats[t]
        if nk.maxabs(right) > nk.RESIDUAL_TOL * max(1.0, nk.maxabs(w)):
            raise NotIntertwiningError(
                f"w_t W = W u'_t fails at t={t} by {nk.maxabs(right):.3e}"
            )


def group_law(group, mats):
    """``(hom, unit)`` of ``hilbmod.group_law_residuals``, one s at a time."""
    hom = max(nk.maxabs(mats[s] @ mats - mats[group.mult[s]]) for s in range(group.order))
    return hom, nk.maxabs(mats[group.identity] - nk.eye(mats.shape[1]))


def unitarity(rep):
    return max(nk.maxabs(nk.adjoint(m) @ m - nk.eye(rep.dim)) for m in rep.mats)


def intertwining(left, x, right):
    return max(
        (nk.maxabs(left.mats[t] @ x - x @ right.mats[t]) for t in range(left.group.order)),
        default=0.0,
    )


def covariance(transport, images, left, right):
    """``hilbmod.covariance_defect`` on the whole (g, m, K, H) stack at once."""
    transported = coords_apply(transport.transpose(0, 2, 1), images)
    conjugated = left[:, None] @ images[None] @ np.conj(right).transpose(0, 2, 1)[:, None]
    return nk.maxabs(transported - conjugated)


def algebra_action(group, algebra, alpha):
    """``(law, mult, star)`` of ``hilbmod.algebra_action_residuals``, one t at a time."""
    law = max(group_law(group, alpha))
    product = cstar.product_index(algebra)
    auto_mult = 0.0
    for t in range(group.order):
        images = alpha[t].T
        prod_of_images = block_products(algebra, images, images)
        auto_mult = max(auto_mult, nk.maxabs(prod_of_images - pad_zero(images)[product]))
    perm = cstar.star_permutation(algebra)
    return law, auto_mult, nk.maxabs(alpha[:, :, perm] - np.conj(alpha[:, perm, :]))


def dynamical_system(sys):
    """The fields of ``hilbmod.check_dynamical_system``, one t at a time."""
    group, module, eta, alpha = sys.group, sys.module, sys.eta, sys.alpha
    alpha_law, auto_mult, auto_star = algebra_action(group, module.algebra, alpha)
    law = max(max(group_law(group, eta)), alpha_law)
    equivariance = compatibility = 0.0
    for t in range(group.order):
        pushed = module.inner @ alpha[t].T
        transported = nk.sandwich(eta[t], module.inner.transpose(2, 0, 1), eta[t])
        equivariance = max(equivariance, nk.maxabs(transported.transpose(1, 2, 0) - pushed))
        lhs = module.action @ eta[t].T
        rhs = coords_apply(eta[t].T, alpha[t].T @ module.action)
        compatibility = max(compatibility, nk.maxabs(lhs - rhs))
    invertible = all(
        nk.numerical_rank(eta[t]).rank == module.dim
        and nk.numerical_rank(alpha[t]).rank == module.algebra.dim
        for t in range(group.order)
    )
    return law, equivariance, compatibility, auto_mult, auto_star, invertible


# --- GNS descent, dense: F and L placed whole, every raw map over all of A (x) H


class DenseLeakError(QuotientLeakError):
    """A leak gate of the dense descent, with the leak it saw."""

    def __init__(self, what, leak):
        super().__init__(f"{what} do not descend to the GNS quotient (leak {leak:.3e})")
        self.leak = leak


def leak(raw, lifted, f_map):
    """The relative leak of one raw map: ``|raw - (raw L) F|`` over max(1, |raw|)."""
    return nk.maxabs(raw - lifted @ f_map) / max(1.0, nk.maxabs(raw))


def gns_descent(phi, rank, cutoff):
    """``(F, L, images, leak, V)`` of the GNS triple in dense form: the Choi
    eigenvectors placed by ``np.kron`` block by block into the (rank, N h) F
    and (N h, rank) L, and the descent of left multiplication one E_k at a
    time."""
    algebra, h = phi.algebra, phi.space_dim
    n_dim = algebra.dim
    f_map = np.zeros((rank, n_dim * h), dtype=np.complex128)
    lift = np.zeros((n_dim * h, rank), dtype=np.complex128)
    row = col = 0
    for n, spectrum in zip(algebra.blocks, phi.choi_report.spectra):
        kept = int(np.count_nonzero(spectrum.values > cutoff))
        basis = spectrum.vectors[:, :kept].reshape(h, n, kept).transpose(1, 0, 2)
        basis = basis.reshape(n * h, kept)
        sqrt_vals = np.sqrt(spectrum.values[:kept])
        rows, cols = slice(row, row + n * n * h), slice(col, col + n * kept)
        f_map[cols, rows] = np.kron(nk.eye(n), sqrt_vals[:, None] * nk.adjoint(basis))
        lift[rows, cols] = np.kron(nk.eye(n), basis / sqrt_vals[None, :])
        row, col = rows.stop, cols.stop
    product = cstar.product_index(algebra)
    f_units = pad_zero(f_map.reshape(rank, n_dim, h), axis=1)
    images = np.zeros((n_dim, rank, rank), dtype=np.complex128)
    worst = 0.0
    for k in range(n_dim):
        descended = f_units[:, product[k]].reshape(rank, n_dim * h)
        images[k] = descended @ lift
        worst = max(worst, leak(descended, images[k], f_map))
    iota = np.kron(cstar.unit_coords(algebra)[:, None], nk.eye(h))
    return f_map, lift, images, worst, f_map @ iota


def raw_module_maps(phi):
    """Raw maps ``A (x) H -> K`` sending ``E_l (x) h`` to ``Phi(x_i E_l) h``, over
    the whole (m, N, m) action tensor."""
    module = phi.module
    dim_h, dim_k = phi.space_dims
    products = coords_apply(module.action, phi.images)
    return products.transpose(0, 2, 1, 3).reshape(module.dim, dim_k, module.algebra.dim * dim_h)


def module_leak(raw, f_map, lift):
    """The quotient leak of the module maps, one dense x_i at a time."""
    lifted = raw @ lift
    return max((leak(r, l, f_map) for r, l in zip(raw, lifted)), default=0.0)


def dense_dilation(phi):
    """The minimal dilation of a module CP map in dense form, as a namespace
    with ``F``, ``L``, ``gns_images``, ``V``, ``W`` and ``images``; raises
    ``DenseLeakError`` at the package's leak gates."""
    companion = phi.companion
    spectra = companion.choi_report.spectra
    merged = np.sort(
        np.concatenate([np.tile(s.values, n) for n, s in zip(companion.algebra.blocks, spectra)])
    )[::-1]
    f_map, lift, gns_images, gns_leak, v = gns_descent(companion, *nk.spectral_rank(merged))
    if gns_leak > nk.RESIDUAL_TOL:
        raise DenseLeakError("GNS left multiplications", gns_leak)
    raw = raw_module_maps(phi)
    worst = module_leak(raw, f_map, lift)
    if worst > nk.RESIDUAL_TOL:
        raise DenseLeakError("module maps", worst)
    dim_k = phi.space_dims[1]
    span = phi.images.transpose(1, 0, 2).reshape(dim_k, phi.images.shape[0] * phi.space_dims[0])
    values, vectors = nk.hermitian_eigendecomposition(span @ nk.adjoint(span))
    w_map = nk.adjoint(vectors[:, : nk.spectral_rank(values)[0]])
    return SimpleNamespace(
        F=f_map, L=lift, gns_images=gns_images, V=v, W=w_map, images=w_map @ raw @ lift
    )


def covariant_descent(cov, f_map, lift):
    """``(v_mats, gram_residual, leak)`` of the covariant descent in dense form:
    ``F kron(alpha_t, u_t) L`` one t at a time."""
    gram = nk.adjoint(f_map) @ f_map
    v_mats = np.zeros((cov.system.group.order, len(f_map), len(f_map)), dtype=np.complex128)
    gram_residual = worst = 0.0
    for t in range(cov.system.group.order):
        descended = f_map @ np.kron(cov.system.alpha[t], cov.u.mats[t])
        transported = nk.adjoint(descended) @ descended
        gram_residual = max(gram_residual, nk.maxabs(transported - gram))
        v_mats[t] = descended @ lift
        worst = max(worst, leak(descended, v_mats[t], f_map))
    return v_mats, gram_residual, worst


def dense_covariant(cov):
    """``(dense_dilation, v_mats, gram_residual)`` of a covariant CP map in dense
    form; raises ``DenseLeakError`` at the package's leak gates."""
    dense = dense_dilation(cov.base)
    v_mats, gram_residual, worst = covariant_descent(cov, dense.F, dense.L)
    if worst > nk.RESIDUAL_TOL:
        raise DenseLeakError("group unitaries", worst)
    return dense, v_mats, gram_residual


def codomain_compressions(cov, base):
    """``(w_mats, invariance)``: ``W u'_t W*`` and the leak of ``u'_t`` out of the
    codomain span, one t at a time."""
    group, dim_k = cov.system.group, cov.base.space_dims[1]
    proj = nk.adjoint(base.W) @ base.W
    invariance = 0.0
    w_mats = np.zeros((group.order, base.dim_codomain, base.dim_codomain), dtype=np.complex128)
    for t in range(group.order):
        off = (nk.eye(dim_k) - proj) @ cov.u_prime.mats[t] @ proj
        invariance = max(invariance, nk.maxabs(off))
        w_mats[t] = base.W @ cov.u_prime.mats[t] @ nk.adjoint(base.W)
    return w_mats, invariance


def dense_factors(gns):
    """The dense F and L of a factored ``GnsTriple``, placed by ``np.kron``."""
    sizes = gns.cp_map.algebra.blocks
    f_blocks = [np.kron(nk.eye(n), b.F) for n, b in zip(sizes, gns.blocks)]
    l_blocks = [np.kron(nk.eye(n), b.L) for n, b in zip(sizes, gns.blocks)]
    return block_diag(f_blocks), block_diag(l_blocks)


def block_diag(mats):
    out = np.zeros(tuple(map(sum, zip(*(m.shape for m in mats)))), dtype=np.complex128)
    row = col = 0
    for m in mats:
        out[row : row + m.shape[0], col : col + m.shape[1]] = m
        row, col = row + m.shape[0], col + m.shape[1]
    return out


# --- GNS descent, factored: the package's block rows one at a time


def block_spans(gns):
    """``(n, unit offset, col offset, block)`` of each algebra block."""
    unit = col = 0
    for n, block in zip(gns.cp_map.algebra.blocks, gns.blocks):
        yield n, unit, col, block
        unit, col = unit + n * n, col + n * block.rank


def descend(group, block):
    """``(lifted, defect, size)`` of one raw map on one block row."""
    lifted = group @ block.L
    return lifted, nk.maxabs(group - lifted @ block.F), nk.maxabs(group)


def gns_blocks(gns):
    """``(images, leak, V)`` of ``stinespring.gns_construct`` from its blocks:
    ``pi(E_cd)`` placed one E_k at a time, V one block row at a time."""
    h = gns.cp_map.space_dim
    images = np.zeros((gns.cp_map.algebra.dim, gns.dim, gns.dim), dtype=np.complex128)
    v = np.zeros((gns.dim, h), dtype=np.complex128)
    worst = 0.0
    for n, unit, col, block in block_spans(gns):
        kept = block.rank
        moved, defect, size = descend(block.F, block)
        worst = max(worst, defect / max(1.0, size))
        for c in range(n):
            rows = slice(col + c * kept, col + (c + 1) * kept)
            v[rows] = block.F[:, c * h : (c + 1) * h]
            for d in range(n):
                images[unit + c * n + d, rows, col + d * kept : col + (d + 1) * kept] = moved
    return images, worst, v


def module_groups(phi, gns, w_map):
    """``(images, leak)`` of ``stinespring.dilate_module_cp``: one x_i at a time,
    each live block row of it on its own."""
    module = phi.module
    m = module.dim
    dim_h, dim_k = phi.space_dims
    flat = phi.images.reshape(m, dim_k * dim_h)
    images = np.zeros((m, w_map.shape[0], gns.dim), dtype=np.complex128)
    leaks = []
    for i in range(m):
        worst = size = 0.0
        for n, unit, col, block in block_spans(gns):
            kept = block.rank
            for a in range(n):
                coeffs = module.action[i, unit + a * n : unit + (a + 1) * n]
                if not coeffs.any():
                    continue
                raw = (coeffs @ flat).reshape(n, dim_k, dim_h).transpose(1, 0, 2)
                lifted, defect, group_size = descend(raw.reshape(dim_k, n * dim_h), block)
                images[i, :, col + a * kept : col + (a + 1) * kept] = w_map @ lifted
                worst, size = max(worst, defect), max(size, group_size)
        leaks.append(worst / max(1.0, size))
    return images, max(leaks, default=0.0)


def covariant_groups(cov, base):
    """``(v_mats, gram_residual, leak, w_mats, invariance)`` of
    ``stinespring.dilate_covariant``, one t at a time: ``F (alpha_t (x) u_t)``
    by the two mode products of each block, lifted one block at a time."""
    gns, group = base.gns, cov.system.group
    algebra, h = gns.cp_map.algebra, gns.cp_map.space_dim
    n_dim = algebra.dim
    gram = block_diag(
        [np.kron(nk.eye(n), nk.adjoint(b.F) @ b.F) for n, b in zip(algebra.blocks, gns.blocks)]
    )
    v_mats = np.zeros((group.order, gns.dim, gns.dim), dtype=np.complex128)
    gram_residual = worst = 0.0
    for t in range(group.order):
        alpha, u = cov.system.alpha[t], cov.u.mats[t]
        rows = []
        for n, unit, col, block in block_spans(gns):
            kept = block.rank
            v_rows = gns.V[col : col + n * kept].reshape(n, kept * h)
            coeffs = alpha[unit : unit + n * n].reshape(n, n, n_dim).transpose(0, 2, 1)
            on_n = (coeffs.reshape(n * n_dim, n) @ v_rows).reshape(n, n_dim, kept, h)
            on_h = on_n.transpose(0, 2, 1, 3).reshape(n * kept * n_dim, h) @ u
            rows.append(on_h.reshape(n * kept, n_dim * h))
        descended = np.concatenate(rows)
        transported = nk.adjoint(descended) @ descended
        gram_residual = max(gram_residual, nk.maxabs(transported - gram))
        defect = size = 0.0
        for n, unit, col, block in block_spans(gns):
            kept = block.rank
            raw = descended[:, unit * h : (unit + n * n) * h].reshape(gns.dim * n, n * h)
            lifted, block_defect, block_size = descend(raw, block)
            v_mats[t, :, col : col + n * kept] = lifted.reshape(gns.dim, n * kept)
            defect, size = max(defect, block_defect), max(size, block_size)
        worst = max(worst, defect / max(1.0, size))
    w_mats, invariance = codomain_compressions(cov, base)
    return v_mats, gram_residual, worst, w_mats, invariance


def plain_rows(phi, dilation):
    """The plain rows of ``stinespring.verify_dilation`` on the dense views
    ``gns.rep.images`` and ``dilation.images``, as it computed them before it read
    the GNS blocks' ``M_b`` and the dilation's parts: ``(residuals, ranks)`` with
    ``ranks`` the rank profiles of ``gns_minimality``, ``range_density`` and
    ``corange_density``."""
    gns = dilation.gns
    rebuilt = nk.sandwich(gns.V, gns.rep.images, gns.V)
    residuals = {
        "gns_reconstruction": nk.maxabs(rebuilt - phi.companion.images),
        "gns_representation": cstar.check_representation(gns.rep).max_residual,
        "reconstruction": nk.maxabs(nk.sandwich(dilation.W, dilation.images, gns.V) - phi.images),
        "representation_identity": hilbmod.identity_defect(
            dilation.images, phi.module, gns.rep.images
        ),
    }
    ranked, coranged = hilbmod.density_ranks(dilation.images, gns.V, dilation.W)
    ranks = {
        "gns_minimality": nk.numerical_rank(hilbmod.range_stack(gns.rep.images, gns.V)),
        "range_density": ranked,
        "corange_density": coranged,
    }
    return residuals, ranks


def composed_seeded_rep(group, dim, rng):
    """``hilbmod.seeded_rep`` as a chain of ``direct_sum_rep`` calls, one per summand,
    each copying the sum so far, as it was before it wrote one block diagonal."""
    candidates = group.coset_candidates
    sizes = sorted(candidates)
    rep = hilbmod.trivial_rep(group, 0)
    remaining = dim
    while remaining:
        fitting = [s for s in sizes if s <= remaining]
        if fitting:
            block = hilbmod.coset_rep(group, candidates[fitting[int(rng.integers(0, len(fitting)))]])
        else:
            block = hilbmod.trivial_rep(group, remaining)
        rep = hilbmod.direct_sum_rep(rep, block)
        remaining -= block.dim
    return hilbmod.conjugate_rep(rep, nk.haar_unitary(rng, dim))


def image_intertwining(u1, u2, images, alt_images):
    """``intertwine_images`` of ``stinespring.uniqueness_intertwiners``, one x_i at a time."""
    return max(
        (nk.maxabs(u2 @ images[i] - alt_images[i] @ u1) for i in range(len(images))),
        default=0.0,
    )


def crossed_algebra_check(calg):
    """``(assoc, anti)`` of ``crossed.check_crossed_algebra``, one (t, k) at a time."""
    group = calg.group
    g, n = group.order, calg.base.dim
    mult, inv = group.mult, group.inv
    prod, star = calg.product_blocks, calg.star_blocks
    flat = prod.reshape(g, n * n, n)
    halves = np.swapaxes(star[inv], 1, 2) @ prod[inv].reshape(g, n, n * n)
    halves = halves.reshape(g, n, n, n).transpose(0, 2, 1, 3).reshape(g, n, n * n)
    assoc = anti = 0.0
    for t in range(g):
        right = prod[mult[t]].reshape(g, n, n * n)
        for k in range(n):
            lhs = prod[t, k] @ right
            rhs = flat @ prod[t, k]
            assoc = max(assoc, nk.maxabs(lhs.reshape(rhs.shape) - rhs))
        starred = np.conj(flat[t]) @ np.swapaxes(star[inv[mult[t]]], 1, 2)
        reversed_prod = star[inv[t]].T @ halves
        anti = max(anti, nk.maxabs(starred - reversed_prod.reshape(starred.shape)))
    return assoc, anti


def crossed_module_check(cm):
    """``(axiom, symmetry)`` of ``crossed.check_crossed_module``, one (t, i) at a time."""
    group = cm.group
    g, m, n = group.order, cm.module.dim, cm.module.algebra.dim
    inner, prod, star = cm.inner_blocks, cm.algebra.product_blocks, cm.algebra.star_blocks
    acts = cm.action_blocks.reshape(g, m * n, m)
    swapped = inner.transpose(0, 2, 1, 3).reshape(g, m * m, n)
    axiom = sym = 0.0
    for t in range(g):
        slots = group.mult[group.inv[t]]
        right = prod[slots].reshape(g, n, n * n)
        for i in range(m):
            lhs = acts @ inner[t, i]
            rhs = inner[t, i] @ right
            axiom = max(axiom, nk.maxabs(lhs.reshape(rhs.shape) - rhs))
        starred = np.conj(inner[t]).reshape(m * m, n) @ np.swapaxes(star[group.inv[slots]], 1, 2)
        sym = max(sym, nk.maxabs(starred - swapped))
    return axiom, sym


def crossed_identity_defect(cm, images, companion):
    """``crossed._identity_defect``, one (t, i) at a time."""
    group = cm.group
    g, m, n = group.order, cm.module.dim, cm.module.algebra.dim
    by_slot = companion.reshape(g, n, -1).transpose(1, 0, 2).reshape(n, -1)
    worst = 0.0
    for t in range(g):
        slots = group.mult[group.inv[t]]
        for i in range(m):
            expected = (cm.inner_blocks[t, i] @ by_slot).reshape(m, g, -1)[:, slots]
            expected = expected.transpose(1, 0, 2).reshape(len(images), *companion.shape[1:])
            worst = max(worst, nk.maxabs(nk.adjoint(images[t * m + i]) @ images - expected))
    return worst


def integral_stinespring(cov, dilation):
    """The integral form of a covariant dilation checked from a second build:
    the factorization residual of the induced map and the range and corange
    rank profiles of the integrated dilation images, each from its own
    integration, as before ``crossed.induced_cp`` took all three from one."""
    base = dilation.base
    images = crossed._integrated(cov.base.images, cov.u.mats)
    rebuilt = nk.sandwich(base.W, crossed._integrated(base.images, dilation.v.mats), base.gns.V)
    residual = nk.maxabs(rebuilt - images)
    dil_images = crossed._integrated(base.images, dilation.v.mats)
    ranged, coranged = hilbmod.density_ranks(dil_images, base.gns.V, base.W)
    return residual, ranged, coranged


def least_squares(a, b):
    """The minimum-norm least-squares solution of ``a @ x = b`` by ``np.linalg.lstsq``."""
    return np.linalg.lstsq(a, b, rcond=None)[0]


def fullness_solve(module, targets):
    """``flat @ x = T`` on the rows ``flat[(i, j)] = <x_i, x_j>``, with ``targets[i, j]``
    holding T_ij, by ``np.linalg.lstsq``; returns x, shaped (N,) + the shape of one
    T_ij, and the worst ``|flat @ x - T|``."""
    flat = module.inner.reshape(module.dim**2, module.algebra.dim)
    target = targets.reshape(len(flat), -1)
    x = least_squares(flat, target)
    return x.reshape((module.algebra.dim,) + targets.shape[2:]), nk.maxabs(flat @ x - target)


def induced_companion(images, module):
    """The companion of ``cpmaps.induced_algebra_cp`` from the dense pair-Gram target
    ``images[i]* images[j]``, with the unscaled consistency residual."""
    return fullness_solve(module, np.einsum("iba,jbc->ijac", np.conj(images), images))


def induced_action(group, module, eta):
    """``hilbmod.induced_algebra_action``'s alpha, one ``np.linalg.lstsq`` per group
    element, with the worst consistency residual."""
    solved = [
        fullness_solve(module, hilbmod.transported_inner(eta[t], module.inner))
        for t in range(group.order)
    ]
    return np.stack([x.T for x, _ in solved]), max(residual for _, residual in solved)
