"""Dense references the tests compare the package's structured computations with.

``certificate`` is the whole-run oracle: every row of every kind formed the dense way,
every t, every pair, dense Grams, from the data of a resolved scenario and the rank rule
``nk.spectral_rank`` alone (``test_oracle.py``).  Its stages are the references of the
GNS descent: ``dense_gns`` places the (rank, N h) ``F`` and (N h, rank) ``L`` whole,
``dense_dilation`` lifts every raw module map over all of ``A (x) H`` and
``dense_covariant`` forms ``F (alpha_t (x) u_t) L`` one t at a time; the crossed rows
come from the defining formulas of the crossed operations (``crossed_inner``,
``crossed_algebra_axioms``, ``crossed_module_axioms``), which ``test_crossed.py`` checks
against the exhaustive checks through the generic ``multiply``, ``star``, ``act`` and
``inner`` (``reference_inner``, ``crossed_algebra_check``, ``crossed_module_check``).

The other helpers are the one-element-at-a-time forms of what the package runs as
chunked stacks (the group-indexed checks, taking ``at``, the elements they run over,
so that with ``generators_only`` each is its kernel's worst on the generators), the
factored descent one block row at a time (``gns_blocks``, ``module_groups``,
``covariant_groups``), the module axioms on the dense tensors (``module_axioms``, with
``pair_defect``, a pair kernel with callable targets, and positivity per component of
the dense adjacency), the crossed structure constants through the generic ``multiply``
(``reference_structure``), a dilation's dense images (``dilation_images``, and back to
parts by ``dilation_from_images``) and the plain rows on them (``plain_rows``), the
integral form from those images (``integral_stinespring``), the crossed identity one (t, i)
at a time (``factored_identity_defect``), ``seeded_rep`` as a chain of direct sums
(``composed_seeded_rep``), least squares by ``np.linalg.lstsq``, a dilation's conjugated
competitor (``conjugated``), and ``watch_dense_forms``, which records each dense form a
run builds.
"""

import functools
import math
from types import SimpleNamespace

import numpy as np

import builders
from covstine import bounds, cli, cpmaps, crossed, cstar, hilbmod, stinespring
from covstine import numkernel as nk
from covstine.errors import NotIntertwiningError


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
    return np.stack([np.stack([cm.inner(x, y).reshape(d_a) for y in basis(cm)]) for x in basis(cm)])


def reference_action(cm):
    """``act[(r, j), (s, k)]``: coordinates of ``(delta_r x_j) e_(s,k)``."""
    return np.stack([np.stack([cm.act(x, f).reshape(cm.dim) for f in basis(cm.algebra)]) for x in basis(cm)])


def crossed_algebra_check(calg):
    """``(assoc, anti, involutive, unital)``: the crossed-algebra axioms on every basis
    triple, on the dense structure tensor and stars of the generic operations."""
    g, n, d = calg.group.order, calg.base.dim, calg.dim
    struct = reference_structure(calg)
    assoc = max(nk.maxabs((row @ struct.reshape(d, d * d)).reshape(d, d, d) - struct @ row) for row in struct)
    star = lambda f: calg.star(f.reshape(g, n)).reshape(d)  # noqa: E731
    stars = np.stack([star(e) for e in basis(calg)], axis=1)  # column i: the star of basis element i
    involutive = nk.maxabs(np.stack([star(stars[:, i]) for i in range(d)]) - np.eye(d))
    anti = max(
        nk.maxabs(star(struct[i, j]) - calg.multiply(stars[:, j].reshape(g, n), stars[:, i].reshape(g, n)).reshape(d))
        for i in range(d)
        for j in range(d)
    )
    unit = builders.crossed_unit(calg).reshape(d)
    unital = max(
        nk.maxabs(np.einsum("p,pjq->jq", unit, struct) - np.eye(d)),
        nk.maxabs(np.einsum("ipq,p->iq", struct, unit) - np.eye(d)),
    )
    return assoc, anti, involutive, unital


def crossed_module_check(cm):
    """``(axiom, symmetry)``: ``<xhat, yhat f> = <xhat, yhat> f`` and ``<xhat, yhat>* =
    <yhat, xhat>`` on every basis triple, on the dense tensors of the generic operations."""
    struct = reference_structure(cm.algebra)
    inner, act = reference_inner(cm), reference_action(cm)
    d_x, d_a = cm.dim, cm.algebra.dim
    axiom = max(nk.maxabs(act @ row - (row @ struct.reshape(d_a, -1)).reshape(d_x, d_a, d_a)) for row in inner)
    g, n = cm.group.order, cm.algebra.base.dim
    star = lambda f: cm.algebra.star(f.reshape(g, n)).reshape(d_a)  # noqa: E731
    starred = np.stack([np.stack([star(inner[a, b]) for b in range(d_x)]) for a in range(d_x)])
    return axiom, nk.maxabs(starred - inner.transpose(1, 0, 2))


def dense_gns_gram(phi):
    """The (N h)^2 GNS Gram ``phi(E_k* E_l)[i, j]``, symmetrized, on the algebra's embedding."""
    algebra, size = _algebra(phi.algebra.blocks), phi.algebra.dim * phi.space_dim
    products = np.einsum("ka,alc->klc", algebra.star(np.eye(algebra.dim)), algebra.mul)  # E_k* E_l
    return _hermitian(np.tensordot(products, phi.images, axes=(2, 0)).transpose(0, 2, 1, 3).reshape(size, size))


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
    module = hilbmod.HilbertModule.from_tensors(
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
    fullness = nk.psd_rank(nk.adjoint(flat) @ flat)

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
        trace_rank.rank == m,
        fullness.rank,
        n_dim,
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
    """The intertwiner gate of ``cpmaps.random_covariant_cp``, one t at a time."""
    for t in range(rep_v.group.order):
        left = rep_v.mats[t] @ v - v @ u.mats[t]
        if nk.maxabs(left) > nk.RESIDUAL_TOL * max(1.0, nk.maxabs(v)):
            raise NotIntertwiningError(f"v_t V = V u_t fails at t={t} by {nk.maxabs(left):.3e}")
        right = rep_w.mats[t] @ w - w @ u_prime.mats[t]
        if nk.maxabs(right) > nk.RESIDUAL_TOL * max(1.0, nk.maxabs(w)):
            raise NotIntertwiningError(
                f"w_t W = W u'_t fails at t={t} by {nk.maxabs(right):.3e}"
            )


def generators_only(monkeypatch):
    """Switch the package's bound off: with ``bounds._down_tree`` at 0 and no bound
    replaced by the exact worst over every t, each group-indexed row is its kernel's
    worst on the generators, which the forms here give on ``at = group.tree.generators``."""
    monkeypatch.setattr(bounds, "_down_tree", lambda group, *_: np.zeros(group.order))
    monkeypatch.setattr(bounds, "BOUND_TOL", np.inf)


def _elements(count, at):
    return range(count) if at is None else at


def group_law(group, mats, at=None):
    """``(hom, unit)`` of ``hilbmod.group_law``, one s of ``at`` (every s by default) at a time."""
    hom = max(
        (nk.maxabs(mats[s] @ mats - mats[group.mult[s]]) for s in _elements(group.order, at)), default=0.0
    )
    return hom, nk.maxabs(mats[group.identity] - nk.eye(mats.shape[1]))


def unitarity(mats, at=None):
    """Worst ``|m_t* m_t - I|`` over the t of ``at`` (every t by default)."""
    return max(
        (nk.maxabs(nk.adjoint(mats[t]) @ mats[t] - nk.eye(mats.shape[1])) for t in _elements(len(mats), at)),
        default=0.0,
    )


def intertwining(left, x, right, at=None):
    """Worst ``|left_t X - X right_t|`` over the t of ``at`` (every t by default)."""
    return max((nk.maxabs(left[t] @ x - x @ right[t]) for t in _elements(len(left), at)), default=0.0)


def covariance(transport, images, left, right):
    """``hilbmod.covariance_defect`` on the whole (g, m, K, H) stack at once, from the
    matrices of the transport and the representations, or the generators' rows of them."""
    transported = coords_apply(transport.transpose(0, 2, 1), images)
    conjugated = left[:, None] @ images[None] @ np.conj(right).transpose(0, 2, 1)[:, None]
    return nk.maxabs(transported - conjugated)


def algebra_action(group, algebra, alpha, at=None):
    """``(law, mult, star)`` of ``hilbmod.algebra_action_residuals``, one t of ``at`` at a time."""
    law = max(group_law(group, alpha, at))
    product = cstar.product_index(algebra)
    auto_mult = 0.0
    for t in _elements(group.order, at):
        images = alpha[t].T
        prod_of_images = block_products(algebra, images, images)
        auto_mult = max(auto_mult, nk.maxabs(prod_of_images - pad_zero(images)[product]))
    perm, on = cstar.star_permutation(algebra), alpha[list(_elements(group.order, at))]
    return law, auto_mult, nk.maxabs(on[:, :, perm] - np.conj(on[:, perm, :]))


def dynamical_system(sys, at=None):
    """The fields of ``hilbmod.check_dynamical_system``, one t of ``at`` at a time;
    invertibility on every t."""
    group, module, eta, alpha = sys.group, sys.module, sys.eta, sys.alpha
    alpha_law, auto_mult, auto_star = algebra_action(group, module.algebra, alpha, at)
    law = max(max(group_law(group, eta, at)), alpha_law)
    equivariance = compatibility = 0.0
    for t in _elements(group.order, at):
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
    """``(images, V)`` of ``stinespring.gns_construct`` from its blocks: ``pi(E_cd)``
    placed one E_k at a time as the identity from block row d onto block row c,
    V one block row at a time."""
    h = gns.cp_map.space_dim
    images = np.zeros((gns.cp_map.algebra.dim, gns.dim, gns.dim), dtype=np.complex128)
    v = np.zeros((gns.dim, h), dtype=np.complex128)
    for n, unit, col, block in block_spans(gns):
        kept = block.rank
        for c in range(n):
            rows = slice(col + c * kept, col + (c + 1) * kept)
            v[rows] = block.F[:, c * h : (c + 1) * h]
            for d in range(n):
                images[unit + c * n + d, rows, col + d * kept : col + (d + 1) * kept] = nk.eye(kept)
    return images, v


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
    # the codomain compressions W u'_t W* and the leak of u'_t out of the codomain span
    proj, invariance = nk.adjoint(base.W) @ base.W, 0.0
    w_mats = np.zeros((group.order, base.dim_codomain, base.dim_codomain), dtype=np.complex128)
    for t in range(group.order):
        off = (nk.eye(len(proj)) - proj) @ cov.u_prime.mats[t] @ proj
        invariance = max(invariance, nk.maxabs(off))
        w_mats[t] = base.W @ cov.u_prime.mats[t] @ nk.adjoint(base.W)
    return v_mats, gram_residual, worst, w_mats, invariance


def dilation_images(dilation):
    """The dense images ``pi(x_i)``, (m, dim_codomain, gns.dim), of a
    ``stinespring.StinespringDilation``: each part scattered to the coordinates of its
    block row, the reference for ``stinespring._ranged(dilation, I)``.  The one dense
    form of a dilation the tests read."""
    (xs, rows, maps), gns = dilation.parts, dilation.gns
    images = np.zeros((dilation.cp_map.module.dim, dilation.dim_codomain, gns.dim + 1), dtype=np.complex128)
    images[xs[:, None], :, gns.row_cols[rows]] = maps.transpose(0, 2, 1)
    return images[:, :, :-1].copy()


def conjugated(dilation, rng):
    """``(competitor, r1, r2)``: the dilation conjugated by Haar unitaries drawn from ``rng``,
    ``r1`` on its GNS space and ``r2`` on its codomain: images ``r2 pi(x) r1*``, ``r1 V``,
    ``r2 W`` and, of a ``CovariantDilation``, ``r1 v_t r1*`` and ``r2 w_t r2*``."""
    base = getattr(dilation, "base", dilation)
    r1, r2 = nk.haar_unitary(rng, base.gns.dim), nk.haar_unitary(rng, base.dim_codomain)
    images = np.einsum("ab,ibc,dc->iad", r2, dilation_images(base), np.conj(r1))
    reps = {}
    for key, r in (("v", r1), ("w", r2)) if base is not dilation else ():
        rep = getattr(dilation, key)
        reps[key] = hilbmod.UnitaryRep(rep.group, rep.dim, r @ rep.mats @ nk.adjoint(r))
    return stinespring.AltDilation(images, r1 @ base.gns.V, r2 @ base.W, **reps), r1, r2


def watch_dense_forms(monkeypatch):
    """The list of dense forms a run builds, by name, from the patches it makes with
    ``monkeypatch``: ``rep`` at each first read of ``GnsTriple.rep``, and ``images`` at each
    ``stinespring._ranged`` of a dilation on the identity, the (m, dim_codomain, gns.dim)
    stack of its dense images (the reconstruction's ``_ranged(dilation, V)`` is not one)."""
    built = []
    build = vars(stinespring.GnsTriple)["rep"].func

    def reading(gns):
        built.append("rep")
        return build(gns)

    counted = functools.cached_property(reading)
    counted.__set_name__(stinespring.GnsTriple, "rep")
    monkeypatch.setattr(stinespring.GnsTriple, "rep", counted)
    ranged = stinespring._ranged

    def ranging(dilation, right):
        dim = dilation.gns.dim
        if right.shape == (dim, dim) and right is not dilation.gns.V and (right == np.eye(dim)).all():
            built.append("images")
        return ranged(dilation, right)

    monkeypatch.setattr(stinespring, "_ranged", ranging)
    return built


def plain_rows(phi, dilation):
    """The plain rows of ``stinespring.verify_dilation`` on the dense forms
    ``gns.rep.images`` and ``dilation_images(dilation)``, as it computed them before it
    read the block rows of ``V`` and the dilation's parts: ``(residuals, ranks)`` with
    ``ranks`` the rank profiles of ``gns_minimality``, ``range_density`` and
    ``corange_density``."""
    gns, images = dilation.gns, dilation_images(dilation)
    rebuilt = nk.sandwich(gns.V, gns.rep.images, gns.V)
    residuals = {
        "gns_reconstruction": nk.maxabs(rebuilt - phi.companion.images),
        "reconstruction": nk.maxabs(nk.sandwich(dilation.W, images, gns.V) - phi.images),
        "representation_identity": hilbmod.identity_defect(images, phi.module, gns.rep.images),
    }
    ranks = {
        "gns_minimality": nk.numerical_rank(hilbmod.range_stack(gns.rep.images, gns.V)),
        "range_density": nk.numerical_rank(hilbmod.range_stack(images, gns.V)),
        "corange_density": nk.numerical_rank(hilbmod.corange_stack(images, dilation.W)),
    }
    return residuals, ranks


def dilation_from_images(cp_map, gns, dim_codomain, w_map, images, codomain_gram_eigenvalues):
    """The ``stinespring.StinespringDilation`` whose dense images are ``images``,
    (m, dim_codomain, gns.dim): every block row of every x_i that has a nonzero
    entry is a part, listed by (x_i, row)."""
    images = np.asarray(images, dtype=np.complex128)
    rows = np.pad(images, ((0, 0), (0, 0), (0, 1)))[:, :, gns.row_cols]  # (m, K', E, width)
    xs, live = rows.any(axis=(1, 3)).nonzero()
    parts = stinespring.DilationParts(xs, live, rows[xs, :, live])
    return stinespring.StinespringDilation(
        cp_map, gns, dim_codomain, w_map, parts, codomain_gram_eigenvalues
    )


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


def inner_blocks(cm):
    """``A[t, i, j] = alpha_{t^-1}(<x_i, x_j>)``, shape (g, m, m, N): the dense inner tensor's
    row (t, i) against the columns (t, j), which sit at slot e."""
    g, m, n = cm.group.order, cm.module.dim, cm.algebra.base.dim
    dense = crossed_inner(cm.system).reshape(g, m, g, m, g, n)[..., cm.group.identity, :]
    return np.stack([dense[t, :, t] for t in range(g)])


def factored_identity_defect(cm, images, companion, mats):
    """``crossed._identity_defect``, one (t, i) at a time, ``P_ij = images[i]* images[j]``
    formed once per i, against the ``inner_blocks`` of the dense inner tensor."""
    group = cm.group
    g, m, h = group.order, len(images), mats.shape[-1]
    star = np.conj(mats).swapaxes(1, 2).copy()
    columns = mats.swapaxes(0, 1).reshape(h, g * h)
    slotted = mats[group.mult[group.inv]].swapaxes(1, 2).reshape(g, h, g * h)
    coords = companion.reshape(len(companion), h * h)
    blocks = inner_blocks(cm)
    worst = 0.0
    for i in range(m):
        pairs = nk.adjoint(images[i]) @ images
        for t in range(g):
            lhs = (star[t] @ pairs).reshape(m * h, h) @ columns
            rhs = (blocks[t, i] @ coords).reshape(m * h, h) @ slotted[t]
            worst = max(worst, nk.maxabs(lhs - rhs))
    return worst


def integral_stinespring(cov, dilation):
    """The integral form of a covariant dilation built densely: the factorization
    residual of the induced map and the range and corange rank profiles of the
    integrated dilation images ``pi(x_i) v_t``, each from its own integration of
    the dense images, where ``crossed.induced_cp`` reads all three off the parts."""
    base, dense = dilation.base, dilation_images(dilation.base)
    images = crossed._integrated(cov.base.images, cov.u.mats)
    rebuilt = nk.sandwich(base.W, crossed._integrated(dense, dilation.v.mats), base.gns.V)
    residual = nk.maxabs(rebuilt - images)
    dil_images = crossed._integrated(dense, dilation.v.mats)
    ranged = nk.numerical_rank(hilbmod.range_stack(dil_images, base.gns.V))
    coranged = nk.numerical_rank(hilbmod.corange_stack(dil_images, base.W))
    return residual, ranged, coranged


def least_squares(a, b):
    """The minimum-norm least-squares solution of ``a @ x = b`` by ``np.linalg.lstsq``."""
    return np.linalg.lstsq(a, b, rcond=None)[0]


# ---------------------------------------------------------------------------
# The whole-run oracle: every row of every kind, the dense way
# ---------------------------------------------------------------------------

# The rows a run reports as stated bounds: formed on the generators and bounded on
# every t by ``bounds.checked`` or a group law, or derived from other rows (the crossed
# axioms, a standard action's rows).  Each must be at least its dense value; every
# other row is exact.
BOUNDED = frozenset(
    {
        "input_covariance", "companion_covariance", "dynamical_system",
        "domain_unitaries_group_law", "domain_unitaries_unitarity",
        "codomain_unitaries_group_law", "codomain_unitaries_unitarity",
        "intertwine_V", "intertwine_W", "covariant_representation", "companion_covariant_rep",
        "crossed_algebra_axioms", "crossed_module_axioms",
        "covariant_v_residual", "covariant_w_residual",
    }
)


class Refused(Exception):
    """A gate refuses the input before any certificate: the run exits 2.  A leak gate keeps its ``leak``."""

    def __init__(self, what: str, leak: float | None = None):
        super().__init__(what)
        self.leak = leak


def certificate(res):
    """``(exit code, certificate)`` of the run of a ``cli.ResolvedScenario``, every row
    formed densely: over every t and every pair, with dense Grams, the algebra's products
    on its block-diagonal embedding and the crossed rows from the defining formulas of the
    crossed operations.  The certificate is None where a gate refuses the input (exit 2).

    From the package it reads only the resolved data, ``stinespring.Certificate`` to hold
    the rows, ``nk.haar_unitary`` for ``uniqueness``'s seeded competitor, the rank rule
    ``nk.spectral_rank``, the one-line numpy helpers ``nk.maxabs``, ``eye`` and ``adjoint``, and
    the gates' tolerances and ``cli.CROSSED_AXIOM_LIMIT``.
    """
    run = {"verify": _verify, "crossed": _crossed, "uniqueness": _uniqueness}.get(res.kind, _dilate)
    try:
        cert = run(res)
    except Refused:
        return 2, None
    return (0 if cert.passed else 1), cert


def _worst(values) -> float:
    return float(np.abs(np.asarray(values)).max(initial=0.0))


def _hermitian(m):
    return (m + np.conj(m).swapaxes(-1, -2)) / 2.0


def _spectrum(m) -> np.ndarray:
    """The eigenvalues of the Hermitian part of ``m``, descending."""
    return np.linalg.eigvalsh(_hermitian(m))[::-1]


def _rank(stack) -> int:
    """The rank of the column span of ``stack``, on the spectrum of its smaller Gram."""
    small = stack @ np.conj(stack).T if stack.shape[0] <= stack.shape[1] else np.conj(stack).T @ stack
    return nk.spectral_rank(_spectrum(small))[0] if stack.size else 0


def _columns(stack) -> np.ndarray:  # [s_0 s_1 ...]: the maps of a (count, rows, cols) stack side by side
    return stack.transpose(1, 0, 2).reshape(stack.shape[1], stack.shape[0] * stack.shape[2])


def _star(stack) -> np.ndarray:
    return np.conj(stack).swapaxes(-1, -2)


@functools.cache
def _algebra(blocks: tuple) -> "_Algebra":
    return _Algebra(blocks)


class _Algebra:
    """A block algebra by its block-diagonal embedding: coordinates in, products and
    stars of the embedded matrices, coordinates out; ``_algebra`` builds one per block sizes."""

    def __init__(self, blocks):
        corners = np.cumsum((0,) + blocks)
        units = [corner + np.divmod(np.arange(n * n), n) for n, corner in zip(blocks, corners)]
        self.rows, self.cols = np.concatenate(units, axis=1)
        self.size, self.dim = int(corners[-1]), int(np.square(blocks).sum())
        self.unit = self.coords(np.eye(self.size))
        units = self.embed(np.eye(self.dim))
        self.mul = self.coords(units[:, None] @ units[None])  # [k, l]: E_k E_l

    def embed(self, coords):
        out = np.zeros(coords.shape[:-1] + (self.size, self.size), dtype=np.complex128)
        out[..., self.rows, self.cols] = coords
        return out

    def coords(self, mats):
        return mats[..., self.rows, self.cols]

    def product(self, a, b):
        return self.coords(self.embed(a) @ self.embed(b))

    def star(self, a):
        return self.coords(_star(self.embed(a)))


def _input_rows(phi, cov, gns) -> dict:
    module, companion = phi.module, phi.companion.images
    algebra = _algebra(module.algebra.blocks)
    starred = np.tensordot(algebra.star(np.eye(algebra.dim)), companion, axes=(1, 0))  # phi(E_k*)
    rows = {
        "input_identity": identity_defect(phi.images, module.inner, companion),
        "companion_cp_defect": max(0.0, -float(gns.spectrum.min(initial=0.0))),
        "companion_hermiticity": _worst(starred - _star(companion)),
    }
    if cov is not None:
        rows.update(_covariance_rows(cov))
    return rows


def _covariance_rows(cov) -> dict:
    system, phi = cov.system, cov.base
    return {
        "input_covariance": covariance(system.eta, phi.images, cov.u_prime.mats, cov.u.mats),
        "companion_covariance": covariance(system.alpha, phi.companion.images, cov.u.mats, cov.u.mats),
    }


def dense_gns(companion, spectra=None):
    """The GNS data of a companion: the spectrum of its dense Gram
    ``G[(k, i), (l, j)] = phi(E_k* E_l)[i, j]``, which decides the rank and its cutoff, and
    ``F``, ``L`` placed whole from each block's Choi eigenvectors (``spectra``, eigensolved
    here by default), with ``pi(E_k) = F (E_k (x) I) L`` as ``rep`` and ``V = F (1 (x) I)``.
    ``cp`` is the verdict of the CP gate on the Choi matrices, ``psd`` that of the Gram's cutoff."""
    images, h, algebra = companion.images, companion.space_dim, _algebra(companion.algebra.blocks)
    n_dim, spectrum = algebra.dim, _spectrum(dense_gns_gram(companion))
    cutoff = nk.spectral_rank(spectrum)[1]
    cp, blocks, offset = True, [], 0
    for b, n in enumerate(companion.algebra.blocks):
        choi = images[offset : offset + n * n].reshape(n, n, h, h).transpose(2, 0, 3, 1).reshape(n * h, n * h)
        if spectra is None:
            values, vectors = np.linalg.eigh(_hermitian(choi))
            values, vectors = values[::-1].copy(), vectors[:, ::-1].copy()
        else:
            values, vectors = spectra[b]
        scale = max(1.0, values[0], -values[-1])
        hermitian = np.linalg.norm(choi - np.conj(choi).T) <= nk.REL_TOL * max(1.0, np.linalg.norm(choi))
        cp = cp and hermitian and values[-1] >= -max(nk.REL_TOL * scale, nk.ABS_FLOOR)
        kept = int(np.count_nonzero(values > cutoff))
        basis = vectors[:, :kept].reshape(h, n, kept).transpose(1, 0, 2).reshape(n * h, kept)
        blocks.append((n, kept, np.sqrt(values[:kept]), basis))
        offset += n * n
    rank = sum(n * kept for n, kept, _, _ in blocks)
    f_map = np.zeros((rank, n_dim * h), dtype=np.complex128)
    lift = np.zeros((n_dim * h, rank), dtype=np.complex128)
    row = col = 0
    for n, kept, roots, basis in blocks:
        rows, cols = slice(row, row + n * n * h), slice(col, col + n * kept)
        f_map[cols, rows] = np.kron(np.eye(n), roots[:, None] * np.conj(basis).T)
        lift[rows, cols] = np.kron(np.eye(n), basis / roots[None, :])
        row, col = rows.stop, cols.stop
    left = np.kron(algebra.mul.transpose(0, 2, 1), np.eye(h))  # [k]: E_l (x) h -> E_k E_l (x) h
    unit = np.kron(algebra.unit[:, None], np.eye(h))
    psd = not (spectrum.size and spectrum[-1] < -cutoff)
    return SimpleNamespace(cp=cp, psd=psd, spectrum=spectrum, F=f_map, L=lift, rep=f_map @ left @ lift, V=f_map @ unit)


def dense_dilation(phi, gns):
    """The minimal dilation of ``phi`` through ``gns`` (``dense_gns``) in dense form: W from
    the eigenvectors of the codomain Gram of ``Phi(X) H``, the raw map ``E_l (x) h ->
    Phi(x_i . E_l) h`` of each x_i over the whole action tensor, lifted by L, and its images
    ``W (raw map) L``; raises ``Refused`` at the leak gate of ``dilate_module_cp``."""
    module, (dim_h, dim_k) = phi.module, phi.space_dims
    span = _columns(phi.images)
    values, vectors = np.linalg.eigh(_hermitian(span @ np.conj(span).T))
    w_map = np.conj(vectors[:, ::-1][:, : nk.spectral_rank(values[::-1])[0]]).T
    raw = np.tensordot(module.action, phi.images, axes=(2, 0))  # [i, l]: Phi(x_i . E_l)
    raw = raw.transpose(0, 2, 1, 3).reshape(module.dim, dim_k, module.algebra.dim * dim_h)
    lifted = raw @ gns.L
    leak = _leak(raw, lifted @ gns.F)
    if leak > nk.RESIDUAL_TOL:
        raise Refused("module maps do not descend", leak)
    dims = {"H": dim_h, "K": dim_k, "H_dilation": len(gns.F), "K_dilation": len(w_map)}
    return SimpleNamespace(gns=gns, W=w_map, images=w_map @ lifted, dims=dims)


def dense_covariant(cov, dil):
    """``dil`` (``dense_dilation``) with the group unitaries of ``dilate_covariant``:
    ``v_t = F (alpha_t (x) u_t) L`` and ``w_t = W u'_t W*`` on every t, the Gram-preservation
    and invariance rows; raises ``Refused`` at its leak and invariance gates."""
    gns, w_map = dil.gns, dil.W
    raw = gns.F @ np.stack([np.kron(a, u) for a, u in zip(cov.system.alpha, cov.u.mats)])
    dil.v = raw @ gns.L
    leak = _leak(raw, dil.v @ gns.F)
    if leak > nk.RESIDUAL_TOL:
        raise Refused("group unitaries do not descend", leak)
    gram = np.conj(gns.F).T @ gns.F
    dil.gram_preservation = _worst(_star(raw) @ raw - gram)  # (alpha_t (x) u_t)* G (alpha_t (x) u_t) - G
    proj = np.conj(w_map).T @ w_map
    dil.invariance = _worst((np.eye(len(proj)) - proj) @ cov.u_prime.mats @ proj)
    if dil.invariance > nk.RESIDUAL_TOL:
        raise Refused("u' leaves the codomain span")
    dil.w = w_map @ cov.u_prime.mats @ np.conj(w_map).T
    return dil


def _leak(raw, rebuilt) -> float:
    """Worst ``|raw - raw L F|`` of each raw map over max(1, |raw|)."""
    defects = np.abs(raw - rebuilt).max(axis=(1, 2), initial=0.0)
    return _worst(defects / np.maximum(1.0, np.abs(raw).max(axis=(1, 2), initial=0.0)))


def _dilation(phi, cov):
    """The dense dilation of a run, covariant when ``cov`` is given, behind the gates of
    ``stinespring.dilate_covariant`` and ``dilate_module_cp``: covariance, the CP test and
    the Gram's cutoff, the defining identity, fullness, and the leaks."""
    if cov is not None and max(_covariance_rows(cov).values()) > nk.PRECONDITION_TOL:
        raise Refused("not covariant")
    module, gns = phi.module, dense_gns(phi.companion)
    if not (gns.cp and gns.psd):
        raise Refused("the companion is not CP")
    if identity_defect(phi.images, module.inner, phi.companion.images) > nk.PRECONDITION_TOL:
        raise Refused("the defining identity fails")
    if _rank(module.inner.reshape(module.dim**2, module.algebra.dim)) < module.algebra.dim:
        raise Refused("the module is not full")
    dil = dense_dilation(phi, gns)
    return dil if cov is None else dense_covariant(cov, dil)


def _dilate(res, covariant: bool | None = None):
    """``dilate``, or ``dilate-covariant`` (``covariant``, by default read off the kind)."""
    cov = res.cov if (res.kind == "dilate-covariant" if covariant is None else covariant) else None
    phi, dil = res.phi, _dilation(res.phi, cov)
    gns, images, w_map = dil.gns, dil.images, dil.W
    cert = stinespring.Certificate(res.tolerance, dims=dict(dil.dims))
    cert.residuals.update(_input_rows(phi, cov, gns))
    cert.residuals["gns_reconstruction"] = _worst(_star(gns.V) @ gns.rep @ gns.V - phi.companion.images)
    cert.residuals["reconstruction"] = _worst(_star(w_map) @ images @ gns.V - phi.images)
    cert.residuals["representation_identity"] = identity_defect(images, phi.module.inner, gns.rep)
    cert.residuals["coisometry_rows"] = _worst(w_map @ _star(w_map) - np.eye(len(w_map)))
    cert.ranks["gns_minimality"] = (_rank(_columns(gns.rep @ gns.V)), len(gns.F))
    cert.singular_values["gns_gram"] = np.sqrt(np.clip(gns.spectrum, 0.0, None))
    cert.ranks["range_density"] = (_rank(_columns(images @ gns.V)), len(w_map))
    cert.ranks["corange_density"] = (_rank(_columns(_star(images) @ w_map)), len(gns.F))
    if cov is not None:
        group, system, v, w = cov.system.group, cov.system, dil.v, dil.w
        cert.residuals.update(
            domain_unitaries_group_law=max(group_law(group, v)),
            domain_unitaries_unitarity=unitarity(v),
            codomain_unitaries_group_law=max(group_law(group, w)),
            codomain_unitaries_unitarity=unitarity(w),
            intertwine_V=intertwining(v, gns.V, cov.u.mats),
            intertwine_W=intertwining(w, w_map, cov.u_prime.mats),
            covariant_representation=covariance(system.eta, images, w, v),
            companion_covariant_rep=covariance(system.alpha, gns.rep, v, v),
            gram_preservation=dil.gram_preservation,
            subspace_invariance=dil.invariance,
        )
    return cert


def _verify(res):
    try:
        cert = _dilate(res, covariant=res.cov is not None)
        cert.ranks["dilation_constructed"] = (1, 1)
    except Refused:
        cert = stinespring.Certificate(res.tolerance)
        cert.residuals.update(_input_rows(res.phi, res.cov, dense_gns(res.phi.companion)))
        cert.ranks["dilation_constructed"] = (0, 1)
    module = res.phi.module
    algebra = _algebra(module.algebra.blocks)
    inner, action = module.inner, module.action
    scale = max(1.0, _worst(inner))
    # <x_i, x_j . E_k> against <x_i, x_j> E_k
    moved = np.einsum("jkq,iqc->ijkc", action, inner)
    times = np.einsum("ijl,lkc->ijkc", inner, algebra.mul)
    cert.residuals["module_linearity"] = _worst(moved - times) / scale
    cert.residuals["module_symmetry"] = _worst(algebra.star(inner) - inner.transpose(1, 0, 2)) / scale
    size = module.dim * algebra.size
    gram = algebra.embed(inner).transpose(0, 2, 1, 3).reshape(size, size)  # [<x_i, x_j>] in M_m(A)
    cert.residuals["module_positivity_defect"] = max(0.0, -float(_spectrum(gram)[-1]))
    cert.ranks["module_fullness"] = (_rank(inner.reshape(module.dim**2, algebra.dim)), algebra.dim)
    if res.cov is not None:
        cert.residuals["dynamical_system"] = max(_system_rows(res.cov.system))
    return cert


def _system_rows(system) -> tuple:
    """The group laws of eta and alpha, equivariance, compatibility, and alpha's
    multiplicativity and star, each over every t (every pair)."""
    group, module, eta, alpha = system.group, system.module, system.eta, system.alpha
    algebra = _algebra(module.algebra.blocks)
    inner, action = module.inner, module.action
    transported = np.einsum("tai,abk,tbj->tijk", np.conj(eta), inner, eta, optimize=True)  # <eta_t x_i, eta_t x_j>
    pushed = np.einsum("tkl,ijl->tijk", alpha, inner)  # alpha_t(<x_i, x_j>)
    moved = np.einsum("tql,ikl->tikq", eta, action)  # eta_t(x_i . E_k)
    acted = np.einsum("tai,tlk,alq->tikq", eta, alpha, action, optimize=True)  # eta_t(x_i) . alpha_t(E_k)
    images = alpha.transpose(0, 2, 1)  # [t, k]: alpha_t(E_k)
    products = algebra.product(images[:, :, None], images[:, None])
    of_products = np.einsum("tkl,abl->tabk", alpha, algebra.mul)
    of_stars = np.einsum("tkl,ml->tmk", alpha, algebra.star(np.eye(algebra.dim)))  # alpha_t(E_m*)
    return (
        max(group_law(group, eta)),
        max(group_law(group, alpha)),
        _worst(transported - pushed),
        _worst(moved - acted),
        _worst(products - of_products),
        _worst(of_stars - algebra.star(images)),
    )


def _crossed(res):
    cov = res.cov
    dil = _dilation(cov.base, cov)
    system = cov.system
    invertible = all(_rank(m) == len(m) for m in (*system.eta, *system.alpha))
    if max(_system_rows(system)) > nk.PRECONDITION_TOL or not invertible:
        raise Refused("the action fails its axioms")
    group, module = system.group, system.module
    g, m, n_dim = group.order, module.dim, module.algebra.dim
    gns, images, phi, u = dil.gns, dil.images, cov.base, cov.u.mats
    cert = stinespring.Certificate(res.tolerance, dims=dict(dil.dims))
    cert.dims.update(crossed_algebra=g * n_dim, crossed_module=g * m)
    # the induced map e_(t,i) -> Phi(x_i) u_t and its companion e_(t,k) -> phi(E_k) u_t
    hat = (phi.images[None] @ u[:, None]).reshape(g * m, *phi.images.shape[1:])
    companion = (phi.companion.images[None] @ u[:, None]).reshape(g * n_dim, *u.shape[1:])
    inner = crossed_inner(system)
    cert.residuals["crossed_identity"] = identity_defect(hat, inner, companion)
    integrated = (images[None] @ dil.v[:, None]).reshape(g * m, *images.shape[1:])  # pi(x_i) v_t
    cert.residuals["factorization"] = _worst(_star(dil.W) @ integrated @ gns.V - hat)
    cert.ranks["integral_range_density"] = (_rank(_columns(integrated @ gns.V)), len(dil.W))
    cert.ranks["integral_corange_density"] = (_rank(_columns(_star(integrated) @ dil.W)), len(gns.F))
    if g * n_dim <= cli.CROSSED_AXIOM_LIMIT:
        cert.residuals["crossed_algebra_axioms"] = max(crossed_algebra_axioms(group, module.algebra, system.alpha))
        cert.residuals["crossed_module_axioms"] = max(crossed_module_axioms(system))
        cert.ranks["crossed_module_fullness"] = (_rank(inner.reshape(-1, g * n_dim)), g * n_dim)
    return cert


def crossed_inner(system) -> np.ndarray:
    """``<delta_t x_i, delta_r x_j> = delta_{t^-1 r} alpha_{t^-1}(<x_i, x_j>)``, dense:
    (g m, g m, g N), at crossed index ``t m + i`` and slot ``s N + k``."""
    group, module = system.group, system.module
    g, m, n_dim = group.order, module.dim, module.algebra.dim
    out = np.zeros((g, m, g, m, g, n_dim), dtype=np.complex128)
    for t in range(g):
        w = group.inv[t]
        for r in range(g):
            out[t, :, r, :, group.mult[w, r]] = module.inner @ system.alpha[w].T
    return out.reshape(g * m, g * m, g * n_dim)


def crossed_algebra_axioms(group, base, alpha) -> tuple:
    """``(assoc, anti, involutive, unital)``, as ``crossed_algebra_check``, on every basis
    triple: with ``(delta_a x)(delta_b y) = delta_ab x alpha_a(y)`` and ``(delta_a x)* =
    delta_{a^-1} alpha_{a^-1}(x*)`` both sides of each sit at one slot, where their values are
    compared, for each t and every r at once.  Associativity's sides share a left factor
    E_k, which only moves rows, so they are compared without it."""
    algebra, inv, mult = _algebra(base.blocks), group.inv, group.mult
    units, prod = np.eye(algebra.dim), algebra.product
    images = alpha.transpose(0, 2, 1)  # [t, l]: alpha_t(E_l)
    stars = algebra.star(units)  # [k]: E_k*
    inverse_stars = np.einsum("rcd,kd->rkc", alpha[inv], stars)  # [r, k]: alpha_{r^-1}(E_k*)
    involutive = _worst(algebra.star(inverse_stars) @ alpha.transpose(0, 2, 1) - units)  # e** = e
    unital = max(
        _worst(images[group.identity] - units),  # the unit on the left
        _worst(prod(units[None], (alpha @ algebra.unit)[:, None]) - units),  # and on the right
    )
    assoc = anti = 0.0
    for t in range(group.order):
        # (e_(t,k) e_(r,l)) e_(s,n) against e_(t,k) (e_(r,l) e_(s,n)), E_k left out, at [r, l, n]
        first = prod(images[t][None, :, None], images[mult[t]][:, None])
        second = prod(units[None, :, None], images[:, None]) @ alpha[t].T
        # (e_(t,k) e_(r,l))* against e_(r,l)* e_(t,k)*, at [r, k, l]
        starred = np.einsum("rcd,kld->rklc", alpha[inv[mult[t]]], prod(algebra.star(images[t])[None], stars[:, None]))
        moved = np.einsum("rcd,kd->rkc", alpha[inv], stars @ alpha[inv[t]].T)  # alpha_{r^-1} alpha_{t^-1}(E_k*)
        assoc = max(assoc, _worst(first - second))
        anti = max(anti, _worst(starred - prod(inverse_stars[:, None], moved[:, :, None])))
    return assoc, anti, involutive, unital


def crossed_module_axioms(system) -> tuple:
    """``(axiom, symmetry)``, as ``crossed_module_check``: ``<xhat, yhat f> = <xhat, yhat> f``
    and ``<xhat, yhat>* = <yhat, xhat>`` on every basis triple, by the slot of each side, as
    ``crossed_algebra_axioms``, with ``(delta_r x_j) e_(s,k) = delta_rs x_j . alpha_r(E_k)``
    and ``crossed_inner``."""
    group, module, alpha = system.group, system.module, system.alpha
    algebra, inv, mult, inner = _algebra(module.algebra.blocks), group.inv, group.mult, module.inner
    images = alpha.transpose(0, 2, 1)  # [t, l]: alpha_t(E_l)
    moved = np.einsum("rlk,jlq->rjkq", alpha, module.action)  # [r, j, k]: x_j . alpha_r(E_k)
    paired = np.einsum("rjkq,iqc->rijkc", moved, inner)  # <x_i, x_j . alpha_r(E_k)>
    mirrored = np.einsum("rcd,jid->rijc", alpha[inv], inner)  # alpha_{r^-1}(<x_j, x_i>)
    axiom = symmetry = 0.0
    for t in range(group.order):
        w = inv[t]
        pushed = inner @ alpha[w].T  # alpha_{t^-1}(<x_i, x_j>), at [r, i, j] below
        times = algebra.product(pushed[None, :, :, None], images[mult[w]][:, None, None])
        symmetric = np.einsum("rcd,ijd->rijc", alpha[mult[inv, t]], algebra.star(pushed))
        axiom, symmetry = max(axiom, _worst(paired @ alpha[w].T - times)), max(symmetry, _worst(symmetric - mirrored))
    return axiom, symmetry


def _uniqueness(res):
    if res.seed is None:
        raise Refused("uniqueness needs a seed")
    phi, cov = res.phi, res.cov
    dil = _dilation(phi, cov)
    gns, images, tol = dil.gns, dil.images, max(res.tolerance, nk.PRECONDITION_TOL)
    cert = stinespring.Certificate(res.tolerance, dims=dict(dil.dims))
    cert.residuals.update(_input_rows(phi, cov, gns))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=res.seed, spawn_key=(102,))))
    r1, r2 = nk.haar_unitary(rng, len(gns.F)), nk.haar_unitary(rng, len(dil.W))
    alt_images, alt_v, alt_w = r2 @ images @ _star(r1), r1 @ gns.V, r2 @ dil.W
    if _worst(alt_w @ _star(alt_w) - np.eye(len(alt_w))) > tol:
        raise Refused("the competing W is no coisometry")
    coranged, alt_coranged = _columns(_star(images) @ dil.W), _columns(_star(alt_images) @ alt_w)
    ranged, alt_ranged = _columns(images @ gns.V), _columns(alt_images @ alt_v)
    if (_rank(alt_ranged), _rank(alt_coranged)) != (len(alt_w), len(alt_v)):
        raise Refused("the competitor is not minimal")
    u1 = np.linalg.lstsq(coranged.T, alt_coranged.T, rcond=None)[0].T
    u2 = np.linalg.lstsq(ranged.T, alt_ranged.T, rcond=None)[0].T

    def unitary(x):
        if x.shape[0] != x.shape[1]:
            return np.inf
        return max(_worst(_star(x) @ x - np.eye(len(x))), _worst(x @ _star(x) - np.eye(len(x))))

    if max(unitary(u1), unitary(u2)) > tol:
        cert.ranks["intertwiners_unitary"] = (0, 1)
        return cert
    cert.residuals.update(
        unitarity_U1=unitary(u1),
        unitarity_U2=unitary(u2),
        intertwine_images=_worst(u2 @ images - alt_images @ u1),
        v_map_residual=_worst(alt_v - u1 @ gns.V),
        w_map_residual=_worst(alt_w - u2 @ dil.W),
        alt_reconstruction=_worst(_star(alt_w) @ alt_images @ alt_v - phi.images),
        recover_U1=_worst(u1 - r1),
        recover_U2=_worst(u2 - r2),
    )
    if cov is not None:
        alt_v_t, alt_w_t = r1 @ dil.v @ _star(r1), r2 @ dil.w @ _star(r2)
        cert.residuals["covariant_v_residual"] = intertwining(alt_v_t, u1, dil.v)
        cert.residuals["covariant_w_residual"] = intertwining(alt_w_t, u2, dil.w)
    return cert
