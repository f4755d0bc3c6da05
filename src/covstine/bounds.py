"""The scalar arithmetic of every certificate row that is a stated bound: ``Premises`` on the
generators S propagated down ``FiniteGroup.tree``, and rows derived from rows, whose docstrings
say which of their arguments are bounds.  A kernel ``(item_entries, defects)``, kept with its
object (``hilbmod``, ``crossed``), forms ``defects(s)`` at an index array s of elements."""

from __future__ import annotations

import contextlib
import contextvars
import math
from typing import NamedTuple

import numpy as np

from . import numkernel as nk

# A bound is reported up to a tenth of the default gate; above, the row is its exact worst over
# every t, so a verdict at a tolerance of BOUND_TOL or more is exact, though the gains ||m_s||
# compound along words (a module basis of condition 180 bounds eta's law by 6e-4, 2e-13 exact).
BOUND_TOL = 0.1 * nk.RESIDUAL_TOL
_tolerance = contextvars.ContextVar("tolerance", default=nk.RESIDUAL_TOL)


@contextlib.contextmanager
def gated(tolerance: float):
    """Inside, a bound is reported up to ``exact_limit()``, a tenth of ``tolerance`` and at most
    BOUND_TOL, so every verdict at ``tolerance`` is exact; at the default gate nothing changes."""
    token = _tolerance.set(tolerance)
    try:
        yield
    finally:
        _tolerance.reset(token)


def exact_limit() -> float:  # min(BOUND_TOL, tolerance / 10), as BOUND_TOL is a tenth of the gate
    return BOUND_TOL * min(1.0, _tolerance.get() / nk.RESIDUAL_TOL)


def higham(k: int, u: float = 2.0**-53) -> float:
    """``gamma_k = k u / (1 - k u)`` of k roundings to unit u, 0 where nothing rounds (N. J. Higham,
    *Accuracy and Stability of Numerical Algorithms*, SIAM 2002, §3.1, 3.5-3.6): a complex product
    is within ``sqrt(2) gamma_2`` of its value relative, and a complex sum of k products within
    ``gamma_{k+2}`` times the sum of their magnitudes, nested sums adding their k."""
    return k * u / (1 - k * u)


class Premises(NamedTuple):
    """Operator-norm bounds ``intertwining_bound`` reads of a map t -> m_t, as scalars:
    ``gains[k] >= ||m_s||`` for s the k-th generator, ``edges[i] >= ||m_s m_t' - m_t||`` on
    the i-th edge (t, k, t') of ``group.tree``, ``unit >= ||m_e - I||`` and ``norms[t] >= ||m_t||``."""

    gains: list
    edges: list
    unit: float
    norms: list

    def times(self, other: "Premises", group) -> "Premises":
        """The premises of ``m_t (x) n_t``, or of any map with the product norm, such as
        ``Y -> m_t Y n_t*``: with ``m_s m_t' = m_t + E`` and ``n_s n_t' = n_t + F`` on an
        edge, ``(m_t + E) (x) (n_t + F) - m_t (x) n_t = E (x) (n_t + F) + m_t (x) F``."""
        m, n, edges = self.norms, other.norms, zip(group.tree.edges, self.edges, other.edges)
        return Premises(
            [a * b for a, b in zip(self.gains, other.gains)],
            [e * (n[t] + f) + m[t] * f for (t, _, _), e, f in edges],
            self.unit + other.unit + self.unit * other.unit,
            [a * b for a, b in zip(m, n)],
        )


class GroupLaw(NamedTuple):
    hom: float  # bounded on every pair, exact above exact_limit()
    unit: float
    unitarity: tuple  # (worst, norms) of m_s* m_s - I on the generators
    premises: Premises


def _largest(values: list) -> float:  # inf where one is NaN: a NaN or inf premise
    return math.inf if any(v != v for v in values) else max(values)


def _down_tree(group, start: float, gains: list, steps: list) -> list:
    """``x[e] = start`` and ``x[t] = gains[k] x[t'] + steps[i]`` on the i-th edge (t, k, t')
    of ``group.tree``."""
    x = [start] * group.order
    for (t, k, up), step in zip(group.tree.edges, steps):
        x[t] = gains[k] * x[up] + step
    return x


def exact_above(group, bound: float, kernels: list) -> float:
    """``bound`` where it is at most ``exact_limit()``, else the exact worst of the ``kernels``
    over every t."""
    if bound <= exact_limit():
        return bound
    every = np.arange(group.order)
    return max(nk.stack_max(group.order, entries, lambda span: defects(every[span])) for entries, defects in kernels)


def group_law(group, edges: tuple, unitarity: tuple, unit: tuple, kernels: list) -> GroupLaw:
    """The law of t -> m_t from exact (worst entry, Frobenius norms) on S: ``edges`` of
    ``m_s m_t - m_st`` (``eps[k][t]``, s the k-th generator; ``kernels`` form it on every s),
    ``unitarity`` of ``m_s* m_s - I`` (rho) and ``unit`` of ``m_e - I`` (u).

    ``||m_s||^2 = ||m_s* m_s|| <= 1 + rho_s``, and down the tree ``||m_e|| <= 1 + u`` and
    ``||m_t|| <= ||m_s|| ||m_t'|| + eps_{s,t'}``: the ``Premises``.  With a = s a', ``m_a m_b -
    m_ab = m_s (m_a' m_b - m_a'b) - (m_s m_a' - m_a) m_b + (m_s m_a'b - m_ab)``, so every pair's
    defect is at most ``D_a <= ||m_s|| D_a' + eps_{s,a'} M + max_b eps_{s,b}``, from ``D_e = u M``,
    M the largest norm.  The unit row is exact.
    """
    (hom, eps), tree = edges, group.tree.edges
    u, gains, steps = unit[1], [math.sqrt(1 + r) for r in unitarity[1]], [eps[k][up] for _, k, up in tree]
    premises = Premises(gains, steps, u, _down_tree(group, 1 + u, gains, steps))
    most, widest = max(premises.norms), [max(row) for row in eps]
    pairs = _down_tree(group, u * most, gains, [eps[k][up] * most + widest[k] for _, k, up in tree])
    return GroupLaw(exact_above(group, max(hom, _largest(pairs)), kernels), unit[0], unitarity, premises)


def intertwining_bound(group, left: Premises, right: Premises, defects: tuple, size: float) -> float:
    """Bound on the worst entry of ``D_t = L_t X - X R_t`` over every t, from ``defects``,
    the ``(worst, norms)`` of D_s on the generators (``checked``), and ``||X|| = size``.

    Each identity checked on the generators has this form, L and R homomorphisms:
    covariance (X the images, R the transport, L ``Y -> u'_t Y u_t*``), intertwining,
    equivariance (X the inner tensor, L alpha, R ``conj(eta) (x) eta``), compatibility
    (X the action, L eta, R ``eta (x) alpha``), multiplicativity (X the n_b^3 structure
    constants, L alpha, R ``alpha (x) alpha``), the star (X the star permutation, L and
    R alpha) and unitarity (X = I, L the identity, R ``Y -> u_t* Y u_t``).  On the edge into
    t = s t', with ``L_s L_t' = L_t + E`` and ``R_s R_t' = R_t + F``,

        D_t = L_s D_t' + D_s R_t' - E X + X F,

    so in Frobenius norms ``||D_t|| <= ||L_s|| ||D_t'|| + ||D_s|| ||R_t'|| + (||E|| + ||F||) size``
    from ``D_e = (L_e - I) X - X (R_e - I)``, ``||D_e|| <= (u_L + u_R) size``.  No entry
    exceeds the Frobenius norm; the exact worst on S is kept where rounding puts the
    bound below it.  The bound is 0 when every premise is, and inf when one is inf or NaN.
    """
    (worst, norms), edges = defects, zip(group.tree.edges, left.edges, right.edges)
    steps = [norms[k] * right.norms[up] + size * (e + f) for (_, k, up), e, f in edges]
    return max(worst, _largest(_down_tree(group, size * (left.unit + right.unit), left.gains, steps)))


def bounded(group, left: Premises, right: Premises, defects: tuple, size: float, kernels: list) -> float:
    """``intertwining_bound`` from ``defects`` on the generators, or ``exact_above`` it by ``kernels``."""
    return exact_above(group, intertwining_bound(group, left, right, defects, size), kernels)


def checked(group, left: Premises, right: Premises, kernels: list, size: float) -> float:
    """``bounded`` from the (worst, Frobenius norms) of D_s, each kernel's ``defects(s)`` one
    part of it, formed on the generators a chunk of s at a time."""
    generators, worst = group.tree.generators, 0.0
    squares = np.zeros(len(generators))  # of the Frobenius norm of each D_s
    for entries, defects in kernels:
        for span in nk.stack_spans(len(generators), entries):
            magnitudes = np.abs(defects(generators[span])).reshape(span.stop - span.start, -1)
            worst, squares[span] = max(worst, nk.maxabs(magnitudes)), squares[span] + np.square(magnitudes).sum(axis=1)
    return bounded(group, left, right, (worst, np.sqrt(squares).tolist()), size, kernels)


def invertible(law: float, d: int) -> bool:
    """Whether ``2 d law < 1``, which makes every m_t of side at most d with that law row
    invertible: each entry of ``m_t m_{t^-1} - I = (m_t m_{t^-1} - m_e) + (m_e - I)`` is at most
    hom + unit <= 2 law, so its 2-norm is at most 2 d law, plus ``d gamma_d ||m_t|| ||m_{t^-1}||``
    by which the stored product rounds (4.6e-13 times the norms at d = 64).  Below 1 the product
    is invertible (a Neumann series), so the square m_t is too.  A NaN or inf law is not."""
    return 2 * d * law < 1


def _kron_law(first: GroupLaw, second: GroupLaw, group, dims: tuple, kappa: float, hom: float, unit: float) -> GroupLaw:
    """The law of stored krons ``m^_t = m_t (x) conj(n_t) + K_t``, ``||K_t|| <= kappa``, with the
    rows ``hom`` and ``unit``: ``Premises.times`` with each norm and gain widened by kappa and
    each edge by ``m_s K_t' + K_s m^_t' - K_t``; on S, ``m^_s* m^_s - I = (A - I) (x) conj(B) +
    I (x) conj(B - I)`` for ``A = m_s* m_s``, ``B = n_s* n_s``, plus ``m^* m^ - m* m``."""
    on, (wm, rm), (wn, rn) = first.premises.times(second.premises, group), first.unitarity, second.unitarity
    norms = [x + kappa for x in on.norms]
    edges = [e + kappa * (norms[up] + on.gains[k] + 1) for (_, k, up), e in zip(group.tree.edges, on.edges)]
    rho = [a * (math.sqrt(dims[1]) + b) + math.sqrt(dims[0]) * b + kappa * (2 * s + kappa) for a, b, s in zip(rm, rn, on.gains)]
    premises = Premises([x + kappa for x in on.gains], edges, on.unit + kappa, norms)
    return GroupLaw(hom, unit, (wm * (1 + wn) + wn, rho), premises)


def standard_action(group, gamma: GroupLaw, delta: GroupLaw, unitarity: tuple, dims: tuple, u: float) -> tuple | None:
    """``(eta's law, alpha's law, rows)`` of ``x -> gamma_t x delta_t*`` on the p x n module,
    ``rows`` its ``action_report``: the law, equivariance, compatibility, multiplicativity and
    star rows and the invertibility; None where a row exceeds ``exact_limit()``.  The arguments
    that are bounds: in ``gamma`` and ``delta``, the ``group_law`` of gamma and delta, the hom
    rows and premises (the unit rows and the unitarity on S are exact), and ``unitarity`` =
    (U_g, U_d), their unitarity rows, each an ``intertwining_bound``.  Exact: ``dims`` = (p, n)
    and u, the unit of ``higham``.

    With ``G_t = gamma_t* gamma_t - I`` and ``H_t = I - delta_t* delta_t``, on matrix units:
    ``<eta_t x, eta_t y> - alpha_t(<x, y>) = delta_t x* G_t y delta_t*`` (equivariance),
    ``eta_t(x a) - eta_t(x) alpha_t(a) = gamma_t x H_t a delta_t*`` (compatibility),
    ``alpha_t(a b) - alpha_t(a) alpha_t(b) = delta_t a H_t b delta_t*`` and an exact star.  Each
    entry is one entry of G_t or H_t times two entries of gamma_t or delta_t, so at most
    ``U_g N_d^2``, ``U_d N_g N_d`` and ``U_d N_d^2``, N >= ||m_t|| the premises' norms.  With E,
    F the law defects of gamma and delta, ``eta_a eta_b - eta_ab = E (x) conj(delta_a delta_b) +
    gamma_ab (x) conj(F)``: at most ``H_g N_d^2 + N_g H_d``, alpha's ``H_d (N_d^2 + N_d)``, the
    units ``u_g N_d + u_d`` and ``u_d (N_d + 1)`` (``_kron_law``).

    Rounding (``higham``): a stored kron entry is one complex product, so within ``kappa =
    sqrt(2 e) gamma_2 M`` in the 2-norm (e = max(p n, n^2), M = max(1, N)^2 >= ||eta_t||,
    ||alpha_t||); a complex product of length k is within ``gamma_{k+2} |A| |B|``, whose entries
    are at most the 2-norms of the rows and columns of A and B.  So the dense forms leave the
    identities by the kernels of gamma and delta (``gamma_{2p+2n+8} M^2``), at most two products
    of eta or alpha (``gamma_{2e+4} (M + kappa)^2``), the stored krons in them (``kappa (2 M +
    kappa + 2)``) and the last subtraction (u times the row, inside the 8 u (M + kappa)^2 of
    slack): each row adds that sum, so it is at least the dense all-t value.  Invertibility is
    ``invertible`` with d = e.
    """
    (p, n), (ug, ud) = dims, unitarity
    ng, nd, e = _largest(gamma.premises.norms), _largest(delta.premises.norms), max(p * n, n * n)
    top = _largest([1.0, ng, nd])
    big = top * top
    kappa = math.sqrt(2 * e) * higham(2, u) * big
    fl = higham(2 * p + 2 * n + 8, u) * big * big + higham(2 * e + 12, u) * (big + kappa) * (big + kappa) + kappa * (2 * big + kappa + 2)
    eta_law = _kron_law(gamma, delta, group, (p, n), kappa, gamma.hom * nd * nd + ng * delta.hom + fl, gamma.unit * nd + delta.unit + fl)
    alpha_law = _kron_law(delta, delta, group, (n, n), kappa, delta.hom * (nd * nd + nd) + fl, delta.unit * (nd + 1) + fl)
    law = _largest([eta_law.hom, eta_law.unit, alpha_law.hom, alpha_law.unit])
    rows = [law, ug * nd * nd + fl, ud * ng * nd + fl, ud * nd * nd + fl, fl]
    if not _largest(rows) <= exact_limit():
        return None
    return eta_law, alpha_law, (*rows, invertible(law, e))


def crossed_axioms(action: tuple, module: tuple, sizes: tuple, dims: tuple) -> tuple[float, float]:
    """The crossed algebra and module rows on every basis triple.  The arguments that are bounds,
    entry bounds over every t (every pair): ``action`` = (h, mu, sigma), h of ``alpha_a alpha_b -
    alpha_ab`` (``alpha_rep.law``), mu of ``alpha_t(E_p E_q) - alpha_t(E_p) alpha_t(E_q)`` and
    sigma of ``alpha_t(E_p)* - alpha_t(E_p*)`` (``action_report``).  Exact: ``module`` = (lambda, s) of
    ``<x_i, x_j . E_q> - <x_i, x_j> E_q`` and ``<x_i, x_j>* - <x_j, x_i>``
    (``hilbmod.module_defects``), ``dims`` = (N, m) and ``sizes`` = (a, c, r, beta, iota, kappa):
    with |y| the largest coordinate of y and ||y||_1 their sum, a is alpha's largest entry, c and r
    its largest column and row sums (``||alpha_t y||_1 <= c ||y||_1``, ``|alpha_t y| <= r |y|``),
    beta the largest ``||<x_i, x_j>||_1``, iota its largest coordinate and kappa the largest
    ``||x_j . E_q||_1``.  Block products give ``|x y| <= min(||x||_1 |y|, |x| ||y||_1)``, ``||x
    y||_1 <= ||x||_1 ||y||_1`` and ``|E_k y| <= |y|``, and bilinearity ``|alpha_t(x y) - alpha_t(x)
    alpha_t(y)| <= mu ||x||_1 ||y||_1``.  On basis elements, with b = alpha_r(E_n), y = alpha_t(E_l)*, v =
    (tr)^-1, z = <x_i, x_j>, e = alpha_r(E_k) and w = t^-1, the slot values of the defects split as:

    - associativity: ``E_k [alpha_t(E_l b) - alpha_t(E_l) alpha_t(b)] + E_k alpha_t(E_l)
      [alpha_t alpha_r - alpha_tr](E_n)``, at most ``c (mu + h)``;
    - ``(f g)* = g* f*``: ``[alpha_v(y E_k*) - alpha_v(y) alpha_v(E_k*)] + [alpha_v(y -
      alpha_t(E_l*)) + (alpha_v alpha_t - alpha_{r^-1})(E_l*)] alpha_v(E_k*) + alpha_{r^-1}(E_l*)
      [alpha_v - alpha_{r^-1} alpha_w](E_k*)``, at most ``c (mu + r sigma + 2 h)``, which
      covers associativity's;
    - ``<xhat, yhat f> = <xhat, yhat> f``: ``alpha_w(<x_i, x_j . e> - z e) + [alpha_w(z e) -
      alpha_w(z) alpha_w(e)] + alpha_w(z) [alpha_w alpha_r - alpha_{wr}](E_k)``, at most
      ``c (r lambda + beta (mu + h))``;
    - ``<xhat, yhat>* = <yhat, xhat>``: ``alpha_{r^-1 t}(alpha_w(z)* - alpha_w(z*)) +
      [alpha_{r^-1 t} alpha_w - alpha_{r^-1}](z*) + alpha_{r^-1}(z* - <x_j, x_i>)``, at most
      ``r s + beta (r sigma + h)``.

    Rounding (``higham``): the sides of the dense forms are sums of at most 2N + m terms, of
    magnitude at most ``a c`` and ``a c^2`` (algebra), ``a beta c kappa`` and ``a beta c``
    (module axiom), ``a beta c`` and ``a beta`` (symmetry); the premises' kernels are exact up
    to ``gamma_{N+2} a c`` (mu, h), ``2 u a`` (sigma), ``gamma_{m+2} iota kappa`` (lambda) and
    ``2 u iota`` (s), each times its factor above.  Summed, the algebra row adds ``2 gamma_{2N+8}
    a c (1 + 2c + r)`` and the module row ``gamma_{2N+m+8} (c kappa (a beta + r iota) + a beta
    (1 + 3c + 2c^2 + 2r) + 2 r iota)``, so each row is at least the dense value.
    """
    (h, mu, sigma), (linearity, symmetry), (a, c, r, beta, iota, kappa), (n, m) = action, module, sizes, dims
    algebra_row = c * (mu + r * sigma + 2 * h) + 2 * higham(2 * n + 8) * a * c * (1 + 2 * c + r)
    terms = c * kappa * (a * beta + r * iota) + a * beta * (1 + 3 * c + 2 * c * c + 2 * r) + 2 * r * iota
    module_row = max(c * (r * linearity + beta * (mu + h)), r * symmetry + beta * (r * sigma + h))
    return algebra_row, module_row + higham(2 * n + m + 8) * terms
