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
super-matrix; the package skips the exact zeros of their inputs.
"""

import numpy as np

from covstine import cpmaps, cstar, hilbmod
from covstine import numkernel as nk


def basis(obj):
    g, n = obj.group.order, obj.dim // obj.group.order
    return [obj.basis_element(t, k) for t in range(g) for k in range(n)]


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
    gram = nk.pad_zero(phi.images)[star_products].transpose(0, 2, 1, 3)
    gram = gram.reshape(n_dim * h, n_dim * h)
    return (gram + nk.adjoint(gram)) / 2.0


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
            nk.maxabs(nk.adjoint(image) @ images - nk.coords_apply(row, companion))
            for image, row in zip(images, inner)
        ),
        default=0.0,
    )


def multiplicativity_defect(rep):
    """Worst ``|pi(E_k) pi(E_l) - pi(E_k E_l)|``, one ``E_k`` at a time, unscaled."""
    padded = nk.pad_zero(rep.images)
    rows = zip(rep.images, cstar.product_index(rep.algebra))
    return max((nk.maxabs(image @ rep.images - padded[row]) for image, row in rows), default=0.0)


def gram_super_matrix(module):
    """``[<x_i, x_j>]`` in ``M_m(A)``, each entry embedded block-diagonally."""
    embed = cstar.embedding_representation(module.algebra).images
    order = module.dim * module.algebra.embed_dim
    return nk.coords_apply(module.inner, embed).transpose(0, 2, 1, 3).reshape(order, order)


def module_positivity(module):
    """``psd_check`` of the whole Gram super-matrix, one eigensolve."""
    return nk.psd_check(gram_super_matrix(module))
