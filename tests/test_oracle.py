"""Whole certificates against the dense oracle, on clean inputs and planted defects.

Differential testing (W. M. McKeeman, "Differential Testing for Software", *Digital
Technical Journal* 10(1), 1998) with planted defects (R. A. DeMillo, R. J. Lipton and
F. G. Sayward, "Hints on Test Data Selection", *Computer* 11(4), 1978): each run is the
command line's in-process run of a resolved scenario, compared with
``dense_reference.certificate`` (``agree``).  Exit codes, row names, dims, ranks and
verdicts are equal; an exact residual above 1e-10 agrees within a relative 1e-6; a
bounded row (``dense_reference.BOUNDED``) is at least its dense value, less a relative
1e-6 of rounding, and above ``bounds.exact_limit()``, where the run forms it exactly, is
compared as an exact one.

Each input (``INPUTS``) runs clean as every kind it resolves for.  Then a defect is
planted in turn in each of its objects (``places``) at 1e-3, which takes the exact
fallbacks, 3e-9, which passes the precondition gates and fails rows, and 1e-12, which
takes the bounds, each run as ``verify`` and, where covariant, ``crossed``.  Some
inputs run again at ``nk.STACK_ENTRIES = 1``, so that a rule that reads one chunk only
shows, and the oracle must run with each run-path kernel made to raise.  Its crossed
slot formulas are checked against the generic crossed operations in ``test_crossed.py``.
"""

import functools
import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import builders
import dense_reference as ref
from covstine import bounds, cli, cpmaps, crossed, cstar, hilbmod, stinespring
from covstine import numkernel as nk
from covstine.errors import CovstineError

ROOT = Path(__file__).resolve().parents[1]
PAYLOADS = sorted((ROOT / "tests/scenarios").glob("*.json")) + sorted((ROOT / "src/covstine/scenarios").glob("*.json"))
GENERATED = [f"{sizes} {group}" for sizes in ("1,2,1", "2,2,1", "2,3,1") for group in (None, "cyclic:3", "symmetric:3")]
TWISTED_Z3 = "twisted cyclic:3"  # builders.twisted_scenario("cyclic", 3, 3, 3, 1, 2)


def _through_gram(blocks, h, spectra, seed=3):
    """The algebra of ``blocks`` over itself, mapped through a factor of the GNS Gram of a
    CP map whose blocks have Choi spectra ``spectra``: a module map whose companion is it."""
    phi = ref.cp_from_choi_spectra(blocks, h, spectra, seed)
    return ref.module_map_through(phi, nk.gram_factor(ref.dense_gns_gram(phi)))


def _kept(n, h, rank, scale):  # a block's Choi spectrum: ``rank`` values near ``scale``
    return [scale * (1.0 + 0.1 * i) for i in range(rank)] + [0.0] * (n * h - rank)


# plain scenarios of seed 3 on maps built here: two blocks, one rank-deficient; a block that
# keeps no eigenvector; the zero map; blocks whose eigenvalues lie under the cutoff of the
# largest one over all blocks (1e-10 of it), though over their own
BUILT = {
    "two blocks": lambda: _through_gram((2, 1), 2, [[2.0, 1.5, 0.7, 0.0], [0.9, 0.4]]),
    "vanishing block": lambda: _through_gram((2, 1), 2, [[2.0, 1.5, 0.7, 0.3], [0.0, 0.0]]),
    "zero map": lambda: _through_gram((2, 1), 2, [[0.0] * 4, [0.0] * 2]),
    "a block under the cutoff": lambda: _through_gram(
        (1, 2, 3), 2, [_kept(1, 2, 1, 1.0), _kept(2, 2, 3, 1e-11), _kept(3, 2, 4, 0.5)], seed=13
    ),
    "a small block under the cutoff": lambda: _through_gram(
        (3, 1), 2, [_kept(3, 2, 2, 1.0), _kept(1, 2, 1, 5e-11)], seed=13
    ),
}
# a covariant payload on a module basis of condition 20 (``builders.conditioned_scenario``),
# where eta is not unitary in coordinates and the gains of the bounds compound
CONDITIONED = {"conditioned 2,2,1 symmetric:3": "2,2,1 symmetric:3"}
INPUTS = [*GENERATED, "1,2,1 symmetric:4", TWISTED_Z3, *BUILT, *CONDITIONED] + [path.name for path in PAYLOADS]
SIZES = (1e-3, 3e-9, 1e-12)  # the exact fallbacks; past the rows' gate, under the preconditions'; the bounds
SLACK = 1e-6  # relative: exact residuals agree within it, bounded rows may fall under by it
# absolute, on a module basis of condition 20, whose change of basis rounds every entry of
# the rows' stacks by about 20^2 times the unit roundoff of their sizes: no more than 1e-11
ROUNDING = 1e-11


@functools.cache
def _scenario(name: str) -> dict:
    """The scenario of an input, read only: a generated spec (seed 7), the twisted Z3 payload
    or a file."""
    if name.endswith(".json"):
        return json.loads(next(path for path in PAYLOADS if path.name == name).read_text())
    if name == TWISTED_Z3:
        return builders.twisted_scenario("cyclic", 3, 3, 3, 1, 2)
    if name in CONDITIONED:
        return builders.conditioned_scenario(_resolved(CONDITIONED[name], "verify").cov, "verify")
    sizes, group = name.split()
    p, n, amplification = map(int, sizes.split(","))
    return cli.generate_scenario("verify", p, n, amplification, 7, None if group == "None" else group)


def _resolved(name: str, kind: str):
    """The input resolved as ``kind``, or None where the command line refuses it there: a
    built map as ``cli.resolve_scenario`` resolves an explicit plain payload, scaled."""
    if name in BUILT:
        if kind in ("dilate-covariant", "crossed"):
            return None
        phi, _, scale = cpmaps.normalize(BUILT[name]())
        return cli.ResolvedScenario(kind, cli.DEFAULT_TOL, 3, phi, None, "", name, scale)
    try:
        return cli.resolve_scenario({**_scenario(name), "kind": kind}, name)
    except CovstineError:
        return None


def _run(res):
    """``(exit code, Certificate)`` of the command line's run of a resolved scenario, as
    ``cli.run_scenario`` runs it after reading: None where the run refuses its input."""
    runs = {
        "dilate": lambda: cli._run_dilate(res, {}, covariant=False),
        "dilate-covariant": lambda: cli._run_dilate(res, {}, covariant=True),
        "verify": lambda: cli._run_verify(res, {}),
        "crossed": lambda: cli._run_crossed(res, {}, False),
        "uniqueness": lambda: cli._run_uniqueness(res, {}),
    }
    with bounds.gated(res.tolerance), np.errstate(over="ignore", invalid="ignore"):
        try:
            cert = runs[res.kind]()
        except CovstineError:
            return 2, None
    return (0 if cert.passed else 1), cert


def agree(res, label: str = "", size: float = 0.0) -> int:
    """Assert that the command line's run of ``res`` and the oracle's agree, with a defect of
    ``size`` planted; its exit code.  On an orthonormal module basis a row of the bound
    calculus stays within 100 times the larger of its dense value and the plant, plus 1e-12
    of rounding compounded along the words, and a derived crossed axiom row, a sum of such
    rows times alpha's sizes, within 1000 times; above the limit it is the exact value."""
    code, cert = _run(res)
    dense_code, dense = ref.certificate(res)
    where = f"{label} as {res.kind}"
    assert code == dense_code, (where, code, dense_code, cert and cert.checks)
    if cert is None:
        return code
    assert cert.dims == dense.dims, where
    assert cert.ranks == dense.ranks, where
    if "gns_gram" in cert.singular_values:  # the GNS Gram's eigenvalues, to 1e-12 of the largest
        values, dense_values = (np.square(rows.singular_values["gns_gram"]) for rows in (cert, dense))
        assert np.abs(values - dense_values).max(initial=0.0) <= 1e-12 * max(1.0, dense_values.max(initial=0.0)), where
    assert sorted(cert.residuals) == sorted(dense.residuals), where
    assert cert.checks == dense.checks, (where, cert.residuals, dense.residuals)
    floor = ROUNDING if res.name in CONDITIONED else 0.0
    with bounds.gated(res.tolerance):
        limit = bounds.exact_limit()
    for name, value in cert.residuals.items():
        reference = dense.residuals[name]
        if name in ref.BOUNDED and value <= limit:
            assert value >= reference * (1 - SLACK) - floor, (where, name, value, reference)
            factor = 1000 if name.startswith("crossed_") else 100
            assert floor or value <= factor * max(reference, size) + 1e-12, (where, name, value, reference)
        elif max(value, reference) > 1e-10 or name in ref.BOUNDED:
            assert abs(value - reference) <= SLACK * max(value, reference) + floor, (where, name, value, reference)
    return code


# ---------------------------------------------------------------------------
# Planted defects
# ---------------------------------------------------------------------------


def _off_generators(group, first: bool = False) -> int:
    """The last (or ``first``) element outside the generators and e, a word of length at least
    2 where there is one; e on the trivial group."""
    outside = [t for t in range(group.order) if t != group.identity and t not in group.tree.generators]
    return outside[0 if first else -1] if outside else group.order - 1


def planted(mats, t: int, size: float) -> np.ndarray:
    """A copy of the stack ``mats`` with ``size`` added to the last entry of the first row of ``mats[t]``."""
    mats = np.array(mats)
    mats[t, 0, -1] += size
    return mats


def plant(res, where: str, size: float):
    """``res`` with ``size`` planted in one input object: Phi or the companion along a seeded
    direction of its last image (no group average keeps it), u, u', eta or alpha at one
    entry of its matrix at an element outside the generators, the last one for u and eta and
    the first for u' and alpha, so that a rule reading only the last chunk of t misses one,
    or the first nonzero of the module's action or inner tensor, the latter by ``size (1 + i)``,
    which no symmetric inner product has.  "Phi, kept by s_1" adds to Phi noise averaged over
    the subgroup of the first generator, so covariance fails at the other generators alone."""
    phi, cov = res.phi, res.cov
    if where == "Phi, kept by s_1":
        group, s, y = cov.system.group, cov.system.group.tree.generators[0], 0.0
        z = size * np.random.default_rng(1).standard_normal(phi.images.shape)
        for h in hilbmod.cyclic_subgroup(group, s):  # u'_h* (Z at eta_h x) u_h
            y = y + np.conj(cov.u_prime.mats[h]).T @ np.tensordot(cov.system.eta[h], z, axes=(0, 0)) @ cov.u.mats[h]
        phi = replace(phi, images=phi.images + y / len(hilbmod.cyclic_subgroup(group, s)))
        return replace(res, phi=phi, cov=replace(cov, base=phi))
    if where in ("Phi", "companion"):
        images, companion = phi.images.copy(), phi.companion.images.copy()
        target = images if where == "Phi" else companion
        target[-1] += size * np.random.default_rng(1).standard_normal(target.shape[1:])
        phi = replace(phi, images=images, companion=replace(phi.companion, images=companion))
        return replace(res, phi=phi, cov=cov and replace(cov, base=phi))
    if where in ("inner", "action"):
        module = phi.module
        inner, action = module.inner.copy(), module.action.copy()
        tensor = inner if where == "inner" else action
        tensor[tuple(np.argwhere(tensor != 0)[0])] += size * (1 + 1j if where == "inner" else 1)  # <x, x>* moves
        module = hilbmod.HilbertModule.from_tensors(module.algebra, module.dim, action, inner)
        phi = replace(phi, module=module)
        if cov is not None:
            system = cov.system
            system = hilbmod.ModuleDynamicalSystem(system.group, module, system.eta, system.alpha)
            cov = replace(cov, base=phi, system=system)
        return replace(res, phi=phi, cov=cov)
    system, t = cov.system, _off_generators(cov.system.group, first=where in ("u'", "alpha"))
    if where in ("u", "u'"):
        name = {"u": "u", "u'": "u_prime"}[where]
        rep = getattr(cov, name)
        return replace(res, cov=replace(cov, **{name: replace(rep, mats=planted(rep.mats, t, size))}))
    stacks = {"eta": system.eta, "alpha": system.alpha}
    stacks[where] = planted(stacks[where], t, size)
    return replace(res, cov=replace(cov, system=hilbmod.ModuleDynamicalSystem(system.group, system.module, **stacks)))


def places(name: str) -> list[str]:
    """Where a defect is planted in an input: Phi (where K is not 0) and the companion, u,
    u', eta and alpha of a covariant one, Phi kept by its first generator where there are two
    or more, and the module's nonzeros of an explicit one."""
    res = _resolved(name, "verify")
    explicit = name in BUILT or "objects" in _scenario(name)
    return (
        (["Phi"] if res.phi.images.size else [])
        + ["companion"]
        + (["u", "u'", "eta", "alpha"] if res.cov is not None else [])
        + (["Phi, kept by s_1"] if res.cov is not None and len(res.cov.system.group.tree.generators) > 1 else [])
        + (["inner", "action"] if explicit else [])
    )


PLANTED = [(name, where) for name in INPUTS for where in places(name)]


# ---------------------------------------------------------------------------
# The comparisons
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("kind", cli.KINDS)
def test_a_clean_run_matches_the_oracle(name, kind):
    res = _resolved(name, kind)
    if res is None:  # a plain payload as a covariant kind: refused while it is read
        assert kind in ("dilate-covariant", "crossed") and _resolved(name, "verify").cov is None
        return
    code = agree(res, name)
    assert code == (2 if kind == "uniqueness" and res.seed is None else 0)


@pytest.mark.parametrize("name, where", PLANTED)
def test_a_planted_defect_matches_the_oracle(name, where):
    """Each plant, at each size, as ``verify`` and (covariant) ``crossed``: ``verify`` fails
    on a plant of 1e-3 and passes on one of 1e-12, but on the zero map, whose Gram cutoff
    is the absolute floor 1e-12, which a companion's eigenvalue of -1e-12 lies under, and
    on the conditioned basis, whose inner products of up to 400 scale a plant up.  The crossed
    axiom rows of an explicit system read alpha and the module alone: eta moves neither."""
    axioms = ("crossed_algebra_axioms", "crossed_module_axioms")
    for kind in ("verify", "crossed"):
        res = _resolved(name, kind)
        for size in SIZES if res else ():
            code = agree(plant(res, where, size), f"{name}, {size:g} in {where}", size)
            if kind == "crossed" and where == "eta" and res.cov.system.gamma is None and code != 2:
                rows = [_run(run)[1].residuals for run in (res, plant(res, where, size))]
                assert [rows[0].get(k) for k in axioms] == [rows[1].get(k) for k in axioms], (name, size)
            if kind == "verify" and size == SIZES[0]:
                assert code == 1, (name, where)
            elif kind == "verify" and size == SIZES[-1] and name not in ("zero map", *CONDITIONED):
                assert code == 0, (name, where)


CHUNKED = ["1,2,1 symmetric:4", "2,3,1 cyclic:3", "twisted_s3.json", "explicit_system_c2.json"]


@pytest.mark.parametrize("name", CHUNKED)
def test_runs_in_chunks_of_one_item_match_the_oracle(name, monkeypatch):
    """One item per chunk: every kind clean, and every plant of 1e-3 and 3e-9 as ``verify``
    and ``crossed``, so that a rule reading only the first or last chunk shows."""
    monkeypatch.setattr(nk, "STACK_ENTRIES", 1)
    for kind in cli.KINDS:
        assert agree(_resolved(name, kind), name) == 0
    for kind, where in itertools.product(("verify", "crossed"), places(name)):
        res = _resolved(name, kind)
        for size in SIZES[:2]:
            agree(plant(res, where, size), f"{name}, {size:g} in {where}", size)


RUN_PATH_KERNELS = [
    (nk, "pair_defect"), (nk, "stack_max"), (bounds, "checked"), (bounds, "exact_above"),
    (hilbmod, "group_law"), (stinespring, "_identity_defect"), (crossed, "_identity_defect"),
    (hilbmod, "identity_defect"), (hilbmod, "covariance_defect"), (cstar, "choi_blocks"),
]


def test_the_oracle_calls_no_run_path_kernel(monkeypatch):
    """The kernels the runs are checked on raise inside ``certificate``, which still forms
    every kind, clean and planted, on a twisted payload and a generated covariant input."""

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached a run-path kernel")

    names = ("twisted_s3.json", "2,2,1 symmetric:3", "dense_basis_21.json")
    inputs = [res for res in (_resolved(name, kind) for name in names for kind in cli.KINDS) if res]
    for owner, name in RUN_PATH_KERNELS:
        monkeypatch.setattr(owner, name, refuse)
    for res in inputs:
        assert ref.certificate(res)[0] == 0
        assert ref.certificate(plant(res, "Phi", 1e-3))[0] != 0
