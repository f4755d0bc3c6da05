"""Group-indexed identities checked on a generating set S and bounded on every t.

Each group is built with a greedy generating set and a BFS tree of its left Cayley
graph (``FiniteGroup.tree``); the tests check that S generates the group and the
depths the README states.  Every row formed on S reports a stated upper bound on
its all-t (for the group law, all-pairs) value.  The defects a run can receive, in
Phi, the companion, u, u', eta and alpha, are planted by ``test_oracle.py``; here a
defect of 1e-6 is planted in one v_t or w_t of a dilation at a t outside S, and in
gamma or delta of a standard action.  Each time every reported row must be at least
its dense all-t value from ``dense_reference`` and over the 1e-9 gate whenever that
value is.  A defect of 1e-12 keeps the bounds under ``bounds.BOUND_TOL``, where they
are reported; one of 1e-6 takes them over it, where the exact worst over every t is.
The data are generated scenarios and ``builders.twisted_system``, whose alpha_t,
eta_t and u_t differ from their values at t^-1.  The GNS Gram-preservation row is
formed only where it is reported (``verify`` and ``dilate-covariant``).
"""

import collections
import functools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import builders
import dense_reference as ref
from test_oracle import _off_generators
from test_oracle import planted as _planted
from covstine import bounds, cli, hilbmod, stinespring
from covstine import numkernel as nk

PAYLOADS = Path(__file__).parent / "scenarios"
GATE = nk.RESIDUAL_TOL
PLANTS = [1e-6, 1e-12]


@pytest.mark.parametrize(
    "family, size, generators, depth",
    [
        *(("cyclic", n, [1] if n > 1 else [], n - 1) for n in range(1, 25)),
        ("symmetric", 1, [], 0),
        ("symmetric", 2, [1], 1),
        ("symmetric", 3, [1, 2], 3),
        ("symmetric", 4, [1, 2, 6], 6),
    ],
)
def test_named_groups_have_the_stated_generators_and_depths(family, size, generators, depth):
    group = cli.group_from_json({family: size})
    assert group.tree.generators.tolist() == generators
    assert _depth(group) == depth


def _depth(group):
    """The tree's depth, after checking that S generates the group: the tree reaches
    every element once, each by an edge t = s t' from an element reached before it,
    and every word is as short as a BFS over the left Cayley graph makes it."""
    tree, depth = group.tree, {group.identity: 0}
    assert sorted(t for t, _, _ in tree.edges) == sorted(set(range(group.order)) - {group.identity})
    for t, k, up in tree.edges:
        assert group.mult[tree.generators[k], up] == t and t not in depth
        depth[t] = depth[up] + 1
    for x in range(group.order):  # no element is a step below its depth
        assert all(depth[group.mult[s, x]] <= depth[x] + 1 for s in tree.generators)
    return max(depth.values())


def test_explicit_tables_get_a_greedy_generating_set():
    """Z2 x Z2 with e = 0 needs both of 1 and 2; S3 relabelled so that e = 3 takes 0, a
    3-cycle, and 1, a transposition outside its subgroup, of depth 2."""
    klein = cli.group_from_json(
        {"order": 4, "mult": [[a ^ b for b in range(4)] for a in range(4)], "inv": [0, 1, 2, 3], "e": 0}
    )
    assert klein.tree.generators.tolist() == [1, 2] and _depth(klein) == 2
    s3, order = hilbmod.symmetric_group(3), [3, 1, 2, 0, 4, 5]  # swap the labels 0 and 3
    at = np.argsort(order)
    relabelled = cli.group_from_json(
        {"order": 6, "mult": at[s3.mult[np.ix_(order, order)]].tolist(), "inv": at[s3.inv[order]].tolist(), "e": 3}
    )
    assert relabelled.tree.generators.tolist() == [0, 1] and _depth(relabelled) == 2
    assert hilbmod.trivial_group().tree.edges == [] and hilbmod.trivial_group().tree.generators.size == 0


def _covariant(source):
    if source == "twisted S3":
        scenario = json.loads((PAYLOADS / "twisted_s3.json").read_text())
    elif source == "twisted Z3":
        scenario = builders.twisted_scenario("cyclic", 3, 3, 3, 1, 2)
    else:
        p, n, amplification, group = source
        scenario = cli.generate_scenario("dilate-covariant", p, n, amplification, 7, group)
    return cli.resolve_scenario(scenario, "scenario.json").cov


def _bounds(row, dense, plant=0.0):
    """A reported row: at least its dense all-t value, over the gate whenever that is,
    and at most 100 times the larger of that value and the planted defect, plus 1e-12
    of rounding compounded along the words (so finite)."""
    assert dense <= row <= 100 * max(dense, plant) + 1e-12, (row, dense)
    assert row > GATE or dense <= GATE, (row, dense)


SOURCES = [(2, 2, 2, "symmetric:3"), (1, 2, 1, "symmetric:4"), (2, 2, 1, "cyclic:3"), "twisted S3", "twisted Z3"]


def _plants(places):
    """``(where, size)``: nothing planted, then each place with each size."""
    return [(None, 0.0)] + [(where, size) for where in places for size in PLANTS]


@pytest.mark.parametrize("source", SOURCES, ids=str)
@pytest.mark.parametrize("where, plant", _plants(["v", "w"]))
def test_planted_dilation_defects_are_bounded_on_every_t(source, where, plant):
    """``verify_dilation``'s covariant rows and ``uniqueness``'s covariant rows are at least
    their dense all-t values, with ``plant`` in one v_t or w_t at a t outside S."""
    cov = _covariant(source)
    dilation = stinespring.dilate_covariant(cov)
    group, t = cov.system.group, _off_generators(cov.system.group)
    v, w = dilation.v, dilation.w
    if where == "v":
        v = hilbmod.UnitaryRep(group, v.dim, _planted(v.mats, t, plant))
    elif where == "w":
        w = hilbmod.UnitaryRep(group, w.dim, _planted(w.mats, t, plant))
    planted = replace(dilation, v=v, w=w)
    rows = stinespring.verify_dilation(planted).residuals
    base, system = dilation.base, cov.system
    images = ref.dilation_images(base)
    dense = {
        "domain_unitaries_group_law": max(ref.group_law(group, v.mats)),
        "domain_unitaries_unitarity": ref.unitarity(v.mats),
        "codomain_unitaries_group_law": max(ref.group_law(group, w.mats)),
        "codomain_unitaries_unitarity": ref.unitarity(w.mats),
        "intertwine_V": ref.intertwining(v.mats, base.gns.V, cov.u.mats),
        "intertwine_W": ref.intertwining(w.mats, base.W, cov.u_prime.mats),
        "covariant_representation": ref.covariance(system.eta, images, w.mats, v.mats),
        "companion_covariant_rep": ref.covariance(system.alpha, base.gns.rep.images, v.mats, v.mats),
    }
    for name, value in dense.items():
        _bounds(rows[name], value, plant)
    assert (max(rows[name] for name in dense) > GATE) == (plant > GATE)
    rng = np.random.default_rng(4)
    r1, r2 = nk.haar_unitary(rng, base.gns.dim), nk.haar_unitary(rng, base.dim_codomain)
    alt = stinespring.AltDilation(
        r2 @ images @ nk.adjoint(r1), r1 @ base.gns.V, r2 @ base.W,
        hilbmod.conjugate_rep(dilation.v, r1), hilbmod.conjugate_rep(dilation.w, r2),
    )
    report = stinespring.uniqueness_intertwiners(planted, alt)
    _bounds(report.covariant_v_residual, ref.intertwining(alt.v.mats, report.U1, v.mats), plant)
    _bounds(report.covariant_w_residual, ref.intertwining(alt.w.mats, report.U2, w.mats), plant)


@pytest.mark.parametrize("family, size", [("cyclic", 5), ("symmetric", 3), ("symmetric", 4)])
def test_premises_bound_what_they_state(family, size):
    """On a stack that is no representation and not unitary, the premises of
    ``group_law`` and of a product bound the operator norms they name."""
    group = cli.group_from_json({family: size})
    rng = np.random.default_rng(size)
    mats = nk.eye(3) + 0.3 * (rng.standard_normal((group.order, 3, 3)) + 1j * rng.standard_normal((group.order, 3, 3)))
    law = hilbmod.group_law(group, mats)
    for premises, stack in ((law.premises, mats), (law.premises.times(law.premises, group), ref.tensor_mats(*[hilbmod.UnitaryRep(group, 3, mats)] * 2))):
        _operator_premises_hold(premises, stack, group)


def _operator_premises_hold(premises, stack, group):
    two = functools.partial(np.linalg.norm, ord=2)
    assert premises.unit >= two(stack[group.identity] - nk.eye(len(stack[0])))
    assert all(premises.norms[t] >= two(stack[t]) for t in range(group.order))
    for k, s in enumerate(group.tree.generators):
        assert premises.gains[k] >= two(stack[s])
    for (t, k, up), edge in zip(group.tree.edges, premises.edges):
        assert edge >= two(stack[group.tree.generators[k]] @ stack[up] - stack[t])


def test_the_bound_is_the_stated_recurrence():
    """``intertwining_bound`` and ``Premises.times`` on synthetic premises of ``cyclic:4``
    (one generator, the path e, 1, 2, 3) are the formulas of their docstrings, written out."""
    group = hilbmod.cyclic_group(4)
    left = bounds.Premises([2.0], [0.1, 0.2, 0.3], 0.01, [1.0, 2.0, 3.0, 4.0])
    right = bounds.Premises([3.0], [0.4, 0.5, 0.6], 0.02, [1.5, 2.5, 3.5, 4.5])
    size, defect = 7.0, 0.05
    expected = [size * (0.01 + 0.02)]
    for (t, _, up), e, f in zip(group.tree.edges, left.edges, right.edges):
        assert t == up + 1
        expected.append(2.0 * expected[up] + defect * right.norms[up] + size * (e + f))
    assert bounds.intertwining_bound(group, left, right, (0.0, [defect]), size) == pytest.approx(max(expected), rel=1e-15)
    # the product's edge into t = s t' reads both norms at t: E (x) (n_t + F) + m_t (x) F
    product = left.times(right, group)
    assert product.gains == [6.0] and product.unit == pytest.approx(0.01 + 0.02 + 0.01 * 0.02)
    assert product.edges == pytest.approx([0.1 * (2.5 + 0.4) + 2.0 * 0.4, 0.2 * (3.5 + 0.5) + 3.0 * 0.5, 0.3 * (4.5 + 0.6) + 4.0 * 0.6])
    assert product.norms == pytest.approx([1.5, 5.0, 10.5, 18.0])


def test_bounds_are_zero_on_exact_data_and_inf_on_a_nan_premise():
    """Exact permutation representations of S4 give exactly 0 on every row; a NaN in
    one matrix outside S makes the bound inf."""
    rep = builders.permutation_rep(4)
    law = hilbmod.check_unitary_rep(rep)
    assert tuple(law) == (0.0, 0.0, 0.0)
    assert hilbmod.intertwining_residual(rep, nk.eye(4), rep) == 0.0
    mats = rep.mats.copy()
    mats[_off_generators(rep.group), 0, 0] = np.nan
    broken = hilbmod.UnitaryRep(rep.group, 4, mats)
    assert hilbmod.check_unitary_rep(broken).hom_residual == np.inf
    assert hilbmod.intertwining_residual(rep, nk.eye(4), broken) == np.inf


@pytest.mark.parametrize("source", [(2, 2, 1, "symmetric:3"), "twisted S3"], ids=str)
@pytest.mark.parametrize("kind", ["verify", "crossed"])
def test_a_badly_conditioned_basis_keeps_the_exact_verdict(source, kind, tmp_path, monkeypatch):
    """On a module basis of condition 20 the bounds exceed the gates an exact check
    passes; the rows above ``BOUND_TOL`` are then the exact worst over every t, so the
    run passes, as every row's exact all-t value does.  Reported as bounds only, the
    same run fails."""
    scenario, path = builders.conditioned_scenario(_covariant(source), kind), tmp_path / "scenario.json"
    path.write_bytes(cli.canonical_bytes(scenario))
    system = cli.resolve_scenario(scenario, "conditioned").cov.system
    assert max(ref.dynamical_system(system)[:-1]) <= 1e-12
    args = [kind, "--scenario", str(path), "--out", str(tmp_path / "cert.json")]
    assert cli.main(args) == 0
    certificate = json.loads((tmp_path / "cert.json").read_text())
    assert all(certificate["checks"].values())
    with monkeypatch.context() as patch:
        patch.setattr(bounds, "BOUND_TOL", np.inf)
        assert cli.main(args) != 0


def test_the_gram_is_formed_only_where_it_is_reported(tmp_path, monkeypatch):
    """``crossed`` and a covariant ``uniqueness`` run never form the Gram-preservation
    row; ``verify`` and ``dilate-covariant`` report the loop's value bit for bit."""
    made = []
    dilate = stinespring.dilate_covariant
    monkeypatch.setattr(stinespring, "dilate_covariant", lambda cov: made.append(dilate(cov)) or made[-1])
    for kind in cli.KINDS[1:]:
        path = tmp_path / "scenario.json"
        path.write_bytes(cli.canonical_bytes(cli.generate_scenario(kind, 2, 2, 2, 7, "symmetric:3")))
        assert cli.main([kind, "--scenario", str(path), "--out", str(tmp_path / "cert.json")]) == 0
        dilation = made[-1]
        if kind in ("crossed", "uniqueness"):
            assert "gram_preservation_residual" not in vars(dilation)
        else:
            row = json.loads((tmp_path / "cert.json").read_text())["residuals"]["gram_preservation"]
            assert row == ref.covariant_groups(dilation.cov_map, dilation.base)[1]


def test_the_twisted_payload_is_the_builders():
    """``scenarios/twisted_s3.json`` is ``builders.twisted_scenario("symmetric", 3, 3, 3, 1, 5)``,
    up to the last bits of another LAPACK's Haar unitaries."""
    committed = cli.resolve_scenario(json.loads((PAYLOADS / "twisted_s3.json").read_text()), "committed")
    built = cli.resolve_scenario(builders.twisted_scenario("symmetric", 3, 3, 3, 1, 5), "built")
    for a, b in ((committed.cov.base.images, built.cov.base.images), (committed.cov.u.mats, built.cov.u.mats)):
        assert nk.maxabs(a - b) <= 1e-12
    group, alpha = committed.cov.system.group, committed.cov.system.alpha
    assert nk.maxabs(alpha - alpha[group.inv]) > 0.1


def _explicit_s3():
    return json.loads((PAYLOADS / "explicit_system_s3.json").read_text())


def test_the_explicit_s3_payload_is_the_twisted_one_written_out():
    """``scenarios/explicit_system_s3.json`` is ``builders.explicit_system_scenario`` of the
    twisted builder's scenario, up to the last bits of another LAPACK's Haar unitaries: the
    twisted S3 system as eta and alpha stacks, u as delta's matrices, the same map and u'."""
    committed = cli.resolve_scenario(_explicit_s3(), "committed").cov
    built = builders.explicit_system_scenario(builders.twisted_scenario("symmetric", 3, 3, 3, 1, 5))
    assert committed.system.gamma is None
    for cov in (cli.resolve_scenario(built, "built").cov, _covariant("twisted S3")):
        assert committed.system.group.same_as(cov.system.group)
        for a, b in zip(
            (committed.system.eta, committed.system.alpha, committed.u.mats, committed.u_prime.mats, committed.base.images),
            (cov.system.eta, cov.system.alpha, cov.u.mats, cov.u_prime.mats, cov.base.images),
        ):
            assert nk.maxabs(a - b) <= 1e-12


@pytest.mark.parametrize("source", ["explicit S3", "S4"])
def test_no_eigensolve_or_rank_runs_on_eta_or_alpha(monkeypatch, source):
    """``check_dynamical_system`` on explicit stacks (the S3 payload, S4's Haar-conjugated
    natural action) and ``derive_standard_action`` on the standard action they write out
    reach neither the eigensolver nor a rank rule: invertibility is read off the law row."""
    if source == "S4":
        standard = hilbmod.standard_action(*_standard("S4"))
    else:
        standard = _covariant("twisted S3").system
    explicit = hilbmod.ModuleDynamicalSystem(standard.group, standard.module, standard.eta, standard.alpha)
    calls = collections.Counter()
    for name in ("_descending_eigh", "spectral_rank", "numerical_rank"):
        fn = getattr(nk, name)
        monkeypatch.setattr(nk, name, lambda *args, fn=fn, name=name, **kwargs: calls.update([name]) or fn(*args, **kwargs))
    report, derived = hilbmod.check_dynamical_system(explicit), hilbmod.derive_standard_action(standard)
    assert not calls
    assert report.invertible and derived.report.invertible


def test_representations_and_systems_hold_read_only_matrices():
    """What the cached laws read cannot change under them: a representation and a
    system copy a writable stack they are given and keep it read-only."""
    rep = builders.permutation_rep(3)
    mats = rep.mats.copy()
    held = hilbmod.UnitaryRep(rep.group, 3, mats)
    assert held.law.hom == 0.0
    mats[1, 0, 0] += 1.0
    assert not held.mats.flags.writeable and hilbmod.check_unitary_rep(held).hom_residual == 0.0
    with pytest.raises(ValueError):
        held.mats[1, 0, 0] = 2.0
    system = _covariant((1, 2, 1, "cyclic:3")).system
    eta = system.eta.copy()
    moved = hilbmod.ModuleDynamicalSystem(system.group, system.module, eta, system.alpha)
    assert moved.eta_rep.mats is moved.eta and not moved.eta.flags.writeable
    eta[1] *= 2.0
    assert hilbmod.check_dynamical_system(moved).max_residual <= bounds.BOUND_TOL


# --- a standard action's laws and rows, derived from gamma and delta ---------------------


def _standard(source):
    """(group, gamma, delta) of the twisted S3 payload, of a generated trivial-group scenario
    (S empty: each plant is at the identity), or of S4's natural representation conjugated
    by two seeded Haar unitaries (faithful, so delta_t differs from delta_{t^-1})."""
    if source != "S4":
        system = _covariant("twisted S3" if source == "twisted S3" else (2, 2, 2, None)).system
        return system.group, system.gamma, system.delta
    rng, natural = np.random.default_rng(3), builders.permutation_rep(4)
    return natural.group, *(hilbmod.conjugate_rep(natural, nk.haar_unitary(rng, 4)) for _ in range(2))


def _plant_rep(rep, where, size):
    """``size`` planted at a t outside S: a non-unitary entry, or a unitary phase that breaks
    only the law, at every pair (a, b) with a or b that t, pairs that are no Cayley edge."""
    t, mats = _off_generators(rep.group), rep.mats.copy()
    if where == "law":
        mats[t, :, 0] *= np.exp(1j * size)
    else:
        mats[t, 0, -1] += size
    return hilbmod.UnitaryRep(rep.group, rep.dim, mats)


@pytest.mark.parametrize("source", ["twisted S3", "S4", "trivial"])
@pytest.mark.parametrize("where, plant", _plants(["gamma unitarity", "delta law", "delta unitarity"]))
def test_a_standard_action_derives_its_rows_from_gamma_and_delta(source, where, plant):
    """Every row of the report and of the laws of eta and alpha is at least its dense all-t
    (all-pairs) value, over the gate whenever that is, and at most 100 times the larger of
    it and the plant plus 1e-12.  Up to ``BOUND_TOL`` they are derived from gamma and delta
    and the derived premises bound the operator norms they name; above it the stacks are
    checked as any system's."""
    group, gamma, delta = _standard(source)
    if where is not None:
        name, part = where.split()
        planted = _plant_rep(gamma if name == "gamma" else delta, part, plant)
        gamma, delta = (planted, delta) if name == "gamma" else (gamma, planted)
    system = hilbmod.standard_action(group, gamma, delta)
    report, dense = system.action_report, ref.dynamical_system(system)
    assert report.invertible == dense[-1]
    for row, value in zip(report[:-1], dense[:-1]):
        _bounds(row, value, plant)
    for rep in (system.eta_rep, system.alpha_rep):
        hom, unit = ref.group_law(group, rep.mats)
        _bounds(rep.law.hom, hom, plant)
        _bounds(rep.law.unit, unit, plant)
        _bounds(hilbmod.check_unitary_rep(rep).unitary_residual, ref.unitarity(rep.mats), plant)
    assert (system.derived is None) == (plant > bounds.BOUND_TOL)
    if system.derived is not None:
        for rep in (system.eta_rep, system.alpha_rep):
            _operator_premises_hold(rep.law.premises, rep.mats, group)
        assert max(report[:-1]) <= bounds.BOUND_TOL
    elif where != "delta law":  # a non-unitary gamma_t or delta_t moves equivariance or compatibility
        assert max(report[1:3]) > GATE


def test_gamma_times_1e200_keeps_the_exit_codes(tmp_path):
    """The twisted payload with gamma scaled by 1e200 derives nothing: ``dilate`` passes,
    ``verify`` certifies the failing rows its stacks give (exit 1) and the other covariant
    kinds refuse the input."""
    scenario = json.loads((PAYLOADS / "twisted_s3.json").read_text())
    for mat in scenario["objects"]["system"]["standard_action"]["gamma"]["mats"]:
        mat["entries"] = [[re * 1e200, im * 1e200] for re, im in mat["entries"]]
    for kind in cli.KINDS:
        path = tmp_path / f"{kind}.json"
        path.write_bytes(cli.canonical_bytes({**scenario, "kind": kind}))
        code = {"dilate": 0, "verify": 1}.get(kind, 2)
        assert cli.main([kind, "--scenario", str(path), "--out", str(tmp_path / "cert.json")]) == code
    system = cli.resolve_scenario(scenario, "scaled").cov.system
    with np.errstate(over="ignore", invalid="ignore"):
        assert system.gamma is not None and system.derived is None


@pytest.mark.parametrize("field", ["eta", "alpha"])
def test_a_system_whose_gamma_and_delta_do_not_give_it_is_checked_on_its_stacks(field):
    """``dataclasses.replace`` of a standard action makes a system without gamma and delta:
    its report is ``check_dynamical_system``'s, which sees a defect planted in the stack,
    where the derived rows could not."""
    system = _covariant("twisted S3").system
    planted = replace(system, **{field: _planted(getattr(system, field), _off_generators(system.group), 1e-6)})
    assert system.gamma is not None and system.derived is not None
    assert planted.gamma is None and planted.derived is None
    assert planted.action_report == hilbmod.check_dynamical_system(planted)
    assert planted.action_report.max_residual > GATE
    assert planted.eta_rep.law.hom == hilbmod.group_law(planted.group, planted.eta).hom


def test_a_crossed_run_forms_no_law_rank_or_system_check_on_eta_or_alpha(tmp_path, monkeypatch):
    """A generated 2,2,2 ``symmetric:3`` ``crossed`` run forms the group laws of gamma,
    delta (which is u) and u' alone and runs no ``check_dynamical_system``: eta's and alpha's
    laws and rows are derived from gamma's and delta's, and nothing ranks eta or alpha."""
    stacks = collections.defaultdict(list)

    def recording(name, fn):
        def record(*args):
            stacks[name].append(args[-1])
            return fn(*args)

        return record

    for owner, name in ((hilbmod, "group_law"), (hilbmod, "check_dynamical_system")):
        monkeypatch.setattr(owner, name, recording(name, getattr(owner, name)))
    scenario, path = cli.generate_scenario("crossed", 2, 2, 2, 7, "symmetric:3"), tmp_path / "crossed.json"
    path.write_bytes(cli.canonical_bytes(scenario))
    assert cli.main(["crossed", "--scenario", str(path), "--out", str(tmp_path / "cert.json")]) == 0
    cov = cli.resolve_scenario(scenario, "again").cov
    assert set(stacks) == {"group_law"}
    expected = [cov.system.gamma.mats, cov.u.mats, cov.u_prime.mats]
    assert len(stacks["group_law"]) == 3
    assert all(np.array_equal(a, b) for a, b in zip(stacks["group_law"], expected))
    assert not any(np.array_equal(m, s) for m in stacks["group_law"] for s in (cov.system.eta, cov.system.alpha))


def test_a_tolerance_below_the_default_keeps_the_exact_verdict(tmp_path, monkeypatch):
    """``verify`` 8,8,8 ``symmetric:4`` at ``--tol 1e-12``: its bounds reach 8e-12, its exact
    values 1e-13, so bounds are reported only up to a tenth of the run's tolerance and
    the run passes; at a fixed ``BOUND_TOL`` it fails.  At the default tolerance the limit
    is ``BOUND_TOL`` itself."""
    path = tmp_path / "corner.json"
    path.write_bytes(cli.canonical_bytes(cli.generate_scenario("verify", 8, 8, 8, 11, "symmetric:4")))
    args = ["verify", "--scenario", str(path), "--out", str(tmp_path / "cert.json"), "--tol", "1e-12"]
    assert cli.main(args) == 0
    assert all(json.loads((tmp_path / "cert.json").read_text())["checks"].values())
    for tolerance, limit in ((nk.RESIDUAL_TOL, bounds.BOUND_TOL), (1.0, bounds.BOUND_TOL), (1e-12, 1e-13)):
        with bounds.gated(tolerance):
            assert bounds.exact_limit() == pytest.approx(limit, rel=1e-15)
    assert bounds.exact_limit() == bounds.BOUND_TOL
    monkeypatch.setattr(bounds, "exact_limit", lambda: bounds.BOUND_TOL)
    assert cli.main(args) == 1
