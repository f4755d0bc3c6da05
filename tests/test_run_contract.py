"""Run-level contracts: each invariant is checked once per scenario, bad
scenario values exit 2 without a traceback, group payloads, explicit object
sizes and structure dumps are bounded before anything is allocated, and
``--jobs`` never starts more workers than scenarios or CPUs."""

import collections
import copy
import functools
import itertools
import json
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import builders
from covstine import cli, cpmaps, crossed, cstar, hilbmod, stinespring
from covstine import numkernel as nk
from covstine.errors import BoundsError, NotActionError, ParseError, ShapeMismatchError

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "covstine" / "scenarios"
CHECKS = {
    "check_module_cp": cpmaps.check_module_cp,
    "check_covariance": cpmaps.check_covariance,
    "check_module_axioms": hilbmod.check_module_axioms,
    "check_dynamical_system": hilbmod.check_dynamical_system,
}


def _bundled(name):
    return json.loads((SCENARIOS / name).read_text())


def _run(tmp_path, capsys, payload, kind=None, extra=()):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    code = cli.main([kind or payload["kind"], "--scenario", str(path), *extra])
    return code, capsys.readouterr().err


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls of each check, patched in every covstine module that binds it."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for key, m in sys.modules.items() if key.startswith("covstine") and m]
    for name, fn in CHECKS.items():
        wrapper = counting(name, fn)
        for module in modules:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.mark.parametrize(
    "kind, p, n, amplification, group",
    [
        ("dilate", 2, 2, 2, None),
        ("dilate-covariant", 1, 2, 1, "cyclic:2"),
        ("verify", 1, 2, 1, "cyclic:2"),
        ("uniqueness", 2, 2, 1, None),
        ("crossed", 1, 2, 1, "cyclic:2"),
    ],
)
def test_each_check_runs_at_most_once_per_scenario(
    tmp_path, call_counts, kind, p, n, amplification, group
):
    path = tmp_path / f"{kind}.json"
    path.write_bytes(
        cli.canonical_bytes(cli.generate_scenario(kind, p, n, amplification, 11, group))
    )
    cert = cli.run_scenario(str(path))
    assert cert.passed
    assert call_counts["check_module_cp"] == 1
    assert all(count <= 1 for count in call_counts.values()), dict(call_counts)
    if kind in ("verify", "crossed"):
        assert call_counts["check_dynamical_system"] == 1
    assert not hasattr(crossed, "_check_action")


@pytest.mark.parametrize("kind, group", [("dilate", None), ("dilate-covariant", "cyclic:2")])
def test_choi_blocks_are_built_once_per_dilation(tmp_path, monkeypatch, kind, group):
    """The CP test and the GNS factor read one cached Choi report, and each
    Choi block is eigensolved once: both read the spectra stored in it."""
    path = tmp_path / f"{kind}.json"
    path.write_bytes(cli.canonical_bytes(cli.generate_scenario(kind, 2, 2, 2, 11, group)))
    reports = []
    original = cstar.choi_blocks

    def counting(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    solved = []

    def recording(solver):
        def wrapper(m, *args, **kwargs):
            solved.append(np.array(m))
            return solver(m, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(cstar, "choi_blocks", counting)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    assert cli.run_scenario(str(path)).passed
    assert len(reports) == 1
    for c in reports[0].choi:
        hermitian = (c + c.conj().T) / 2
        assert sum(np.array_equal(m, hermitian) for m in solved) == 1


def test_fullness_is_decided_once_per_covariant_run(tmp_path, monkeypatch):
    """Fullness is decided, and every ``<X, X>`` solve pseudo-inverted, on one
    ``gram_factor`` of the (N, N) Gram of the module's inner-product rows."""
    flat = hilbmod.standard_module(2, 2).inner.reshape(16, 4)
    fullness_gram = nk.adjoint(flat) @ flat
    factored = []
    original = nk.gram_factor

    def recording(gram):
        factored.append(np.array(gram))
        return original(gram)

    monkeypatch.setattr(nk, "gram_factor", recording)
    for kind in ("dilate-covariant", "uniqueness"):
        path = tmp_path / f"{kind}.json"
        path.write_bytes(
            cli.canonical_bytes(cli.generate_scenario(kind, 2, 2, 1, 11, "cyclic:2"))
        )
        factored.clear()
        assert cli.run_scenario(str(path)).passed
        assert sum(np.array_equal(gram, fullness_gram) for gram in factored) == 1, kind


@pytest.fixture
def scanned(monkeypatch):
    """The modules whose structure tensors ``hilbmod.module_support`` scans."""
    modules = []
    original = hilbmod.module_support

    def scanning(module):
        modules.append(module)
        return original(module)

    monkeypatch.setattr(hilbmod, "module_support", scanning)
    return modules


@pytest.mark.parametrize("kind", cli.KINDS)
def test_only_verify_checks_the_module_axioms(tmp_path, call_counts, scanned, kind):
    """The constructions read fullness off the Gram factor and a standard module's
    support in closed form: only ``verify`` computes the module-axiom rows, and
    no kind scans the structure tensors of a standard module."""
    path = tmp_path / f"{kind}.json"
    path.write_bytes(cli.canonical_bytes(cli.generate_scenario(kind, 2, 2, 2, 11, "symmetric:3")))
    assert cli.main([kind, "--scenario", str(path), "--out", str(tmp_path / "cert.json")]) == 0
    assert call_counts["check_module_axioms"] == (1 if kind == "verify" else 0)
    assert scanned == []


def test_verify_groups_the_inner_rows_once(tmp_path, monkeypatch):
    """Linearity and equivariance read one grouping of the inner rows: a ``verify``
    run of a covariant scenario groups them once, and the action rows once."""
    grouped, systems = [], []
    group_rows, check_system = hilbmod._grouped_rows, hilbmod.check_dynamical_system

    def grouping(shape, first, second, third, values):
        grouped.append(values)
        return group_rows(shape, first, second, third, values)

    def checking(system):
        systems.append(system)
        return check_system(system)

    monkeypatch.setattr(hilbmod, "_grouped_rows", grouping)
    monkeypatch.setattr(hilbmod, "check_dynamical_system", checking)
    path = tmp_path / "verify.json"
    path.write_bytes(cli.canonical_bytes(cli.generate_scenario("verify", 2, 2, 2, 11, "symmetric:3")))
    assert cli.main(["verify", "--scenario", str(path), "--out", str(tmp_path / "cert.json")]) == 0
    [system] = systems
    assert sum(values is system.module.support.values for values in grouped) == 1
    assert len(grouped) == 2


def test_a_module_given_by_tensors_is_scanned_once(tmp_path, scanned):
    """The counting of the guard above sees the scan where there is one."""
    path = Path(__file__).resolve().parent / "scenarios" / "dense_basis_21.json"
    assert cli.main(["dilate", "--scenario", str(path), "--out", str(tmp_path / "cert.json")]) == 0
    assert len(scanned) == 1


@pytest.fixture
def materialised(monkeypatch):
    """The ``(module, name)`` of each ``action`` or ``inner`` scattered from a support."""
    reads = []
    for name in ("action", "inner"):
        scatter = vars(hilbmod.HilbertModule)[name].func

        def reading(module, name=name, scatter=scatter):
            reads.append((module, name))
            return scatter(module)

        counted = functools.cached_property(reading)
        counted.__set_name__(hilbmod.HilbertModule, name)
        monkeypatch.setattr(hilbmod.HilbertModule, name, counted)
    return reads


GENERATED_SOURCES = {"2,2,2 symmetric:3": (2, 2, 2, "symmetric:3"), "8,8,2": (8, 8, 2, None)}
BUNDLED = sorted(path.name for path in SCENARIOS.glob("*.json"))


@pytest.mark.parametrize("source", [*GENERATED_SOURCES, *BUNDLED])
@pytest.mark.parametrize("kind", cli.KINDS)
def test_no_run_scatters_a_standard_modules_tensors(tmp_path, materialised, source, kind):
    """Every kind reads a standard module from its support alone: run as each kind,
    generated scenarios and the bundled ones (which all hold standard modules)
    never scatter ``action`` or ``inner``.  A bundled scenario relabelled to a kind
    its objects do not fit exits 2 before any construction."""
    if source in GENERATED_SOURCES:
        p, n, amplification, group = GENERATED_SOURCES[source]
        scenario = cli.generate_scenario(kind, p, n, amplification, 11, group)
    else:
        scenario = {**_bundled(source), "kind": kind}
    path = tmp_path / "scenario.json"
    path.write_bytes(cli.canonical_bytes(scenario))
    code = cli.main([kind, "--scenario", str(path), "--out", str(tmp_path / "cert.json")])
    assert code == 0 or (code == 2 and source not in GENERATED_SOURCES)
    assert materialised == []


def test_reading_a_standard_modules_tensors_scatters_them_once(materialised):
    """The counting of the guard above sees a read where there is one."""
    module = hilbmod.standard_module(2, 3)
    assert module.inner is module.inner and module.action.shape == (6, 9, 6)
    assert materialised == [(module, "inner"), (module, "action")]


def _z2_system():
    group = hilbmod.cyclic_group(2)
    delta = hilbmod.UnitaryRep(group, 2, np.stack([np.eye(2), np.diag([1.0, -1.0])]))
    return hilbmod.standard_action(group, hilbmod.trivial_rep(group, 1), delta)


@pytest.mark.parametrize("which", ["eta", "alpha"])
@pytest.mark.parametrize("small", [0.0, 1e-7])
def test_singular_eta_or_alpha_is_rejected(which, small):
    """Invertibility is decided by the package's one rank rule: a singular value
    of 1e-7 relative to the largest falls below its cutoff (eigenvalue ratio
    1e-10 on the Gram), as an exact zero does."""
    system = _z2_system()
    assert hilbmod.check_dynamical_system(system).invertible
    eta, alpha = system.eta.copy(), system.alpha.copy()
    target = eta if which == "eta" else alpha
    target[1, 0] *= small
    broken = hilbmod.ModuleDynamicalSystem(system.group, system.module, eta, alpha)
    assert not hilbmod.check_dynamical_system(broken).invertible
    with pytest.raises(NotActionError):
        crossed.build_crossed_module(broken)


def _set(payload, path, value):
    out = copy.deepcopy(payload)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


Z2 = _bundled("z2_concrete.json")
S3 = _bundled("s3_crossed.json")
DELTA_ENTRY = ("objects", "system", "standard_action", "delta", "mats", 0, "entries", 0)
GROUP = ("generate", "group")


@pytest.mark.parametrize(
    "payload, field",
    [
        (_set(Z2, DELTA_ENTRY, ["1", 0]), "entries[0]"),
        (_set(Z2, DELTA_ENTRY, [True, 0]), "entries[0]"),
        (_set(Z2, DELTA_ENTRY, [float("nan"), 0]), "entries[0]"),
        (_set(Z2, DELTA_ENTRY, [0, float("inf")]), "entries[0]"),
        (_set(Z2, DELTA_ENTRY, [float("-inf"), 0]), "entries[0]"),
        (_set(Z2, ("tolerance",), "x"), "tolerance"),
        (_set(Z2, ("tolerance",), -1), "tolerance"),
        (_set(Z2, ("tolerance",), 0), "tolerance"),
        (_set(Z2, ("tolerance",), float("nan")), "tolerance"),
        (_set(Z2, ("tolerance",), float("inf")), "tolerance"),
        (_set(S3, ("seed",), "abc"), "seed"),
        (_set(S3, ("seed",), -5), "seed"),
        (_set(S3, ("seed",), True), "seed"),
        (_set(S3, ("seed",), 1.5), "seed"),
        (_set(S3, ("generate", "p"), 1.7), "'p'"),
        (_set(S3, ("generate", "n"), "2"), "'n'"),
        (_set(S3, ("generate", "amplification"), 1.0), "'amplification'"),
        (_set(S3, GROUP, {"symmetric": 9}), "symmetric:9"),
        (_set(S3, GROUP, {"cyclic": 0}), "cyclic:0"),
        (_set(S3, GROUP, {"cyclic": 25}), "cyclic:25"),
        (_set(S3, GROUP, {"cyclic": "2"}), "cyclic"),
        (_set(S3, GROUP, {"order": 2, "mult": [[0, 1], [1, 2]], "inv": [0, 1], "e": 0}), "entries"),
        (_set(S3, GROUP, {"order": 2, "mult": [[0, 1], [1, 0]], "inv": [0, 1], "e": 5}), "entries"),
        (_set(S3, GROUP, {"order": 30, "mult": [], "inv": [], "e": 0}), "order"),
        (_set(Z2, ("objects", "system", "standard_action", "group"), {"symmetric": 9}), "symmetric:9"),
        (_set(Z2, DELTA_ENTRY[:-3] + (1,), {"rows": 1, "cols": 1, "entries": [[1, 0]]}), "mats"),
    ],
)
def test_bad_scenario_values_exit_two_naming_the_field(tmp_path, capsys, payload, field):
    code, err = _run(tmp_path, capsys, payload)
    assert code == 2
    assert "Traceback" not in err
    assert field in err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--tol", "nan"], "--tol"),
        (["--tol", "-1"], "--tol"),
        (["--tol", "inf"], "--tol"),
        (["--seed", "-5"], "--seed"),
    ],
)
def test_bad_overrides_exit_two(tmp_path, capsys, flags, field):
    code, err = _run(tmp_path, capsys, S3, extra=flags)
    assert code == 2
    assert "Traceback" not in err
    assert field in err


@pytest.mark.parametrize(
    "payload", [{"symmetric": 9}, {"cyclic": 0}, {"cyclic": 25}, {"symmetric": 10**9}]
)
def test_group_payloads_bounded_before_tables(payload):
    with pytest.raises((BoundsError, ParseError)):
        cli.group_from_json(payload)


IDENTITY = _bundled("identity.json")
STANDARD_MODULE = ("objects", "module", "standard_module")
GAMMA = ("objects", "system", "standard_action", "gamma")


@pytest.mark.parametrize(
    "payload, field, allocator",
    [
        (_set(IDENTITY, STANDARD_MODULE, [40, 40]), "'standard_module'", "standard_module"),
        (_set(IDENTITY, STANDARD_MODULE, [1, 9]), "'standard_module'", "standard_module"),
        (_set(Z2, ("objects", "u_prime"), {"trivial": 40_000}), "u_prime: 'trivial'", "trivial_rep"),
        (_set(Z2, GAMMA, {"trivial": 10**9}), "gamma: 'trivial'", "trivial_rep"),
    ],
)
def test_explicit_object_sizes_bounded_before_allocation(
    tmp_path, capsys, monkeypatch, payload, field, allocator
):
    original = getattr(hilbmod, allocator)

    def guarded(*args):
        if any(isinstance(arg, int) and arg > cli.MAX_SPACE_DIM for arg in args):
            raise AssertionError(f"{allocator}{args[-2:]} was called before the size bound")
        return original(*args)

    monkeypatch.setattr(hilbmod, allocator, guarded)
    tracemalloc.start()
    try:
        code, err = _run(tmp_path, capsys, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "Traceback" not in err
    assert field in err and "BoundsError" in err
    assert peak < 8 * 2**20


def test_standard_module_payload_bounded():
    assert cli.module_from_json({"standard_module": [8, 8]}).dim == 64
    with pytest.raises(BoundsError, match="standard_module"):
        cli.module_from_json({"standard_module": [9, 1]})


def test_explicit_group_range_checked():
    with pytest.raises(ShapeMismatchError, match="outside"):
        hilbmod.FiniteGroup(2, np.array([[0, 1], [1, 7]]), 0, np.array([0, 1]))
    with pytest.raises(ShapeMismatchError):
        hilbmod.cyclic_group(0)


def test_associativity_failure_names_first_triple():
    # a loop of order 5 with identity 0 and inverses, but not associative
    mult = np.array(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
    )
    first = next(
        (s, t, r)
        for s, t, r in itertools.product(range(5), repeat=3)
        if mult[mult[s, t], r] != mult[s, mult[t, r]]
    )
    with pytest.raises(ShapeMismatchError, match=f"associative at {re.escape(str(first))}"):
        hilbmod.FiniteGroup(5, mult, 0, np.arange(5))


def test_worker_count_is_capped(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli.worker_count(8, 3) == 3
    assert cli.worker_count(8, 10) == 4
    assert cli.worker_count(2, 10) == 2
    assert cli.worker_count(0, 5) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli.worker_count(8, 10) == 1


def test_gen_rejects_bad_seed_and_tolerance(capsys):
    base = ["gen", "--kind", "dilate", "--p", "1", "--n", "1"]
    assert cli.main(base + ["--seed", "-1"]) == 2
    assert cli.main(base + ["--seed", "1", "--tol", "nan"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_structure_dump_bounded_before_the_dilation(tmp_path, capsys, monkeypatch):
    """S4 conjugating M_8 by a generic unitary has 576 * 4096 * 8 structure constants."""

    def refused(*args, **kwargs):
        raise AssertionError("the dilation started before the structure bound")

    monkeypatch.setattr(stinespring, "dilate_covariant", refused)
    payload = cli.generate_scenario("crossed", 1, 8, 1, 3, "symmetric:4")
    tracemalloc.start()
    try:
        code, err = _run(tmp_path, capsys, payload, extra=["--dump-structure"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "Traceback" not in err
    assert "BoundsError" in err and "18874368 structure constants" in err
    assert peak < 16 * 2**20


@pytest.mark.parametrize("group, p, n", [("cyclic:2", 1, 2), ("symmetric:3", 1, 2)])
def test_structure_entry_count_matches_the_dump(tmp_path, group, p, n):
    path = tmp_path / "crossed.json"
    path.write_bytes(cli.canonical_bytes(cli.generate_scenario("crossed", p, n, 1, 3, group)))
    cert = cli.run_scenario(str(path), dump_structure=True)
    system = cli.resolve_scenario(cli.load_scenario(str(path)), str(path)).cov.system
    calg = crossed.CrossedAlgebra(system.group, system.module.algebra, system.alpha)
    assert len(cert.provenance["structure_constants"]) == crossed.structure_entry_count(calg)


def test_structure_entry_count_of_a_permutation_action():
    """Permuting matrix units fills one entry per product, not a block row:
    S4 on M_5 stays under the limit that g^2 N^2 n_max = 1.8 million exceeds."""
    group = hilbmod.symmetric_group(4)
    delta = hilbmod.direct_sum_rep(builders.permutation_rep(4), hilbmod.trivial_rep(group))
    system = hilbmod.standard_action(group, hilbmod.trivial_rep(group), delta)
    calg = crossed.CrossedAlgebra(group, system.module.algebra, system.alpha)
    count = crossed.structure_entry_count(calg)
    assert count == len(crossed.structure_entries(calg)[0]) == 24 * 24 * 25 * 5
    assert count <= cli.MAX_STRUCTURE_ROWS < 24**2 * 25**2 * 5


ONE = {"rows": 1, "cols": 1, "entries": [[1, 0]]}
EXPLICIT = _set(
    IDENTITY,
    ("objects",),
    {
        "module": {
            "algebra": {"blocks": [1]},
            "dim": 1,
            "action": {"shape": [1, 1, 1], "entries": [[1, 0]]},
            "inner": {"shape": [1, 1, 1], "entries": [[1, 0]]},
        },
        "cp_map": {"images": {"0": ONE}, "companion": {"space_dim": 1, "images": {"0:0:0": ONE}}},
    },
)
BLOCKS = ("objects", "module", "algebra", "blocks")
CP_MAP = ("objects", "cp_map")
EMPTY_MODULE = {
    "algebra": {"blocks": [1]},
    "dim": 0,
    "action": {"shape": [0, 1, 0], "entries": []},
    "inner": {"shape": [0, 0, 1], "entries": []},
}
ZERO = {"rows": 1, "cols": 1, "entries": [[0, 0]]}
TWO_BY_TWO = {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}
# C + C over itself: x_b . E_b = x_b and <x_b, x_b> = E_b
DIAGONAL = {"shape": [2, 2, 2], "entries": [[1, 0], *[[0, 0]] * 6, [1, 0]]}
TWO_BLOCKS = _set(
    EXPLICIT,
    ("objects",),
    {
        "module": {"algebra": {"blocks": [1, 1]}, "dim": 2, "action": DIAGONAL, "inner": DIAGONAL},
        "cp_map": {
            "images": {"0": ONE, "1": ZERO},
            "companion": {"space_dim": 1, "images": {"0:0:0": ONE, "1:0:0": ZERO}},
        },
    },
)
COMPANION_IMAGES = CP_MAP + ("companion", "images")


def test_explicit_module_payload_runs(tmp_path, capsys):
    code, err = _run(tmp_path, capsys, EXPLICIT)
    assert code == 0, err


@pytest.mark.parametrize(
    "payload, field, error",
    [
        (_set(EXPLICIT, BLOCKS, ["x"]), "'blocks'", "ParseError"),
        (_set(EXPLICIT, BLOCKS, 2), "'blocks'", "ParseError"),
        (_set(EXPLICIT, BLOCKS, []), "'blocks'", "ParseError"),
        (_set(EXPLICIT, BLOCKS, [1.5]), "'blocks'", "ParseError"),
        (_set(EXPLICIT, BLOCKS, [True]), "'blocks'", "ParseError"),
        (_set(EXPLICIT, BLOCKS, [0]), "'blocks'", "ParseError"),
        (_set(EXPLICIT, BLOCKS, [9]), "dimension 81", "BoundsError"),
        (_set(EXPLICIT, BLOCKS, [5, 5, 1]), "action tensor shape", "ShapeMismatchError"),
        (_set(EXPLICIT, BLOCKS, [10**12]), "algebra payload", "BoundsError"),
        (_set(EXPLICIT, ("objects", "module"), EMPTY_MODULE), "'dim'", "ParseError"),
        *(
            (_set(EXPLICIT, CP_MAP + where, value), ".".join(("cp_map",) + where), "ParseError")
            for where in [("images",), ("companion", "images")]
            for value in [5, "0", "0:0:0", [ONE]]
        ),
        (_set(EXPLICIT, COMPANION_IMAGES + ("9:9:9",), ONE), "'9:9:9'", "ParseError"),
        (_set(EXPLICIT, CP_MAP + ("images", "7"), ONE), "'7'", "ParseError"),
        (_set(EXPLICIT, COMPANION_IMAGES + ("0:0:0",), TWO_BY_TWO), "'0:0:0' is not", "ParseError"),
        (_set(TWO_BLOCKS, COMPANION_IMAGES + ("1:0:0",), TWO_BY_TWO), "'1:0:0' is not", "ParseError"),
    ],
)
def test_bad_algebra_and_module_payloads_exit_two(
    tmp_path, capsys, monkeypatch, payload, field, error
):
    """Block sizes are JSON integers >= 1 with sum n_b^2 <= cli.MAX_DIM, checked
    before the N^2 product tables are built; an explicit module has dim >= 1."""
    original = cstar._structure

    def guarded(blocks):
        if sum(n * n for n in blocks) > cli.MAX_DIM:
            raise AssertionError(f"structure tables of {blocks} built before the bound")
        return original(blocks)

    monkeypatch.setattr(cstar, "_structure", guarded)
    code, err = _run(tmp_path, capsys, payload)
    assert code == 2
    assert "Traceback" not in err
    assert field in err and error in err


def test_two_block_explicit_payload_runs(tmp_path, capsys):
    code, err = _run(tmp_path, capsys, TWO_BLOCKS)
    assert code == 0, err


@pytest.mark.parametrize("kind", ["dilate", "verify", "uniqueness"])
def test_map_just_past_the_tolerance_fails_its_certificate(tmp_path, capsys, kind):
    """The image 1 + 3e-9 misses the identity by 6e-9: within PRECONDITION_TOL, so
    it is constructed, and past the tolerance 1e-9, so every command exits 1.  For
    uniqueness the solve onto the run's own unitary conjugate is not unitary (U1
    defect 1.2e-8), a failed check rather than bad input."""
    image = {"rows": 1, "cols": 1, "entries": [[1 + 3e-9, 0]]}
    payload = {**_set(EXPLICIT, CP_MAP + ("images", "0"), image), "kind": kind, "seed": 3}
    out = tmp_path / "cert.json"
    code, err = _run(tmp_path, capsys, payload, extra=("--out", str(out)))
    assert code == 1, err
    assert "Traceback" not in err
    cert = json.loads(out.read_text())
    assert not cert["pass"]
    if kind == "uniqueness":
        assert cert["ranks"]["intertwiners_unitary"] == {"achieved": 0, "required": 1}
        assert cert["skipped"]["uniqueness"].startswith("NotUnitaryError: ")


@pytest.mark.parametrize(
    "image, companion, codes",
    [
        (1e200, 1e300, (2, 1, 2)),  # inconsistent; the Gram of the image overflowed
        (1e150, 1e300, (0, 0, 0)),  # consistent, with an image Gram near the float range
        (1e-200, 1e-300, (2, 1, 2)),  # inconsistent; the Gram of the image underflowed to 0
        (1e-200, 1.0, (2, 2, 2)),  # the companion over the squared scale is past the float range
    ],
)
def test_input_magnitudes_get_the_unit_maps_verdict(tmp_path, capsys, image, companion, codes):
    """Exit codes of ``dilate``, ``verify`` and ``uniqueness`` on a 1 x 1 map of any
    magnitude: the map is scaled to unit size before anything is computed."""
    payload = _set(EXPLICIT, CP_MAP + ("images", "0"), {**ONE, "entries": [[image, 0]]})
    payload = _set(payload, COMPANION_IMAGES + ("0:0:0",), {**ONE, "entries": [[companion, 0]]})
    for kind, expected in zip(("dilate", "verify", "uniqueness"), codes):
        code, err = _run(tmp_path, capsys, {**payload, "kind": kind, "seed": 3})
        assert code == expected, (kind, err)
        assert "Traceback" not in err and "Warning" not in err


def test_an_over_long_integer_names_the_parsers_digit_limit(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_bytes(b'{"schema": 1, "kind": "dilate", "seed": ' + b"7" * 5000 + b"}")
    assert cli.main(["dilate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    limit = sys.get_int_max_str_digits()
    assert f"an integer of 5000 digits exceeds the parser's limit of {limit}" in err
    assert "set_int_max_str_digits" not in err


def test_concrete_map_needs_the_exact_standard_module(tmp_path, capsys):
    """A "concrete" map certifies the standard module in place of the payload's,
    so a payload a hair off the standard tensors is refused, not certified."""
    module = builders.module_to_json(hilbmod.standard_module(1, 2))
    entries = module["inner"]["entries"]
    entries[entries.index([0.0, 0.0])] = [5e-9, 0.0]
    payload = _set(IDENTITY, ("objects", "module"), module)
    payload["kind"] = "verify"
    assert cli.module_from_json(module).axiom_report.symmetry_residual > IDENTITY["tolerance"]
    code, err = _run(tmp_path, capsys, payload)
    assert code == 2
    assert "Traceback" not in err
    assert "ValidationError" in err and "standard module" in err


def test_algebra_bound_is_the_standard_module_bound():
    assert cli.MAX_DIM == cli.MAX_N**2
    assert cli.algebra_from_json({"blocks": [8]}).dim == 64
    assert cli.algebra_from_json({"blocks": [4, 4, 4, 4]}).dim == 64
    with pytest.raises(BoundsError):
        cli.algebra_from_json({"blocks": [4, 4, 4, 4, 1]})


@pytest.mark.parametrize("space_dim", [1.5, True, "1", -1])
def test_representation_space_dim_is_a_json_integer(space_dim):
    algebra = cstar.CStarAlgebra((1,))
    payload = {"space_dim": space_dim, "images": {"0:0:0": ONE}}
    with pytest.raises(ParseError, match="'space_dim'"):
        cli.representation_from_json(algebra, payload)


@pytest.mark.parametrize("images", [5, "0:0:0", [ONE]])
def test_representation_images_are_an_object(images):
    algebra = cstar.CStarAlgebra((1,))
    with pytest.raises(ParseError, match=r"^representation payload\.images: must be an object$"):
        cli.representation_from_json(algebra, {"space_dim": 1, "images": images})


def test_unwritable_out_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing"
    gen = ["gen", "--kind", "dilate", "--p", "1", "--n", "1", "--seed", "1"]
    assert cli.main(gen + ["--out", str(missing / "x.json")]) == 2
    scenario = tmp_path / "x.json"
    assert cli.main(gen + ["--out", str(scenario)]) == 0
    assert cli.main(["dilate", "--scenario", str(scenario), "--out", str(missing / "c.json")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("--out: cannot write") == 2


def test_parser_is_built_once_per_process(tmp_path):
    cli._parser.cache_clear()
    out = tmp_path / "x.json"
    gen = ["gen", "--kind", "dilate", "--p", "1", "--n", "1", "--seed", "1", "--out", str(out)]
    assert cli.main(gen) == 0
    assert cli.main(["dilate", "--scenario", str(out), "--out", str(tmp_path / "c.json")]) == 0
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize(
    "raw",
    [
        b'{"schema": 1, "kind": "dilate", "seed": ' + b"7" * 5000 + b"}",  # int-digits limit
        b'\xff\xfe{"schema": 1, "kind": "dilate"}',  # not UTF-8
        b"[" * 100_000,  # nesting past the recursion limit
    ],
    ids=["long-seed", "utf16-bom", "deep-nesting"],
)
def test_undecodable_scenarios_exit_two_naming_the_file(tmp_path, capsys, raw):
    """Raw bytes ``json.dumps`` cannot produce: each is a ParseError naming the
    file, alone and through a ``--jobs 2`` pool."""
    path = tmp_path / "scenario.json"
    path.write_bytes(raw)
    assert cli.main(["dilate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"{path}: ParseError: {path}: cannot decode scenario")
    twice = ["--scenario", str(path)] * 2
    assert cli.main(["dilate", *twice, "--jobs", "2"]) == 2
    assert capsys.readouterr().err == err * 2


INPUT_ROWS = {"input_identity", "companion_cp_defect", "companion_hermiticity"}
COVARIANT_INPUT_ROWS = INPUT_ROWS | {"input_covariance", "companion_covariance"}
DILATION_ROWS = {
    "gns_reconstruction", "gns_representation", "reconstruction", "representation_identity",
    "coisometry_rows",
}
COVARIANT_DILATION_ROWS = DILATION_ROWS | {
    "domain_unitaries_group_law", "domain_unitaries_unitarity", "codomain_unitaries_group_law",
    "codomain_unitaries_unitarity", "intertwine_V", "intertwine_W", "covariant_representation",
    "companion_covariant_rep", "gram_preservation", "subspace_invariance",
}
DENSITY_RANKS = {"gns_minimality", "range_density", "corange_density"}
AXIOM_ROWS = {"module_linearity", "module_symmetry", "module_positivity_defect", "dynamical_system"}
ROWS = {
    "dilate": (INPUT_ROWS | DILATION_ROWS, DENSITY_RANKS),
    "dilate-covariant": (COVARIANT_INPUT_ROWS | COVARIANT_DILATION_ROWS, DENSITY_RANKS),
    "crossed": (
        {"crossed_identity", "factorization", "crossed_algebra_axioms", "crossed_module_axioms"},
        {"integral_range_density", "integral_corange_density", "crossed_module_fullness"},
    ),
    "uniqueness": (
        {
            "alt_reconstruction", "intertwine_images", "unitarity_U1", "unitarity_U2",
            "v_map_residual", "w_map_residual", "covariant_v_residual", "covariant_w_residual",
            "recover_U1", "recover_U2",
        },
        set(),
    ),
    "verify": (
        COVARIANT_INPUT_ROWS | COVARIANT_DILATION_ROWS | AXIOM_ROWS,
        DENSITY_RANKS | {"dilation_constructed", "module_fullness"},
    ),
}


@pytest.mark.parametrize("kind", cli.KINDS)
def test_each_kind_emits_each_row_once_under_one_name(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    path.write_bytes(cli.canonical_bytes(cli.generate_scenario(kind, 1, 2, 1, 11, "cyclic:2")))
    cert = cli.run_scenario(str(path))
    assert cert.passed
    assert (set(cert.residuals), set(cert.ranks)) == ROWS[kind]


def test_failed_verify_names_its_input_rows_as_a_passing_one(tmp_path):
    """Trivial u breaks covariance, so the dilation is refused: the input rows
    keep the names they have when it is built, and only its own rows are gone."""
    payload = {**Z2, "kind": "verify"}
    payload["objects"] = {**Z2["objects"], "u": {"trivial": 2}}
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(payload))
    cert = cli.run_scenario(str(path))
    assert cert.ranks["dilation_constructed"] == (0, 1)
    assert cert.skipped["dilation"].startswith("NotCovariantError: ")
    assert set(cert.residuals) == COVARIANT_INPUT_ROWS | AXIOM_ROWS
    assert set(cert.ranks) == {"dilation_constructed", "module_fullness"}
    assert cert.residuals["input_covariance"] > cert.tolerance
