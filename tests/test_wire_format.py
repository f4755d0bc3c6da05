"""The scenario wire format through ``cli.main``: every payload object, given as
something other than an object, with an unknown field next to valid ones, or
with a required field missing, exits 2 without a traceback and with a message
that names the object and the field at fault.  A tagged form (``cyclic``,
``standard_module``, ``trivial``, ...) names the field beside its tag.  A command
line or payload rejected past the field rule (a missing file, a bad ``--group``, a
tensor, table or entry of the wrong form, a target or concrete map that the objects
do not allow) exits 2 the same way, on one stderr line."""

import json
from pathlib import Path

import pytest

from covstine import cli

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "covstine" / "scenarios"


def _bundled(name):
    return json.loads((SCENARIOS / name).read_text())


ONE = {"rows": 1, "cols": 1, "entries": [[1, 0]]}
UNIT = {"shape": [1, 1, 1], "entries": [[1, 0]]}
MODULE = {"algebra": {"blocks": [1]}, "dim": 1, "action": UNIT, "inner": UNIT}
CP_MAP = {"images": {"0": ONE}, "companion": {"space_dim": 1, "images": {"0:0:0": ONE}}}
IDENTITY = _bundled("identity.json")  # standard_module and concrete
Z2 = _bundled("z2_concrete.json")  # standard_action, cyclic, trivial, explicit delta
GENERATED = _bundled("s3_crossed.json")  # generate with symmetric
CYCLIC = {**GENERATED, "generate": {**GENERATED["generate"], "group": {"cyclic": 2}}}
TABLE = {
    **GENERATED,
    "generate": {
        **GENERATED["generate"],
        "group": {"order": 2, "mult": [[0, 1], [1, 0]], "inv": [0, 1], "e": 0},
    },
}
EXPLICIT = {"schema": 1, "kind": "dilate", "objects": {"module": MODULE, "cp_map": CP_MAP}}
SYSTEM = {
    "schema": 1,
    "kind": "dilate-covariant",
    "objects": {
        "system": {
            "group": {"order": 1, "mult": [[0]], "inv": [0], "e": 0},
            "module": MODULE,
            "eta": UNIT,
            "alpha": UNIT,
        },
        "cp_map": CP_MAP,
        "u": {"regular": True},
        "u_prime": {"space_dim": 1, "mats": [ONE]},
    },
}
SA = ("objects", "system", "standard_action")

# (base scenario, path of the object, the name messages give it, required
# fields; a tagged form lists its tag and, after "->", the field its untagged
# form names first once the tag is gone)
OBJECTS = {
    "scenario": (IDENTITY, (), "scenario", ("schema", "kind")),
    "generate": (GENERATED, ("generate",), "scenario.generate", ("p", "n", "amplification")),
    "objects": (EXPLICIT, ("objects",), "scenario.objects", ("module", "cp_map")),
    "covariant objects": (
        SYSTEM, ("objects",), "scenario.objects", ("system", "cp_map", "u", "u_prime")
    ),
    "system": (
        SYSTEM, ("objects", "system"), "scenario.objects.system",
        ("group", "module", "eta", "alpha"),
    ),
    "system standard_action": (
        Z2, ("objects", "system"), "scenario.objects.system", ("standard_action->group",)
    ),
    "standard_action": (
        Z2, SA, "scenario.objects.system.standard_action", ("group", "gamma", "delta")
    ),
    "module": (
        EXPLICIT, ("objects", "module"), "module payload", ("algebra", "dim", "action", "inner")
    ),
    "system module": (
        SYSTEM, ("objects", "system", "module"), "module payload",
        ("algebra", "dim", "action", "inner"),
    ),
    "standard_module": (
        IDENTITY, ("objects", "module"), "module payload", ("standard_module->algebra",)
    ),
    "algebra": (EXPLICIT, ("objects", "module", "algebra"), "algebra payload", ("blocks",)),
    "group": (
        SYSTEM, ("objects", "system", "group"), "group payload", ("order", "mult", "inv", "e")
    ),
    "generated group": (
        TABLE, ("generate", "group"), "group payload", ("order", "mult", "inv", "e")
    ),
    "cyclic": (CYCLIC, ("generate", "group"), "group payload", ("cyclic->order",)),
    "symmetric": (GENERATED, ("generate", "group"), "group payload", ("symmetric->order",)),
    "standard_action cyclic": (Z2, SA + ("group",), "group payload", ("cyclic->order",)),
    "unitary rep": (Z2, SA + ("delta",), "delta", ("space_dim", "mats")),
    "u_prime": (SYSTEM, ("objects", "u_prime"), "u_prime", ("space_dim", "mats")),
    "trivial": (Z2, ("objects", "u_prime"), "u_prime", ("trivial->space_dim",)),
    "trivial gamma": (Z2, SA + ("gamma",), "gamma", ("trivial->space_dim",)),
    "regular": (SYSTEM, ("objects", "u"), "u", ("regular->space_dim",)),
    "matrix": (Z2, SA + ("delta", "mats", 0), "delta.mats[0]", ("rows", "cols", "entries")),
    "image matrix": (
        EXPLICIT, ("objects", "cp_map", "images", "0"), 'scenario.objects.cp_map.images."0"',
        ("rows", "cols", "entries"),
    ),
    "companion image matrix": (
        EXPLICIT, ("objects", "cp_map", "companion", "images", "0:0:0"),
        'scenario.objects.cp_map.companion.images."0:0:0"', ("rows", "cols", "entries"),
    ),
    "tensor": (
        EXPLICIT, ("objects", "module", "action"), "module payload.action", ("shape", "entries")
    ),
    "eta": (
        SYSTEM, ("objects", "system", "eta"), "scenario.objects.system.eta", ("shape", "entries")
    ),
    "cp_map": (EXPLICIT, ("objects", "cp_map"), "scenario.objects.cp_map", ("images", "companion")),
    "concrete": (
        IDENTITY, ("objects", "cp_map"), "scenario.objects.cp_map", ("concrete->images",)
    ),
    "cp_map images": (
        EXPLICIT, ("objects", "cp_map", "images"), "scenario.objects.cp_map.images", ("0",)
    ),
    "companion": (
        EXPLICIT, ("objects", "cp_map", "companion"), "scenario.objects.cp_map.companion",
        ("space_dim", "images"),
    ),
    "companion images": (
        EXPLICIT, ("objects", "cp_map", "companion", "images"),
        "scenario.objects.cp_map.companion.images", ("0:0:0",),
    ),
}


def _with(payload, path, change):
    """A copy of ``payload`` with ``change`` applied to the object at ``path``; the copy
    shares no object between two places, as a payload read from a file does not."""
    out = json.loads(json.dumps(payload))
    if not path:
        return change(out)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = change(parent[path[-1]])
    return out


def _without(field):
    def change(obj):
        del obj[field]
        return obj

    return change


def _cases():
    for name, (base, path, where, fields) in OBJECTS.items():
        yield f"{name}-not-an-object", base, _with(base, path, lambda obj: 5), (
            f"{where}: must be an object"
        )
        unknown = _with(base, path, lambda obj: {**obj, "x": 1})
        yield f"{name}-unknown", base, unknown, f"{where}: unknown field 'x'"
        for field in fields:
            gone, _, named = field.partition("->")
            yield f"{name}-missing-{gone}", base, _with(base, path, _without(gone)), (
                f"{where}: missing field '{named or gone}'"
            )


CASES = list(_cases())
# payloads whose message named a field that was not at fault before every
# object went through one field rule
MIXED = [
    (
        _with(CYCLIC, ("generate", "group"), lambda g: {**g, "x": 1}),
        "group payload: unknown field 'x'",
    ),
    (
        _with(CYCLIC, ("generate", "group"), lambda g: {**g, "symmetric": 3}),
        "group payload: unknown field 'symmetric'",
    ),
    (
        _with(IDENTITY, ("objects", "module"), lambda m: {"standard_module": [2, 2], "dim": 4}),
        "module payload: unknown field 'dim'",
    ),
    (
        _with(Z2, ("objects", "u_prime"), lambda u: {"trivial": 2, "x": 1}),
        "u_prime: unknown field 'x'",
    ),
]


def _run(tmp_path, capsys, base, payload):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    code = cli.main([base["kind"], "--scenario", str(path)])
    return code, capsys.readouterr()


@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_every_base_scenario_runs(tmp_path, capsys, name):
    base = OBJECTS[name][0]
    code, captured = _run(tmp_path, capsys, base, base)
    assert code == 0, captured.err


@pytest.mark.parametrize(
    "base, payload, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_a_malformed_object_exits_two_naming_its_field(tmp_path, capsys, base, payload, message):
    code, captured = _run(tmp_path, capsys, base, payload)
    assert code == 2
    assert "Traceback" not in captured.err + captured.out
    assert f"ParseError: {message}\n" in captured.err


@pytest.mark.parametrize("payload, message", MIXED)
def test_a_tagged_form_names_the_field_beside_its_tag(tmp_path, capsys, payload, message):
    code, captured = _run(tmp_path, capsys, payload, payload)
    assert code == 2
    assert "Traceback" not in captured.err
    assert f"ParseError: {message}\n" in captured.err


@pytest.mark.parametrize(
    "value, shown", [(5, "5"), (None, "None"), ("no", "'no'"), (False, "False")]
)
def test_regular_takes_only_true(tmp_path, capsys, value, shown):
    """``{"regular": true}`` is the regular representation; any other value exits 2."""
    payload = _with(SYSTEM, ("objects", "u"), lambda u: {"regular": value})
    code, captured = _run(tmp_path, capsys, payload, payload)
    assert code == 2
    assert "Traceback" not in captured.err
    assert f"ParseError: u: 'regular' must be true, got {shown}\n" in captured.err


TWO = {"rows": 1, "cols": 2, "entries": [[1, 0], [0, 0]]}
DIAGONAL = [[1, 0], [0, 0], [0, 0], [1, 0]]  # x_i . 1 = x_i and <x_i, x_j> = delta_ij on C^2
ACTION, INNER = {"shape": [2, 1, 2], "entries": DIAGONAL}, {"shape": [2, 2, 1], "entries": DIAGONAL}
OBJECT_MODULE = ("objects", "module")
# (argv, with SCENARIO for the file of the payload; the payload, or None; the message)
REJECTED = {
    "missing scenario file": (["dilate", "--scenario", "missing.json"], None, "cannot read scenario"),
    "gen group family": (
        ["gen", "--kind", "crossed", "--p", "1", "--n", "1", "--seed", "1", "--group", "foo:3"],
        None, "BoundsError: unknown group family 'foo'",
    ),
    "gen group size": (
        ["gen", "--kind", "crossed", "--p", "1", "--n", "1", "--seed", "1", "--group", "cyclic:x"],
        None, "BoundsError: bad group spec 'cyclic:x'",
    ),
    "out with two scenarios": (
        ["dilate", "--scenario", "SCENARIO", "--scenario", "SCENARIO", "--out", "cert.json"],
        IDENTITY, "--out needs a single scenario",
    ),
    "neither generate nor objects": (
        ["dilate", "--scenario", "SCENARIO"], _with(IDENTITY, (), _without("objects")),
        "scenario: exactly one of 'generate' or 'objects' is required",
    ),
    "both generate and objects": (
        ["crossed", "--scenario", "SCENARIO"], {**GENERATED, "objects": IDENTITY["objects"]},
        "scenario: exactly one of 'generate' or 'objects' is required",
    ),
    "generated without seed": (
        ["crossed", "--scenario", "SCENARIO"], _with(GENERATED, (), _without("seed")),
        "scenario: generated scenarios need a 'seed'",
    ),
    "n beyond the bound": (
        ["crossed", "--scenario", "SCENARIO"], _with(GENERATED, ("generate", "n"), lambda n: 9),
        "BoundsError: n = 9 outside [1, 8]",
    ),
    "tensor shape not a list": (
        ["dilate", "--scenario", "SCENARIO"],
        _with(EXPLICIT, OBJECT_MODULE + ("action", "shape"), lambda shape: 3),
        "module payload.action: 'shape' must be a list",
    ),
    "tensor of the wrong rank": (
        ["dilate", "--scenario", "SCENARIO"],
        _with(EXPLICIT, OBJECT_MODULE + ("action", "shape"), lambda shape: [1, 1]),
        "module payload.action has rank 2, expected 3",
    ),
    "tensor entry count": (
        ["dilate", "--scenario", "SCENARIO"],
        _with(EXPLICIT, OBJECT_MODULE + ("action", "shape"), lambda shape: [1, 1, 2]),
        "module payload.action: 1 entries for shape (1, 1, 2)",
    ),
    "ragged group mult": (
        ["dilate-covariant", "--scenario", "SCENARIO"],
        _with(SYSTEM, ("objects", "system", "group", "mult"), lambda mult: [[0], [0, 1]]),
        "group payload: 'mult' must be an integer table of shape (1, 1)",
    ),
    "non-integer group mult": (
        ["dilate-covariant", "--scenario", "SCENARIO"],
        _with(SYSTEM, ("objects", "system", "group", "mult"), lambda mult: [[0.5]]),
        "group payload: 'mult' must be an integer table of shape (1, 1)",
    ),
    "mats not a list": (
        ["dilate-covariant", "--scenario", "SCENARIO"],
        _with(Z2, SA + ("delta", "mats"), lambda mats: 5), "delta: 'mats' must be a list",
    ),
    "entries not a list": (
        ["dilate-covariant", "--scenario", "SCENARIO"],
        _with(Z2, SA + ("delta", "mats", 0, "entries"), lambda entries: 5),
        "delta.mats[0]: 'entries' must be a list of [re, im] pairs",
    ),
    "entry of 400 digits": (
        ["dilate-covariant", "--scenario", "SCENARIO"],
        _with(Z2, SA + ("delta", "mats", 0, "entries", 0), lambda pair: [10**399, 0]),
        "delta.mats[0]: entries[0] must be a pair of finite numbers",
    ),
    "u gamma on an explicit system": (
        ["dilate-covariant", "--scenario", "SCENARIO"], _with(SYSTEM, ("objects", "u"), lambda u: "gamma"),
        "ValidationError: u: 'gamma' needs a standard action",
    ),
    "u delta on an explicit system": (
        ["dilate-covariant", "--scenario", "SCENARIO"], _with(SYSTEM, ("objects", "u"), lambda u: "delta"),
        "ValidationError: u: 'delta' needs a standard action",
    ),
    "concrete on two blocks": (
        ["dilate", "--scenario", "SCENARIO"],
        _with(
            _with(EXPLICIT, ("objects", "cp_map"), lambda cp_map: {"concrete": True}),
            OBJECT_MODULE,
            lambda module: {
                "algebra": {"blocks": [1, 1]}, "dim": 1,
                "action": {"shape": [1, 2, 1], "entries": [[1, 0], [0, 0]]},
                "inner": {"shape": [1, 1, 2], "entries": [[1, 0], [0, 0]]},
            },
        ),
        "ValidationError: concrete maps need a standard (single block) module",
    ),
    "concrete on a dim off the block": (
        ["dilate", "--scenario", "SCENARIO"],
        _with(
            _with(EXPLICIT, ("objects", "cp_map"), lambda cp_map: {"concrete": True}),
            OBJECT_MODULE,
            lambda module: {
                "algebra": {"blocks": [2]}, "dim": 3,
                "action": {"shape": [3, 4, 3], "entries": [[0, 0]] * 36},
                "inner": {"shape": [3, 3, 4], "entries": [[0, 0]] * 36},
            },
        ),
        "ValidationError: module dimension is not a multiple of the block size",
    ),
    "images of two shapes": (
        ["dilate", "--scenario", "SCENARIO"],
        _with(
            _with(EXPLICIT, ("objects", "cp_map", "images"), lambda images: {"0": ONE, "1": TWO}),
            OBJECT_MODULE,
            lambda module: {**module, "dim": 2, "action": ACTION, "inner": INNER},
        ),
        "ParseError: cp_map: images differ in shape",
    ),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_a_rejected_command_line_exits_two_with_one_line(tmp_path, capsys, monkeypatch, name):
    """Each rejection exits 2 with one stderr line that names what is at fault, no traceback."""
    argv, payload, message = REJECTED[name]
    monkeypatch.chdir(tmp_path)
    if payload is not None:
        (tmp_path / "scenario.json").write_text(json.dumps(payload))
    code = cli.main([str(tmp_path / "scenario.json") if arg == "SCENARIO" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err + captured.out
    assert captured.err.count("\n") == 1 and message in captured.err


def test_gen_without_out_writes_the_canonical_scenario_to_stdout(capsys):
    code = cli.main(["gen", "--kind", "crossed", "--p", "1", "--n", "2", "--seed", "3", "--group", "cyclic:2"])
    expected = cli.canonical_bytes(cli.generate_scenario("crossed", 1, 2, 1, 3, "cyclic:2")).decode()
    assert code == 0 and capsys.readouterr().out == expected
