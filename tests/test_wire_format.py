"""The scenario wire format through ``cli.main``: every payload object, given as
something other than an object, with an unknown field next to valid ones, or
with a required field missing, exits 2 without a traceback and with a message
that names the object and the field at fault.  A tagged form (``cyclic``,
``standard_module``, ``trivial``, ...) names the field beside its tag."""

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
