"""Parser fuzzing: generated and explicit scenarios with one value replaced,
deleted or added still exit with 0, 1 or 2 and never print a traceback."""

import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from covstine import cli

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "covstine" / "scenarios"
BASES = [
    cli.generate_scenario("dilate", 1, 1, 1, 3),
    cli.generate_scenario("crossed", 1, 1, 1, 3, "cyclic:2"),
    cli.generate_scenario("verify", 1, 2, 1, 3, "cyclic:2"),
    json.loads((SCENARIOS / "identity.json").read_text()),
    json.loads((SCENARIOS / "z2_concrete.json").read_text()),
    {**json.loads((SCENARIOS / "z2_concrete.json").read_text()), "kind": "crossed"},
]

# small sizes keep every accepted scenario fast; the huge integers must be
# refused before anything is allocated
leaves = hst.one_of(
    hst.none(),
    hst.booleans(),
    hst.integers(min_value=-3, max_value=3),
    hst.sampled_from([10**9, 2**63, -(2**63) - 1]),
    hst.floats(allow_nan=True, allow_infinity=True),
    hst.text(max_size=4),
    hst.sampled_from(["cyclic:2", "crossed", "dilate", "delta", "gamma", "0:0:0"]),
)
values = hst.recursive(
    leaves,
    lambda inner: hst.one_of(
        hst.lists(inner, max_size=3), hst.dictionaries(hst.text(max_size=3), inner, max_size=2)
    ),
    max_leaves=5,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutate(data, scenario):
    """Replace, delete or add one value somewhere in a copy of ``scenario``."""
    scenario = json.loads(json.dumps(scenario))
    paths = list(_paths(scenario))[1:]
    path = data.draw(hst.sampled_from(paths))
    parent = scenario
    for key in path[:-1]:
        parent = parent[key]
    action = data.draw(hst.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[path[-1]] = data.draw(values)
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[data.draw(hst.text(max_size=3))] = data.draw(values)
    else:
        parent.append(data.draw(values))
    return scenario


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(hst.sampled_from(range(len(BASES))), hst.data())
def test_mutated_scenarios_exit_cleanly(tmp_path, capsys, base, data):
    scenario = _mutate(data, BASES[base])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code = cli.main([BASES[base]["kind"], "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err + captured.out
