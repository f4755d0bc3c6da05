"""Self-test of the benchmark on its tiny ``smoke`` workload.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402


def _run_smoke(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=bench.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, section):
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())[section]
    result = _run_smoke(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        d["name"]: d["unit"] for d in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """One untraced and one traced cycle of the smoke workload, in process."""
    cli = bench.import_covstine()
    workdir = tmp_path_factory.mktemp("smoke")
    plan = bench.plan_workload("smoke", 5)
    bench.write_scenarios(cli, plan, workdir)
    records: list = []
    bench.run_cycles(cli, plan, workdir, 1, records)
    recorder = tracing.Tracer()
    with recorder:
        traced: list = []
        walls = bench.run_cycles(cli, plan, workdir, 1, traced, recorder)
    reference = json.loads(bench.REFERENCE.read_text())["scenarios"]
    return cli, plan, records, traced, recorder, walls[0], reference


def test_oracle_counts_tampered_certificates(smoke_run):
    _, plan, records, traced, _, _, reference = smoke_run
    ok, failures, scenarios = bench.check_records(plan, records + traced, reference)
    assert all(ok), failures
    assert all(len(s["sha256"]) == 64 for s in scenarios.values())

    index, code, latency, data, notes = next(r for r in records if json.loads(r[3])["ranks"])
    ref = reference[plan[index]["key"]]
    assert bench.certificate_problems(ref, code, data, data) == []

    cert = json.loads(data)
    rank = next(iter(cert["ranks"].values()))
    rank["achieved"] += 1
    flipped = json.dumps(cert).encode()
    assert bench.certificate_problems(ref, code, flipped, None)

    changed = data.replace(b'"pass":true', b'"pass":true ')
    assert changed != data
    assert bench.certificate_problems(ref, code, changed, data)

    tampered = records + [(index, code, latency, changed, notes)]
    ok, failures, _ = bench.check_records(plan, tampered, reference)
    assert ok.count(False) == 1 and failures[0]["file"] == plan[index]["file"]
    assert bench.certificate_problems(ref, 1, data, None) == ["exit code 1"]


def test_spans_nest_and_cover_every_layer(smoke_run):
    cli, _, _, traced, recorder, wall, _ = smoke_run
    assert recorder.nesting_violations() == 0
    summary = recorder.summary()
    for layer in tracing.LAYERS:
        assert summary["layers"][layer]["calls"] > 0, layer
    main = summary["functions"]["cli.main"]
    assert main["calls"] == len(traced)
    assert 0.0 < main["s"] <= wall
    self_total = sum(layer["self_s"] for layer in summary["layers"].values())
    assert self_total == pytest.approx(summary["root_s"], rel=1e-6)
    assert summary["spectral_calls"] > 0 and summary["spectral_n3"] > 0


def test_wrapping_reaches_every_binding_and_is_undone():
    cli = bench.import_covstine()
    import covstine.cpmaps as cpmaps
    import covstine.crossed as crossed
    import covstine.stinespring as stinespring

    original = cpmaps.check_covariance
    with tracing.Tracer():
        for owner in (cpmaps, stinespring, crossed):
            assert owner.check_covariance.__wrapped_original__ is original
        assert stinespring.check_module_cp.__wrapped_original__ is cpmaps.check_module_cp.__wrapped_original__
        for method in (crossed.CrossedModule.inner, crossed.CrossedModule.act,
                       crossed.CrossedAlgebra.multiply, cli.main):
            assert hasattr(method, "__wrapped_original__")
    for owner in (cpmaps, stinespring, crossed):
        assert owner.check_covariance is original
    assert not hasattr(crossed.CrossedModule.inner, "__wrapped_original__")
