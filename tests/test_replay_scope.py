"""What a replay on another BLAS kernel reproduces.

Certificate bytes repeat on the same numpy/BLAS build and CPU kernel; GEMM
results follow the kernel's summation order, so residuals move in their last
bits from one kernel family to another.  Exit codes, dims, ranks and verdicts
are meant to repeat everywhere.  numpy's wheel ships OpenBLAS built with
DYNAMIC_ARCH, so ``OPENBLAS_CORETYPE`` picks another kernel family on the
same machine: these tests run small scenarios of all five kinds in two fresh
processes, one on the detected kernel and one on Sandybridge, and compare
everything but the bytes.  The second takes a fixed sample of the benchmark's
oracle ``bench/reference.json`` and also holds each run's dims and ranks to it.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from covstine import cli

SRC = Path(cli.__file__).resolve().parents[1]
REFERENCE = SRC.parent / "bench" / "reference.json"
BUNDLED = SRC / "covstine" / "scenarios"
GENERATED = [(2, 2, 2, "symmetric:3"), (1, 6, 1, "cyclic:2")]

# Runs each (kind, path) of argv[1] through cli.main and prints, per run, the
# exit code and the certificate's dims, ranks, verdicts and skipped rows, and
# the OpenBLAS kernel the process runs on (None where it cannot be read).
CHILD = r"""
import ctypes, glob, json, os, sys
import numpy
from covstine import cli

def corename():
    wheel_libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(wheel_libs, "*openblas*")):
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if get is not None:
            get.restype = ctypes.c_char_p
            return get().decode()
    return None

runs, out = json.loads(sys.argv[1]), sys.argv[2]
summary = {}
for kind, path in runs:
    if os.path.exists(out):
        os.remove(out)
    code = cli.main([kind, "--scenario", path, "--out", out])
    cert = json.load(open(out)) if os.path.exists(out) else {}
    summary[f"{kind} {os.path.basename(path)}"] = [
        code, *(cert.get(key) for key in ("dims", "ranks", "checks", "skipped", "pass"))
    ]
print(json.dumps({"core": corename(), "runs": summary}))
"""


def _run(runs, out, coretype=None):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(runs), str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


ON_X86_64 = pytest.mark.skipif(
    platform.system() != "Linux" or platform.machine() not in ("x86_64", "AMD64"),
    reason="OPENBLAS_CORETYPE selects x86-64 kernel families; on other platforms "
    "the wheel's OpenBLAS has no Sandybridge kernel to switch to",
)


def _on_both_kernels(runs, tmp_path):
    """The runs' summaries on the detected kernel, checked equal on Sandybridge."""
    default = _run(runs, tmp_path / "default.json")
    other = _run(runs, tmp_path / "sandybridge.json", "Sandybridge")
    if default["core"] is not None and default["core"] == other["core"]:
        pytest.skip(f"the detected OpenBLAS kernel is already {default['core']}")
    assert other["runs"] == default["runs"], (default["core"], other["core"])
    return default["runs"]


@ON_X86_64
def test_exit_codes_dims_ranks_and_verdicts_repeat_across_blas_kernels(tmp_path):
    runs = [
        ("dilate", str(BUNDLED / "identity.json")),
        ("dilate-covariant", str(BUNDLED / "z2_concrete.json")),
        ("crossed", str(BUNDLED / "s3_crossed.json")),
    ]
    for p, n, amplification, group in GENERATED:
        for kind in cli.KINDS:
            path = tmp_path / f"{kind}_{p}{n}{amplification}_{group.replace(':', '')}.json"
            scenario = cli.generate_scenario(kind, p, n, amplification, 11, group)
            path.write_bytes(cli.canonical_bytes(scenario))
            runs.append((kind, str(path)))
    summary = _on_both_kernels(runs, tmp_path)
    assert len(summary) == len(runs) == 13
    assert all(run[0] == 0 for run in summary.values()), summary


@ON_X86_64
@pytest.mark.skipif(not REFERENCE.is_file(), reason="no benchmark oracle in this checkout")
def test_a_sample_of_the_benchmark_oracle_repeats_across_blas_kernels(tmp_path):
    """Every 50th scenario of ``bench/reference.json`` in key order (26 of them,
    all five kinds and a bundled one): both kernels pass each with the oracle's dims
    and (achieved, required) ranks."""
    oracle = json.loads(REFERENCE.read_text())["scenarios"]
    sample = sorted(oracle)[::50]
    runs = []
    for key in sample:
        kind, *spec = key.split("|")
        if kind == "bundled":
            path = BUNDLED / f"{spec[0]}.json"
            kind = json.loads(path.read_text())["kind"]
        else:
            p, n, amplification, group, seed = spec
            sizes = (int(p[1:]), int(n[1:]), int(amplification[1:]))
            scenario = cli.generate_scenario(
                kind, *sizes, int(seed), None if group == "trivial" else group
            )
            path = tmp_path / f"{len(runs):02d}.json"
            path.write_bytes(cli.canonical_bytes(scenario))
        runs.append((kind, str(path)))
    assert {kind for kind, _ in runs} == set(cli.KINDS)
    summary = _on_both_kernels(runs, tmp_path)
    assert len(summary) == len(sample) == 26
    for key, (kind, path) in zip(sample, runs):
        code, dims, ranks, _, _, passed = summary[f"{kind} {Path(path).name}"]
        assert (code, passed) == (0, True), key
        assert dims == oracle[key]["dims"], key
        got = {name: [rank["achieved"], rank["required"]] for name, rank in ranks.items()}
        assert got == oracle[key]["ranks"], key
