"""Unit invariance, by metamorphic testing: every construction is homogeneous, so
the scenario of ``c Phi`` with companion ``c^2 phi`` has the certificate of ``Phi``.
Each kind runs on explicit payloads scaled by c from 1e-8 to 1e8: exit codes, dims,
ranks and verdicts equal those at c = 1, and every residual lies within 1e-12 of
its value there.

``scenarios/`` holds two such payloads for replay from the command line, both of
kind ``dilate``: ``unit_1e-8.json`` is the 1 x 1 map at c = 1e-8, and
``module_333_1e4.json`` is ``cpmaps.random_module_cp(3, 3, 3, 0)`` at c = 1e4.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from covstine import cli, cpmaps, hilbmod
from covstine import numkernel as nk

SCALES = (1e-8, 1e-4, 1.0, 1e4, 1e8)
PAYLOADS = Path(__file__).resolve().parent / "scenarios"


def _cp_map(phi, c):
    """The explicit ``cp_map`` payload of ``c Phi`` with companion ``c^2 phi``."""
    labels = phi.module.algebra.basis_labels()
    return {
        "images": {str(i): nk.mat_to_json(image * c) for i, image in enumerate(phi.images)},
        "companion": {
            "space_dim": phi.companion.space_dim,
            "images": {k: nk.mat_to_json(m * c * c) for k, m in zip(labels, phi.companion.images)},
        },
    }


def _unit():
    phi = cpmaps.cp_from_representation(hilbmod.concrete_representation(1, 1), nk.eye(1), nk.eye(1))
    return {"module": {"standard_module": [1, 1]}}, phi


def _module(seed):
    return {"module": {"standard_module": [3, 3]}}, cpmaps.random_module_cp(3, 3, 3, seed)[0]


def _standard_action():
    group = hilbmod.symmetric_group(3)
    rng = np.random.default_rng(4)
    gamma, delta = hilbmod.seeded_rep(group, 2, rng), hilbmod.seeded_rep(group, 2, rng)
    cov, _ = cpmaps.random_covariant_cp(hilbmod.standard_action(group, gamma, delta), 1, 4)
    system = {
        "group": {"symmetric": 3},
        "gamma": hilbmod.unitary_rep_to_json(gamma),
        "delta": hilbmod.unitary_rep_to_json(delta),
    }
    return {
        "system": {"standard_action": system},
        "u": hilbmod.unitary_rep_to_json(cov.u),
        "u_prime": hilbmod.unitary_rep_to_json(cov.u_prime),
    }, cov.base


def _scenario(kind, objects, phi, c):
    return {"schema": 1, "kind": kind, "seed": 3, "objects": {**objects, "cp_map": _cp_map(phi, c)}}


PLAIN = {"1x1": _unit, **{f"3,3,3 seed {s}": (lambda s=s: _module(s)) for s in range(3)}}
CASES = [(name, kind) for name in PLAIN for kind in ("dilate", "verify", "uniqueness")]
COVARIANT_KINDS = ("dilate-covariant", "crossed", "verify", "uniqueness")
CASES += [("S3 standard action", kind) for kind in COVARIANT_KINDS]


def _run(tmp_path, capsys, payload):
    """Exit code and certificate bytes (None when none is written) of one command."""
    path, out = tmp_path / "scenario.json", tmp_path / "cert.json"
    path.write_bytes(cli.canonical_bytes(payload))
    out.unlink(missing_ok=True)
    code = cli.main([payload["kind"], "--scenario", str(path), "--out", str(out)])
    assert "Traceback" not in capsys.readouterr().err
    return code, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("name, kind", CASES)
def test_certificates_do_not_depend_on_the_units_of_the_input(tmp_path, capsys, name, kind):
    objects, phi = PLAIN.get(name, _standard_action)()
    runs = {c: _run(tmp_path, capsys, _scenario(kind, objects, phi, c)) for c in SCALES}
    assert {c: code for c, (code, _) in runs.items()} == dict.fromkeys(SCALES, 0)
    certs = {c: json.loads(data) for c, (_, data) in runs.items()}
    reference = certs[1.0]
    assert reference["pass"]
    for c, cert in certs.items():
        for field in ("dims", "ranks", "checks", "pass", "skipped"):
            assert cert[field] == reference[field], (c, field)
        assert cert["residuals"].keys() == reference["residuals"].keys()
        for row, value in cert["residuals"].items():
            assert abs(value - reference["residuals"][row]) <= 1e-12, (c, row)
        scale = reference["provenance"]["input_scale"]
        assert cert["provenance"]["input_scale"] == pytest.approx(c * scale, rel=1e-15)


@pytest.mark.parametrize("name", ["unit_1e-8.json", "module_333_1e4.json"])
@pytest.mark.parametrize("kind", ["dilate", "verify"])
def test_committed_scaled_payloads_pass_and_replay_byte_identically(tmp_path, capsys, name, kind):
    payload = {**json.loads((PAYLOADS / name).read_text()), "kind": kind}
    code, first = _run(tmp_path, capsys, payload)
    assert code == 0 and json.loads(first)["pass"]
    assert _run(tmp_path, capsys, payload) == (0, first)


def test_a_zero_map_is_left_unscaled(tmp_path, capsys):
    """``input_scale`` 0: the map is not divided, and dilates to zero spaces."""
    module = hilbmod.standard_module(2, 2)
    zero = cpmaps.ModuleCPMap(
        module, np.zeros((4, 3, 2)), cpmaps.CPMapAlgebra(module.algebra, 2, np.zeros((4, 2, 2)))
    )
    payload = _scenario("dilate", {"module": {"standard_module": [2, 2]}}, zero, 1.0)
    code, data = _run(tmp_path, capsys, payload)
    cert = json.loads(data)
    assert code == 0 and cert["provenance"]["input_scale"] == 0.0
    assert (cert["dims"]["H_dilation"], cert["dims"]["K_dilation"]) == (0, 0)
