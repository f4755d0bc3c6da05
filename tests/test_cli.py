import json
from pathlib import Path

import pytest

from covstine import cli
from covstine.errors import BoundsError, ParseError, ValidationError

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "covstine" / "scenarios"


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestBundledScenarios:
    def test_identity_scenario(self, capsys):
        code = cli.main(["dilate", "--scenario", str(SCENARIOS / "identity.json")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["dims"] == {"H": 1, "H_dilation": 1, "K": 1, "K_dilation": 1}

    def test_z2_concrete_scenario(self, capsys):
        code = cli.main(
            ["dilate-covariant", "--scenario", str(SCENARIOS / "z2_concrete.json")]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["checks"]["covariant_representation"] is True

    def test_s3_crossed_scenario(self, capsys):
        code = cli.main(["crossed", "--scenario", str(SCENARIOS / "s3_crossed.json")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["checks"]["crossed_identity"] is True


class TestParsing:
    def test_missing_inner_named(self, tmp_path):
        scenario = {
            "schema": 1,
            "kind": "dilate",
            "objects": {
                "module": {
                    "algebra": {"blocks": [1]},
                    "dim": 1,
                    "action": {"shape": [1, 1, 1], "entries": [[1, 0]]},
                },
                "cp_map": {"concrete": True},
            },
        }
        with pytest.raises(ParseError, match="inner"):
            cli.run_scenario(write_scenario(tmp_path, scenario))

    def test_unknown_field_rejected(self, tmp_path):
        scenario = {
            "schema": 1,
            "kind": "dilate",
            "surprise": 1,
            "objects": {"module": {"standard_module": [1, 1]}, "cp_map": {"concrete": True}},
        }
        with pytest.raises(ParseError, match="surprise"):
            cli.run_scenario(write_scenario(tmp_path, scenario))

    def test_wrong_schema_rejected(self, tmp_path):
        scenario = {"schema": 99, "kind": "dilate", "objects": {}}
        with pytest.raises(ParseError, match="schema"):
            cli.run_scenario(write_scenario(tmp_path, scenario))

    def test_kind_mismatch(self, tmp_path):
        path = write_scenario(
            tmp_path,
            {
                "schema": 1,
                "kind": "dilate",
                "objects": {
                    "module": {"standard_module": [1, 1]},
                    "cp_map": {"concrete": True},
                },
            },
        )
        with pytest.raises(ValidationError, match="kind"):
            cli.run_scenario(path, expected_kind="crossed")

    def test_exit_code_two_for_parse_errors(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["dilate", "--scenario", str(path)]) == 2


class TestGenerate:
    def test_gen_and_replay_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        code = cli.main(
            [
                "gen", "--kind", "dilate", "--p", "2", "--n", "2",
                "--amplification", "2", "--seed", "1", "--out", str(out),
            ]
        )
        assert code == 0
        cert1 = cli.run_scenario(str(out)).canonical()
        cert2 = cli.run_scenario(str(out)).canonical()
        assert cert1 == cert2

    def test_gen_covariant_replays(self, tmp_path):
        out = tmp_path / "cov.json"
        cli.main(
            [
                "gen", "--kind", "dilate-covariant", "--p", "1", "--n", "2",
                "--group", "symmetric:3", "--amplification", "2", "--seed", "11",
                "--out", str(out),
            ]
        )
        cert1 = cli.run_scenario(str(out))
        cert2 = cli.run_scenario(str(out))
        assert cert1.canonical() == cert2.canonical()
        assert cert1.passed

    def test_bounds_error(self):
        with pytest.raises(BoundsError):
            cli.generate_scenario("dilate", 2, 2, 99, seed=1)
        with pytest.raises(BoundsError):
            cli.generate_scenario("dilate", 9, 2, 1, seed=1)
        with pytest.raises(BoundsError):
            cli.generate_scenario("dilate-covariant", 2, 2, 1, seed=1, group="symmetric:5")

    def test_bounds_exit_code(self, capsys):
        code = cli.main(
            ["gen", "--kind", "dilate", "--p", "2", "--n", "2",
             "--amplification", "99", "--seed", "1"]
        )
        assert code == 2

    def test_uniqueness_kind(self, tmp_path, capsys):
        out = tmp_path / "uniq.json"
        cli.main(
            ["gen", "--kind", "uniqueness", "--p", "2", "--n", "2",
             "--amplification", "2", "--seed", "4", "--out", str(out)]
        )
        cert = cli.run_scenario(str(out))
        assert cert.passed
        assert "recover_U1" in cert.residuals

    def test_verify_kind(self, tmp_path):
        out = tmp_path / "verify.json"
        cli.main(
            ["gen", "--kind", "verify", "--p", "1", "--n", "2", "--group", "cyclic:2",
             "--amplification", "2", "--seed", "5", "--out", str(out)]
        )
        cert = cli.run_scenario(str(out))
        assert cert.passed
        assert "module_linearity" in cert.residuals
        assert cert.ranks["dilation_constructed"] == (1, 1)


class TestCertificates:
    def test_json_round_trip(self):
        cert = cli.run_scenario(str(SCENARIOS / "identity.json"))
        payload = json.loads(cert.canonical())
        assert payload == json.loads(cli.canonical_bytes(payload).decode())

    def test_digest_depends_on_scenario(self, tmp_path):
        a = cli.run_scenario(str(SCENARIOS / "identity.json"))
        b = cli.run_scenario(str(SCENARIOS / "z2_concrete.json"))
        assert a.scenario_digest != b.scenario_digest

    def test_duration_not_serialized(self):
        cert = cli.run_scenario(str(SCENARIOS / "identity.json"))
        assert cert.duration >= 0
        assert "duration" not in json.loads(cert.canonical())

    def test_failing_certificate_exit_one_and_fail_rows(self, capsys):
        # an impossible tolerance turns honest rounding into failures
        code = cli.main(
            [
                "dilate-covariant",
                "--scenario", str(SCENARIOS / "z2_concrete.json"),
                "--tol", "1e-30", "--format", "table",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_table_format(self, capsys):
        code = cli.main(
            ["dilate", "--scenario", str(SCENARIOS / "identity.json"), "--format", "table"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reconstruction" in out
        assert out.strip().endswith("PASS")

    @pytest.mark.parametrize(
        "kind, flags",
        [
            ("dilate-covariant", ["--tol", "1e-30"]),  # failing rows
            ("crossed", []),  # a crossed basis of 96 > 64: the skip line
        ],
    )
    def test_table_verdicts_are_the_certificate_checks(self, tmp_path, capsys, kind, flags):
        scenario = tmp_path / "scenario.json"
        cli.main(["gen", "--kind", kind, "--p", "1", "--n", "2", "--group", "symmetric:4",
                  "--seed", "11", "--out", str(scenario)])
        run = [kind, "--scenario", str(scenario), *flags]
        code = cli.main(run + ["--format", "table"])
        table = capsys.readouterr().out.splitlines()
        assert cli.main(run) == code
        cert = json.loads(capsys.readouterr().out)
        rows = {line.split()[0]: line.split()[-1] for line in table[3:-1] if "skipped" not in line}
        skips = {line.split()[0] for line in table[3:-1] if "skipped" in line}
        assert rows == {name: "PASS" if ok else "FAIL" for name, ok in cert["checks"].items()}
        assert skips == set(cert["skipped"]) and table[-1] == ("PASS" if cert["pass"] else "FAIL")
        assert ("FAIL" in rows.values()) == bool(flags) and bool(skips) == (kind == "crossed")

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = cli.main(
            ["dilate", "--scenario", str(SCENARIOS / "identity.json"), "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["pass"] is True

    def test_dump_structure(self, tmp_path, capsys):
        out = tmp_path / "crossed.json"
        cli.main(
            ["gen", "--kind", "crossed", "--p", "1", "--n", "1", "--group", "cyclic:2",
             "--amplification", "1", "--seed", "2", "--out", str(out)]
        )
        cert = cli.run_scenario(str(out), dump_structure=True)
        constants = cert.provenance["structure_constants"]
        assert constants, "structure constants should be nonempty"
        # the unit at the identity slot times itself stays put
        diagonal = [row for row in constants if row[:3] == [0, 0, 0]]
        assert diagonal and abs(diagonal[0][3] - 1.0) < 1e-12

    @pytest.mark.parametrize("kind", ["dilate", "dilate-covariant", "verify", "uniqueness"])
    def test_dump_structure_is_a_crossed_flag(self, tmp_path, capsys, kind):
        """Only a crossed run has structure constants: the other commands refuse the
        flag as an unknown one, with exit code 2, and write no certificate."""
        out = tmp_path / "cert.json"
        argv = [kind, "--scenario", str(SCENARIOS / "z2_concrete.json"), "--out", str(out)]
        with pytest.raises(SystemExit) as refused:
            cli.main(argv + ["--dump-structure"])
        assert refused.value.code == 2
        assert "unrecognized arguments: --dump-structure" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["dilate", "dilate-covariant", "verify", "uniqueness"])
    def test_run_scenario_refuses_dump_structure_outside_crossed(self, tmp_path, kind):
        """The Python entry point refuses structure constants for a kind other than
        ``crossed``, naming the kind, as the command line refuses the flag."""
        data = json.loads((SCENARIOS / "z2_concrete.json").read_text())
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**data, "kind": kind, "seed": 7}))
        assert cli.run_scenario(str(path)).passed
        with pytest.raises(ValidationError, match=f"crossed runs only, not '{kind}'$"):
            cli.run_scenario(str(path), dump_structure=True)

    def test_multiple_scenarios_aggregate_exit(self, capsys, tmp_path):
        code = cli.main(
            [
                "dilate",
                "--scenario", str(SCENARIOS / "identity.json"),
                "--scenario", str(SCENARIOS / "identity.json"),
            ]
        )
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2
        assert lines[0] == lines[1]


class TestSchema:
    @pytest.mark.parametrize(
        "name", ["identity.json", "z2_concrete.json", "s3_crossed.json"]
    )
    def test_certificates_validate_against_shipped_schema(self, name):
        jsonschema = pytest.importorskip("jsonschema")
        schema_path = Path(__file__).resolve().parents[1] / "docs" / "certificate.schema.json"
        schema = json.loads(schema_path.read_text())
        cert = cli.run_scenario(str(SCENARIOS / name))
        jsonschema.validate(json.loads(cert.canonical()), schema)

    def test_dump_structure_validates(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        schema_path = Path(__file__).resolve().parents[1] / "docs" / "certificate.schema.json"
        schema = json.loads(schema_path.read_text())
        out = tmp_path / "crossed.json"
        cli.main(
            ["gen", "--kind", "crossed", "--p", "1", "--n", "2", "--group", "cyclic:2",
             "--amplification", "1", "--seed", "6", "--out", str(out)]
        )
        cert = cli.run_scenario(str(out), dump_structure=True)
        jsonschema.validate(json.loads(cert.canonical()), schema)


class TestDeterminism:
    @pytest.mark.parametrize(
        "name", ["identity.json", "z2_concrete.json", "s3_crossed.json"]
    )
    def test_bundled_scenarios_replay(self, name):
        kind_cert1 = cli.run_scenario(str(SCENARIOS / name))
        kind_cert2 = cli.run_scenario(str(SCENARIOS / name))
        assert kind_cert1.canonical() == kind_cert2.canonical()


def test_the_cli_module_carries_the_package_version():
    import covstine

    assert cli.__version__ == covstine.__version__
