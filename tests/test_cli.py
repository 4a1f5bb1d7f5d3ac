import json

import pytest

from fqz import cli, lang


@pytest.fixture
def deutsch_file(tmp_path):
    def write(oracle="const0"):
        path = tmp_path / f"deutsch_{oracle}.fqz"
        path.write_text(lang.deutsch_source(oracle), encoding="utf-8")
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_clean_program_exits_zero(self, capsys, deutsch_file):
        code, out, _ = run_cli(capsys, "check", deutsch_file())
        assert code == 0
        assert "overall: PASS" in out
        for rule in ("PROG-SCOPE", "PROG-NORM", "GATE-U", "GATE-M", "GATE-INJ"):
            assert rule in out

    def test_json_shape(self, capsys, deutsch_file):
        code, out, _ = run_cli(capsys, "check", deutsch_file(), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"subject", "checks", "overall"}
        assert payload["overall"] == "PASS"
        assert all(set(c) == {"rule", "description", "status", "detail"} for c in payload["checks"])

    def test_failing_program_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.fqz"
        path.write_text("oracle f = id\nqubit x = |0>\nN[f] x x\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 1
        assert "overall: FAIL" in out

    def test_parse_error_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.fqz"
        path.write_text("qubit x = |2>\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert ":1:11:" in err

    def test_more_than_twelve_qubits_fails_scope(self, capsys, tmp_path):
        path = tmp_path / "wide.fqz"
        path.write_text("".join(f"qubit q{i} = |0>\n" for i in range(13)), encoding="utf-8")
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 1
        assert "FAIL PROG-SCOPE names declared before use (statement 12: register cap of 12 qubits exceeded)" in out
        assert "FAIL PROG-NORM unit norm after every instruction (skipped: scoping failed)" in out

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "check", "/no/such/file.fqz")
        assert code == 2
        assert err


class TestRun:
    def test_deterministic_circuit_counts(self, capsys, deutsch_file):
        code, out, _ = run_cli(capsys, "run", deutsch_file("id"), "--shots", "25")
        assert code == 0
        assert out == "1: 25\n"

    def test_json_schema_and_amplitudes(self, capsys, deutsch_file):
        code, out, _ = run_cli(
            capsys, "run", deutsch_file("const1"), "--shots", "10", "--seed", "7", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"outcomes", "amplitudes", "seed", "shots"}
        assert payload["seed"] == 7
        assert payload["shots"] == 10
        assert payload["outcomes"] == {"0": 10}
        # pre-measurement state of shot 0: 4 amplitudes as [re, im] rows
        assert len(payload["amplitudes"]) == 4
        assert all(len(row) == 2 for row in payload["amplitudes"])

    def test_byte_identical_json_for_same_inputs(self, capsys, deutsch_file):
        path = deutsch_file("id")
        args = ("run", path, "--shots", "50", "--seed", "11", "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first.encode() == second.encode()

    def test_different_seed_may_differ_but_is_wellformed(self, capsys, tmp_path):
        path = tmp_path / "flip.fqz"
        path.write_text("qubit x = H|0>\nmeasure x\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "run", str(path), "--shots", "100", "--seed", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert sum(payload["outcomes"].values()) == 100

    def test_more_than_twelve_qubits_is_a_located_error(self, capsys, tmp_path):
        path = tmp_path / "wide.fqz"
        path.write_text("".join(f"qubit q{i} = |0>\n" for i in range(13)) + "measure q0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert out == ""
        assert err == f"{path}:13:1: register cap of 12 qubits exceeded\n"

    def test_zero_shots_is_usage_error(self, capsys, deutsch_file):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", deutsch_file(), "--shots", "0"])
        assert exc.value.code == 2

    def test_program_without_measure_reports_final_amplitudes(self, capsys, tmp_path):
        path = tmp_path / "nomeasure.fqz"
        path.write_text("qubit x = |0>\nH x\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "run", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcomes"] == {"": 1}
        assert payload["amplitudes"][0][0] == pytest.approx(0.707106781187)


class TestDeutsch:
    @pytest.mark.parametrize(
        "oracle, expected",
        [
            ("const0", "CONSTANT (bit 0)"),
            ("const1", "CONSTANT (bit 0)"),
            ("id", "BALANCED (bit 1)"),
            ("not", "BALANCED (bit 1)"),
        ],
    )
    def test_text_verdicts(self, capsys, oracle, expected):
        code, out, _ = run_cli(capsys, "deutsch", "--oracle", oracle)
        assert code == 0
        assert out.strip() == expected

    def test_json_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "deutsch", "--oracle", "not", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"verdict": "BALANCED", "bit": 1}

    def test_invalid_oracle_keyword_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["deutsch", "--oracle", "xor"])
        assert exc.value.code == 2


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_bad_seed_is_usage_error(self, capsys, deutsch_file):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", deutsch_file(), "--seed", "-1"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", deutsch_file(), "--seed", str(2**64)])
        assert exc.value.code == 2

    def test_bad_format_is_usage_error(self, capsys, deutsch_file):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", deutsch_file(), "--format", "xml"])
        assert exc.value.code == 2

    def test_exit_codes_stay_in_contract(self, capsys, deutsch_file, tmp_path):
        # success -> 0
        assert cli.main(["deutsch", "--oracle", "id"]) == 0
        capsys.readouterr()
        # failing check -> 1
        bad = tmp_path / "fail.fqz"
        bad.write_text("oracle f = id\nqubit x = |0>\nN[f] x x\n", encoding="utf-8")
        assert cli.main(["check", str(bad)]) == 1
        capsys.readouterr()
        # parse error -> 2
        broken = tmp_path / "parse.fqz"
        broken.write_text("qubit = |0>\n", encoding="utf-8")
        assert cli.main(["check", str(broken)]) == 2
        capsys.readouterr()
