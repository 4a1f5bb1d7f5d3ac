import json
import math
import random
import os
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import fqz
from fqz import circuit, cli, lang
from fqz.circuit import run_shots

import golden_corpus
from brute_force import reference_amplitudes_json
from fuzz_programs import deutsch_source, mutate, random_program

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


@pytest.fixture
def deutsch_file(tmp_path):
    def write(oracle="const0"):
        path = tmp_path / f"deutsch_{oracle}.fqz"
        path.write_text(deutsch_source(oracle), encoding="utf-8")
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
        assert "FAIL PROG-SCOPE names declared before use (13:1: register cap of 12 qubits exceeded)" in out
        assert "FAIL PROG-NORM unit norm after every instruction (skipped: scoping failed)" in out

    def test_each_signed_zero_angle_is_checked_as_its_own_gate(self, capsys, tmp_path):
        # gate identity is the name plus the angle's exact bits (gates.gate_key)
        path = tmp_path / "zeros.fqz"
        path.write_text("qubit q = |0>\nR(0.0) q\nR(-0.0) q\nR(0) q\nmeasure q\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 0
        for rule in ("GATE-U matrix of R is unitary", "GATE-M R matrix", "GATE-INJ mapping of R"):
            assert out.count(rule) == 2, rule

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

    def test_oracle_on_one_qubit_is_a_located_error(self, capsys, tmp_path):
        path = tmp_path / "same.fqz"
        path.write_text("oracle f = id\nqubit x = |0>\nN[f] x x\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert out == ""
        assert err == f"{path}:3:1: oracle N[f] targets qubit 'x' twice\n"

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


def amplitude_rows(state) -> list[list[float]]:
    """[re, im] of each amplitude, rounded to 12 significant digits: the
    rows run --format json passed to json.dumps before its direct emitter.
    Reference for the emitter's bytes."""
    parts = iter(state.view(float).tolist())  # re, im, re, im, ... as Python floats
    return [[float(f"{re:.12g}"), float(f"{im:.12g}")] for re, im in zip(parts, parts)]


def double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


MIN_NORMAL = sys.float_info.min
EDGES = (
    0.0, -0.0, 5e-324, -5e-324, MIN_NORMAL, np.nextafter(MIN_NORMAL, 0.0), -MIN_NORMAL,
    1.0, -1.0, 1.5, -1.5, np.nextafter(1.5, 2.0), -np.nextafter(1.5, 2.0),
    0.99999999999995, 0.9999999999995, 1.0000000000049, 1e-5, 1e-4, 9.99999999999e-5, 1e11, 1e12, 1e16, 1 / 3,
)


def common(x: float) -> bool:
    """The emitter's common path takes a state whose parts all pass this."""
    return x == 0 or MIN_NORMAL <= abs(x) <= 1.5


class TestAmplitudeRows:
    """The rows run --format json prints: [re, im] per amplitude, each part
    rounded to 12 significant digits. cli._amplitudes_json spells each
    distinct part once; its text must be json.dumps of the rows, and the
    one-pass emitter's text (brute_force.reference_amplitudes_json), byte
    for byte, on its common path (every part zero or normal, |x| <= 1.5)
    and on the rare path, where json.dumps spells the rounded parts."""

    @staticmethod
    def per_element(state):
        return [[float(f"{a.real:.12g}"), float(f"{a.imag:.12g}")] for a in state]

    def assert_same_json(self, psi) -> bool:
        """Checks the emitter's text and path on psi; True if it took the rare path."""
        psi = np.asarray(psi, dtype=np.complex128)
        with mock.patch.object(cli, "json", wraps=json) as spy:
            text = cli._amplitudes_json(psi)
        assert text == json.dumps(self.per_element(psi)) == json.dumps(amplitude_rows(psi)) == reference_amplitudes_json(psi)
        assert spy.dumps.called == (not all(map(common, psi.view(float).tolist())))
        return spy.dumps.called

    def test_signed_zeros(self):
        assert not self.assert_same_json([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)] + [0.5j] * 3)

    def test_subnormals(self):
        tiny = np.nextafter(0.0, 1.0)
        assert self.assert_same_json([tiny, -tiny, complex(2.2250738585072014e-308 / 3, -tiny * 7), 1.0])

    def test_values_at_the_exponent_switch(self):
        edges = [1e-5, 9.99999999999e-5, 1e-4, 0.0001000000000005, 1e12, 999999999999.5, 999999999999.4, 1e11]
        values = [complex(x, -x) for x in edges] + [complex(-x, x) for x in edges]
        assert self.assert_same_json(values)
        assert not self.assert_same_json(values[:4] + values[8:12])

    def test_integral_and_non_finite_parts(self):
        assert not self.assert_same_json([1, -1, 1j, -1j, 0.9999999999995, -1.0000000000049j, 1.5, -1.5j])
        assert self.assert_same_json([2, 1e100, -7e15j, float("nan"), complex(float("inf"), float("-inf"))])

    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_random_states(self, n):
        rng = np.random.default_rng(n)
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        assert not self.assert_same_json(psi / np.linalg.norm(psi))
        self.assert_same_json(psi * 10.0 ** rng.integers(-320, 300, size=2**n))

    @pytest.mark.parametrize("amplitude", [1, -1j, complex(-0.0, 0.0), 2.5, 5e-324j])
    def test_one_amplitude_state(self, amplitude):
        # a register of no qubits: the first word opens the rows and the last separator closes them
        self.assert_same_json([amplitude])

    def test_all_distinct_twelve_qubit_state(self):
        rng = np.random.default_rng(4096)
        psi = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        psi /= np.linalg.norm(psi)
        assert np.unique(psi.view(np.uint64)).size == 8192
        assert not self.assert_same_json(psi)

    def test_one_magnitude_with_random_signs_and_signed_zeros(self):
        # 2,048 amplitudes whose 4,096 parts take four bit patterns:
        # +-2**-5.5 and +-0.0, which only a key by bits keeps apart
        rng = np.random.default_rng(2048)
        parts = rng.choice([2**-5.5, -(2**-5.5), 0.0, -0.0], size=4096)
        psi = parts.view(np.complex128)
        assert np.unique(psi.view(np.uint64)).size == 4
        assert not self.assert_same_json(psi)
        psi.view(float)[7] = 2.0  # one outlier sends the same words down the rare path
        assert self.assert_same_json(psi)

    def test_pre_measure_states_of_wide_final_pool_programs(self):
        for job in workloads.pool("wide-final")[:20]:
            psi = circuit.pre_measurement_state(*lang.compile_program(lang.parse_source(job.source)))
            assert psi.size == 4096
            assert not self.assert_same_json(psi)

    RAW = st.integers(0, 2**64 - 1).map(double).filter(math.isfinite)
    PARTS = st.one_of(RAW, st.sampled_from(EDGES))
    # drawn directly: nearly every raw double fails `common`, and filtering
    # PARTS by it tripped hypothesis's filter_too_much health check
    COMMON_PARTS = st.one_of(
        st.sampled_from([x for x in EDGES if common(x)]),
        st.builds(math.copysign, st.floats(MIN_NORMAL, 1.5), st.sampled_from([1.0, -1.0])),
    )

    @staticmethod
    def vector(n, parts, seed):
        """A 2**n-amplitude state whose 2 * 2**n parts repeat `parts`, shuffled."""
        values = np.random.default_rng(seed).permutation(np.resize(np.array(parts, dtype=float), 2 * 2**n))
        return values.view(np.complex128)

    # No shrink phase: a broken emitter fails at its first failing example,
    # where shrinking these up-to-8,192-part states ran for over 7 minutes.
    @settings(deadline=None, max_examples=60, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
    @given(st.integers(1, 12), st.lists(COMMON_PARTS, min_size=1, max_size=16), st.integers(0, 2**32))
    def test_common_path_property(self, n, parts, seed):
        assert not self.assert_same_json(self.vector(n, parts, seed))

    @settings(deadline=None, max_examples=60, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
    @given(st.integers(1, 12), st.lists(PARTS, min_size=1, max_size=16), PARTS.filter(lambda x: not common(x)), st.integers(0, 2**32))
    def test_rare_path_property(self, n, parts, outlier, seed):
        psi = self.vector(n, parts, seed)
        psi.view(float)[seed % (2 * 2**n)] = outlier
        assert self.assert_same_json(psi)

    def test_run_lines_of_the_golden_corpus(self, tmp_path):
        """Each run --format json line is json.dumps of the payload the CLI
        built before its direct emitter."""
        checked = 0
        for entry in golden_corpus.load():
            for case in entry["cases"]:
                argv = case["argv"]
                if argv[0] != "run" or case["exit"] != 0:
                    continue
                _, stdout = golden_corpus.run_command(argv, entry["source"], tmp_path)
                shots, seed = int(argv[argv.index("--shots") + 1]), int(argv[argv.index("--seed") + 1])
                circuit, oracles = lang.compile_program(lang.parse_source(entry["source"]))
                report = run_shots(circuit, oracles, seed, shots)
                counts = {k: report.shots[k] for k in sorted(report.shots)}
                payload = {"outcomes": counts, "amplitudes": amplitude_rows(report.amplitudes), "seed": seed, "shots": shots}
                assert stdout == json.dumps(payload) + "\n", (entry["name"], argv)
                checked += 1
        assert checked >= 100


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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seed", "010", "not an integer: '010'"),
            ("--seed", "-1", "seed must fit in an unsigned 64-bit integer"),
            ("--seed", str(2**64), "seed must fit in an unsigned 64-bit integer"),
            ("--seed", "1e3", "not an integer: '1e3'"),
            ("--shots", "0", "shot count must be >= 1"),
            ("--shots", "x", "not an integer: 'x'"),
            ("--shots", "0x10", "not an integer: '0x10'"),
        ],
    )
    def test_bad_integer_flag_names_its_rule(self, capsys, deutsch_file, flag, value, message):
        # --seed reads Python's integer literals (0x10, 1_0; not 010),
        # --shots plain decimal (010 is ten)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", deutsch_file(), flag, value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"fqz run: error: argument {flag}: {message}"

    @pytest.mark.parametrize("flag, value, plain", [("--seed", "0x10", "16"), ("--seed", "1_0", "10"), ("--shots", "010", "10"), ("--shots", "1_0", "10")])
    def test_integer_flag_spellings(self, capsys, tmp_path, flag, value, plain):
        path = tmp_path / "coins.fqz"
        path.write_text("qubit x = |+>\nqubit y = |+>\nmeasure x\nmeasure y\n", encoding="utf-8")
        args = ("run", str(path), "--seed" if flag == "--shots" else "--shots", "5", flag)
        assert run_cli(capsys, *args, value) == run_cli(capsys, *args, plain)
        assert run_cli(capsys, *args, value) != run_cli(capsys, *args, "1")

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


class TestRepeatedMain:
    """main() reuses one parser and the shared gates; nothing a command,
    a usage error or a parse error leaves behind changes the next output."""

    def test_same_bytes_after_usage_and_parse_errors(self, capsys, deutsch_file, tmp_path):
        broken = tmp_path / "broken.fqz"
        broken.write_text("qubit x = |2>\n", encoding="utf-8")
        commands = (
            ["check", deutsch_file("id"), "--format", "json"],
            ["check", deutsch_file("const1")],
            ["run", deutsch_file("not"), "--shots", "7", "--seed", "3", "--format", "json"],
            ["deutsch", "--oracle", "id"],
        )
        first = [run_cli(capsys, *argv) for argv in commands]
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", deutsch_file(), "--shots", "0"])
        assert exc.value.code == 2
        usage = capsys.readouterr().err
        assert [run_cli(capsys, *argv) for argv in commands] == first
        assert run_cli(capsys, "check", str(broken)) == (2, "", f"{broken}:1:11: {_KET_MESSAGE}\n")
        assert [run_cli(capsys, *argv) for argv in commands] == first
        with pytest.raises(SystemExit):
            cli.main(["run", deutsch_file(), "--shots", "0"])
        assert capsys.readouterr().err == usage

    def test_the_parser_is_built_once(self, capsys):
        cli.main(["deutsch", "--oracle", "const0"])
        cli.main(["deutsch", "--oracle", "not"])
        capsys.readouterr()
        assert cli._parser.cache_info().currsize == 1
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli._parser()


class TestOneWalk:
    """Each command checks and resolves its program in one walk: every
    statement reaches circuit._resolve exactly once."""

    SOURCES = {
        "terminal": deutsch_source("id"),
        "mid-circuit": "oracle f = not\nqubit a = H|0>\nqubit b = |1>\nN[f] a b\nmeasure a\nH b\nR(0.5) a\nmeasure b\n",
    }
    COMMANDS = [
        *(["run", name, "--shots", shots] for name in SOURCES for shots in ("1", "100")),
        *(["check", name] for name in SOURCES),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_each_statement_is_resolved_once(self, argv, capsys, monkeypatch, tmp_path):
        path = tmp_path / "program.fqz"
        path.write_text(self.SOURCES[argv[1]], encoding="utf-8")
        resolved = Counter()
        resolve = circuit._resolve

        def counted(i, *args):
            resolved[i] += 1
            return resolve(i, *args)

        monkeypatch.setattr(circuit, "_resolve", counted)
        assert cli.main([argv[0], str(path), *argv[2:]]) == 0
        capsys.readouterr()
        statements = len(lang.parse_source(self.SOURCES[argv[1]]).statements)
        assert resolved == Counter(range(statements))


_KET_MESSAGE = "expected one of the ket literals |0>, |1>, |+>, |->, H|0>, H|1>"


class TestFuzz:
    """No source or flag makes the CLI leave its exit-code contract or
    print a traceback; argparse's usage errors arrive as SystemExit(2)."""

    @staticmethod
    def run_any(capsys, argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, code, out, err)
        assert "Traceback" not in out + err, argv
        return code

    def test_mutated_programs(self, capsys, tmp_path):
        rng = random.Random(20261018)
        path = tmp_path / "fuzz.fqz"
        codes = set()
        for i in range(300):
            source = random_program(rng, max_qubits=13, max_statements=rng.choice((6, 24, 90)))
            for _ in range(rng.randint(0, 3)):
                source = mutate(source, rng)
            path.write_text(source, encoding="utf-8")
            fmt = rng.choice(("text", "json"))
            if i % 2:
                argv = ["check", str(path), "--format", fmt]
            else:
                argv = ["run", str(path), "--format", fmt, "--shots", str(rng.randint(1, 3)), "--seed", str(i)]
            codes.add(self.run_any(capsys, argv))
        assert codes == {0, 1, 2}

    def test_odd_flags_and_inputs(self, capsys, tmp_path, deutsch_file):
        program = deutsch_file("id")
        binary = tmp_path / "binary.fqz"
        binary.write_bytes(b"qubit x = |0>\n\xff\xfe\x80measure x\n")
        for seed in ("-1", "0x10", str(2**64), "1e3"):
            self.run_any(capsys, ["run", program, "--seed", seed])
            self.run_any(capsys, ["deutsch", "--oracle", "id", "--seed", seed])
        assert self.run_any(capsys, ["run", program, "--seed", "0x10"]) == 0
        assert self.run_any(capsys, ["run", program, "--shots", "0"]) == 2
        for path in (str(binary), str(tmp_path), str(tmp_path / "missing.fqz")):
            for command in ("check", "run"):
                assert self.run_any(capsys, [command, path]) == 2


CHECKER_NAMES = ("CheckReport", "CheckResult", "check_gate", "check_observable", "check_program")


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter that imports this fqz, not yet loaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fqz.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60)


class TestColdImport:
    """The checker, and with it dataclasses, load only when a name of the
    checker is first used; every command but `check` runs without them."""

    def test_cli_import_and_run_leave_the_checker_unloaded(self, deutsch_file):
        code = """if True:
            import sys
            import fqz.cli
            unwanted = lambda: sorted({"fqz.checker", "dataclasses"} & set(sys.modules))
            assert unwanted() == [], unwanted()
            assert fqz.cli.main(["run", sys.argv[1], "--shots", "3"]) == 0
            assert fqz.cli.main(["deutsch", "--oracle", "id"]) == 0
            assert unwanted() == [], unwanted()
            assert fqz.cli.main(["check", sys.argv[1]]) == 0
            assert "fqz.checker" in sys.modules
        """
        done = fresh_python(code, deutsch_file("id"))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "overall: PASS"

    @pytest.mark.parametrize(
        "first, binds",
        [
            ("import fqz", ()),
            ("from fqz import *", None),  # None: every name in __all__
            ("from fqz import checker", ("checker",)),
            ("from fqz import check_program, CheckReport", ("check_program", "CheckReport")),
        ],
    )
    def test_checker_names_resolve_on_first_use(self, first, binds):
        code = f"""if True:
            import sys
            {first}
            pkg = sys.modules["fqz"]
            binds = pkg.__all__ if {binds!r} is None else {binds!r}
            assert set(binds) <= set(globals()), sorted(set(binds) - set(globals()))
            import fqz.checker
            for name in {CHECKER_NAMES!r}:
                assert name in pkg.__all__
                assert getattr(pkg, name) is getattr(fqz.checker, name)
                assert globals().get(name, getattr(pkg, name)) is getattr(fqz.checker, name)
        """
        done = fresh_python(code)
        assert done.returncode == 0, done.stderr

    def test_unknown_names_raise_attribute_error(self):
        code = """if True:
            import fqz
            for name in ("no_such_name", "checker"):
                try:
                    getattr(fqz, name)
                except AttributeError as exc:
                    assert name in str(exc)
                else:
                    raise AssertionError(name)
            assert not hasattr(fqz, "no_such_name")
        """
        done = fresh_python(code)
        assert done.returncode == 0, done.stderr
