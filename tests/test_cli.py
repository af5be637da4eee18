"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main
from repro.qasm import parse_qasm

GHZ_QASM = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
"""


@pytest.fixture
def qasm_file(tmp_path):
    path = tmp_path / "ghz.qasm"
    path.write_text(GHZ_QASM)
    return path


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestDevicesCommand:
    def test_lists_registry(self):
        code, text = _run(["devices"])
        assert code == 0
        assert "ibm_qx4" in text and "surface17" in text


class TestInfoCommand:
    def test_fixed_device(self):
        code, text = _run(["info", "--device", "ibm_qx4"])
        assert code == 0
        assert "control->target" in text

    def test_parametric_device(self):
        code, text = _run(["info", "--device", "grid", "--rows", "2", "--cols", "3"])
        assert code == 0
        assert "grid2x3" in text

    def test_parametric_device_missing_params(self):
        with pytest.raises(SystemExit):
            _run(["info", "--device", "linear"])


class TestMapCommand:
    def test_report_to_stdout(self, qasm_file):
        code, text = _run(["map", str(qasm_file), "--device", "ibm_qx4"])
        assert code == 0
        assert "ibm_qx4" in text and "SWAP" in text

    def test_output_file_is_native_qasm(self, qasm_file, tmp_path):
        out_path = tmp_path / "mapped.qasm"
        code, _ = _run(
            ["map", str(qasm_file), "--device", "ibm_qx4", "-o", str(out_path)]
        )
        assert code == 0
        mapped = parse_qasm(out_path.read_text())
        assert mapped.num_qubits == 5
        assert {g.name for g in mapped if g.is_unitary} <= {"u", "cnot"}

    def test_cqasm_output_scheduled(self, qasm_file, tmp_path):
        out_path = tmp_path / "mapped.cq"
        code, _ = _run(
            [
                "map", str(qasm_file), "--device", "surface17",
                "--schedule", "constraints", "--cqasm", str(out_path),
            ]
        )
        assert code == 0
        assert out_path.read_text().startswith("version 1.0")

    def test_verify_flag(self, qasm_file):
        code, text = _run(
            ["map", str(qasm_file), "--device", "ibm_qx4", "--verify"]
        )
        assert code == 0
        assert "equivalent" in text

    def test_verify_skipped_on_large_device(self, qasm_file, capsys):
        # Statevector verification is infeasible past STATEVECTOR_LIMIT
        # qubits; the CLI warns and skips instead of crashing.
        code, _ = _run(
            [
                "map", str(qasm_file), "--device", "grid",
                "--rows", "5", "--cols", "5", "--verify",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "skipping" in err and "statevector limit" in err

    def test_disconnected_device_reports_clean_error(
        self, qasm_file, tmp_path, capsys
    ):
        # A routing failure (here: the GHZ circuit needs qubits that sit
        # in different components of the coupling graph) must come out
        # as the one-line CliError path, not a networkx traceback.
        import json

        config = tmp_path / "split.json"
        config.write_text(
            json.dumps(
                {
                    "name": "split",
                    "num_qubits": 4,
                    "edges": [[0, 1], [2, 3]],
                    "native_gates": ["u", "h", "cnot"],
                    "symmetric": True,
                }
            )
        )
        code, _ = _run(
            [
                "map", str(qasm_file), "--device-config", str(config),
                "--router", "naive",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "routing failed" in err
        assert "no path between qubits" in err
        assert "networkx" not in err.lower()

    def test_optimize_flag_reduces_gates(self, qasm_file):
        _, plain = _run(["map", str(qasm_file), "--device", "surface17"])
        _, optimised = _run(
            ["map", str(qasm_file), "--device", "surface17", "--optimize"]
        )

        def native_gates(report):
            for line in report.splitlines():
                if "native:" in line:
                    return int(line.split()[1])
            raise AssertionError(report)

        assert native_gates(optimised) <= native_gates(plain)

    def test_draw_flag(self, qasm_file):
        code, text = _run(
            ["map", str(qasm_file), "--device", "ibm_qx4", "--draw"]
        )
        assert code == 0
        assert "input circuit:" in text and "q0:" in text

    def test_no_decompose(self, qasm_file, tmp_path):
        out_path = tmp_path / "routed.qasm"
        code, _ = _run(
            [
                "map", str(qasm_file), "--device", "ibm_qx4",
                "--no-decompose", "--schedule", "none", "-o", str(out_path),
            ]
        )
        assert code == 0
        routed = parse_qasm(out_path.read_text())
        assert routed.count("h") > 0  # not lowered to u

    def test_device_config_file(self, qasm_file, tmp_path):
        from repro.devices import surface7

        config = tmp_path / "chip.json"
        surface7().to_json(config)
        code, text = _run(
            ["map", str(qasm_file), "--device-config", str(config), "--report"]
        )
        assert code == 0
        assert "surface7" in text

    def test_grid_device_with_dimensions(self, qasm_file):
        code, _ = _run(
            [
                "map", str(qasm_file), "--device", "grid",
                "--rows", "2", "--cols", "2",
            ]
        )
        assert code == 0

    def test_schedule_table_in_report(self, qasm_file):
        code, text = _run(
            ["map", str(qasm_file), "--device", "ibm_qx4", "--report"]
        )
        assert code == 0
        assert "schedule:" in text


class TestSimulateCommand:
    def test_ideal_sampling_is_deterministic_circuit(self, tmp_path):
        path = tmp_path / "x.qasm"
        path.write_text("qreg q[1]; creg c0[1]; x q[0]; measure q[0] -> c0[0];")
        code, text = _run(["simulate", str(path), "--shots", "10"])
        assert code == 0
        assert "1 : 10" in text

    def test_bell_correlations(self, qasm_file):
        code, text = _run(["simulate", str(qasm_file), "--shots", "100"])
        assert code == 0
        # GHZ circuit without explicit measures: all qubits reported.
        outcomes = {
            line.strip().split(" : ")[0]
            for line in text.splitlines()
            if " : " in line and line.strip()[0] in "01"
        }
        assert outcomes <= {"000", "111"}

    def test_noisy_sampling(self, tmp_path):
        path = tmp_path / "x.qasm"
        path.write_text("qreg q[1]; creg c0[1]; x q[0]; measure q[0] -> c0[0];")
        code, text = _run(
            ["simulate", str(path), "--shots", "300", "--noise",
             "--error-2q", "0.05"]
        )
        assert code == 0
        assert "noisy sampling" in text

    def test_seeded_reproducibility(self, qasm_file):
        _, a = _run(["simulate", str(qasm_file), "--shots", "50", "--seed", "4"])
        _, b = _run(["simulate", str(qasm_file), "--shots", "50", "--seed", "4"])
        assert a == b


class TestCliErrors:
    """Bad input produces one clean line on stderr and exit code 2."""

    def test_missing_input_file(self, capsys):
        code, text = _run(["map", "/nonexistent/x.qasm", "--device", "ibm_qx4"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert err.strip().count("\n") == 0  # one line, no traceback
        assert "/nonexistent/x.qasm" in err

    def test_unparsable_input_file(self, tmp_path, capsys):
        path = tmp_path / "bad.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n")
        code, text = _run(["map", str(path), "--device", "ibm_qx4"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "invalid QASM" in err and "frobnicate" in err
        assert "Traceback" not in err

    def test_gate_with_wrong_operands_is_a_one_line_error(
        self, tmp_path, capsys
    ):
        # Regression: this printed a traceback and exited 1.
        path = tmp_path / "bad.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n")
        code, _ = _run(["map", str(path), "--device", "ibm_qx4"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            f"repro: error: invalid QASM in {path}: line 3, col 1: "
            "gate 'cnot' expects 2 qubits, got 1\n"
        )

    def test_parameter_division_by_zero_is_a_one_line_error(
        self, tmp_path, capsys
    ):
        # Regression: this printed a ZeroDivisionError traceback and
        # exited 1.
        path = tmp_path / "bad.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[2];\nrx(1/0) q[0];\n")
        code, _ = _run(["map", str(path), "--device", "ibm_qx4"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            f"repro: error: invalid QASM in {path}: line 3, col 1: "
            "division by zero in parameter\n"
        )

    def test_simulate_missing_file(self, capsys):
        code, text = _run(["simulate", "/nonexistent/x.qasm"])
        assert code == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_simulate_unparsable_file(self, tmp_path, capsys):
        path = tmp_path / "bad.qasm"
        path.write_text("this is not qasm at all")
        code, text = _run(["simulate", str(path)])
        assert code == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_good_input_still_exits_zero(self, qasm_file):
        code, _ = _run(["map", str(qasm_file), "--device", "ibm_qx4"])
        assert code == 0
