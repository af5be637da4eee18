"""Tests for the OpenQASM parser and the OpenQASM/cQASM writers."""

import math

import pytest

from repro.core import Circuit
from repro.qasm import QasmError, parse_qasm, schedule_to_cqasm, to_cqasm, to_openqasm
from repro.verify import equivalent_circuits


class TestParserBasics:
    def test_minimal_program(self):
        circuit = parse_qasm(
            """
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[2];
            h q[0];
            cx q[0],q[1];
            """
        )
        assert circuit.num_qubits == 2
        assert [g.name for g in circuit] == ["h", "cnot"]

    def test_all_simple_gates(self):
        source = "qreg q[3];\n" + "\n".join(
            f"{name} q[0];" for name in
            ("h", "x", "y", "z", "s", "sdg", "t", "tdg", "id")
        )
        circuit = parse_qasm(source)
        assert circuit.size() == 9
        assert circuit.gates[-1].name == "i"

    def test_parameterised_gates(self):
        circuit = parse_qasm("qreg q[1]; rx(pi/2) q[0]; u3(pi,0,pi) q[0];")
        assert circuit.gates[0].params == (math.pi / 2,)
        assert circuit.gates[1].name == "u"

    @pytest.mark.parametrize(
        "statement, params",
        [
            ("rx(-(pi/2)) q[0];", (-math.pi / 2,)),
            ("rx((1)) q[0];", (1.0,)),
            ("rx(2*(pi)) q[0];", (2 * math.pi,)),
            ("u(0,(pi),-(pi/4)) q[0];", (0.0, math.pi, -math.pi / 4)),
            ("if(c0==1) rz(((0.5))) q[0];", (0.5,)),
        ],
        ids=["negated", "wrapped", "factor", "u", "conditioned"],
    )
    def test_parentheses_inside_parameter_list(self, statement, params):
        # Regression: the parameter list stopped at its first ")", so each
        # of these raised "unexpected end of expression".
        circuit = parse_qasm(
            f"OPENQASM 2.0;\nqreg q[1];\ncreg c0[1];\n{statement}\n"
        )
        assert circuit.gates[0].params == params

    def test_expression_arithmetic(self):
        circuit = parse_qasm("qreg q[1]; rz(2*pi/4 - -0.5) q[0];")
        assert circuit.gates[0].params[0] == pytest.approx(math.pi / 2 + 0.5)

    def test_scientific_notation(self):
        circuit = parse_qasm("qreg q[1]; rz(1e-3) q[0];")
        assert circuit.gates[0].params[0] == pytest.approx(1e-3)

    def test_three_qubit_gates(self):
        circuit = parse_qasm("qreg q[3]; ccx q[0],q[1],q[2]; cswap q[2],q[0],q[1];")
        assert [g.name for g in circuit] == ["toffoli", "fredkin"]

    def test_measure_with_arrow(self):
        circuit = parse_qasm("qreg q[2]; creg c[2]; measure q[1] -> c[1];")
        assert circuit.gates[0].name == "measure"
        assert circuit.gates[0].qubits == (1,)

    def test_measure_register_broadcast(self):
        circuit = parse_qasm("qreg q[3]; creg c[3]; measure q -> c;")
        assert circuit.count("measure") == 3

    def test_reset(self):
        circuit = parse_qasm("qreg q[1]; reset q[0];")
        assert circuit.gates[0].name == "prep_z"

    def test_barrier(self):
        circuit = parse_qasm("qreg q[3]; barrier q[0],q[2];")
        assert circuit.gates[0].qubits == (0, 2)

    def test_barrier_whole_register(self):
        circuit = parse_qasm("qreg q[2]; barrier q;")
        assert circuit.gates[0].qubits == (0, 1)

    def test_gate_broadcast(self):
        circuit = parse_qasm("qreg q[3]; h q;")
        assert circuit.count("h") == 3

    def test_broadcast_with_fixed_operand(self):
        circuit = parse_qasm("qreg a[1]; qreg b[2]; cx a[0],b;")
        assert [g.qubits for g in circuit] == [(0, 1), (0, 2)]

    def test_multiple_registers_flattened(self):
        circuit = parse_qasm("qreg a[2]; qreg b[2]; cx a[1],b[0];")
        assert circuit.num_qubits == 4
        assert circuit.gates[0].qubits == (1, 2)

    def test_comments_stripped(self):
        circuit = parse_qasm("qreg q[1]; // comment\nh q[0]; // trailing\n")
        assert circuit.size() == 1

    def test_statements_across_lines(self):
        circuit = parse_qasm("qreg q[2];\ncx\n q[0],\n q[1];")
        assert circuit.gates[0].name == "cnot"

    def test_line_break_separates_tokens(self):
        # Regression: the statement splitter used to drop line breaks,
        # fusing a gate name ending one line with the operand opening
        # the next ("h\nq[1];" parsed as the unknown gate "hq").
        circuit = parse_qasm("qreg q[2];\nh\nq[1];")
        assert [g.name for g in circuit.gates] == ["h"]
        assert circuit.gates[0].qubits == (1,)


class TestParserErrors:
    def test_unknown_gate(self):
        with pytest.raises(QasmError, match="unsupported gate"):
            parse_qasm("qreg q[1]; warp q[0];")

    def test_unknown_register(self):
        with pytest.raises(QasmError, match="unknown register"):
            parse_qasm("qreg q[1]; h r[0];")

    def test_index_out_of_range(self):
        with pytest.raises(QasmError, match="out of range"):
            parse_qasm("qreg q[1]; h q[1];")

    def test_wrong_param_count(self):
        with pytest.raises(QasmError, match="parameters"):
            parse_qasm("qreg q[1]; rx q[0];")

    def test_duplicate_register(self):
        with pytest.raises(QasmError, match="duplicate"):
            parse_qasm("qreg q[1]; qreg q[2];")

    def test_custom_gate_definitions_rejected(self):
        with pytest.raises(QasmError, match="unsupported construct"):
            parse_qasm("qreg q[1]; gate foo a { h a; }")

    def test_error_carries_line_number(self):
        with pytest.raises(QasmError, match="line 3"):
            parse_qasm("qreg q[1];\nh q[0];\nbad q[0];")

    def test_error_position_on_shared_line(self):
        # Regression: the second statement of a shared line used to
        # report a drifting position; it must point at its own start.
        src = "OPENQASM 2.0;\nqreg q[2];\nh q[0]; zz q[1];"
        with pytest.raises(QasmError) as excinfo:
            parse_qasm(src)
        err = excinfo.value
        assert err.line == 3
        assert err.column == 9
        assert "line 3, col 9" in str(err)
        assert err.message.startswith("unsupported gate")

    def test_error_line_of_multiline_statement(self):
        # A statement spanning lines is reported where it starts.
        with pytest.raises(QasmError) as excinfo:
            parse_qasm("qreg q[1];\nwarp\nq[0];")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 1

    def test_malformed_qreg(self):
        with pytest.raises(QasmError):
            parse_qasm("qreg q;")

    def test_broadcast_size_mismatch(self):
        with pytest.raises(QasmError, match="mismatched"):
            parse_qasm("qreg a[2]; qreg b[3]; cx a,b;")

    @pytest.mark.parametrize(
        "statement, problem",
        [
            ("cx q[0];", "gate 'cnot' expects 2 qubits, got 1"),
            ("h q[0],q[1];", "gate 'h' expects 1 qubits, got 2"),
            ("ccx q[0],q[1];", "gate 'toffoli' expects 3 qubits, got 2"),
            ("cx q[0],q[0];", "gate 'cnot' has duplicate qubits (0, 0)"),
            ("barrier q[0],q[0];",
             "gate 'barrier' has duplicate qubits (0, 0)"),
            # Broadcast of a 2-qubit gate over one register.
            ("cx q;", "gate 'cnot' expects 2 qubits, got 1"),
        ],
    )
    def test_operands_the_gate_rejects(self, statement, problem):
        # Regression: these escaped as Gate's bare ValueError, with no
        # position, so callers that catch QasmError crashed on them.
        with pytest.raises(QasmError) as excinfo:
            parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\n  {statement}\n")
        err = excinfo.value
        assert (err.line, err.column) == (3, 3)
        assert err.message == problem
        assert str(err) == f"line 3, col 3: {problem}"

    @pytest.mark.parametrize(
        "expression, problem",
        [
            ("1/0", "division by zero in parameter"),
            ("-pi/0.0", "division by zero in parameter"),
            ("(" * 5000 + "1", "parameter expression nests deeper than 100 "
             "levels"),
            ("-" * 5000 + "1", "parameter expression nests deeper than 100 "
             "levels"),
            ("1e400", "parameter expression reaches inf, which is not "
             "finite"),
            ("inf", "parameter expression reaches inf, which is not finite"),
            ("-nan", "parameter expression reaches nan, which is not finite"),
            ("1e300*1e300/1e300", "parameter expression reaches inf, which "
             "is not finite"),
        ],
        ids=["div0", "neg-div0", "parens", "signs", "1e400", "inf", "nan",
             "overflow"],
    )
    def test_parameter_arithmetic_errors_are_positioned(
        self, expression, problem
    ):
        # Regression: these escaped as ZeroDivisionError or
        # RecursionError, or parsed to a gate with an infinite or NaN
        # angle that compiled "ok" into the native output.
        with pytest.raises(QasmError) as excinfo:
            parse_qasm(
                f"OPENQASM 2.0;\nqreg q[2];\nh q[1]; rx({expression}) q[0];\n"
            )
        err = excinfo.value
        assert (err.line, err.column) == (3, 9)
        assert err.message == problem

    def test_parameter_nesting_up_to_the_bound_parses(self):
        signs = "-" * 100
        circuit = parse_qasm(f"qreg q[1];\nrx({signs}0.5) q[0];\n")
        assert circuit.gates[0].params == (0.5,)
        nested = "(" * 100 + "0.5" + ")" * 100
        circuit = parse_qasm(f"qreg q[1];\nrx({nested}) q[0];\n")
        assert circuit.gates[0].params == (0.5,)

    @pytest.mark.parametrize(
        "statement, problem",
        [
            ("rx((1) q[0];", "unexpected end of expression"),
            ("rx(-(pi/2) q[0];", "unexpected end of expression"),
            ("rx(1)) q[0];", "malformed operand ') q[0]'"),
            ("rx((1));", "unexpected end of expression"),
        ],
        ids=["unclosed", "unclosed-negated", "extra-close", "no-operands"],
    )
    def test_unbalanced_parameter_list_is_positioned(self, statement, problem):
        with pytest.raises(QasmError) as excinfo:
            parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nh q[0]; {statement}\n")
        err = excinfo.value
        assert (err.line, err.column) == (3, 9)
        assert err.message == problem


class TestWriters:
    def test_openqasm_roundtrip_preserves_gates(self, ghz3):
        assert parse_qasm(to_openqasm(ghz3)).gates == ghz3.gates

    def test_openqasm_roundtrip_with_params(self):
        circuit = Circuit(2).rx(0.25, 0).u(1.5, -0.5, 0.75, 1).cp(0.3, 0, 1)
        back = parse_qasm(to_openqasm(circuit))
        assert equivalent_circuits(circuit, back)

    def test_openqasm_measure_and_reset(self):
        circuit = Circuit(1).measure(0)
        text = to_openqasm(circuit)
        assert "creg c0[1];" in text
        assert "measure q[0] -> c0[0];" in text
        back = parse_qasm(text)
        assert back.count("measure") == 1

    def test_openqasm_feedforward_roundtrip(self):
        from repro.core.gates import Gate

        circuit = Circuit(2)
        circuit.measure(0)
        circuit.append(Gate("x", (1,), condition=(0, 1)))
        circuit.append(Gate("z", (1,), condition=(0, 0)))
        text = to_openqasm(circuit)
        assert "if(c0==1) x q[1];" in text
        assert "if(c0==0) z q[1];" in text
        back = parse_qasm(text)
        assert back.gates == circuit.gates

    def test_parser_rejects_conditioned_measure(self):
        with pytest.raises(QasmError, match="cannot condition"):
            parse_qasm("qreg q[1]; creg c0[1]; if(c0==1) measure q[0] -> c0[0];")

    def test_parser_rejects_whole_register_condition(self):
        with pytest.raises(QasmError, match="per-qubit"):
            parse_qasm("qreg q[1]; creg flags[2]; if(flags==1) x q[0];")

    def test_parser_rejects_nonbinary_condition(self):
        with pytest.raises(QasmError, match="0 or 1"):
            parse_qasm("qreg q[1]; creg c0[1]; if(c0==2) x q[0];")

    @pytest.mark.parametrize("bit", [2, 5, 40])
    def test_condition_bit_that_names_no_qubit_is_positioned(self, bit):
        # Regression: c5 on two qubits parsed (a gate conditioned on a
        # bit nothing measures), and c40 ended in a bare IndexError in
        # the scheduler.
        source = (
            f"OPENQASM 2.0;\nqreg q[2];\ncreg c{bit}[1];\n"
            f"h q[1];  if(c{bit}==1) x q[0];\nif(c{bit}==1) x q[0];\n"
        )
        with pytest.raises(QasmError) as excinfo:
            parse_qasm(source)
        err = excinfo.value
        assert (err.line, err.column) == (4, 10)
        assert err.message == (
            f"condition bit c{bit} names no qubit; the program declares 2"
        )

    def test_condition_bit_checked_after_every_register(self):
        # A qreg declared after the conditioned gate adds the qubit.
        circuit = parse_qasm(
            "qreg q[2]; creg c3[1]; if(c3==1) x q[0]; qreg r[2]; measure r[1] -> c3[0];"
        )
        assert circuit.num_qubits == 4
        assert circuit.gates[0].condition == (3, 1)

    # Regression: the target was ignored, so this measured q[1], the
    # condition read c0 (qubit 0's bit, which nothing measures), and
    # the writer put the measurement back as ``measure q[1] -> c1[0]``.
    _OTHER_QUBITS_BIT = (
        "OPENQASM 2.0;\nqreg q[2];\ncreg c0[1];\ncreg c1[1];\nx q[1];\n"
        "measure q[1] -> c0[0];\nif(c0==1) x q[0];\n"
    )

    def test_measure_into_another_qubits_bit_is_positioned(self):
        with pytest.raises(QasmError) as excinfo:
            parse_qasm(self._OTHER_QUBITS_BIT)
        err = excinfo.value
        assert (err.line, err.column) == (6, 1)
        assert err.message == (
            "measure target 'c0[0]' is not qubit 1's bit c1[0]"
        )

    @pytest.mark.parametrize("source, message", [
        ("qreg q[2]; creg c1[2]; measure q[1] -> c1[1];",
         "measure target 'c1[1]' is not qubit 1's bit c1[0]"),
        ("qreg q[1]; qreg r[2]; creg c0[1]; measure r -> c0[0];",
         "measure target 'c0[0]' is not qubit 1's bit c1[0]"),
        ("qreg q[3]; creg c0[1]; measure q -> c0;",
         "measure target 'c0' is not qubit 1's bit c1[0]"),
    ], ids=["bit-other-than-0", "broadcast", "whole-register-broadcast"])
    def test_measure_into_a_per_qubit_register_must_be_its_own_bit(
        self, source, message
    ):
        with pytest.raises(QasmError) as excinfo:
            parse_qasm(source)
        assert excinfo.value.message == message

    @pytest.mark.parametrize("source", [
        "qreg q[2]; creg c1[1]; measure q[1] -> c1[0];",
        "qreg q[2]; creg c1[1]; measure q[1] -> c1;",
        "qreg q[2]; creg c[2]; measure q[1] -> c[1];",
        "qreg q[3]; creg c[3]; measure q -> c;",
        "qreg q[2]; creg flags[4]; measure q[0] -> flags[3];",
    ])
    def test_measure_into_its_own_bit_or_another_register_parses(self, source):
        circuit = parse_qasm(source)
        assert circuit.gates and all(g.name == "measure" for g in circuit.gates)

    def test_cqasm_header(self, ghz3):
        text = to_cqasm(ghz3)
        assert text.startswith("version 1.0\nqubits 3")
        assert "cnot q[0], q[1]" in text

    def test_cqasm_measure_name(self):
        text = to_cqasm(Circuit(1).measure(0))
        assert "measure_z q[0]" in text

    def test_schedule_bundles(self, s17):
        from repro.mapping.scheduler import asap_schedule

        circuit = Circuit(4).x(0).y(3)
        text = schedule_to_cqasm(asap_schedule(circuit, s17))
        assert "{ x q[0] | y q[3] }" in text

    def test_schedule_wait_between_bundles(self, s17):
        from repro.mapping.scheduler import asap_schedule

        circuit = Circuit(4).cz(0, 3).x(0)
        text = schedule_to_cqasm(asap_schedule(circuit, s17))
        assert "wait" in text
