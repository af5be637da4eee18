"""``parse_qasm`` against a copy of the parser it replaced.

:func:`repro.qasm.parse_qasm` splits the source with one scan per line
and parses each distinct statement text once per call, reusing its gates
for every repeat.  :mod:`tests.qasm_reference` is the earlier parser,
which split character by character and parsed every statement afresh.
On every input below both must return the same circuit, compared by
``num_qubits``, ``name`` and the ``repr`` of every gate (so a ``-0.0``
that turns into ``0.0`` counts as a difference), or raise the same
exception type with the same message.

Five deliberate differences:

* a gate given operands it rejects (wrong arity, a repeated qubit) made
  the earlier parser leak ``Gate``'s bare ``ValueError``; it is now a
  :class:`QasmError` with the same text plus the statement's position;
* parameter arithmetic that divided by zero or recursed too deep made
  it leak ``ZeroDivisionError`` or ``RecursionError``, and a parameter
  that was not finite (``1e400``, ``inf``, ``nan``) parsed; each is now
  a positioned :class:`QasmError`;
* a parameter list holding a parenthesis, such as ``rx(-(pi/2))``,
  stopped at its first ``)``, so it always raised; it now runs to its
  matching ``)``.  Writer output with its parameters wrapped in
  parentheses must parse to the earlier parser's gates for the
  unwrapped output, and a list with no matching ``)`` fails as before;
* a condition on a bit that names no qubit (``if(c5==1)`` with two
  qubits, as a mutated digit makes it) built a gate that
  :meth:`Circuit.append <repro.core.circuit.Circuit.append>` now
  rejects, so the earlier parser raises that ``ValueError``; the parser
  reports it as a positioned :class:`QasmError` once every register is
  read;
* a measurement into a per-qubit register ``c<N>`` other than the
  measured qubit's own bit ``c<q>[0]`` (``measure r -> c0[0];`` over a
  second register, or a mutated digit) parsed to a plain measurement of
  qubit q, which the writer puts back into ``c<q>[0]``, so a condition
  on ``c<N>`` read another qubit's result; it is now a
  :class:`QasmError` at the measure statement, which names the target
  and the qubit, whatever the earlier parser did with the rest of the
  source.

Inputs: writer output of random circuits, the same statements
hand-formatted, sources that declare a second register between gates,
single-character mutations of all of these, and writer output with
parenthesised parameters.
"""

from __future__ import annotations

import ast
import math
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import Circuit
from repro.core.gates import GATE_SPECS, Gate
from repro.qasm import QasmError, parse_qasm, to_openqasm

from . import qasm_reference

_SETTINGS = dict(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_MAX_QUBITS = 4
_NAMES = sorted(GATE_SPECS)
_PARAMS = st.sampled_from(
    [0.0, -0.0, 1e-300, 1e300, 2 * math.pi, -2 * math.pi, 0.5, -1.25]
)
#: Separators written after a statement; the last two leave the next
#: statement on the same line.
_SEPARATORS = [
    "\n", "\r\n", "\n\n", "\x0b", "\x0c", "  // note\n", " //;{}\n",
    " ", "\t", ";",
]
#: Where a statement may be split across lines.
_BREAKS = ["\n", " \n\t", "\r\n", " // split\n", "\n\n "]
_MUTATION_CHARS = list(";{}()[],-+*/.0123456789 \t\n\r\x0b\x0cqrcxhi=>\"_e")


@st.composite
def circuits(draw) -> Circuit:
    """A random circuit over every gate the writer can emit, with
    conditioned gates, measurements, resets and barriers."""
    num_qubits = draw(st.integers(1, _MAX_QUBITS))
    gates = []
    for _ in range(draw(st.integers(0, 10))):
        name = draw(st.sampled_from(_NAMES))
        spec = GATE_SPECS[name]
        if name == "barrier":
            arity = draw(st.integers(0, num_qubits))
        elif spec.num_qubits <= num_qubits:
            arity = spec.num_qubits
        else:
            continue
        qubits = tuple(draw(st.permutations(range(num_qubits)))[:arity])
        params = tuple(draw(_PARAMS) for _ in range(spec.num_params))
        condition = None
        if spec.matrix is not None and draw(st.booleans()):
            condition = (
                draw(st.integers(0, num_qubits - 1)), draw(st.integers(0, 1))
            )
        gates.append(Gate(name, qubits, params, condition))
        if draw(st.integers(0, 3)) == 0:
            gates.append(gates[-1])  # a repeated statement
    return Circuit(num_qubits, gates)


def writer_sources() -> st.SearchStrategy[str]:
    return circuits().map(to_openqasm)


@st.composite
def hand_formatted_sources(draw) -> str:
    """Writer statements laid out by hand: comments, several statements
    per line, statements split across lines, CRLF, tabs, vertical tab
    and form feed line breaks, ``;;``, and maybe no final ``;``."""
    pieces = []
    for statement in draw(writer_sources()).splitlines():
        if " " in statement and draw(st.booleans()):
            statement = statement.replace(
                " ", draw(st.sampled_from(_BREAKS)), 1
            )
        if "," in statement and draw(st.booleans()):
            statement = statement.replace(
                ",", "," + draw(st.sampled_from(_BREAKS)), 1
            )
        pieces.append(statement + draw(st.sampled_from(_SEPARATORS)))
    source = "".join(pieces)
    if draw(st.booleans()):
        source = source.rstrip().removesuffix(";")
    return source


@st.composite
def two_register_sources(draw) -> str:
    """A second register ``r`` declared between gates on ``q``, then
    gates on both, whole-register broadcasts included."""
    lines = draw(writer_sources()).splitlines()
    at = draw(st.integers(3, len(lines)))
    size = draw(st.integers(0, 3))
    tail = [
        line.replace("q[", "r[")
        for line in draw(writer_sources()).splitlines()[3:]
    ]
    tail += draw(st.lists(st.sampled_from([
        "h r;", "cx q[0],r;", "cx r,q;", "measure r -> c0[0];",
        "barrier q,r;", "reset r;", "if(c0==1) x r[0];", "swap r[0],r[1];",
    ]), max_size=4))
    return "\n".join(
        lines[:at] + [f"qreg r[{size}];"] + lines[at:] + tail
    ) + "\n"


def any_source() -> st.SearchStrategy[str]:
    return st.one_of(
        writer_sources(), hand_formatted_sources(), two_register_sources()
    )


@st.composite
def mutated_sources(draw) -> str:
    """A source with one character deleted, inserted or replaced."""
    source = draw(any_source())
    if not source:
        return source
    at = draw(st.integers(0, len(source) - 1))
    char = draw(st.sampled_from(_MUTATION_CHARS))
    edit = draw(st.sampled_from(["delete", "insert", "replace"]))
    if edit == "delete":
        return source[:at] + source[at + 1:]
    if edit == "insert":
        return source[:at] + char + source[at:]
    return source[:at] + char + source[at + 1:]


#: A gate's parameter list in writer output (not an ``if(...)``).
_PARAM_LIST_RE = re.compile(r"\b(?!if\()([A-Za-z_]\w*)\(([^()]*)\)")


@st.composite
def parenthesised_sources(draw) -> tuple[str, str]:
    """Writer output, and the same with each parameter wrapped in zero
    to three pairs of parentheses."""
    source = draw(writer_sources())

    def wrap(match: re.Match) -> str:
        params = []
        for param in match.group(2).split(","):
            depth = draw(st.integers(0, 3))
            params.append("(" * depth + param + ")" * depth)
        return f"{match.group(1)}({','.join(params)})"

    return source, _PARAM_LIST_RE.sub(wrap, source)


def _outcome(parse, source: str) -> tuple:
    try:
        circuit = parse(source)
    except Exception as exc:  # noqa: BLE001 — the exception is the outcome
        return ("raised", type(exc), str(exc), exc)
    return (
        "parsed", circuit.num_qubits, circuit.name,
        [repr(gate) for gate in circuit.gates],
    )


#: Messages of the arithmetic errors the earlier parser did not catch.
_ARITHMETIC = re.compile(
    r"line \d+, col \d+: (division by zero in parameter"
    r"|parameter expression nests deeper than \d+ levels"
    r"|parameter expression reaches .+, which is not finite)"
)


def _not_finite(outcome: tuple) -> bool:
    """A parse whose gates carry an infinite or NaN parameter."""
    return outcome[0] == "parsed" and any(
        re.search(r"\b(inf|nan)\b", gate) for gate in outcome[3]
    )


#: ``Circuit.append``'s message for a condition bit past the last qubit.
_CONDITION_BIT = re.compile(
    r"gate .+ is conditioned on bit (\d+) but circuit has (\d+) qubits"
)


#: The parser's message for a measurement into another qubit's bit.
_MEASURE_TARGET = re.compile(
    r"line (\d+), col (\d+): measure target (.+) is not qubit (\d+)'s bit "
    r"c(\d+)\[0\]",
    re.S,
)
#: A per-qubit register operand, ``c<N>`` or ``c<N>[i]``.
_BIT_OPERAND = re.compile(r"c(\d+)\s*(?:\[\s*(\d+)\s*\])?")


def _assert_bad_measure_target(
    source: str, expected: tuple, error: re.Match
) -> None:
    """The rejected statement is a measure of qubit q into a per-qubit
    register operand other than ``c<q>[0]``."""
    line, column, qubit = int(error[1]), int(error[2]), int(error[4])
    assert int(error[5]) == qubit
    statement = source.splitlines()[line - 1][column - 1:]
    assert statement.startswith("measure"), statement
    bit = _BIT_OPERAND.fullmatch(ast.literal_eval(error[3]))
    assert bit is not None, error[3]
    assert (int(bit[1]), int(bit[2] or 0)) != (qubit, 0), error[3]
    if expected[0] == "parsed":
        assert any(
            gate.startswith(f"Gate(name='measure', qubits=({qubit},)")
            for gate in expected[3]
        ), expected[3]


def assert_parses_as_before(source: str) -> None:
    expected = _outcome(qasm_reference.parse_qasm, source)
    actual = _outcome(parse_qasm, source)
    measure = actual[0] == "raised" and _MEASURE_TARGET.fullmatch(actual[2])
    if measure:
        # A measurement into another qubit's bit, now rejected.
        assert actual[1] is QasmError, actual
        _assert_bad_measure_target(source, expected, measure)
        return
    condition_bit = expected[0] == "raised" and _CONDITION_BIT.fullmatch(expected[2])
    if condition_bit:
        # A condition bit that names no qubit, now checked by the parser.
        assert actual[0] == "raised" and actual[1] is QasmError, actual
        assert re.fullmatch(
            r"line \d+, col \d+: condition bit c\d+ names no qubit; "
            rf"the program declares {condition_bit.group(2)}",
            actual[2],
        ), actual[2]
        return
    if expected[0] == "raised" and expected[1] is ValueError:
        # Gate's own operand check, now reported with a position.
        assert actual[0] == "raised" and actual[1] is QasmError, actual
        assert actual[3].message == expected[2]
        assert re.fullmatch(
            rf"line \d+, col \d+: {re.escape(expected[2])}", actual[2]
        ), actual[2]
        return
    if (
        expected[0] == "raised"
        and expected[1] in (ZeroDivisionError, RecursionError)
    ) or _not_finite(expected):
        # Parameter arithmetic, now checked and reported with a position.
        assert actual[0] == "raised" and actual[1] is QasmError, actual
        assert _ARITHMETIC.fullmatch(actual[2]), actual[2]
        return
    if expected[0] == "raised":
        assert actual[:3] == expected[:3]
    else:
        assert actual == expected


# A gate that appears both with and without a condition: a memo that
# keyed statements without their ``if(...)`` prefix would reuse one
# for the other.
_CONDITION_PAIR = (
    "OPENQASM 2.0;\nqreg q[2];\ncreg c0[1];\n"
    "x q[1];\nif(c0==1) x q[1];\nif(c0==0) x q[1];\nx q[1];\n"
)


@given(writer_sources())
@settings(**_SETTINGS)
@example(_CONDITION_PAIR)
@example("OPENQASM 2.0;\nqreg q[1];\nrz(-0.0) q[0];\nrz(0.0) q[0];\n")
def test_writer_output_parses_as_before(source):
    assert_parses_as_before(source)


@given(hand_formatted_sources())
@settings(**_SETTINGS)
@example("qreg q[2];;h q[0]; cx q[0],\r\nq[1]\t// c\x0bh q[1]")
@example("qreg q[1];\nh // a comment inside\n\nq[0];  ;\x0cx q[0];")
def test_hand_formatted_sources_parse_as_before(source):
    assert_parses_as_before(source)


@given(two_register_sources())
@settings(**_SETTINGS)
@example("qreg q[2];\nh q;\nqreg r[2];\nh q;\ncx q,r;\nh r;\n")
@example("qreg q[2];\nh q[0];\nqreg q[2];\nh q[0];\n")
@example("qreg q[1];\nqreg r[2];\nmeasure r -> c0[0];\nmeasure r[1] -> c2[0];\n")
def test_second_register_sources_parse_as_before(source):
    assert_parses_as_before(source)


@given(mutated_sources())
@settings(**_SETTINGS)
@example("OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n")
@example("OPENQASM 2.0;\nqreg q[2];\nrx(1/0) q[0];\n")
@example("OPENQASM 2.0;\nqreg q[2];\nrx(1e+3000) q[0];\n")
@example("OPENQASM 2.0;\nqreg q[1];\nrx(inf) q[0];\nrx(nan) q[0];\n")
@example("OPENQASM 2.0;\nqreg q[1];\nrx(" + "-" * 5000 + "1) q[0];\n")
@example("OPENQASM 2.0;\nqreg q[1];\nrx(" + "(" * 5000 + "1) q[0];\n")
@example("OPENQASM 2.0;\nqreg q[1];\nrx((1) q[0];\n")
@example("OPENQASM 2.0;\nqreg q[1];\nrx(-(pi/2) q[0];\nh q[0];\n")
@example("OPENQASM 2.0;\nqreg q[1];\nrx(1)) q[0];\n")
@example("OPENQASM 2.0;\nqreg q[1];\nrx((1));\n")
@example("OPENQASM 2.0;\nqreg q[2];\ncreg c5[1];\nif(c5==1) x q[0];\n")
@example("OPENQASM 2.0;\nqreg q[2];\nmeasure q[1] -> c0[0];\n")
@example("OPENQASM 2.0;\nqreg q[2];\nmeasure q[1] -> c1[1];\n")
def test_mutated_sources_parse_as_before(source):
    assert_parses_as_before(source)


def _pair(unwrapped: str, wrapped: str) -> tuple[str, str]:
    header = "OPENQASM 2.0;\nqreg q[1];\ncreg c0[1];\n"
    return header + unwrapped, header + wrapped


@given(parenthesised_sources())
@settings(**_SETTINGS)
@example(_pair("rx(-pi/2) q[0];\n", "rx(-(pi/2)) q[0];\n"))
@example(_pair("rx(1) q[0];\n", "rx((1)) q[0];\n"))
@example(_pair("rx(2*pi) q[0];\n", "rx(2*(pi)) q[0];\n"))
@example(_pair("u(0,pi,-pi/4) q[0];\n", "u(0,(pi),-(pi/4)) q[0];\n"))
@example(_pair("if(c0==1) rz(0.5) q[0];\n", "if(c0==1) rz(((0.5))) q[0];\n"))
def test_parenthesised_parameters_parse_as_unwrapped(sources):
    unwrapped, wrapped = sources
    expected = _outcome(qasm_reference.parse_qasm, unwrapped)
    assert expected[0] == "parsed", expected
    assert _outcome(parse_qasm, wrapped) == expected
