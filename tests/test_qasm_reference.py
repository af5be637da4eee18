"""``parse_qasm`` against a copy of the parser it replaced.

:func:`repro.qasm.parse_qasm` splits the source with one scan per line
and parses each distinct statement text once per call, reusing its gates
for every repeat.  :mod:`tests.qasm_reference` is the earlier parser,
which split character by character and parsed every statement afresh.
On every input below both must return the same circuit, compared by
``num_qubits``, ``name`` and the ``repr`` of every gate (so a ``-0.0``
that turns into ``0.0`` counts as a difference), or raise the same
exception type with the same message.

Two deliberate differences:

* a gate given operands it rejects (wrong arity, a repeated qubit) made
  the earlier parser leak ``Gate``'s bare ``ValueError``; it is now a
  :class:`QasmError` with the same text plus the statement's position;
* parameter arithmetic that divided by zero or recursed too deep made
  it leak ``ZeroDivisionError`` or ``RecursionError``, and a parameter
  that was not finite (``1e400``, ``inf``, ``nan``) parsed; each is now
  a positioned :class:`QasmError`.

Inputs: writer output of random circuits, the same statements
hand-formatted, sources that declare a second register between gates,
and single-character mutations of all of these.
"""

from __future__ import annotations

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


def assert_parses_as_before(source: str) -> None:
    expected = _outcome(qasm_reference.parse_qasm, source)
    actual = _outcome(parse_qasm, source)
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
def test_mutated_sources_parse_as_before(source):
    assert_parses_as_before(source)
