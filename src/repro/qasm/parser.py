"""OpenQASM 2.0 (subset) parser.

The paper's Fig. 2 compiler consumes "the quantum algorithm in terms of a
sequential list of quantum gates" expressed in a quantum assembly
language (OpenQASM 2.0 [16] or cQASM [17]).  This module parses the
OpenQASM 2.0 subset those gate lists use:

* the ``OPENQASM 2.0;`` header and ``include`` statements (ignored);
* ``qreg`` / ``creg`` declarations (multiple registers are flattened
  into one qubit index space in declaration order);
* gate applications with parameter expressions (numbers, ``pi``,
  ``+ - * /``, unary minus, parentheses), including register broadcast
  (``h q;`` applies H to every qubit of ``q``);
* classically conditioned gates, ``if(cN==v) gate ...;``, on the
  per-qubit one-bit registers the writer emits;
* ``measure``, ``reset``, and ``barrier``.

Custom ``gate`` definitions and ``opaque`` are outside the subset and
raise :class:`QasmError` with a position, as does every other malformed
statement, including a gate given the wrong number of operands or the
same operand twice, a condition on a bit ``c<N>`` that names no qubit
(checked once every register is declared), a measurement into a
per-qubit register ``c<N>`` other than the measured qubit's own bit
``c<q>[0]``, and a parameter expression that divides by zero, nests
more than :data:`MAX_EXPRESSION_DEPTH` parentheses and signs deep, or
reaches a value that is not finite (``1e400``, ``inf``, ``nan``).

Cost model.  The compile service stores every artefact and stage entry
as OpenQASM text, so each cache hit pays for a parse.  A call scans the
source once: per line it cuts the ``//`` comment and finds the
terminators ``;``, ``{`` and ``}`` with a compiled pattern, so no Python
loop runs per character.  It then parses each distinct statement text
once.  The gates a statement produced are kept, for the rest of the call
only, under the statement's exact text (an ``if(...)`` prefix included),
and every repeat of that text reuses the same immutable :class:`Gate`
objects.  This is sound because a statement's gates depend only on its
text and on the registers declared before it, and a register is never
redeclared or resized.  A statement that fails raises at its own
position and is never kept.  Lowered circuits repeat most of their
statements, so their parse costs little more than the scan; input
circuits repeat few, and gain only from the scan and from patterns
compiled once at import.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from dataclasses import dataclass

from ..core.circuit import Circuit
from ..core.gates import Gate

__all__ = ["MAX_EXPRESSION_DEPTH", "QasmError", "parse_qasm"]

#: Deepest nesting of parentheses and unary signs a parameter expression
#: may use.  The writer never nests; the bound keeps a hostile source
#: from exhausting the interpreter's stack in the recursive descent.
MAX_EXPRESSION_DEPTH = 100

#: OpenQASM gate names handled natively, mapped to canonical names.
#: Includes the toolkit's extension spellings the writer emits for
#: non-standard native gates (x90 family, rxx, shuttle), so that
#: ``parse_qasm`` accepts everything ``to_openqasm`` can produce.
_DIRECT = {
    "h": "h", "x": "x", "y": "y", "z": "z", "s": "s", "sdg": "sdg",
    "t": "t", "tdg": "tdg", "id": "i", "rx": "rx", "ry": "ry", "rz": "rz",
    "u3": "u", "u": "u", "cx": "cnot", "cnot": "cnot", "cz": "cz",
    "swap": "swap", "ccx": "toffoli", "cswap": "fredkin", "cp": "cp",
    "cu1": "cp", "crz": "crz",
    "x90": "x90", "xm90": "xm90", "y90": "y90", "ym90": "ym90",
    "rxx": "rxx", "shuttle": "shuttle",
}

#: Parameter counts for the direct gates (for arity checking).
_PARAM_COUNT = {
    "rx": 1, "ry": 1, "rz": 1, "u3": 3, "u": 3, "cp": 1, "cu1": 1, "crz": 1,
    "rxx": 1,
}


class QasmError(ValueError):
    """Parse error with position information.

    Attributes:
        message: The bare description (without the position prefix).
        line: 1-based source line of the offending statement.
        column: 1-based column of the statement's first character on
            that line, when known (``None`` otherwise) — statements
            after the first on a shared line report where *they* start.
    """

    def __init__(self, message: str, line: int, column: int | None = None):
        where = f"line {line}"
        if column is not None:
            where += f", col {column}"
        super().__init__(f"{where}: {message}")
        self.message = message
        self.line = line
        self.column = column


@dataclass
class _Register:
    name: str
    size: int
    offset: int


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>->|[-+*/()\[\],;])"
    r")"
)

# The statement grammar, compiled once at import.
_PIECE_RE = re.compile(r"[^;{}]*[;{}]")  # up to and including a terminator
_IF_RE = re.compile(
    r"if\s*\(\s*([A-Za-z_]\w*)\s*==\s*(\d+)\s*\)\s*(.+)", re.S
)
_CONDITION_BIT_RE = re.compile(r"c(\d+)")
_QREG_RE = re.compile(r"qreg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]")
_MEASURE_RE = re.compile(r"measure\s+(.+?)\s*(?:->\s*(.+))?", re.S)
_APPLY_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\((.*?)\))?\s*(.+)", re.S)
_OPERAND_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\[\s*(\d+)\s*\])?")


def _tokenize(text: str, line: int) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            if text[pos:].strip():
                raise QasmError(f"unexpected character {text[pos]!r}", line)
            break
        tokens.append(match.group(match.lastgroup))
        pos = match.end()
    return tokens


class _ExprParser:
    """Recursive-descent parser for parameter expressions.

    Every value it produces, down to each number and each intermediate
    result, is finite: a division by zero, an overflow, ``inf`` or
    ``nan`` raises :class:`QasmError`, as does nesting deeper than
    :data:`MAX_EXPRESSION_DEPTH`.
    """

    def __init__(self, tokens: list[str], line: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.depth = 0

    def finite(self, value: float) -> float:
        if not math.isfinite(value):
            raise QasmError(
                f"parameter expression reaches {value!r}, which is not "
                "finite",
                self.line,
            )
        return value

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise QasmError("unexpected end of expression", self.line)
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.take()
        if got != token:
            raise QasmError(f"expected {token!r}, got {got!r}", self.line)

    def expression(self) -> float:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = self.finite(value + rhs if op == "+" else value - rhs)
        return value

    def term(self) -> float:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*":
                value = self.finite(value * rhs)
            elif rhs == 0:
                raise QasmError("division by zero in parameter", self.line)
            else:
                value = self.finite(value / rhs)
        return value

    def factor(self) -> float:
        token = self.take()
        if token in ("-", "+", "("):
            self.depth += 1
            if self.depth > MAX_EXPRESSION_DEPTH:
                raise QasmError(
                    "parameter expression nests deeper than "
                    f"{MAX_EXPRESSION_DEPTH} levels",
                    self.line,
                )
            if token == "(":
                value = self.expression()
                self.expect(")")
            else:
                value = self.factor()
                if token == "-":
                    value = -value
            self.depth -= 1
            return value
        if token == "pi":
            return math.pi
        try:
            value = float(token)
        except ValueError:
            raise QasmError(f"bad expression token {token!r}", self.line)
        return self.finite(value)


def _statements(source: str) -> Iterator[tuple[int, int, str]]:
    """Yield each statement as ``(line, column, text)``, 1-based.

    The position is that of the statement's first non-blank character,
    or of its terminator when the statement is empty, so the second
    statement on a shared line reports where *it* starts.  A statement
    continued over several lines is reported at its first line and keeps
    a ``\\n`` for each line break it spans: without them, tokens ending
    one line fused with tokens opening the next (``h\\nq[0];`` used to
    parse as the gate ``hq``).  A last statement with no terminator is
    yielded too.  Line breaks are those of :meth:`str.splitlines`.
    """
    pending: list[str] = []  # the unfinished statement, one piece per line
    start_line = start_col = 0
    for lineno, raw in enumerate(source.splitlines(), start=1):
        cut = raw.find("//")
        line = raw if cut < 0 else raw[:cut]
        end = 0
        for piece in _PIECE_RE.findall(line):
            end += len(piece)
            if pending:
                pending.append(piece)
                yield start_line, start_col, "".join(pending).strip()
                pending = []
            else:
                text = piece.lstrip()
                yield lineno, end - len(text) + 1, text
        if pending:
            pending += (line[end:], "\n")
        else:
            text = line[end:].lstrip()
            if text:
                start_line, start_col = lineno, len(line) - len(text) + 1
                pending = [text, "\n"]
    if pending:
        yield start_line, start_col, "".join(pending).strip()


def parse_qasm(source: str) -> Circuit:
    """Parse OpenQASM 2.0 ``source`` into a :class:`Circuit`.

    Raises:
        QasmError: on syntax errors, unsupported constructs, gates
            whose operands do not fit them, conditions on a bit that
            names no qubit, measurements into another qubit's bit, and
            parameter expressions that divide by zero, nest too deep or
            are not finite; always with the offending statement's line
            and column.
    """
    registers: dict[str, _Register] = {}
    gates: list[Gate] = []
    # Statement text -> the gates it produced.  Local to this call, so
    # no parse is ever answered from another call's work.
    parsed: dict[str, tuple[Gate, ...]] = {}
    # (line, column, bit) of each conditioning statement, checked once
    # every qreg is read: a later one can add the qubit a bit names.
    conditions: list[tuple[int, int, int]] = []
    for line, col, statement in _statements(source):
        produced = parsed.get(statement)
        if produced is None:
            try:
                produced = _statement_gates(statement, registers, line)
            except QasmError as exc:
                if exc.column is None and exc.line == line:
                    # Attach where this statement starts, so errors on the
                    # second statement of a shared line point at it and not
                    # at the line's first statement.
                    raise QasmError(exc.message, line, col) from None
                raise
            if produced is None:
                continue  # a qreg declaration is state, never reused
            parsed[statement] = produced
            if produced and produced[0].condition is not None:
                conditions.append((line, col, produced[0].condition[0]))
        gates += produced

    num_qubits = sum(reg.size for reg in registers.values())
    for line, col, bit in conditions:
        if bit >= num_qubits:
            raise QasmError(
                f"condition bit c{bit} names no qubit; the program "
                f"declares {num_qubits}",
                line, col,
            )
    return Circuit(num_qubits, gates)


def _statement_gates(
    statement: str, registers: dict[str, _Register], line: int
) -> tuple[Gate, ...] | None:
    """The gates one statement applies, in order.

    ``None`` for a ``qreg`` declaration, which is added to ``registers``
    instead.  Raises :class:`QasmError` without a column.
    """
    body = statement.rstrip(";").strip()
    if not body:
        return ()
    head = body.split(None, 1)[0].lower()

    if head in ("openqasm", "include"):
        return ()
    if head == "creg":
        return ()  # classical registers only receive measurements
    if head in ("gate", "opaque"):
        raise QasmError(f"unsupported construct {head!r}", line)

    condition: tuple[int, int] | None = None
    if head == "if" or body.startswith("if"):
        match = _IF_RE.fullmatch(body)
        if match is None:
            raise QasmError("malformed if statement", line)
        reg_name, value_text, body = match.groups()
        bit_match = _CONDITION_BIT_RE.fullmatch(reg_name)
        if bit_match is None:
            raise QasmError(
                "conditions must use the per-qubit classical "
                f"registers c<N> (got {reg_name!r})",
                line,
            )
        value = int(value_text)
        if value not in (0, 1):
            raise QasmError("condition value must be 0 or 1", line)
        condition = (int(bit_match.group(1)), value)
        head = body.split(None, 1)[0].lower()
    if head == "qreg":
        match = _QREG_RE.fullmatch(body)
        if match is None:
            raise QasmError("malformed qreg declaration", line)
        reg_name, size = match.group(1), int(match.group(2))
        if reg_name in registers:
            raise QasmError(f"duplicate register {reg_name!r}", line)
        offset = sum(reg.size for reg in registers.values())
        registers[reg_name] = _Register(reg_name, size, offset)
        return None
    if condition is not None and head in ("barrier", "measure", "reset"):
        raise QasmError(f"cannot condition {head!r}", line)
    if head == "barrier":
        operands = body[len("barrier"):].strip()
        groups = _parse_operands(operands, registers, line) if operands else []
        flat = tuple(q for group in groups for q in group)
        return _gates("barrier", [flat], (), None, line)
    if head == "measure":
        match = _MEASURE_RE.fullmatch(body)
        if match is None:
            raise QasmError("malformed measure", line)
        groups = _parse_operands(match.group(1), registers, line)
        qubits = [q for group in groups for q in group]
        if match.group(2) is not None:
            _check_measure_target(match.group(2), qubits, line)
        return _gates("measure", [(q,) for q in qubits], (), None, line)
    if head == "reset":
        operands = body[len("reset"):].strip()
        groups = _parse_operands(operands, registers, line)
        return _gates(
            "prep_z", [(q,) for group in groups for q in group], (), None,
            line,
        )

    # Generic gate application: name[(params)] operands
    match = _APPLY_RE.fullmatch(body)
    if match is None:
        raise QasmError(f"cannot parse statement {body!r}", line)
    gate_name, params_text, operand_text = match.groups()
    if params_text and "(" in params_text:
        # The pattern stops at the first ")"; a parameter list holding a
        # parenthesis runs to its matching one.  Without one, or with no
        # operands after it, the first split stands and fails as before.
        depth = 0
        for close in range(match.start(2) - 1, len(body)):
            depth += (body[close] == "(") - (body[close] == ")")
            if not depth:
                if body[close + 1:].strip():
                    params_text = body[match.start(2):close]
                    operand_text = body[close + 1:].lstrip()
                break
    key = gate_name.lower()
    if key not in _DIRECT:
        raise QasmError(f"unsupported gate {gate_name!r}", line)
    params = _parse_params(params_text, line)
    expected = _PARAM_COUNT.get(key, 0)
    if len(params) != expected:
        raise QasmError(
            f"gate {gate_name!r} expects {expected} parameters, "
            f"got {len(params)}",
            line,
        )
    operand_groups = _parse_operands(operand_text, registers, line)
    return _gates(
        _DIRECT[key], _broadcast(operand_groups, line), params, condition,
        line,
    )


def _check_measure_target(target: str, qubits: list[int], line: int) -> None:
    """Reject a measurement into a per-qubit register other than each
    measured qubit's own bit: a condition on ``c<N>`` reads qubit N's
    result, so ``c<N>[0]`` must hold qubit N's.  Targets in other
    registers are free, as no condition can read them."""
    operand = _OPERAND_RE.fullmatch(target)
    bit = _CONDITION_BIT_RE.fullmatch(operand.group(1)) if operand else None
    if bit is None:
        return
    owner, index = int(bit.group(1)), operand.group(2)
    for q in qubits:
        if q != owner or (index is not None and int(index) != 0):
            raise QasmError(
                f"measure target {target!r} is not qubit {q}'s bit c{q}[0]",
                line,
            )


def _gates(
    name: str,
    applications: list[tuple[int, ...]],
    params: tuple[float, ...],
    condition: tuple[int, int] | None,
    line: int,
) -> tuple[Gate, ...]:
    """One :class:`Gate` per application; an operand list the gate
    rejects (wrong arity, a repeated qubit) raises :class:`QasmError`
    with the gate's own message."""
    try:
        return tuple([
            Gate(name, qubits, params, condition) for qubits in applications
        ])
    except ValueError as exc:
        raise QasmError(str(exc), line) from None


def _parse_params(text: str | None, line: int) -> tuple[float, ...]:
    if not text or not text.strip():
        return ()
    params = []
    for chunk in _split_top_level(text):
        parser = _ExprParser(_tokenize(chunk, line), line)
        params.append(parser.expression())
        if parser.peek() is not None:
            raise QasmError(f"trailing tokens in expression {chunk!r}", line)
    return tuple(params)


def _split_top_level(text: str) -> list[str]:
    chunks, depth, current = [], 0, ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            chunks.append(current)
            current = ""
        else:
            current += ch
    chunks.append(current)
    return chunks


def _parse_operands(
    text: str, registers: dict[str, _Register], line: int
) -> list[list[int]]:
    """Each operand becomes the list of flat qubit indices it denotes."""
    groups: list[list[int]] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        match = _OPERAND_RE.fullmatch(chunk)
        if match is None:
            raise QasmError(f"malformed operand {chunk!r}", line)
        reg_name, index = match.group(1), match.group(2)
        reg = registers.get(reg_name)
        if reg is None:
            raise QasmError(f"unknown register {reg_name!r}", line)
        if index is None:
            groups.append([reg.offset + i for i in range(reg.size)])
        else:
            i = int(index)
            if i >= reg.size:
                raise QasmError(
                    f"index {i} out of range for register {reg_name!r}", line
                )
            groups.append([reg.offset + i])
    return groups


def _broadcast(groups: list[list[int]], line: int) -> list[tuple[int, ...]]:
    """OpenQASM register broadcast: pair up whole-register operands."""
    if not groups:
        raise QasmError("gate application without operands", line)
    width = max(len(g) for g in groups)
    for g in groups:
        if len(g) not in (1, width):
            raise QasmError("mismatched register sizes in broadcast", line)
    applications = []
    for i in range(width):
        applications.append(tuple(g[0] if len(g) == 1 else g[i] for g in groups))
    return applications
