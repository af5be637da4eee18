"""The OpenQASM parser as it was before the one-pass statement scanner.

A verbatim copy of the earlier ``repro.qasm.parser``, kept as the
reference :mod:`tests.test_qasm_reference` compares ``parse_qasm``
against: a per-character statement splitter, ``re.fullmatch`` on pattern
strings, and every statement parsed afresh.  Only ``QasmError`` is
imported instead of defined, so that the exception types of both parsers
can be compared directly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from repro.core.circuit import Circuit
from repro.core.gates import Gate
from repro.qasm import QasmError

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
    """Recursive-descent parser for parameter expressions."""

    def __init__(self, tokens: list[str], line: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line

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
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> float:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self) -> float:
        token = self.take()
        if token == "-":
            return -self.factor()
        if token == "+":
            return self.factor()
        if token == "(":
            value = self.expression()
            self.expect(")")
            return value
        if token == "pi":
            return math.pi
        try:
            return float(token)
        except ValueError:
            raise QasmError(f"bad expression token {token!r}", self.line)


def _strip_comments(source: str) -> list[tuple[int, int, str]]:
    """Split into statements annotated with 1-based (line, col) starts.

    The position is where each statement's first non-blank character
    sits, so the second statement on a shared line reports its own
    column instead of inheriting the line's first statement.  Line
    breaks inside an unfinished statement are preserved as ``\\n`` in
    the buffer — without them, tokens ending one line fused with tokens
    opening the next (``h\\nq[0];`` used to parse as the gate ``hq``).
    """
    statements: list[tuple[int, int, str]] = []
    buffer = ""
    start_line = 1
    start_col = 1
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("//", 1)[0]
        for colno, ch in enumerate(line, start=1):
            if not buffer.strip():
                start_line, start_col = lineno, colno
            if ch in ";{}":
                statements.append(
                    (start_line, start_col, (buffer + ch).strip())
                )
                buffer = ""
            else:
                buffer += ch
        if buffer.strip():
            buffer += "\n"
    if buffer.strip():
        statements.append((start_line, start_col, buffer.strip()))
    return statements


def parse_qasm(source: str) -> Circuit:
    """Parse OpenQASM 2.0 ``source`` into a :class:`Circuit`.

    Raises:
        QasmError: on syntax errors or unsupported constructs.
    """
    registers: dict[str, _Register] = {}
    total_qubits = 0
    gates: list[Gate] = []
    name = ""

    for line, col, statement in _strip_comments(source):
        try:
            body = statement.rstrip(";").strip()
            if not body:
                continue
            head = body.split(None, 1)[0].lower()

            if head == "openqasm":
                continue
            if head == "include":
                continue
            if head == "creg":
                continue  # classical registers only receive measurements
            if head in ("gate", "opaque"):
                raise QasmError(f"unsupported construct {head!r}", line)

            condition: tuple[int, int] | None = None
            if head == "if" or body.startswith("if"):
                match = re.fullmatch(
                    r"if\s*\(\s*([A-Za-z_]\w*)\s*==\s*(\d+)\s*\)\s*(.+)",
                    body,
                    flags=re.S,
                )
                if match is None:
                    raise QasmError("malformed if statement", line)
                reg_name, value_text, body = match.groups()
                bit_match = re.fullmatch(r"c(\d+)", reg_name)
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
                match = re.fullmatch(
                    r"qreg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]", body
                )
                if match is None:
                    raise QasmError("malformed qreg declaration", line)
                reg_name, size = match.group(1), int(match.group(2))
                if reg_name in registers:
                    raise QasmError(f"duplicate register {reg_name!r}", line)
                registers[reg_name] = _Register(reg_name, size, total_qubits)
                total_qubits += size
                continue
            if condition is not None and head in ("barrier", "measure", "reset"):
                raise QasmError(f"cannot condition {head!r}", line)
            if head == "barrier":
                operands = body[len("barrier"):].strip()
                qubits = (
                    _parse_operands(operands, registers, line)
                    if operands else []
                )
                flat = [q for group in qubits for q in group]
                gates.append(Gate("barrier", tuple(flat)))
                continue
            if head == "measure":
                match = re.fullmatch(
                    r"measure\s+(.+?)\s*(?:->\s*.+)?", body, flags=re.S
                )
                if match is None:
                    raise QasmError("malformed measure", line)
                for group in _parse_operands(match.group(1), registers, line):
                    for q in group:
                        gates.append(Gate("measure", (q,)))
                continue
            if head == "reset":
                operands = body[len("reset"):].strip()
                for group in _parse_operands(operands, registers, line):
                    for q in group:
                        gates.append(Gate("prep_z", (q,)))
                continue

            # Generic gate application: name[(params)] operands
            match = re.fullmatch(
                r"([A-Za-z_]\w*)\s*(?:\((.*?)\))?\s*(.+)", body, flags=re.S
            )
            if match is None:
                raise QasmError(f"cannot parse statement {body!r}", line)
            gate_name, params_text, operand_text = match.groups()
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
            canonical = _DIRECT[key]
            if key in ("cu1", "cp"):
                pass  # identical semantics
            operand_groups = _parse_operands(operand_text, registers, line)
            for qubits in _broadcast(operand_groups, line):
                gates.append(Gate(canonical, qubits, tuple(params), condition))
        except QasmError as exc:
            if exc.column is None and exc.line == line:
                # Attach where this statement starts, so errors on the
                # second statement of a shared line point at it and not
                # at the line's first statement.
                raise QasmError(exc.message, line, col) from None
            raise

    circuit = Circuit(total_qubits, name=name)
    for gate in gates:
        circuit.append(gate)
    return circuit


def _parse_params(text: str | None, line: int) -> list[float]:
    if not text or not text.strip():
        return []
    params = []
    for chunk in _split_top_level(text):
        parser = _ExprParser(_tokenize(chunk, line), line)
        params.append(parser.expression())
        if parser.peek() is not None:
            raise QasmError(f"trailing tokens in expression {chunk!r}", line)
    return params


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
        match = re.fullmatch(r"([A-Za-z_]\w*)\s*(?:\[\s*(\d+)\s*\])?", chunk)
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
