"""Reference OpenQASM 2.0 parser: statement by statement, no fast lane.

This is the former ``qcoremap.qasm.parse_qasm`` with its statement splitter
and parameter evaluator, kept as the reference that ``tests/test_qasm.py``
compares the parser against: the same ``Circuit`` on every input it accepts,
and a ``QasmError`` with the same message, line and column on every input it
rejects. Like the parser's, its evaluator rejects division by zero and values
that are not finite.
"""

from __future__ import annotations

import math
import re

from qcoremap.circuit import Circuit, Gate
from qcoremap.qasm import QasmError

ONE_QUBIT_GATES = {
    "h": 0, "x": 0, "y": 0, "z": 0, "s": 0, "sdg": 0, "t": 0, "tdg": 0,
    "rx": 1, "ry": 1, "rz": 1, "u1": 1, "u2": 2, "u3": 3,
}
TWO_QUBIT_GATES = {"cx": 0, "cz": 0, "cp": 1, "crz": 1, "swap": 0}

_STMT_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*(?:\((?P<params>[^)]*)\))?\s*(?P<args>[^()]*)$"
)
_ARG_RE = re.compile(r"^(?P<reg>[A-Za-z_][A-Za-z0-9_]*)\s*(?:\[\s*(?P<idx>\d+)\s*\])?$")


class _ExprParser:
    """Tiny arithmetic evaluator for gate parameters: numbers, pi, + - * / and
    parens. A zero divisor or a value that is not finite raises ValueError."""

    _TOKEN = re.compile(r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)|(pi)|([-+*/()]))")

    def __init__(self, text: str):
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = self._TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip():
                    raise ValueError(f"bad parameter expression {text!r}")
                break
            if m.group(1) is not None:
                self.tokens.append(float(m.group(1)))
            elif m.group(2) is not None:
                self.tokens.append(math.pi)
            else:
                self.tokens.append(m.group(3))
            pos = m.end()
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def parse(self) -> float:
        value = self._sum()
        if self._peek() is not None:
            raise ValueError("trailing tokens in parameter expression")
        if not math.isfinite(value):
            raise ValueError(f"parameter expression evaluates to {value!r}, which is not finite")
        return value

    def _sum(self) -> float:
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> float:
        value = self._atom()
        while self._peek() in ("*", "/"):
            op = self._next()
            rhs = self._atom()
            if op == "/" and rhs == 0:
                raise ValueError("division by zero in parameter expression")
            value = value * rhs if op == "*" else value / rhs
        return value

    def _atom(self) -> float:
        tok = self._next()
        if tok == "-":
            return -self._atom()
        if tok == "+":
            return self._atom()
        if tok == "(":
            value = self._sum()
            if self._next() != ")":
                raise ValueError("unbalanced parentheses in parameter expression")
            return value
        if isinstance(tok, float):
            return tok
        raise ValueError(f"unexpected token {tok!r} in parameter expression")


def _statements(text: str):
    """Yield (statement, line, column) with comments stripped; statements end at ';'."""
    pending = ""
    pending_line = pending_col = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0]
        col = 1
        while line:
            if not pending:
                stripped = line.lstrip()
                if not stripped:
                    break  # blank text starts no statement
                pending_line = lineno
                pending_col = col + (len(line) - len(stripped))
                line = stripped
                col = pending_col
            if ";" in line:
                stmt, line = line.split(";", 1)
                full = (pending + stmt).strip()
                pending = ""
                if full:
                    yield full, pending_line, pending_col
                col += len(stmt) + 1
            else:
                pending += line + " "
                break
    if pending.strip():
        yield pending.strip(), pending_line, pending_col


def parse_qasm(text: str) -> Circuit:
    """Parse an OpenQASM 2.0 string into a :class:`Circuit`.

    ``measure``, ``barrier``, and classical registers are accepted and dropped.
    The version header is optional so that bare gate lists parse too.
    """
    qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, width)
    cregs: set[str] = set()
    total = 0
    gates: list[Gate] = []

    for stmt, line, col in _statements(text):
        head = stmt.split(None, 1)[0]
        if head == "OPENQASM":
            version = stmt[len("OPENQASM"):].strip()
            if version != "2.0":
                raise QasmError(f"unsupported OpenQASM version {version!r}", line, col)
            continue
        if head == "include":
            continue
        if head in ("qreg", "creg"):
            m = _ARG_RE.match(stmt[len(head):].strip())
            if m is None or m.group("idx") is None:
                raise QasmError(f"malformed {head} declaration", line, col)
            name, width = m.group("reg"), int(m.group("idx"))
            if width < 1:
                raise QasmError(f"register '{name}' must have positive width", line, col)
            if head == "qreg":
                if name in qregs:
                    raise QasmError(f"duplicate qreg '{name}'", line, col)
                qregs[name] = (total, width)
                total += width
            else:
                cregs.add(name)
            continue
        if head == "measure" or head == "barrier":
            continue  # structural no-ops for mapping purposes
        if head in ("if", "gate", "opaque", "reset"):
            raise QasmError(f"unsupported statement '{head}'", line, col)

        m = _STMT_RE.match(stmt)
        if m is None:
            raise QasmError(f"cannot parse statement {stmt!r}", line, col)
        name = m.group("name")
        if name in ONE_QUBIT_GATES:
            arity, n_params = 1, ONE_QUBIT_GATES[name]
        elif name in TWO_QUBIT_GATES:
            arity, n_params = 2, TWO_QUBIT_GATES[name]
        else:
            raise QasmError(f"unsupported gate '{name}'", line, col)

        raw_params = m.group("params")
        if n_params == 0:
            if raw_params not in (None, ""):
                raise QasmError(f"gate '{name}' takes no parameters", line, col)
            params: tuple[float, ...] = ()
        else:
            if raw_params is None:
                raise QasmError(f"gate '{name}' expects {n_params} parameter(s)", line, col)
            parts = [p for p in raw_params.split(",")]
            if len(parts) != n_params:
                raise QasmError(
                    f"gate '{name}' expects {n_params} parameter(s), got {len(parts)}", line, col
                )
            try:
                params = tuple(_ExprParser(p).parse() for p in parts)
            except ValueError as exc:
                raise QasmError(str(exc), line, col) from None

        args = [a.strip() for a in m.group("args").split(",")] if m.group("args").strip() else []
        if len(args) != arity:
            raise QasmError(f"gate '{name}' expects {arity} operand(s), got {len(args)}", line, col)
        qubits = []
        for arg in args:
            am = _ARG_RE.match(arg)
            if am is None:
                raise QasmError(f"malformed operand {arg!r}", line, col)
            reg = am.group("reg")
            if reg not in qregs:
                raise QasmError(f"unknown quantum register '{reg}'", line, col)
            if am.group("idx") is None:
                raise QasmError("whole-register gate broadcast is not supported", line, col)
            offset, width = qregs[reg]
            idx = int(am.group("idx"))
            if idx >= width:
                raise QasmError(f"index {idx} out of range for qreg '{reg}[{width}]'", line, col)
            qubits.append(offset + idx)
        if arity == 2 and qubits[0] == qubits[1]:
            raise QasmError(f"duplicate qubit in gate '{name}'", line, col)
        gates.append(Gate(name, tuple(qubits), params))

    if total == 0:
        raise QasmError("no qreg declared", 1, 1)
    return Circuit(total, tuple(gates))
