"""OpenQASM 2.0 subset parser and canonical serializer.

Supported statements: the version header, ``include``, ``qreg``/``creg``
declarations, the standard one-qubit gates (h x y z s sdg t tdg rx ry rz u1 u2
u3), two-qubit gates (cx cz cp crz swap), and ``measure``/``barrier`` (parsed
and dropped). Multiple quantum registers are concatenated into one flat index
space in declaration order. No gate definitions, conditionals, or loops.

Most lines of a generated program are one canonical gate statement,
``name[(p,...)] reg[i][,reg[j]];``, and these take a fast lane: when such a
line starts no earlier statement's continuation, names a known gate with its
arity, a declared register, in-range distinct indices, and parameters that
are plain decimal numerals of finite value, it becomes a Gate through
``_unchecked_gate``, with ``float`` for each parameter and none of the checks
the lane has already made: the gate's three slots are written and nothing
else. Every other line (headers, declarations, comments, several statements
on a line, a statement split across lines, ``pi`` expressions, and every
error) goes through the statement path, so error messages, lines and columns
do not depend on the lane.
"""

from __future__ import annotations

import math
import re

from .circuit import Circuit, Gate, _unchecked_circuit, _unchecked_gate

ONE_QUBIT_GATES = {
    "h": 0, "x": 0, "y": 0, "z": 0, "s": 0, "sdg": 0, "t": 0, "tdg": 0,
    "rx": 1, "ry": 1, "rz": 1, "u1": 1, "u2": 2, "u3": 3,
}
TWO_QUBIT_GATES = {"cx": 0, "cz": 0, "cp": 1, "crz": 1, "swap": 0}
_ARITY_AND_PARAMS = {
    **{name: (1, n) for name, n in ONE_QUBIT_GATES.items()},
    **{name: (2, n) for name, n in TWO_QUBIT_GATES.items()},
}

_QASM_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

_STMT_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*(?:\((?P<params>[^)]*)\))?\s*(?P<args>[^()]*)$"
)
_ARG_RE = re.compile(r"^(?P<reg>[A-Za-z_][A-Za-z0-9_]*)\s*(?:\[\s*(?P<idx>\d+)\s*\])?$")
# A whole line holding one canonical gate statement and nothing after its ';'.
# Over the parameter alphabet, the strings float() accepts are exactly the
# signed decimal numerals, which _ExprParser evaluates to the same value; on
# any other string float() raises and the line takes the statement path.
_GATE_LINE = re.compile(
    r"[ \t]*([a-z][a-z0-9]*)(?:\(([-+0-9.eE \t,]*)\))?[ \t]+"
    r"([A-Za-z_][A-Za-z0-9_]*)\[([0-9]+)\](?:,([A-Za-z_][A-Za-z0-9_]*)\[([0-9]+)\])?;"
)


class QasmError(ValueError):
    """Parse failure with 1-based line and column of the offending statement."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


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


def _statements(text: str, gate_line):
    """Yield (statement, line, column) with comments stripped; statements end at ';'.

    A line that starts no continuation is first offered to ``gate_line``;
    when that returns True the line has been consumed and yields nothing.
    """
    pending = ""
    pending_line = pending_col = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not pending and gate_line(raw):
            continue
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

    def gate_line(raw: str) -> bool:
        """Append the gate of a canonical gate line; False leaves the line
        to the statement path."""
        m = _GATE_LINE.fullmatch(raw)
        if m is None:
            return False
        name, raw_params, reg, idx, reg_b, idx_b = m.groups()
        spec = _ARITY_AND_PARAMS.get(name)
        if spec is None or (reg_b is None) != (spec[0] == 1):
            return False
        if raw_params is None:
            if spec[1]:
                return False
            params: tuple[float, ...] = ()
        else:
            try:
                params = tuple(map(float, raw_params.split(",")))
            except ValueError:
                return False
            if len(params) != spec[1] or not all(map(math.isfinite, params)):
                return False
        register = qregs.get(reg)
        i = int(idx)
        if register is None or i >= register[1]:
            return False
        if reg_b is None:
            qubits: tuple[int, ...] = (register[0] + i,)
        else:
            register_b = qregs.get(reg_b)
            j = int(idx_b)
            if register_b is None or j >= register_b[1]:
                return False
            qubits = (register[0] + i, register_b[0] + j)
            if qubits[0] == qubits[1]:
                return False
        gates.append(_unchecked_gate(name, qubits, params))
        return True

    for stmt, line, col in _statements(text, gate_line):
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
    return _unchecked_circuit(total, tuple(gates))


def serialize_qasm(circuit: Circuit) -> str:
    """Canonical text form; ``parse_qasm`` of the output reproduces the circuit."""
    lines = [_QASM_HEADER + f"qreg q[{circuit.num_qubits}];"]
    for g in circuit.gates:
        params = f"({','.join(repr(p) for p in g.params)})" if g.params else ""
        args = ",".join(f"q[{q}]" for q in g.qubits)
        lines.append(f"{g.label}{params} {args};")
    return "\n".join(lines) + "\n"
