"""OpenQASM 2.0 subset parser and canonical serializer.

Supported statements: the version header, ``include``, ``qreg``/``creg``
declarations, the standard one-qubit gates (h x y z s sdg t tdg rx ry rz u1 u2
u3), two-qubit gates (cx cz cp crz swap), and ``measure``/``barrier`` (parsed
and dropped). Multiple quantum registers are concatenated into one flat index
space in declaration order. No gate definitions, conditionals, or loops.

The parser builds a circuit's columns, not ``Gate`` objects. Most lines of a
generated program are one canonical gate statement,
``name[(p,...)] reg[i][,reg[j]];``, naming a supported gate. The text is read
in pieces of whole lines, and one regex split of a piece gives a row per line.
The rows are checked one at a time, in line order. A canonical gate line that
continues no earlier statement is appended to the columns, with ``float`` for
each parameter, when it passes these checks: its arity and parameter
count, every parameter a plain decimal numeral of finite value, every
register declared and index in range, and the two qubits of a pair distinct.
Every other line (one that fails a check, headers, declarations, ``barrier``,
comments, several statements on a line, a statement split across lines,
``pi`` expressions) goes through the statement path, so every error message,
line and column comes from the statement path. Lines are numbered as
``str.splitlines`` splits them.
"""

from __future__ import annotations

import math
import re

from .circuit import Circuit, _from_columns

ONE_QUBIT_GATES = {
    "h": 0, "x": 0, "y": 0, "z": 0, "s": 0, "sdg": 0, "t": 0, "tdg": 0,
    "rx": 1, "ry": 1, "rz": 1, "u1": 1, "u2": 2, "u3": 3,
}
TWO_QUBIT_GATES = {"cx": 0, "cz": 0, "cp": 1, "crz": 1, "swap": 0}
_PARAM_COUNTS = {**ONE_QUBIT_GATES, **TWO_QUBIT_GATES}
_ARITY = {**dict.fromkeys(ONE_QUBIT_GATES, 1), **dict.fromkeys(TWO_QUBIT_GATES, 2)}
_LABELS = {name: name for name in _ARITY}  # one string object per label

_QASM_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

# The parameter list runs to the last ')' before the operands, which hold no
# parentheses, so a parameter expression may nest them.
_STMT_RE = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*(?:\((?P<params>.*)\))?\s*(?P<args>[^()]*)$"
)
_ARG_RE = re.compile(r"^(?P<reg>[A-Za-z_][A-Za-z0-9_]*)\s*(?:\[\s*(?P<idx>\d+)\s*\])?$")
# Split on this, a text gives five strings per '\n'-separated line: the
# separator before it, then, for a line holding one gate statement in
# canonical shape and nothing after its ';', the name, the parameter text
# inside the parentheses (None without them) and the one or two operands
# (None for a one-qubit gate); any other line gives four None. Over the
# parameter alphabet, the strings float() accepts are exactly the signed
# decimal numerals, which _ExprParser evaluates to the same value; on any
# other string float() raises and the line takes the statement path.
_OPERAND = r"[A-Za-z_][A-Za-z0-9_]*\[[0-9]+\]"
_ROWS = re.compile(
    rf"^(?:[ \t]*([a-z][a-z0-9]*)(?:\(([-+0-9.eE \t,]*)\))?[ \t]+"
    rf"({_OPERAND})(?:,({_OPERAND}))?;|.*)$",
    re.M,
)
# Characters in a piece of whole lines; only one piece's rows are held at once.
_PIECE = 1 << 16
# Line boundaries of str.splitlines other than '\n', which '^' and '$' miss.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


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


class _Program:
    """Parse state: the registers, the gate columns, the text of a statement
    that an earlier line left unfinished, and what the lane has read, line by
    line: each parameter text's values and each operand's qubit. A register
    keeps its place once declared, so an operand read once keeps its qubit."""

    def __init__(self):
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, width)
        self.total = 0
        self.labels: list[str] = []
        self.qubits: list[tuple[int, ...]] = []
        self.params: list[tuple[float, ...]] = []
        self.pending = ""
        self.pending_line = self.pending_col = 0
        self.values: dict[str | None, tuple[float, ...]] = {None: ()}
        self.index: dict[str | None, int | None] = {None: None}
        self.singles: dict[int, tuple[int]] = {}  # q -> (q,)

    def lines(self, text: str, first_line: int) -> None:
        """Parse ``text``, whole lines of which the first is ``first_line``,
        in line order: each canonical gate line that passes the lane's checks
        is appended to the columns, and every other line goes through the
        statement path. Gates that repeat a parameter text share its tuple,
        and one-qubit gates on one qubit share theirs."""
        lines = text.split("\n")
        flat = _ROWS.split(text)
        label, qubit, param = self.labels.append, self.qubits.append, self.params.append
        values, index, singles = self.values, self.index, self.singles
        value, operand = self._value, self._operand
        rows = zip(flat[1::5], flat[2::5], flat[3::5], flat[4::5])
        for row, (name, param_text, x, y) in enumerate(rows):
            if (
                name in _ARITY
                and not self.pending
                and (param_text in values or value(param_text))
                and (x in index or operand(x))
                and (y in index or operand(y))
            ):
                a, b = index[x], index[y]
                qubits = singles[a] if b is None else (a, b)
                params = values[param_text]
                if a != b and len(qubits) == _ARITY[name] and len(params) == _PARAM_COUNTS[name]:
                    label(_LABELS[name])
                    qubit(qubits)
                    param(params)
                    continue
            self.line(lines[row], first_line + row)

    def _value(self, text: str) -> bool:
        """Record a parameter text's values; False when it is not finite
        decimal numerals."""
        try:
            value = tuple(map(float, text.split(",")))
        except ValueError:
            return False
        if not all(map(math.isfinite, value)):
            return False
        self.values[text] = value
        return True

    def _operand(self, operand: str) -> bool:
        """Record an operand's qubit; False when its register is not declared
        or its index is out of range."""
        reg, digits = operand[:-1].split("[")
        register = self.qregs.get(reg)
        i = int(digits)
        if register is None or i >= register[1]:
            return False
        q = self.index[operand] = register[0] + i
        self.singles[q] = (q,)
        return True

    def line(self, raw: str, lineno: int) -> None:
        """Apply each statement of one line with comments stripped; a
        statement ends at ';', and one left unfinished continues on the
        next line."""
        line = raw.split("//", 1)[0]
        col = 1
        while line:
            if not self.pending:
                stripped = line.lstrip()
                if not stripped:
                    break  # blank text starts no statement
                self.pending_line = lineno
                self.pending_col = col + (len(line) - len(stripped))
                line = stripped
                col = self.pending_col
            if ";" in line:
                stmt, line = line.split(";", 1)
                full = (self.pending + stmt).strip()
                self.pending = ""
                if full:
                    self.statement(full, self.pending_line, self.pending_col)
                col += len(stmt) + 1
            else:
                self.pending += line + " "
                break

    def statement(self, stmt: str, line: int, col: int) -> None:
        """Apply one statement; ``line`` and ``col`` locate it in errors."""
        head = stmt.split(None, 1)[0]
        if head == "OPENQASM":
            version = stmt[len("OPENQASM"):].strip()
            if version != "2.0":
                raise QasmError(f"unsupported OpenQASM version {version!r}", line, col)
            return
        if head == "include":
            return
        if head in ("qreg", "creg"):
            m = _ARG_RE.match(stmt[len(head):].strip())
            if m is None or m.group("idx") is None:
                raise QasmError(f"malformed {head} declaration", line, col)
            name, width = m.group("reg"), int(m.group("idx"))
            if width < 1:
                raise QasmError(f"register '{name}' must have positive width", line, col)
            if head == "qreg":
                if name in self.qregs:
                    raise QasmError(f"duplicate qreg '{name}'", line, col)
                self.qregs[name] = (self.total, width)
                self.total += width
            return
        if head == "measure" or head == "barrier":
            return  # structural no-ops for mapping purposes
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
            except RecursionError:
                raise QasmError("parameter expression nested too deeply", line, col) from None

        args = [a.strip() for a in m.group("args").split(",")] if m.group("args").strip() else []
        if len(args) != arity:
            raise QasmError(f"gate '{name}' expects {arity} operand(s), got {len(args)}", line, col)
        qubits = []
        for arg in args:
            am = _ARG_RE.match(arg)
            if am is None:
                raise QasmError(f"malformed operand {arg!r}", line, col)
            reg = am.group("reg")
            if reg not in self.qregs:
                raise QasmError(f"unknown quantum register '{reg}'", line, col)
            if am.group("idx") is None:
                raise QasmError("whole-register gate broadcast is not supported", line, col)
            offset, width = self.qregs[reg]
            idx = int(am.group("idx"))
            if idx >= width:
                raise QasmError(f"index {idx} out of range for qreg '{reg}[{width}]'", line, col)
            qubits.append(offset + idx)
        if arity == 2 and qubits[0] == qubits[1]:
            raise QasmError(f"duplicate qubit in gate '{name}'", line, col)
        self.labels.append(_LABELS[name])
        self.qubits.append(tuple(qubits))
        self.params.append(params)


def parse_qasm(text: str) -> Circuit:
    """Parse an OpenQASM 2.0 string into a :class:`Circuit`.

    ``measure``, ``barrier``, and classical registers are accepted and dropped.
    The version header is optional so that bare gate lists parse too.
    """
    if any(map(text.__contains__, _OTHER_BREAKS)):
        text = "\n".join(text.splitlines())
    program = _Program()
    start, first_line = 0, 1
    while True:
        end = text.find("\n", start + _PIECE)
        piece = text[start:] if end < 0 else text[start:end]
        program.lines(piece, first_line)
        if end < 0:
            break
        start, first_line = end + 1, first_line + piece.count("\n") + 1
    if program.pending.strip():
        program.statement(program.pending.strip(), program.pending_line, program.pending_col)
    if program.total == 0:
        raise QasmError("no qreg declared", 1, 1)
    return _from_columns(
        program.total, tuple(program.labels), tuple(program.qubits), tuple(program.params)
    )


def serialize_qasm(circuit: Circuit) -> str:
    """Canonical text form; ``parse_qasm`` of the output reproduces the circuit.

    Each qubit's operand text is built once per call, and each parameter
    tuple's ``(...)`` text once, keyed by the tuple's identity: the circuit
    holds every tuple for the call, so no key is reused, and a value key
    would give ``(-0.0,)`` the text of an equal ``(0.0,)``.
    """
    names = [f"q[{q}]" for q in range(circuit.num_qubits)]
    texts: dict[int, str] = {}
    lines = [_QASM_HEADER + f"qreg q[{circuit.num_qubits}];"]
    for label, qubits, params in zip(circuit.labels, circuit.qubits, circuit.params):
        angles = texts.get(id(params))
        if angles is None:
            angles = texts[id(params)] = f"({','.join(map(repr, params))})" if params else ""
        if len(qubits) == 1:
            lines.append(f"{label}{angles} {names[qubits[0]]};")
        else:
            lines.append(f"{label}{angles} {names[qubits[0]]},{names[qubits[1]]};")
    return "\n".join(lines) + "\n"
