import hashlib
import math
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qasm_reference as reference
from qcoremap import (
    BenchmarkSpec,
    Circuit,
    Gate,
    QasmError,
    parse_qasm,
    serialize_qasm,
)

from conftest import circuits
from qcoremap import qasm as qasm_module
from qcoremap.qasm import ONE_QUBIT_GATES, TWO_QUBIT_GATES


def record_runs(monkeypatch):
    """Record each run of canonical gate lines the lane is offered, as its
    rows (name, parameter text, operands), with the lane's verdict."""
    verdicts = []
    run = qasm_module._Program.run

    def recording(program, *columns):
        verdict = run(program, *columns)
        verdicts.append((list(zip(*columns)), verdict))
        return verdict

    monkeypatch.setattr(qasm_module._Program, "run", recording)
    return verdicts


class TestParse:
    def test_basic_program(self):
        circuit = parse_qasm("qreg q[2]; h q[0]; cx q[0],q[1];")
        assert circuit.num_qubits == 2
        assert [(g.label, g.qubits) for g in circuit.gates] == [("h", (0,)), ("cx", (0, 1))]

    def test_register_only(self):
        circuit = parse_qasm("qreg q[1];")
        assert circuit.num_qubits == 1
        assert circuit.gates == ()

    def test_duplicate_qubit_in_gate(self):
        with pytest.raises(QasmError, match="duplicate qubit"):
            parse_qasm("qreg q[2]; cx q[0],q[0];")

    def test_full_header_accepted(self):
        text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncz q[0],q[2];\n'
        circuit = parse_qasm(text)
        assert circuit.gates[0].label == "cz"

    def test_wrong_version_rejected(self):
        with pytest.raises(QasmError, match="version"):
            parse_qasm("OPENQASM 3.0;\nqreg q[1];")

    def test_multiple_qregs_concatenate_in_order(self):
        circuit = parse_qasm("qreg a[2]; qreg b[3]; cx a[1],b[0];")
        assert circuit.num_qubits == 5
        assert circuit.gates[0].qubits == (1, 2)

    def test_measure_barrier_creg_dropped(self):
        text = (
            "qreg q[2]; creg c[2];\n"
            "h q[0];\nbarrier q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
        )
        circuit = parse_qasm(text)
        assert [g.label for g in circuit.gates] == ["h"]

    def test_comments_stripped(self):
        circuit = parse_qasm("// leading\nqreg q[2]; h q[0]; // trailing\n")
        assert len(circuit.gates) == 1

    def test_three_qubit_gate_rejected(self):
        with pytest.raises(QasmError, match="unsupported gate 'ccx'"):
            parse_qasm("qreg q[3]; ccx q[0],q[1],q[2];")

    def test_index_out_of_range_reports_line(self):
        with pytest.raises(QasmError, match="line 2") as err:
            parse_qasm("qreg q[2];\ncx q[0],q[5];")
        assert err.value.line == 2

    def test_unknown_register(self):
        with pytest.raises(QasmError, match="unknown quantum register"):
            parse_qasm("qreg q[2]; h p[0];")

    def test_broadcast_rejected(self):
        with pytest.raises(QasmError, match="broadcast"):
            parse_qasm("qreg q[2]; h q;")

    def test_conditionals_rejected(self):
        with pytest.raises(QasmError, match="unsupported statement 'if'"):
            parse_qasm("qreg q[1]; creg c[1]; if (c==1) x q[0];")

    def test_pi_expressions(self):
        circuit = parse_qasm("qreg q[2]; rz(pi/2) q[0]; cp(-pi/4) q[0],q[1]; u2(0,pi) q[1];")
        assert circuit.gates[0].params == (math.pi / 2,)
        assert circuit.gates[1].params == (-math.pi / 4,)
        assert circuit.gates[2].params == (0.0, math.pi)

    @pytest.mark.parametrize("expression", ["1/0", "pi/0", "1/-0.0"])
    def test_division_by_zero_reports_line(self, expression):
        with pytest.raises(QasmError, match="division by zero") as err:
            parse_qasm(f"qreg q[2];\nh q[1];\n  rz({expression}) q[0];")
        assert (err.value.line, err.value.column) == (3, 3)

    @pytest.mark.parametrize("numeral", ["1e999", "-1e999", "0,1e999,0"])
    def test_fast_lane_rejects_non_finite(self, numeral, monkeypatch):
        # A plain numeral that float() reads as +-inf makes the lane refuse
        # its run, and the statement path rejects it at its line.
        verdicts = record_runs(monkeypatch)
        gate = "u3" if "," in numeral else "rz"
        with pytest.raises(QasmError, match="not finite") as err:
            parse_qasm(f"qreg q[1];\n{gate}({numeral}) q[0];")
        assert (err.value.line, err.value.column) == (2, 1)
        assert [verdict for _, verdict in verdicts] == [False]

    @pytest.mark.parametrize("expression", ["1e999-1e999", "1e308*10", "-pi*1e308"])
    def test_statement_path_rejects_non_finite(self, expression):
        with pytest.raises(QasmError, match="not finite") as err:
            parse_qasm(f"qreg q[1];\nh q[0];\nrz({expression}) q[0];")
        assert (err.value.line, err.value.column) == (3, 1)

    def test_param_count_enforced(self):
        with pytest.raises(QasmError, match="expects 3 parameter"):
            parse_qasm("qreg q[1]; u3(1.0) q[0];")

    def test_no_qreg_is_error(self):
        with pytest.raises(QasmError, match="no qreg"):
            parse_qasm("")

    def test_statement_spanning_lines(self):
        circuit = parse_qasm("qreg q[2];\ncx q[0],\n   q[1];")
        assert circuit.gates[0].qubits == (0, 1)

    def test_trailing_blank_keeps_next_error_location(self):
        # Blanks after a line's last ';' start no statement, so the error on
        # the next line names that line, not the end of the blank one.
        with pytest.raises(QasmError) as err:
            parse_qasm("qreg q[2];\ncx q[0],q[1]; \nh q[5];")
        assert (err.value.line, err.value.column) == (3, 1)
        with pytest.raises(QasmError) as err:
            parse_qasm("qreg q[2];\ncx q[0],q[1];\t \n\n  h q[5];")
        assert (err.value.line, err.value.column) == (4, 3)

    def test_line_after_trailing_blank_takes_fast_lane(self, monkeypatch):
        verdicts = record_runs(monkeypatch)
        circuit = parse_qasm("qreg q[2];\ncx q[0],q[1]; \nh q[1];\n")
        assert [(g.label, g.qubits) for g in circuit.gates] == [("cx", (0, 1)), ("h", (1,))]
        # The trailing-blank line took the statement path; the next is a run.
        assert verdicts == [([("h", None, "q[1]", None)], True)]


def _pinned_spec(family, n):
    """Each family at ``n`` qubits; at 200, quantum volume and random take
    the shape of map-hqa's 200-qubit cell (12 layers, density 0.8)."""
    layers = 12 if n == 200 else None
    return BenchmarkSpec(
        family,
        n,
        depth=layers if family == "quantum_volume" else None,
        cycles=layers if family == "random" else None,
        density=0.8 if family == "random" and n == 200 else None,
        seed=5 if family in ("quantum_volume", "random") else None,
    )


# The sha256 of serialize_qasm(_pinned_spec(family, n).build()). They pin the
# bytes, which value round trips cannot see: a flipped sign or a changed
# float text.
GENERATED_TEXT_SHA256 = {
    ("ghz", 16): "60e01eea1545c34b31c74ff58fad45b354901e03e4b7bcdbfb3bc36ee28ac6af",
    ("cuccaro", 16): "dfe9f3f73f3563b0f0d8ea8a5f87f719d8d5bf36892e73d73ff8857418d1bdc5",
    ("qft", 16): "1cf076e07609c4120dadd1a0ffc050b6b403701cc782d3c984e45be36f073b4c",
    ("quantum_volume", 16): "dc5c93b42e808e03f03d5ea261218c2e90c842cc5856a8e7efde484bb0bee149",
    ("grover", 16): "e720c99d2f617279d38041aba33eed01e235371fd7aef8bb48733ba458253461",
    ("random", 16): "9091bb52d262d3e94a015b111e86f5fab67ebdc248eaa688361b6dbed6f2899d",
    ("ghz", 200): "f63b5485bcfcad83cbc4c2f0b1b2c73681ae0027eefa42acf7d5e011e3d67e07",
    ("cuccaro", 200): "c91eb39dcc168065557ca01fbce644b02145aa291f9a20a2dd25bbdb3d872c27",
    ("qft", 200): "d90714bb6edbb4438f4dbff8c94fe9473d872eabe3d84aa461b60394ce30d963",
    ("quantum_volume", 200): "e023001aab0f97be031549ea5b4808e0743bc9cc375071b9212e76e747fe6da2",
    ("grover", 200): "483f68cafd39f6c450c2be5d5f37d24b9eaca9de3e713c0c7b563d02ad1781e4",
    ("random", 200): "e6628a01c7031bbdc8599ea214ad4b5176f1f2b4f69c175db33c9d0d31b0ddc7",
}


class TestSerialize:
    def test_canonical_form(self):
        text = serialize_qasm(Circuit(2, (Gate("cx", (0, 1)),)))
        assert text == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[0],q[1];\n'

    def test_empty_single_qubit(self):
        text = serialize_qasm(Circuit(1, ()))
        assert text == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'

    @given(circuits())
    def test_round_trip_random_circuits(self, circuit):
        assert parse_qasm(serialize_qasm(circuit)) == circuit

    @pytest.mark.parametrize("family, n", sorted(GENERATED_TEXT_SHA256))
    def test_generated_text_is_pinned_by_its_bytes(self, family, n):
        text = serialize_qasm(_pinned_spec(family, n).build())
        assert hashlib.sha256(text.encode()).hexdigest() == GENERATED_TEXT_SHA256[family, n]

    def test_each_parameter_tuple_keeps_its_own_text(self):
        # (0.0,) == (-0.0,) and both hash alike, so a text cache keyed by
        # value would write one of them with the other's sign.
        zero = 0.0
        gates = [Gate("rz", (0,), (zero,)), Gate("rz", (1,), (-zero,)),
                 Gate("rz", (0,), (-zero,)), Gate("rz", (1,), (zero,))]
        body = "rz(0.0) q[0];\nrz(-0.0) q[1];\nrz(-0.0) q[0];\nrz(0.0) q[1];\n"
        assert serialize_qasm(Circuit(2, gates)).endswith("qreg q[2];\n" + body)
        text = (
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
            "rz(-0.0) q[0];\nrz(0.0) q[1];\ncp(0.5) q[0],q[1];\nrz(-0.0) q[1];\n"
            "cp(0.5) q[1],q[0];\nrz(0.0) q[0];\n"
        )
        parsed = parse_qasm(text)
        assert parsed.params[2] is parsed.params[4]  # one tuple per parameter text
        assert serialize_qasm(parsed) == text


@pytest.mark.parametrize(
    "spec",
    [
        BenchmarkSpec("ghz", 9),
        BenchmarkSpec("qft", 7),
        BenchmarkSpec("cuccaro", 12),
        BenchmarkSpec("quantum_volume", 6, depth=3, seed=11),
        BenchmarkSpec("grover", 5, iterations=2),
        BenchmarkSpec("random", 8, cycles=6, density=0.7, seed=3),
    ],
    ids=lambda s: s.family,
)
def test_round_trip_every_generator(spec):
    circuit = spec.build()
    text = serialize_qasm(circuit)
    assert parse_qasm(text) == circuit
    assert serialize_qasm(parse_qasm(text)) == text


def _outcome(parse, text):
    """The circuit's repr (exact float signs and digits) and the circuit, or
    the exception's type, message, line and column."""
    try:
        circuit = parse(text)
    except Exception as exc:  # the parsers must fail alike, whatever the type
        return ("raised", type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    return ("parsed", repr(circuit), circuit)


def assert_parses_like_reference(text):
    assert _outcome(parse_qasm, text) == _outcome(reference.parse_qasm, text)


GATE_NAMES = sorted(ONE_QUBIT_GATES) + sorted(TWO_QUBIT_GATES)
PARAMS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-05, -1e-05, 5e-324, 1e300, math.pi, -math.pi / 2]),
)


@st.composite
def gate_circuits(draw):
    """Circuits over every supported gate, with arbitrary finite parameters."""
    n = draw(st.integers(min_value=2, max_value=12))
    gates = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        name = draw(st.sampled_from(GATE_NAMES))
        if name in TWO_QUBIT_GATES:
            qubits = tuple(draw(st.permutations(range(n)))[:2])
            count = TWO_QUBIT_GATES[name]
        else:
            qubits = (draw(st.integers(min_value=0, max_value=n - 1)),)
            count = ONE_QUBIT_GATES[name]
        gates.append(Gate(name, qubits, tuple(draw(PARAMS) for _ in range(count))))
    return Circuit(n, tuple(gates))


def _mutate(draw, lines: list[str]) -> None:
    """Apply one edit that the fast lane must hand to the statement path,
    or must handle exactly as the statement path does."""
    i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    line = lines[i]
    at = draw(st.integers(min_value=0, max_value=len(line)))
    kind = draw(st.sampled_from([
        "space", "comment", "comment_line", "join", "split", "param", "qreg",
        "index", "arity", "unknown", "duplicate", "char", "trailing",
    ]))
    if kind == "space":
        lines[i] = line[:at] + draw(st.sampled_from([" ", "  ", "\t"])) + line[at:]
    elif kind == "trailing":
        lines[i] = line + draw(st.sampled_from([" ", "\t", " ; ", "; "]))
    elif kind == "comment":
        lines[i] = line[:at] + "// note" + line[at:]
    elif kind == "comment_line":
        lines.insert(i, "// a comment; with a semicolon")
    elif kind == "join" and i + 1 < len(lines):
        lines[i : i + 2] = [line + draw(st.sampled_from(["", " "])) + lines[i + 1]]
    elif kind == "split":
        lines[i : i + 1] = [line[:at], line[at:]]
    elif kind == "param" and "(" in line:
        value = draw(st.sampled_from(["pi/2", "1e-05", "-0.0", "+.5", "5.", "1E+3", "- 1", "1_0", "inf"]))
        lines[i] = line[: line.index("(") + 1] + value + line[line.index("(") + 1 :]
    elif kind == "qreg":
        lines.insert(i, "qreg r[3];")
        lines.append(draw(st.sampled_from(["h r[2];", "cx r[0],q[0];", "cx q[0],r[3];"])))
    elif kind == "index" and "[" in line:
        index = draw(st.integers(min_value=0, max_value=13))  # widths are 2-12
        lines[i] = re.sub(r"\[[0-9]+\]", f"[{index}]", line, count=1)
    elif kind == "arity" and line.endswith("];"):
        if "," in line and "(" not in line:
            lines[i] = line[: line.index(",")] + ";"  # drop the second operand
        else:
            lines[i] = line[:-1] + ",q[0];"  # add one
    elif kind == "unknown":
        lines[i] = draw(st.sampled_from(["foo", "ccx", "CX", "h2"])) + line[line.find(" ") :]
    elif kind == "duplicate" and "," in line and "(" not in line and " " in line:
        lines[i] = line[: line.index(",") + 1] + line[line.index(" ") + 1 : line.index(",")] + ";"
    elif kind == "char":
        lines[i] = line[:at] + draw(st.sampled_from(list("();,[]q0-+.e pi/"))) + line[at:]


@st.composite
def qasm_texts(draw):
    """Serialized random circuits, some edited one to three times."""
    lines = serialize_qasm(draw(gate_circuits())).split("\n")
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        _mutate(draw, lines)
    return "\n".join(lines)


# Every line boundary of str.splitlines other than '\n'.
LINE_SEPARATORS = {
    "cr": "\r", "crlf": "\r\n", "vt": "\x0b", "ff": "\x0c", "fs": "\x1c", "gs": "\x1d",
    "rs": "\x1e", "nel": "\x85", "ls": "\u2028", "ps": "\u2029",
}
# A 1,000-line canonical run whose line 602 (after the qreg line) holds an
# index beyond the register.
DEEP_RUN = "qreg q[4];\n" + "cx q[0],q[1];\n" * 600 + "   h q[7];\n" + "h q[2];\n" * 399
# Edge cases too long to serve as their own test ids.
NAMED_CASES = {
    "bad-index-deep-in-a-run": DEEP_RUN,
    **{
        f"{name}-{last}": f"qreg q[2];{sep}h q[0];{sep}cx q[0],q[1];{sep}h q[{last}];"
        for name, sep in LINE_SEPARATORS.items()
        for last in (1, 7)
    },
}
EDGE_CASES = [
    "qreg q[2];\ncx q[0],q[1]; \nh q[5];",  # trailing space, then an error
    "qreg q[2];\ncx q[0],\nq[1];\nh q[0];",
    "qreg q[2]; h q[0];\nh q[1];",
    "qreg q[2];\nrx(1//2) q[0];\nh q[0];",
    "qreg q[2];\nrx(1/0) q[0];",
    "qreg q[2];\nrz(pi/0) q[0];\nh q[0];",
    "qreg q[2];\nrz(1e999) q[0];",
    "qreg q[2];\nrz(1e999-1e999) q[0];",
    "qreg q[2];\nrx(--1) q[0];\nrx(1.e5) q[1];\nrx(.5e-3) q[1];",
    "qreg q[2];\ncx() q[0],q[1];\nh() q[0];",
    "qreg q[2];\nh q[01];\ncx q[1],q[1];",
    "qreg q[2];\nh q[2];",
    "qreg q[2];\nh q[0],q[1];\ncx q[0];",
    "qreg q[2];\nu3(1.0) q[0];\nh(0.5) q[0];\nrx q[0];\nrx(1,2) q[0];\ncp(1) q[0];",
    "qreg q[2];\n\u00a0h q[0];\nh\u00a0q[1];",
    "qreg q[2];\nh q[\u0661];",
    "h q[0];\nqreg q[2];",
    "qreg q[2];\nqreg q[3];",
    "qreg q[2];\nh q[0];\ncx q[0],q[1];\nqreg r[2];\ncx q[1],r[0];\nh r[1];",
    "qreg q[2];\nh q[0];\nqreg r[2];\ncx q[1],r[2];\nh r[1];",
    "qreg q[2];\nh r[0];\nqreg r[2];\nh r[0];",
    "qreg q[2];\nbarrier q[0],\nh q[1];\nh q[0];",
    "qreg q[2];\ncx q[0],\nh q[1];\nh q[0];",
    "qreg q[2];\nh() q[0];\nh q[1];",
    "qreg q[2];\nh q[1];\nrz() q[0];\nh q[1];",
    "qreg q[2];\nh q[0];\nrz(1e999) q[1];\nh q[1];",
    "qreg q[2];\nh q[0];\nu3(0,-1e999,1) q[1];\nh q[1];",
    # Valid lines the lane refuses, at the start, middle and end of a run,
    # two adjacent, and next to lines that fail every check.
    "qreg q[3];\nh() q[0];\ncx q[0],q[1];\nh q[2];",
    "qreg q[3];\ncx q[0],q[1];\nh() q[2];\nrz(0.5) q[1];",
    "qreg q[3];\ncx q[0],q[1];\nh q[2];\ncx() q[1],q[2];",
    "qreg q[3];\nh q[0];\nh() q[1];\ncx() q[1],q[2];\nh q[2];",
    "qreg q[3];\nh() q[0];\ncx q[0],q[1];\nh q[5];\nh() q[1];",
    "qreg q[2];\nh q[0];\nh() q[1];\nrz(1e999) q[0];\nh q[1];",
    "qreg q[2];\nh() q[1];\nrz(pi) q[0];\ncx q[0],q[0];\nh q[1];",
    *NAMED_CASES.values(),
]


class TestAgreesWithReference:
    @given(qasm_texts())
    @settings(max_examples=400, deadline=None)
    def test_same_circuit_or_same_error(self, text):
        assert_parses_like_reference(text)

    @pytest.mark.parametrize("text", EDGE_CASES, ids={t: n for n, t in NAMED_CASES.items()}.get)
    def test_edge_cases(self, text):
        assert_parses_like_reference(text)

    @pytest.mark.parametrize("piece", [0, 1, 9, 40])
    def test_edge_cases_in_small_pieces(self, piece):
        # Pieces of about ``piece`` characters put piece boundaries inside
        # runs, continuations and the lines around each error.
        with mock.patch.object(qasm_module, "_PIECE", piece):
            for text in EDGE_CASES:
                assert_parses_like_reference(text)

    @given(qasm_texts(), st.integers(min_value=0, max_value=60))
    @settings(max_examples=200, deadline=None)
    def test_any_piece_size_agrees(self, text, piece):
        with mock.patch.object(qasm_module, "_PIECE", piece):
            assert_parses_like_reference(text)

    def test_bad_index_deep_in_a_run_names_its_line(self):
        with pytest.raises(QasmError, match="index 7 out of range") as err:
            parse_qasm(DEEP_RUN)
        assert (err.value.line, err.value.column) == (602, 4)

    @pytest.mark.parametrize("name", sorted(LINE_SEPARATORS))
    def test_every_splitlines_separator_numbers_lines(self, name):
        sep = LINE_SEPARATORS[name]
        with pytest.raises(QasmError) as err:
            parse_qasm(f"qreg q[2];{sep}h q[0];{sep}cx q[0],q[1];{sep}  h q[7];")
        assert (err.value.line, err.value.column) == (4, 3)

    def test_generated_text_is_one_accepted_run(self, monkeypatch):
        verdicts = record_runs(monkeypatch)
        circuit = BenchmarkSpec("random", 12, cycles=4, density=0.5, seed=3).build()
        assert parse_qasm(serialize_qasm(circuit)) == circuit
        assert [(len(rows), verdict) for rows, verdict in verdicts] == [(len(circuit.gates), True)]

    def test_only_refused_lines_take_the_statement_path(self, monkeypatch):
        # A line the lane refuses (``h()``/``cx()``, valid but not canonical)
        # at the start, in the middle and at the end of a run, and two
        # adjacent: the statement path parses those lines and no others.
        calls = [0]
        line = qasm_module._Program.line

        def counting(program, raw, lineno):
            calls[0] += 1
            return line(program, raw, lineno)

        monkeypatch.setattr(qasm_module._Program, "line", counting)
        circuit = BenchmarkSpec("random", 12, cycles=4, density=0.5, seed=3).build()
        lines = serialize_qasm(circuit).split("\n")
        parse_qasm("\n".join(lines))
        clean = calls[0]
        head = lines.index("qreg q[12];") + 1
        refused = {head: "h() q[0];", head + 20: "cx() q[3],q[4];", head + 21: "h() q[5];"}
        refused[len(lines) - 1] = "h() q[11];"  # after the last gate, before the final ""
        for i in sorted(refused, reverse=True):
            lines.insert(i, refused[i])
        text = "\n".join(lines)
        calls[0] = 0
        parsed = parse_qasm(text)
        assert calls[0] == clean + len(refused)
        assert_parses_like_reference(text)
        assert len(parsed.labels) == len(circuit.labels) + len(refused)

    @pytest.mark.parametrize("family", ["ghz", "cuccaro", "qft", "quantum_volume", "grover", "random"])
    def test_every_generator(self, family):
        spec = BenchmarkSpec(
            family,
            24,
            depth=4 if family == "quantum_volume" else None,
            cycles=4 if family == "random" else None,
            density=0.5 if family == "random" else None,
            seed=7 if family in ("quantum_volume", "random") else None,
        )
        assert_parses_like_reference(serialize_qasm(spec.build()))
