import json
import subprocess
import sys

import pytest

from qcoremap import AssignmentPath, parse_qasm
from qcoremap.cli import main


class TestGenerate:
    def test_writes_qasm(self, tmp_path, capsys):
        out = tmp_path / "ghz.qasm"
        assert main(["generate", "--family", "ghz", "--qubits", "5", "--out", str(out)]) == 0
        circuit = parse_qasm(out.read_text())
        assert circuit.num_qubits == 5

    def test_stdout_default(self, capsys):
        assert main(["generate", "--family", "qft", "--qubits", "3"]) == 0
        assert "OPENQASM 2.0;" in capsys.readouterr().out

    def test_stochastic_needs_seed(self, capsys):
        assert main(["generate", "--family", "random", "--qubits", "6"]) == 2
        assert "seed" in capsys.readouterr().err


class TestMap:
    def _qasm(self, tmp_path):
        path = tmp_path / "c.qasm"
        main(["generate", "--family", "ghz", "--qubits", "8", "--out", str(path)])
        return path

    @pytest.mark.parametrize("mapper", ["hqa", "fgp-roee"])
    def test_map_writes_valid_path(self, tmp_path, capsys, mapper):
        qasm = self._qasm(tmp_path)
        out = tmp_path / "path.json"
        code = main(
            ["map", str(qasm), "--cores", "2", "--capacity", "4",
             "--mapper", mapper, "--out", str(out)]
        )
        assert code == 0
        path = AssignmentPath.from_json(out.read_text())
        assert path.num_qubits == 8
        assert path.num_slices == 8
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["communications"] >= 0
        assert metrics["num_slices"] == 8

    def test_capacity_error_is_usage_error(self, tmp_path, capsys):
        qasm = self._qasm(tmp_path)
        assert main(["map", str(qasm), "--cores", "2", "--capacity", "2"]) == 2

    def test_bad_qasm_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.qasm"
        bad.write_text("qreg q[2];\nccx q[0],q[1],q[0];\n")
        assert main(["map", str(bad), "--cores", "2", "--capacity", "2"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_map_reads_stdin(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("qreg q[4]; cx q[0],q[1]; cx q[0],q[2];"))
        assert main(["map", "-", "--cores", "2", "--capacity", "2"]) == 0
        out = capsys.readouterr().out
        assert '"slices"' in out

    def test_infeasible_mapping_exits_one(self, tmp_path, capsys):
        # Three pairs in one slice, but two cores of capacity 3 hold two pairs.
        qasm = tmp_path / "pairs.qasm"
        qasm.write_text("qreg q[6];\ncx q[0],q[1];\ncx q[2],q[3];\ncx q[4],q[5];\n")
        code = main(["map", str(qasm), "--cores", "2", "--capacity", "3", "--mapper", "hqa"])
        assert code == 1
        assert "slice 0 has 3 two-qubit gates" in capsys.readouterr().err

    def test_infeasible_mapping_exits_one_with_fgp(self, tmp_path, capsys):
        # fgp runs the same up-front pair-slot check as hqa.
        qasm = tmp_path / "pairs.qasm"
        qasm.write_text("qreg q[6];\ncx q[0],q[1];\ncx q[2],q[3];\ncx q[4],q[5];\n")
        code = main(["map", str(qasm), "--cores", "2", "--capacity", "3", "--mapper", "fgp-roee"])
        assert code == 1
        assert "slice 0 has 3 two-qubit gates" in capsys.readouterr().err


class TestOracle:
    def test_reports_optimum(self, tmp_path, capsys):
        qasm = tmp_path / "c.qasm"
        main(["generate", "--family", "ghz", "--qubits", "4", "--out", str(qasm)])
        assert main(["oracle", str(qasm), "--cores", "2", "--capacity", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["optimum_communications"] == 4

    def test_budget_exceeded_is_usage_error(self, tmp_path, capsys):
        qasm = tmp_path / "c.qasm"
        main(["generate", "--family", "ghz", "--qubits", "16", "--out", str(qasm)])
        assert main(
            ["oracle", str(qasm), "--cores", "4", "--capacity", "4", "--max-states", "10"]
        ) == 2


class TestSweeps:
    def test_sweep_cores_writes_records_and_ratios(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep-cores", "--qubits", "8", "--cores", "2,4", "--benchmarks", "ghz",
             "--replicas", "1", "--no-timing", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        ratios = tmp_path / "sweep.ratios.csv"
        assert ratios.exists()
        assert "ratio_fgp_over_hqa" in ratios.read_text()

    def test_invalid_core_list_is_usage_error(self, tmp_path, capsys):
        assert main(["sweep-cores", "--qubits", "120", "--cores", "7",
                     "--benchmarks", "ghz", "--replicas", "1"]) == 2

    def test_sweep_attraction_stdout(self, capsys):
        code = main(
            ["sweep-attraction", "--capacity", "4", "--qubits", "8",
             "--benchmarks", "cuccaro", "--replicas", "1", "--no-timing"]
        )
        assert code == 0
        assert "ratio_off_over_on" in capsys.readouterr().out

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            ["sweep-qubits", "--cores", "2", "--qubits", "8", "--benchmarks", "ghz",
             "--replicas", "1", "--no-timing", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        records = json.loads(out.read_text())
        assert records[0]["family"] == "ghz"
        json.loads((tmp_path / "sweep.ratios.json").read_text())

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep-cores", "--qubits", "12", "--cores", "2,6",
                "--benchmarks", "ghz,random:0.5", "--replicas", "2",
                "--no-timing", "--seed", "3"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.ratios.csv").read_bytes() == (tmp_path / "b.ratios.csv").read_bytes()


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "qcoremap", "generate", "--family", "ghz", "--qubits", "3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "OPENQASM 2.0;" in result.stdout


def test_usage_error_exit_code():
    result = subprocess.run(
        [sys.executable, "-m", "qcoremap", "map"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
