import hashlib
import json
import subprocess
import sys

import pytest

from qcoremap import parse_qasm
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
        path = json.loads(out.read_text())
        assert path["num_qubits"] == 8
        assert len(path["slices"]) == 8
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["communications"] >= 0
        assert metrics["num_slices"] == 8

    @pytest.mark.parametrize("command", ["map", "oracle"])
    def test_too_many_qubits_exits_one(self, tmp_path, capsys, command):
        # 8 qubits on 2 cores of 2: the architecture cannot hold the circuit,
        # which map and oracle both report as a failure, not a usage error.
        qasm = self._qasm(tmp_path)
        capsys.readouterr()
        assert main([command, str(qasm), "--cores", "2", "--capacity", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("expression", ["1/0", "pi/0"])
    def test_division_by_zero_is_usage_error(self, tmp_path, capsys, expression):
        bad = tmp_path / "bad.qasm"
        bad.write_text(f"qreg q[2]; rz({expression}) q[0]; cx q[0],q[1];\n")
        assert main(["map", str(bad), "--cores", "2", "--capacity", "2"]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 1, column 12: division by zero in parameter expression\n"

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

    # sha256 over the path file and the metrics line of every ``map`` call,
    # in family, then mapper order; stochastic families use seed 1.
    PINNED_MAP = "a2a74b5d7cecc8b8de68b21165a5a3afe66d66994ef052b9b0b3303d01840753"

    def test_map_outputs_match_pinned_digest(self, tmp_path, capsys):
        from qcoremap.generators import FAMILIES

        outputs = []
        for family in FAMILIES:
            qasm = tmp_path / f"{family}.qasm"
            main(["generate", "--family", family, "--qubits", "24", "--seed", "1",
                  "--out", str(qasm)])
            for mapper in ("hqa", "fgp-roee"):
                out = tmp_path / "path.json"
                capsys.readouterr()
                code = main(["map", str(qasm), "--cores", "4", "--capacity", "6",
                             "--mapper", mapper, "--out", str(out)])
                assert code == 0
                outputs += [out.read_text(), capsys.readouterr().out]
        assert hashlib.sha256("".join(outputs).encode()).hexdigest() == self.PINNED_MAP


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

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep-cores", "--cores", "0", "--qubits", "8"],
            ["sweep-qubits", "--cores", "0", "--qubits", "8"],
            ["sweep-attraction", "--capacity", "0", "--qubits", "8"],
        ],
        ids=["sweep-cores", "sweep-qubits", "sweep-attraction"],
    )
    def test_zero_cores_or_capacity_is_usage_error(self, args, capsys):
        assert main(args + ["--benchmarks", "ghz", "--replicas", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @staticmethod
    def _record_mapping(monkeypatch):
        """Replace harness.run_single with a stub that records each call and
        fails it, so a sweep that starts mapping exits 1 at once."""
        import qcoremap.harness
        from qcoremap import MappingValidationError

        mapped = []

        def run_single(*args, **kw):
            mapped.append(args)
            raise MappingValidationError("mapped")

        monkeypatch.setattr(qcoremap.harness, "run_single", run_single)
        return mapped

    @pytest.mark.parametrize(
        "args, empty_list",
        [
            (["sweep-cores", "--cores", "2", "--qubits", "8", "--mapper", "hqa"], ["--cores", ","]),
            (["sweep-qubits", "--cores", "2", "--qubits", "8", "--mapper", "hqa"], ["--qubits", ","]),
            (["sweep-attraction", "--capacity", "4", "--qubits", "8"], ["--qubits", ","]),
        ],
        ids=["sweep-cores", "sweep-qubits", "sweep-attraction"],
    )
    def test_no_replicas_or_empty_list_is_usage_error(self, args, empty_list, monkeypatch, capsys):
        mapped = self._record_mapping(monkeypatch)
        args = args + ["--benchmarks", "random:0.5"]
        for bad, message in [
            (["--replicas", "0"], "need at least one replica, got 0"),
            (["--replicas", "-1"], "need at least one replica, got -1"),
            (["--replicas", "1"] + empty_list, "the swept list of core or qubit counts is empty"),
            (["--replicas", "1", "--benchmarks", ","], "the benchmark list is empty"),
            (["--replicas", "1", "--benchmarks", ""], "the benchmark list is empty"),
        ]:
            code = main(args + bad)
            assert mapped == []
            assert code == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_every_cell_checked_before_mapping(self, monkeypatch, capsys):
        mapped = self._record_mapping(monkeypatch)
        for args, message in [
            (["sweep-cores", "--qubits", "8", "--cores", "2,3", "--benchmarks", "ghz"],
             "3 cores do not divide 8 qubits"),
            (["sweep-cores", "--qubits", "8", "--cores", "2", "--benchmarks", "qft,ghz,bogus"],
             "unknown benchmark family 'bogus'"),
            (["sweep-qubits", "--cores", "1", "--qubits", "8,2", "--benchmarks", "ghz,cuccaro"],
             "cuccaro qubit count must be even and >= 4, got 2"),
            (["sweep-attraction", "--capacity", "2", "--qubits", "8,2",
              "--benchmarks", "random:0.5,cuccaro"],
             "cuccaro qubit count must be even and >= 4, got 2"),
        ]:
            code = main(args + ["--replicas", "1"])
            assert mapped == []
            assert code == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_repeated_entry_is_usage_error(self, monkeypatch, capsys):
        mapped = self._record_mapping(monkeypatch)
        for args, message in [
            (["sweep-cores", "--qubits", "8", "--cores", "2", "--benchmarks", "ghz,ghz",
              "--mapper", "hqa"], "benchmark 'ghz' is listed twice"),
            (["sweep-cores", "--qubits", "8", "--cores", "2", "--benchmarks", "random:0.5,qft,random:.5"],
             "benchmark 'random:0.5' is listed twice"),
            (["sweep-cores", "--qubits", "8", "--cores", "2,2", "--benchmarks", "ghz",
              "--mapper", "hqa"], "core count 2 is listed twice"),
            (["sweep-qubits", "--cores", "2", "--qubits", "8,4,8", "--benchmarks", "ghz"],
             "qubit count 8 is listed twice"),
            (["sweep-attraction", "--capacity", "4", "--qubits", "8,8", "--benchmarks", "cuccaro"],
             "qubit count 8 is listed twice"),
            (["sweep-attraction", "--capacity", "4", "--qubits", "8", "--benchmarks", "cuccaro,cuccaro"],
             "benchmark 'cuccaro' is listed twice"),
        ]:
            code = main(args + ["--replicas", "1", "--no-timing"])
            assert mapped == []
            assert code == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "args, qubits",
        [
            (["sweep-attraction", "--capacity", "4", "--qubits"], "0"),
            (["sweep-qubits", "--cores", "2", "--qubits"], "0"),
            (["sweep-cores", "--cores", "2", "--qubits"], "-4"),
            (["sweep-cores", "--cores", "2", "--qubits"], "0"),
        ],
        ids=["sweep-attraction", "sweep-qubits", "sweep-cores", "sweep-cores-zero"],
    )
    def test_nonpositive_qubit_count_is_usage_error(self, args, qubits, monkeypatch, capsys):
        mapped = self._record_mapping(monkeypatch)
        code = main(args + [qubits, "--benchmarks", "ghz", "--replicas", "1"])
        assert mapped == []
        assert code == 2
        assert capsys.readouterr().err == f"error: need at least one qubit, got {qubits}\n"

    @pytest.mark.parametrize("command", ["sweep-cores", "sweep-qubits", "sweep-attraction"])
    def test_flags_left_out_take_harness_defaults(self, command, monkeypatch, capsys):
        import qcoremap.harness

        mapped = self._record_mapping(monkeypatch)
        calls = []
        monkeypatch.setattr(
            qcoremap.harness, command.replace("-", "_"), lambda **kw: calls.append(kw) or ([], [])
        )
        assert main([command]) == 0
        assert mapped == []
        assert calls == [{}]

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


# sha256 of small --no-timing sweep outputs, (records, ratios) per format.
# Any change to a record, a ratio row or their formatting fails here.
PINNED_SWEEPS = {
    "cores": (
        ["sweep-cores", "--qubits", "12", "--cores", "2,6",
         "--benchmarks", "ghz,cuccaro,random:0.5", "--replicas", "3", "--seed", "3"],
        {
            "csv": (
                "9658de40463d9dd32f991ae88a2190c3c58af625d33d64151a79bce7caa80eb3",
                "33ca15c967b55ab75d85322362e121b7240e32367d5b18ed64d25fe93019b021",
            ),
            "json": (
                "07ef7cc04519416718424f7656834bac56405a7d8aa369faca77bf7df3ea865c",
                "54b3d564f16d07cddb28a48c5169b17f992762e5aa868739d9fc3f0292b528a0",
            ),
        },
    ),
    "cores-hqa-both": (
        ["sweep-cores", "--qubits", "12", "--cores", "2,6", "--benchmarks", "cuccaro,random:0.5",
         "--replicas", "3", "--seed", "3", "--mapper", "hqa", "--attraction", "both"],
        {
            "csv": (
                "da7456a513dcca129751546905be8558eca923abbc51fe9157d31df7bc8da7de",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            "json": (
                "9971bbbf4ab79580f5da7ada81029b781163b3aa45dfd127ede874693dacf8d9",
                "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
            ),
        },
    ),
    "cores-attraction-both": (
        ["sweep-cores", "--qubits", "12", "--cores", "2,6", "--benchmarks", "cuccaro,random:0.5",
         "--replicas", "3", "--seed", "3", "--attraction", "both"],
        {
            "csv": (
                "87fb06f9be43b7eb9665d9ac5e3ec12ce7001fd0a21bd01814d95a1f006efd9a",
                "cdb7b951c76f8244340b0be2e81605afea31c9efd9f323d605b061134214db24",
            ),
            "json": (
                "269eac9b4372dfa0bf6c7cdedc6fd1bb6a93ab8ce426a0baeedb681cc9cd59b3",
                "5731bac2650a94fa2d2e9a98daeef5243e9fba254eab38ab1d74e9663abec4e2",
            ),
        },
    ),
    "qubits": (
        ["sweep-qubits", "--cores", "2", "--qubits", "8,12", "--benchmarks", "qft,random:0.5",
         "--replicas", "3"],
        {
            "csv": (
                "969b0dcf1e394e191bc3f9c6676e741559f2dff96fb20b9fb74e2ac11c8396c8",
                "c4ed90d725b52351d4cb72c0fcf5c161301c097e7cb132b42be4126db6b3614b",
            ),
            "json": (
                "fa57815cd63148d744d328fb90b183f48952a4362bd29ac20e52bba20962e78c",
                "ef55997906879d2239805fdbb34bee608d51e748f213625cb467951bb5d50543",
            ),
        },
    ),
    "attraction": (
        ["sweep-attraction", "--capacity", "4", "--qubits", "8,12",
         "--benchmarks", "cuccaro,random:0.5", "--replicas", "3"],
        {
            "csv": (
                "8dda30681bacc78d95d48f5022049231908e44eb2548f07a7b89ec7ace4204b2",
                "347d5f63f11450782962fa0451e3db6aa937f843523f54cf34baf8c04bdd6af8",
            ),
            "json": (
                "565b1d2c35dfd567ffc76ce9fdbe0e3e716e6543ff17ea934eb6238473b32156",
                "bcc447bbdd0b81fc0681f2ae5040700c7b9429cc2bdf060c0799d15a5091e1c0",
            ),
        },
    ),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
def test_sweep_outputs_match_pinned_digests(name, fmt, tmp_path):
    args, digests = PINNED_SWEEPS[name]
    out = tmp_path / f"sweep.{fmt}"
    assert main(args + ["--no-timing", "--format", fmt, "--out", str(out)]) == 0
    ratios = tmp_path / f"sweep.ratios.{fmt}"
    actual = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, ratios))
    assert actual == digests[fmt]


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
