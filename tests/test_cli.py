import importlib.util
import json
import os
import pathlib
import re
import signal
import subprocess
import sys

import numpy as np
import pytest

from ginv import decomp
from ginv.cli import _json, main
from ginv.decomp import core_ep_decompose, core_nilpotent_decompose, hs_decompose, index
from ginv.geninv import wg_inverse
from ginv.fixtures import DEMO_4X4, DEMO_4X4_INVERSES, WG_PREORDER_PAIR, fixture_path
from ginv.orders import OrderVerdict, wg_order
from ginv.matcore import residual
from ginv.matfile import load_matrix, parse_matrix, save_matrix
from ginv.oracle import GenSpec, _haar_unitary, _well_conditioned, gen_matrix, make_wg_pair, random_wg_pair_spec

DEMO = str(fixture_path("demo4x4.mat"))
PAIR_A = str(fixture_path("wg_pair_a.mat"))
PAIR_B = str(fixture_path("wg_pair_b.mat"))
ZERO = str(fixture_path("zero3.mat"))
NILPOTENT = str(fixture_path("nilpotent3.mat"))


def _bench_gen():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


class TestInverseCommand:
    def test_wg_prints_expected_matrix(self, capsys):
        assert main(["inverse", "wg", DEMO]) == 0
        out = capsys.readouterr()
        value = parse_matrix(out.out)
        np.testing.assert_allclose(value, DEMO_4X4_INVERSES["wg"], atol=1e-12)
        assert "residuals" in out.err

    def test_group_of_index_two_exits_3_with_index(self, capsys):
        assert main(["inverse", "group", DEMO]) == 3
        assert "index 2" in capsys.readouterr().err

    def test_mp_of_zero(self, capsys):
        assert main(["inverse", "mp", ZERO]) == 0
        np.testing.assert_array_equal(parse_matrix(capsys.readouterr().out), np.zeros((3, 3)))

    @pytest.mark.parametrize("route", ["block-form", "core-ep-square", "power-core", "projector-mp"])
    def test_wg_routes(self, route, capsys):
        assert main(["inverse", "wg", DEMO, "--route", route]) == 0
        value = parse_matrix(capsys.readouterr().out)
        np.testing.assert_allclose(value, DEMO_4X4_INVERSES["wg"], atol=1e-9)

    def test_route_rejected_for_other_kinds(self, capsys):
        assert main(["inverse", "mp", DEMO, "--route", "block-form"]) == 2

    def test_json_report(self, capsys):
        assert main(["inverse", "wg", DEMO, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "wg"
        assert report["route"] == "block-form"
        assert report["index"] == 2
        assert set(report["tolerances"]) == {"rank_rtol", "eq_rtol"}
        assert set(report["residuals"]) == {"AX^2=X", "AX=A_ce A"}
        value = np.array([[complex(re, im) for re, im in row] for row in report["value"]])
        np.testing.assert_allclose(value, DEMO_4X4_INVERSES["wg"], atol=1e-12)

    def test_rectangular_mp_reports_null_index(self, tmp_path, capsys):
        rect = tmp_path / "rect.mat"
        rect.write_text("2 3\n1 0 0\n0 2 0\n")
        assert main(["inverse", "mp", str(rect), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["index"] is None
        value = np.array([[complex(re, im) for re, im in row] for row in report["value"]])
        np.testing.assert_allclose(value, [[1, 0], [0, 0.5], [0, 0]], atol=1e-12)

    def test_mp_runs_no_index(self, tmp_path, capsys):
        # mp takes no split, so the powers of 1e150 * A, which overflow, are
        # never formed and the report's index is null
        big = tmp_path / "big.mat"
        save_matrix(big, 1e150 * DEMO_4X4)
        assert main(["inverse", "mp", str(big), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["index"] is None
        value = np.array([[complex(re, im) for re, im in row] for row in report["value"]])
        np.testing.assert_allclose(1e150 * value, DEMO_4X4_INVERSES["mp"], atol=1e-12)

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("2 2\n1 2 3\n")
        assert main(["inverse", "mp", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"100000 100000\n1 2\n", "line 1, column 1: expected 10000000000 entries, found 2"),
            (b"4000000000 4000000000\n1 2\n", "line 1, column 1: expected 16000000000000000000 entries, found 2"),
            (b"2 2\n1 2\n3 \xff\n", "line 3, column 3: byte 0xff is not UTF-8"),
        ],
        ids=["oversized-header", "header-beyond-intp", "non-utf8"],
    )
    def test_unreadable_file_exit_2(self, tmp_path, capsys, data, message):
        bad = tmp_path / "bad.mat"
        bad.write_bytes(data)
        assert main(["inverse", "wg", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("count", ["1_0", "+1", "\u0661"])
    def test_header_count_not_ascii_digits_exit_2(self, tmp_path, capsys, count):
        bad = tmp_path / "bad.mat"
        bad.write_text(f"{count} 1\n1 2 3 4 5 6 7 8 9 10\n", encoding="utf-8")
        assert main(["inverse", "mp", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: line 1, column 1: row count {count!r} is not an integer\n"

    def test_missing_file_exit_2(self):
        assert main(["inverse", "mp", "/nonexistent/m.mat"]) == 2

    def test_overflowing_powers_exit_4(self, tmp_path, capfd):
        # the powers of 1e150 * A overflow; the error comes before an inf
        # power reaches LAPACK, which would print to the report's stdout
        big = tmp_path / "big.mat"
        save_matrix(big, 1e150 * DEMO_4X4)
        assert main(["inverse", "wg", str(big), "--json"]) == 4
        out, err = capfd.readouterr()
        assert out == ""
        assert "error:" in err

    def test_small_scale_exit_4(self, tmp_path, capsys):
        # the rank walk calls 1e-200 * A nilpotent, but its trace is not 0
        path = tmp_path / "tiny.mat"
        save_matrix(path, 1e-200 * DEMO_4X4)
        assert main(["inverse", "wg", str(path)]) == 4
        assert "trace" in capsys.readouterr().err

    def test_rising_rank_sequence_exit_4(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        q = _haar_unitary(rng, 8)
        block = np.zeros((8, 8), dtype=complex)
        block[:4, :4] = _well_conditioned(rng, 4)
        block[:4, 4:] = rng.standard_normal((4, 4))
        block[4, 5] = block[5, 6] = 1e6
        path = tmp_path / "rising.mat"
        save_matrix(path, q @ block @ q.conj().T)
        assert main(["inverse", "wg", str(path)]) == 4
        assert "rises" in capsys.readouterr().err

    def test_index_read_from_the_split(self, tmp_path, monkeypatch, capsys):
        # the report's index comes from the inverse's own split: no second
        # rank walk, so the CLI runs exactly the SVDs of the library call
        a = _bench_gen().make_matrix(np.random.default_rng([1, 3]), 128, 2, 64).a
        path = tmp_path / "big.mat"
        save_matrix(path, a)
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        wg_inverse(a)
        library = len(calls)
        decomp._INDEX_MEMO.clear()  # each CLI process starts with no remembered walk
        assert main(["inverse", "wg", str(path), "--json"]) == 0
        assert len(calls) == 2 * library
        assert json.loads(capsys.readouterr().out)["index"] == 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_nan_residual_exit_4(self, tmp_path, capsys):
        # ||X||_F overflows, so a residual is NaN, which must not pass
        path = tmp_path / "huge.mat"
        save_matrix(path, np.full((2, 2), 1e308))
        assert main(["inverse", "mp", str(path)]) == 4
        assert "nan" in capsys.readouterr().err

    def test_linalg_error_exit_4(self, monkeypatch, capsys):
        # LinAlgError is a ValueError, yet a failed SVD is no precondition
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        assert main(["inverse", "mp", DEMO]) == 4
        assert "error:" in capsys.readouterr().err


_MINUS = {"rank(a)": "int", "rank(b)": "int", "rank(b-a)": "int"}
_SHARP = {"A#A=A#B": "float", "AA#=BA#": "float"}
# order -> its witnesses in --json: each key with the type of its value, or
# with the order name and witnesses of its sub-verdict
WITNESS_LAYOUT = {
    "minus": _MINUS,
    "sharp": _SHARP,
    "drazin": {"core_sharp": ["sharp", _SHARP]},
    "cn": {"core_sharp": ["sharp", _SHARP], "nilpotent_minus": ["minus", _MINUS]},
    "wg": {"core_parts_sharp": ["sharp", _SHARP]},
    "ce": {"core_parts_sharp": ["sharp", _SHARP], "nilpotent_minus": ["minus", _MINUS]},
    "core-ep": {"A_ceA=A_ceB": "float", "AA_ce=BA_ce": "float"},
    "core-ep-wg": {"AA_wg=BA_wg": "float", "A*A_wg=B*A_wg": "float"},
}


def _witness_layout(witnesses):
    return {
        key: [value["order"], _witness_layout(value["witnesses"])] if isinstance(value, dict) else type(value).__name__
        for key, value in witnesses.items()
    }


class TestOrderCommand:
    def test_wg_pair_holds_exit_0(self, capsys):
        assert main(["order", "wg", PAIR_A, PAIR_B]) == 0
        assert "holds" in capsys.readouterr().out

    def test_drazin_pair_fails_exit_1(self, capsys):
        assert main(["order", "drazin", PAIR_A, PAIR_B]) == 1
        assert "does not hold" in capsys.readouterr().out

    def test_minus_reflexive(self, capsys):
        assert main(["order", "minus", DEMO, DEMO]) == 0

    def test_sharp_precondition_exit_3(self):
        assert main(["order", "sharp", DEMO, DEMO]) == 3

    def test_shape_mismatch_exit_3(self):
        assert main(["order", "minus", DEMO, PAIR_A]) == 3

    def test_numerical_failure_exit_4(self, tmp_path, capsys):
        a, b = make_wg_pair(random_wg_pair_spec(np.random.default_rng(1), r=40, p=40, q=48))
        pa, pb = tmp_path / "a.mat", tmp_path / "b.mat"
        save_matrix(pa, a)
        save_matrix(pb, b)
        assert main(["order", "wg", str(pa), str(pb)]) == 4
        assert "error:" in capsys.readouterr().err

    def test_json_report(self, capsys):
        assert main(["order", "wg", PAIR_A, PAIR_B, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is True
        assert report["order"] == "wg"
        assert "core_parts_sharp" in report["witnesses"]
        sub = report["witnesses"]["core_parts_sharp"]
        assert set(sub["witnesses"]) == {"A#A=A#B", "AA#=BA#"}

    @pytest.mark.parametrize("way", ["ab", "ba"])
    @pytest.mark.parametrize("pair", ["wg", "drazin", "squaring"])
    @pytest.mark.parametrize("kind", list(WITNESS_LAYOUT))
    def test_json_witness_layout(self, kind, pair, way, capsys):
        a, b = (str(fixture_path(f"{pair}_pair_{side}.mat")) for side in way)
        code = main(["order", kind, a, b, "--json"])
        out = capsys.readouterr().out
        if code == 3:  # the sharp order needs A of index <= 1
            assert kind == "sharp" and out == ""
            return
        report = json.loads(out)
        assert report["order"] == kind and code == (0 if report["holds"] is True else 1)
        # each key a residual, a rank or a nested sub-verdict
        assert _witness_layout(report["witnesses"]) == WITNESS_LAYOUT[kind]


class TestDecomposeCommand:
    def test_index(self, capsys):
        assert main(["decompose", "index", DEMO]) == 0
        out = capsys.readouterr().out
        assert "index = 2" in out
        assert "3 2 2" in out

    @pytest.mark.parametrize("case", ["identity-core-2", "identity-core-3", "wg-pair-b"])
    def test_index_of_a_split_that_raises_exits_4(self, case, tmp_path, capsys):
        # the rank walk alone would read a wrong index; index reads the split
        if case == "wg-pair-b":
            a = make_wg_pair(random_wg_pair_spec(np.random.default_rng(1), r=40, p=40, q=48))[1]
        else:
            block = np.zeros((8, 8), dtype=complex)
            block[:4, :4] = np.eye(4)
            for j in range(int(case[-1])):
                block[4 + j, 5 + j] = 1e6
            q = _haar_unitary(np.random.default_rng(0), 8)
            a = q @ block @ q.conj().T
        path = tmp_path / "a.mat"
        save_matrix(path, a)
        for json_flag in ([], ["--json"]):
            decomp._INDEX_MEMO.clear()
            assert main(["decompose", "index", str(path), *json_flag]) == 4
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")

    def test_core_ep_of_nilpotent(self, capsys):
        assert main(["decompose", "core-ep", NILPOTENT]) == 0
        out = capsys.readouterr().out
        assert "rank(A^k) = 0" in out

    def test_core_ep_json(self, capsys):
        assert main(["decompose", "core-ep", DEMO, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["index"] == 2
        assert report["rank_ak"] == 2
        a1 = np.array([[complex(re, im) for re, im in row] for row in report["A1"]])
        a2 = np.array([[complex(re, im) for re, im in row] for row in report["A2"]])
        np.testing.assert_allclose(a1 + a2, DEMO_4X4, atol=1e-12)
        assert report["reconstruction_residual"] <= 1e-9

    @pytest.fixture(params=["demo4x4", "gen6k2"])
    def matrix_file(self, request, tmp_path):
        if request.param == "demo4x4":
            return DEMO
        path = tmp_path / "gen6k2.mat"
        save_matrix(path, gen_matrix(GenSpec(n=6, target_index=2, core_rank=3, seed=17)))
        return str(path)

    @staticmethod
    def _json_report(argv, capsys):
        assert main(argv + ["--json"]) == 0
        return json.loads(capsys.readouterr().out)

    @staticmethod
    def _matrix(pairs):
        arr = np.array(pairs, dtype=float)
        return arr[..., 0] + 1j * arr[..., 1]

    def test_index_json(self, matrix_file, capsys):
        report = self._json_report(["decompose", "index", matrix_file], capsys)
        idx = index(load_matrix(matrix_file))
        assert report["kind"] == "index"
        assert report["index"] == idx.index
        assert tuple(report["rank_sequence"]) == idx.rank_sequence

    def test_core_nilpotent_json(self, matrix_file, capsys):
        report = self._json_report(["decompose", "core-nilpotent", matrix_file], capsys)
        a = load_matrix(matrix_file)
        cn = core_nilpotent_decompose(a)
        assert report["kind"] == "core-nilpotent"
        assert report["index"] == cn.k
        np.testing.assert_array_equal(self._matrix(report["C"]), cn.C)
        np.testing.assert_array_equal(self._matrix(report["Nil"]), cn.Nil)
        assert report["reconstruction_residual"] == residual(cn.C + cn.Nil, a) <= 1e-9
        nilres = residual(np.linalg.matrix_power(cn.Nil, cn.k), np.zeros_like(a))
        assert report["nilpotency_residual"] == nilres <= 1e-9

    def test_hs_json(self, matrix_file, capsys):
        report = self._json_report(["decompose", "hs", matrix_file], capsys)
        a = load_matrix(matrix_file)
        hs = hs_decompose(a)
        assert report["kind"] == "hs"
        assert report["rank"] == hs.r
        for name in ("U", "Sigma", "K", "L", "SigmaK", "SigmaL"):
            np.testing.assert_array_equal(self._matrix(report[name]), getattr(hs, name), err_msg=name)
        assert report["reconstruction_residual"] <= 1e-9
        kkll = residual(hs.K @ hs.K.conj().T + hs.L @ hs.L.conj().T, np.eye(hs.r, dtype=complex))
        assert report["kkstar_llstar_residual"] == kkll <= 1e-9

    def test_hs(self, capsys):
        assert main(["decompose", "hs", DEMO]) == 0
        out = capsys.readouterr().out
        assert "rank = 3" in out

    def test_core_nilpotent(self, capsys):
        assert main(["decompose", "core-nilpotent", DEMO]) == 0
        assert "index = 2" in capsys.readouterr().out


class TestSuiteCommand:
    def test_empty_passes(self, capsys):
        assert main(["suite", "empty"]) == 0
        assert "0/0" in capsys.readouterr().out

    def test_reference_examples_pass(self, capsys):
        assert main(["suite", "reference-examples"]) == 0
        assert "7/7" in capsys.readouterr().out

    def test_small_random_suite(self, capsys):
        assert main(["suite", "wg-uniqueness", "--count", "3", "--seed", "5"]) == 0

    def test_unknown_suite_exit_3(self):
        assert main(["suite", "does-not-exist"]) == 3

    def test_json_report(self, capsys):
        assert main(["suite", "empty", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suite"] == "empty"
        assert report["cases_run"] == 0
        assert report["failures"] == []


class TestTolerancePlumbing:
    def _near_pair(self, tmp_path):
        rng = np.random.default_rng(80)
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        b = a + 1e-6 * np.eye(3)
        pa, pb = tmp_path / "a.mat", tmp_path / "b.mat"
        save_matrix(pa, a.astype(complex))
        save_matrix(pb, b.astype(complex))
        return str(pa), str(pb)

    def test_env_var_loosens_equality(self, tmp_path, monkeypatch, capsys):
        pa, pb = self._near_pair(tmp_path)
        assert main(["order", "sharp", pa, pb]) == 1
        monkeypatch.setenv("GINV_EQ_RTOL", "1e-3")
        assert main(["order", "sharp", pa, pb]) == 0

    def test_flag_wins_over_env(self, tmp_path, monkeypatch):
        pa, pb = self._near_pair(tmp_path)
        monkeypatch.setenv("GINV_EQ_RTOL", "1e-3")
        assert main(["order", "sharp", pa, pb, "--eq-rtol", "1e-12"]) == 1

    def test_invalid_env_value_exit_3(self, monkeypatch):
        monkeypatch.setenv("GINV_EQ_RTOL", "huge")
        assert main(["inverse", "mp", DEMO]) == 3

    def test_out_of_range_flag_exit_3(self):
        assert main(["inverse", "mp", DEMO, "--eq-rtol", "2.0"]) == 3


class TestConsoleEntryPoint:
    def test_installed_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ginv.cli", "decompose", "index", DEMO],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "index = 2" in proc.stdout

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
    def test_closed_stdout_is_no_parse_error(self):
        # as in ``ginv decompose core-ep FILE | head -1``: the reader is gone
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ginv.cli", "decompose", "core-ep", DEMO],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode != 2

    def test_stdout_round_trips_through_parser(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ginv.cli", "inverse", "drazin", DEMO],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        value = parse_matrix(proc.stdout)
        np.testing.assert_allclose(value, DEMO_4X4_INVERSES["drazin"], atol=1e-12)


def _mangled(data: bytes, rng: np.random.Generator):
    """Broken copies of a matrix file: cut at each token, one byte flipped, a
    non-UTF-8 byte and a NUL byte put in, and an oversized header."""
    for m in re.finditer(rb"\S+", data):
        yield data[: m.start()]
        yield data[: m.end() - 1]
    for _ in range(8):
        flipped = bytearray(data)
        flipped[rng.integers(len(data))] ^= int(rng.integers(1, 256))
        yield bytes(flipped)
    for byte in (b"\xff", b"\x80", b"\0"):
        at = int(rng.integers(len(data) + 1))
        yield data[:at] + byte + data[at:]
    body = data.split(b"\n", 1)[1]
    for header in (b"100000 100000", b"4000000000 4000000000", b"99999999999999999999 1"):
        yield header + b"\n" + body


class TestFuzz:
    """Every broken file ends in an exit code of the contract, never a traceback."""

    @pytest.mark.parametrize("name", sorted(p.name for p in fixture_path("demo4x4.mat").parent.glob("*.mat")))
    def test_mangled_fixtures_exit_0_to_4(self, name, tmp_path, capsys):
        rng = np.random.default_rng([10, *name.encode()])
        path = tmp_path / name
        for data in _mangled(fixture_path(name).read_bytes(), rng):
            path.write_bytes(data)
            for argv in (["inverse", "wg", str(path)], ["order", "wg", str(path), str(path)]):
                code = main(argv)
                assert type(code) is int and 0 <= code <= 4, (argv, data)
        capsys.readouterr()


class TestJsonEncoder:
    """The CLI's writer writes what plain json.dumps writes, byte for byte."""

    @staticmethod
    def _default(obj):
        # the report layout: a matrix as nested [re, im] pairs, a verdict as a dict
        if isinstance(obj, np.ndarray):
            return np.stack([obj.real, obj.imag], -1).tolist()
        if isinstance(obj, OrderVerdict):
            return {"holds": obj.holds, "order": obj.order_name, "witnesses": obj.witnesses}
        if isinstance(obj, np.generic):
            return obj.item()
        raise TypeError(f"cannot encode {type(obj).__name__} as JSON")

    @classmethod
    def _plain(cls, report):
        return json.dumps(report, indent=2, sort_keys=True, default=cls._default)

    def test_special_doubles(self):
        values = [-0.0, 5e-324, -5e-324, 1e308, 1e16, 1e15, 0.1, 1 / 3, 2.0, -7.0, 1e-5, 2.2250738585072014e-308]
        real = np.array(values)
        report = {
            "real": real.reshape(3, 4) + 0j,  # zero imaginary parts
            "imag": 1j * real.reshape(4, 3),
            "mixed": (real + 1j * real[::-1]).reshape(2, 6),
            "float": real.reshape(6, 2),  # a real array is written with zero imaginary parts
            "nested": [{"deep": real[:3] + 1j}, np.array(3 - 4j)],
            "scalars": [np.float64(0.1), 2.5, -0.0, 7],
        }
        assert _json(report) == self._plain(report)

    def test_non_finite_and_integer_arrays(self):
        report = {"nan": np.array([[np.nan, np.inf], [-np.inf, 1.0]]), "int": np.arange(4).reshape(2, 2)}
        assert _json(report) == self._plain(report)

    @pytest.mark.parametrize("a", [np.zeros((3, 3)), np.eye(3), DEMO_4X4], ids=["nilpotent", "invertible", "demo"])
    def test_core_ep_blocks(self, a):
        # nilpotent: 0x0 T and 0x3 S; invertible: 3x0 S and 0x0 N
        parts = core_ep_decompose(a)
        report = {name: getattr(parts, name) for name in ("U", "T", "S", "N", "A1", "A2")}
        assert _json(report) == self._plain(report)

    def test_verdict_with_nested_witnesses(self):
        report = wg_order(*WG_PREORDER_PAIR)
        assert _json(report) == self._plain(report)

    def test_string_mimicking_a_placeholder(self):
        report = {"value": np.eye(2), "warnings": ["\0ndarray 0", "\0ndarray 7"]}
        assert _json(report) == self._plain(report)

    def test_generated_matrix(self):
        rng = np.random.default_rng(8)
        a = (rng.standard_normal((9, 7)) + 1j * rng.standard_normal((9, 7))) * np.exp(rng.uniform(-700, 700, (9, 7)))
        report = {"kind": "x", "value": a, "residuals": {"ax": 1e-17}, "warnings": []}
        assert _json(report) == self._plain(report)
