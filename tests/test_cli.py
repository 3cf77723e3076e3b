import importlib.util
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from ginv.cli import main
from ginv.geninv import wg_inverse
from ginv.fixtures import DEMO_4X4, DEMO_4X4_INVERSES, WG_PREORDER_PAIR, fixture_path
from ginv.matfile import parse_matrix, save_matrix
from ginv.oracle import _haar_unitary, _well_conditioned, random_wg_pair_spec
from ginv.orders import make_wg_pair

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

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("2 2\n1 2 3\n")
        assert main(["inverse", "mp", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

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


class TestDecomposeCommand:
    def test_index(self, capsys):
        assert main(["decompose", "index", DEMO]) == 0
        out = capsys.readouterr().out
        assert "index = 2" in out
        assert "3 2 2" in out

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

    def test_stdout_round_trips_through_parser(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ginv.cli", "inverse", "drazin", DEMO],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        value = parse_matrix(proc.stdout)
        np.testing.assert_allclose(value, DEMO_4X4_INVERSES["drazin"], atol=1e-12)
