"""Import budget: ginv loads numpy and never scipy.

The CLI, the library and the brute-force WG oracle, which solves the WG
defining system by one numpy least-squares solve, load no scipy module, and
``import ginv`` loads the oracle only when one of its names is read.  Each
check runs in a fresh interpreter, because this test session has loaded scipy
and the oracle long before.
"""

import subprocess
import sys
import textwrap

from ginv.fixtures import fixture_path


def _run(code: str) -> None:
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_loads_no_scipy():
    demo, pair_a, pair_b = (str(fixture_path(name)) for name in ("demo4x4.mat", "wg_pair_a.mat", "wg_pair_b.mat"))
    _run(
        f"""
        import contextlib, io, sys
        import ginv, ginv.cli

        calls = [
            ["inverse", "wg", {demo!r}],
            ["order", "wg", {pair_a!r}, {pair_b!r}],
            ["decompose", "core-ep", {demo!r}],
            ["suite", "reference-examples"],
        ]
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert ginv.cli.main(argv) == 0, argv
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded[:5]
        """
    )


def test_brute_force_wg_loads_no_scipy():
    _run(
        """
        import sys
        import numpy as np
        from ginv import brute_force_wg, wg_inverse
        from ginv.fixtures import DEMO_4X4

        x = brute_force_wg(DEMO_4X4)
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded[:5]
        assert np.allclose(x, wg_inverse(DEMO_4X4).value, atol=1e-9)
        """
    )


def test_oracle_loads_when_one_of_its_names_is_read():
    _run(
        """
        import sys
        import ginv

        assert "ginv.oracle" not in sys.modules
        assert "run_suite" in dir(ginv)
        assert "ginv.oracle" not in sys.modules
        ginv.run_suite
        assert "ginv.oracle" in sys.modules
        """
    )
