"""The cli workload: one ``python -m ginv.cli`` process per op.

The fixture calls are dominated by interpreter start and ``import ginv``; the
calls on generated n = 96..128 matrix files by parsing and output encoding.
This module does not import ginv, so the worker stays smaller than every CLI
child and the children's peak RSS is the children's own (a child started by
vfork inherits its parent's peak RSS at exec).  The traced run imports
``ginv.cli`` to call ``main`` in process.
"""

from __future__ import annotations

import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from gen import format_matrix, make_matrix, parse_matrix, wg_pair
from refs import MatrixRefs, check_core_ep_parts, check_index, close, equal
from workload import Op, Workload


def _json_matrix(rows) -> np.ndarray:
    arr = np.array(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _text_report(out: str) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """'key = value' fields and indented 'NAME =' matrix blocks of a text report."""
    fields: dict[str, str] = {}
    blocks: dict[str, np.ndarray] = {}
    lines = out.splitlines()
    i = 0
    while i < len(lines):
        head = re.fullmatch(r"(\w+) =", lines[i])
        i += 1
        if head:
            start = i
            while i < len(lines) and lines[i].startswith("  "):
                i += 1
            blocks[head.group(1)] = parse_matrix("\n".join(lines[start:i]))
        else:
            for key, value in re.findall(r"([^=]+?) = (\S+)", lines[i - 1]):
                fields[key.strip()] = value
    return fields, blocks


def _exit(code: int, want: int) -> list[str]:
    return equal("exit code", code, want)


def _numeric(m) -> np.ndarray:
    from exact import to_numpy  # sympy loads only when the checks run

    return to_numpy(m)


class Cli(Workload):
    """One ``python -m ginv.cli`` child per op; the README's exit-code contract is checked."""

    name = "cli"
    children = True
    BIG = (128, 2, 64)  # n, index, rank(A^k) of the large single-matrix file
    BIG_PAIR = (36, 24, 36, 2, 3)  # r, p, q, index of A, index of B: a WG pair of size 96

    def __init__(self, seed: int, workdir: Path):
        self.data = Path(importlib.util.find_spec("ginv").submodule_search_locations[0]) / "data"
        rng = np.random.default_rng([seed, 3])
        self.big = make_matrix(rng, *self.BIG)
        self.pair = wg_pair(rng, *self.BIG_PAIR)
        self.files = {"big": workdir / "big.mat", "pair_a": workdir / "pair_a.mat", "pair_b": workdir / "pair_b.mat"}
        for key, value in (("big", self.big.a), ("pair_a", self.pair.a.a), ("pair_b", self.pair.b.a)):
            self.files[key].write_text(format_matrix(value), encoding="utf-8")
        self._exact: dict = {}
        self.ops = [self._op(argv, check) for argv, check in self._calls()]

    def _fixture(self, name: str) -> str:
        return str(self.data / name)

    def _exact_matrix(self, name: str):
        from exact import ExactMatrix, to_exact  # sympy loads only for the checks

        if name not in self._exact:
            self._exact[name] = ExactMatrix(to_exact(parse_matrix((self.data / name).read_text())))
        return self._exact[name]

    def _calls(self) -> list[tuple[list[str], Callable]]:
        fx = self._fixture
        calls: list[tuple[list[str], Callable]] = []

        def inverse_text(kind, name):
            def check(code, out, err):
                want = _numeric(self._exact_matrix(name).inverse(kind))
                return _exit(code, 0) or close(f"{kind} of {name}", parse_matrix(out), want)

            return check

        for kind in ("mp", "drazin", "core-ep", "dmp", "bt", "wg"):
            calls.append((["inverse", kind, fx("demo4x4.mat")], inverse_text(kind, "demo4x4.mat")))
        calls.append((["inverse", "group", fx("complex2.mat")], inverse_text("group", "complex2.mat")))
        calls.append(
            (
                ["inverse", "core", fx("demo4x4.mat")],
                lambda code, out, err: _exit(code, 3) + ([] if "index 2" in err else [f"no index in {err!r}"]),
            )
        )

        def order(kind, a_name, b_name):
            def check(code, out, err):
                from exact import verdict

                holds = verdict(kind, parse_matrix((self.data / a_name).read_text()), parse_matrix((self.data / b_name).read_text()))
                said = out.splitlines()[0].endswith(": holds") if out else None
                return _exit(code, 0 if holds else 1) + equal(f"{kind} verdict text", said, holds)

            return ["order", kind, fx(a_name), fx(b_name)], check

        for kind, pair in (
            ("minus", "squaring"),
            ("sharp", "squaring"),
            ("drazin", "drazin"),
            ("cn", "drazin"),
            ("wg", "wg"),
            ("ce", "wg"),
            ("core-ep", "squaring"),
            ("core-ep-wg", "wg"),
        ):
            calls.append(order(kind, f"{pair}_pair_a.mat", f"{pair}_pair_b.mat"))

        def core_ep_text(code, out, err):
            ex = self._exact_matrix("demo4x4.mat")
            fields, blocks = _text_report(out)
            a1, a2 = ex.core_ep_split()
            return (
                _exit(code, 0)
                + equal("core-EP index", fields.get("index"), str(ex.index))
                + close("core-EP A1", blocks["A1"], _numeric(a1))
                + close("core-EP A2", blocks["A2"], _numeric(a2))
            )

        def cn_text(code, out, err):
            ex = self._exact_matrix("demo4x4.mat")
            fields, blocks = _text_report(out)
            c, nil = ex.core_nilpotent_split()
            return (
                _exit(code, 0)
                + equal("core-nilpotent index", fields.get("index"), str(ex.index))
                + close("core-nilpotent C", blocks["C"], _numeric(c))
                + close("core-nilpotent Nil", blocks["Nil"], _numeric(nil))
            )

        def hs_text(code, out, err):
            ex = self._exact_matrix("demo4x4.mat")
            fields, blocks = _text_report(out)
            r = ex.rank
            sigma = sorted((float(s) for s in ex.a.singular_values()), reverse=True)[:r]
            k, l_blk = blocks["K"], blocks["L"]
            return (
                _exit(code, 0)
                + equal("HS rank", fields.get("rank"), str(r))
                + close("HS Sigma", np.diag(blocks["Sigma"]), sigma)
                + close("HS KK*+LL*=I", k @ k.conj().T + l_blk @ l_blk.conj().T, np.eye(r))
            )

        def index_text(code, out, err):
            ex = self._exact_matrix("nilpotent3.mat")
            seq = re.search(r"rank sequence = ([\d ]+)", out)
            got = tuple(int(x) for x in seq.group(1).split()) if seq else None
            return _exit(code, 0) + equal("index", _text_report(out)[0].get("index"), str(ex.index)) + equal(
                "rank sequence", got, ex.rank_sequence
            )

        calls += [
            (["decompose", "core-ep", fx("demo4x4.mat")], core_ep_text),
            (["decompose", "core-nilpotent", fx("demo4x4.mat")], cn_text),
            (["decompose", "hs", fx("demo4x4.mat")], hs_text),
            (["decompose", "index", fx("nilpotent3.mat")], index_text),
            (
                ["suite", "reference-examples"],
                lambda code, out, err: _exit(code, 0)
                + ([] if re.search(r"passed (\d+)/\1 cases", out) else [f"suite output {out!r}"]),
            ),
        ]
        return calls + self._large_calls()

    def _large_calls(self) -> list[tuple[list[str], Callable]]:
        big, refs = self.big, MatrixRefs(self.big)
        path = str(self.files["big"])

        def inv_text(kind):
            return lambda code, out, err: _exit(code, 0) or close(f"{kind} of big", parse_matrix(out), refs.inverse(kind))

        def inv_json(kind):
            def check(rep):
                return equal("index", rep["index"], big.index) + close(
                    f"{kind} of big", _json_matrix(rep["value"]), refs.inverse(kind)
                )

            return json_report(check)

        def core_ep_json(rep):
            parts = SimpleNamespace(k=rep["index"], r=rep["rank_ak"], A1=_json_matrix(rep["A1"]), A2=_json_matrix(rep["A2"]))
            return check_core_ep_parts(parts, big)

        def index_json(rep):
            return check_index(SimpleNamespace(index=rep["index"], rank_sequence=rep["rank_sequence"]), big)

        def json_report(check):
            return lambda code, out, err: _exit(code, 0) or check(json.loads(out))

        return [
            (["inverse", "wg", path], inv_text("wg")),
            (["inverse", "wg", path, "--json"], inv_json("wg")),
            (["inverse", "core-ep", path, "--json"], inv_json("core-ep")),
            (["inverse", "drazin", path], inv_text("drazin")),
            (["decompose", "core-ep", path, "--json"], json_report(core_ep_json)),
            (["decompose", "index", path, "--json"], json_report(index_json)),
            (["order", "wg", str(self.files["pair_a"]), str(self.files["pair_b"])], lambda code, out, err: _exit(code, 0)),
        ]

    def _op(self, argv: list[str], check: Callable) -> Op:
        key = " ".join(Path(a).name if os.sep in a else a for a in argv)

        def call():
            proc = subprocess.run([sys.executable, "-m", "ginv.cli", *argv], capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

        def inproc():
            import ginv.cli

            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = ginv.cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return Op(key, call, lambda outs: check(*outs[key]), inproc)

    def round(self, i: int) -> list[Op]:
        return self.ops

    def warm_up(self) -> None:
        code, _, err = self.ops[0].call()
        if code:
            raise RuntimeError(f"warm-up CLI call failed with exit {code}: {err}")

