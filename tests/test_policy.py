"""Source guard: each numerical policy is written once, in matcore, and each
matrix is factored once.

The rank cutoff, the zero-snap floor and the nilpotency scaling each live in
one ``matcore`` helper that every other module calls.  ``oracle`` is exempt:
it is the independent reference and keeps its own numpy-only rules.  No
module computes a Schur form or calls the Schur reordering and Sylvester
solvers: the core-EP basis comes from the SVD of A^k, and the inverses read
the index and the split from ``decomp.core_ep_decompose``.
"""

import ast
import pathlib
import re

import pytest

import ginv

SRC = pathlib.Path(ginv.__file__).parent
EXEMPT = {"matcore.py", "oracle.py"}
POLICY_PATTERNS = {
    "machine epsilon": re.compile(r"np\.finfo\("),
    "rank cutoff": re.compile(r"rank_rtol \*"),
    "nilpotency power scaling": re.compile(r"max\(1\.0,.*\)\s*\*\*\s*m\b"),
}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name not in EXEMPT))
def test_policy_written_only_in_matcore(module):
    text = (SRC / module).read_text()
    found = [what for what, pattern in POLICY_PATTERNS.items() if pattern.search(text)]
    assert not found, f"{module} carries its own {', '.join(found)}; call the matcore helper"


@pytest.mark.parametrize("module", ["matcore.py", "decomp.py", "orders.py"])
def test_no_spectral_norm_in_floors(module):
    # np.linalg.norm(x, 2) runs a full SVD; the floors use Frobenius norms
    assert not re.search(r"np\.linalg\.norm\([^()]*,\s*2\)", (SRC / module).read_text())


def test_no_schur_form():
    calls = ("scipy.linalg.schur(", "ztrsen(", "ztrsyl(")
    found = sorted(p.name for p in SRC.glob("*.py") if any(call in p.read_text() for call in calls))
    assert found == []


def _tree(module):
    return ast.parse((SRC / module).read_text())


def test_decomp_does_not_import_geninv():
    # anywhere in the module, function bodies included
    imported = {node.module for node in ast.walk(_tree("decomp.py")) if isinstance(node, ast.ImportFrom)}
    assert not {"geninv", "ginv.geninv"} & imported


def test_geninv_reads_the_split_only():
    # the index and the Hartwig-Spindelboeck form would be a second factorization
    called = {
        node.func.id
        for node in ast.walk(_tree("geninv.py"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert not {"index", "hs_decompose"} & called
