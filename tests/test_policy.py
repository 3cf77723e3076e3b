"""Source guard: each numerical policy is written once, in matcore, and each
matrix is factored once.

The rank cutoff, the zero-snap floor and the nilpotency scaling each live in
one ``matcore`` helper that every other module calls.  ``oracle`` is exempt:
it is the independent reference and keeps its own numpy-only rules.  No
module computes a Schur form or calls the Schur reordering and Sylvester
solvers: the core-EP basis comes from the SVD of A^k, and the inverses read
the index and the split from ``decomp.core_ep_decompose``.  The orders split
each operand once: only ``sharp_order``, whose operand is no derived part,
takes a group inverse by a split of its own.  Every order verdict comes
from the equality test, the rank test or the parts rule in ``orders``, the
only places that compare a residual or build a verdict.  The package imports the
standard library, numpy and itself, and nothing else: no module imports
scipy, and numpy is its one declared dependency.  The oracle's index and its
brute-force WG solver use nothing from ``decomp``, whose rank walk is
remembered across calls, so the oracle stays an independent check.  That
memo has one store path: ``decomp`` walks the ranks and writes the memo only
in its checked split, after every check.  The CLI
has one JSON writer: no ``json.dumps`` call lays out a report.  The matrix
file reader spells its entry grammar once.
"""

import ast
import pathlib
import re
import sys

import pytest

import ginv

SRC = pathlib.Path(ginv.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
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


def _called_name(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_memo_stores_only_checked_splits():
    # a second caller of the walk or of the store could hold a walk no check
    # has vetted, which index would then return
    tree = _tree("decomp.py")
    (split,) = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "_checked_split"]

    def calls(node, names):
        return [c for c in ast.walk(node) if isinstance(c, ast.Call) and _called_name(c) in names]

    for name in ("_rank_walk", "_remember"):
        assert len(calls(tree, {name})) == len(calls(split, {name})) == 1, name
    (store,) = calls(split, {"_remember"})
    assert ast.unparse(store) == "_remember(key, idx, split)"
    assert ast.unparse(split.body[-1]) == "return (idx, split)"
    checks = [node for node in ast.walk(split) if isinstance(node, ast.Raise)]
    checks += calls(split, {"snap_zero", "require_zero_trace", "rank", "nilpotency_defect"})
    assert len(checks) >= 7 and all(node.lineno < store.lineno for node in checks)


def test_orders_do_not_import_oracle():
    # the test-data builders live in oracle, which imports the orders
    tree = _tree("orders.py")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {node.module or ""} | {f"{node.module or ''}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            names = {alias.name for alias in node.names}
        else:
            continue
        assert not any(name.split(".")[-1] == "oracle" for name in names), ast.unparse(node)


def test_orders_split_no_derived_part():
    # a group_inverse call splits its argument: on A1 or C that is a third split
    tree = _tree("orders.py")
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and _called_name(node) == "group_inverse"]
    (sharp,) = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "sharp_order"]
    inside = [node for node in ast.walk(sharp) if isinstance(node, ast.Call) and _called_name(node) == "group_inverse"]
    assert calls and calls == inside


def test_orders_from_two_tests_and_one_rule():
    # a residual compared or a verdict built elsewhere would be another copy
    # of a policy the equality test, the rank test or the parts rule states
    tree = _tree("orders.py")
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}

    def calls(node, name):
        return [c for c in ast.walk(node) if isinstance(c, ast.Call) and _called_name(c) == name]

    owners = {"residual": ["_equalities"], "OrderVerdict": ["_equalities", "_rank_subtractivity", "_parts_rule"]}
    for name, where in owners.items():
        assert set(where) <= set(functions), where
        owned = [len(calls(functions[owner], name)) for owner in where]
        assert all(owned) and len(calls(tree, name)) == sum(owned), name


def _imported_packages(tree):
    """(top-level package, line) of every absolute import in ``tree``, function bodies included."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.extend((name.split(".")[0], node.lineno) for name in names)
    return found


def test_imports_are_stdlib_numpy_or_ginv():
    # relative imports are ginv itself; scipy, for one, is no dependency
    allowed = set(sys.stdlib_module_names) | {"numpy", "ginv"}
    found = [
        f"{p.name}:{line} {package}"
        for p in sorted(SRC.glob("*.py"))
        for package, line in _imported_packages(ast.parse(p.read_text()))
        if package not in allowed
    ]
    assert found == []


def test_numpy_is_the_one_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return [re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements]

    assert names(project["dependencies"]) == ["numpy"]
    assert "scipy" in names(project["optional-dependencies"]["test"])  # the tests and the benchmark use it


def test_oracle_index_reads_nothing_from_decomp():
    # the brute-force oracle is an independent check only while its index and
    # powers never touch decomp, whose rank walk is remembered across calls
    tree = _tree("oracle.py")
    from_decomp = {"decomp"} | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "decomp"
        for alias in node.names
    }
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    reached, todo = set(), ["_np_index", "brute_force_wg"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        names = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
        assert not names & from_decomp, f"oracle.{name} uses {sorted(names & from_decomp)}"
        todo.extend(names & functions.keys())
    assert {"_np_index", "_np_power", "brute_force_wg"} <= reached


def test_one_json_writer():
    # cli._json lays out every report itself and asks json.dumps only for one
    # key or scalar; a json.dumps that indents or takes a default hook would
    # be a second writer of the report layout
    found = [
        f"{p.name}:{node.lineno}"
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Call)
        and _called_name(node) == "dumps"
        and {kw.arg for kw in node.keywords} & {"indent", "default"}
    ]
    assert found == []


def test_one_matrix_file_grammar():
    # matfile spells an entry once, as _ENTRY: compiled for one token and for
    # the joined body, beside the header counts' ASCII digits; no float()
    # reads a part by a grammar of its own
    text = (SRC / "matfile.py").read_text()
    assert "float(" not in text
    compiled = [
        ast.unparse(node.args[0])
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call) and _called_name(node) == "compile"
    ]
    assert sorted(compiled) == sorted(["_ENTRY", "f'{_ENTRY}(?: {_ENTRY})*'", "'[0-9]+'"])
