"""Command-line front end.

Exit codes: 0 success (for order tests: the order holds), 1 an order does not
hold or a suite had failures, 2 file or format parse error, 3 precondition
violation (for example the group inverse of an index-2 matrix), 4 numerical
failure (ill-conditioning, defining-equation violation, a failed LAPACK call,
overflow).  A closed stdout ends the process through SIGPIPE, as it does any
Unix filter, where the platform has that signal.

Tolerances come from the flags --rank-rtol / --eq-rtol, then the environment
variables GINV_RANK_RTOL / GINV_EQ_RTOL, then the defaults; flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys

import numpy as np

from .decomp import core_ep_decompose, core_nilpotent_decompose, hs_decompose, index
from .errors import GinvError, MatrixParseError
from .geninv import (
    WGRoute,
    bt_inverse,
    core_ep_inverse,
    core_inverse,
    dmp_inverse,
    drazin_inverse,
    group_inverse,
    mp_inverse,
    wg_inverse,
)
from .matcore import DEFAULT_TOL, ToleranceConfig, residual
from .matfile import format_matrix, load_matrix
from .orders import (
    OrderVerdict,
    ce_order,
    cn_order,
    core_ep_order,
    core_ep_order_via_wg,
    drazin_order,
    minus_order,
    sharp_order,
    wg_order,
)

EXIT_OK = 0
EXIT_ORDER_FAILS = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4

_ORDER_OPS = {
    "minus": minus_order,
    "sharp": sharp_order,
    "drazin": drazin_order,
    "cn": cn_order,
    "wg": wg_order,
    "ce": ce_order,
    "core-ep": core_ep_order,
    "core-ep-wg": core_ep_order_via_wg,
}

_INVERSE_OPS = {
    "mp": mp_inverse,
    "group": group_inverse,
    "drazin": drazin_inverse,
    "core": core_inverse,
    "core-ep": core_ep_inverse,
    "dmp": dmp_inverse,
    "bt": bt_inverse,
    "wg": wg_inverse,
}


def _verdict_report(v: OrderVerdict) -> dict:
    return {"holds": v.holds, "order": v.order_name, "witnesses": v.witnesses}


def _container(items: list[str], level: int, brackets: str) -> str:
    """``items``, each written at indent ``level + 1``, in ``brackets`` as
    ``json.dumps(indent=2)`` writes a container at indent ``level``.

    The brackets ride on the first and last item, so the text is joined once.
    """
    if not items:
        return brackets
    pad = "\n" + "  " * level
    items[0] = f"{brackets[0]}{pad}  {items[0]}"
    items[-1] = f"{items[-1]}{pad}{brackets[1]}"
    return f",{pad}  ".join(items)


def _json(obj, level: int = 0) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` as written at indent ``level``.

    A matrix is written as nested [re, im] pairs and a verdict as a dict; keys
    are strings.  A finite float64 matrix is filled into one %-format built from
    its shape: ``%r`` is ``float.__repr__``, json's own spelling of a finite
    double.  Any other array goes through the recursion as ``.tolist()``.
    """
    if isinstance(obj, OrderVerdict):
        obj = _verdict_report(obj)
    elif isinstance(obj, np.generic):
        obj = obj.item()
    elif isinstance(obj, np.ndarray):
        pairs = np.stack([obj.real, obj.imag], -1)
        if obj.ndim != 2 or pairs.dtype != np.float64 or not pairs.size or not np.isfinite(pairs).all():
            return _json(pairs.tolist(), level)
        pair = _container(["%r", "%r"], level + 2, "[]")
        row = _container([pair] * obj.shape[1], level + 1, "[]")
        return _container([row] * obj.shape[0], level, "[]") % tuple(pairs.ravel().tolist())
    if isinstance(obj, dict):
        items = [f"{json.dumps(key)}: {_json(value, level + 1)}" for key, value in sorted(obj.items())]
        return _container(items, level, "{}")
    if isinstance(obj, (list, tuple)):
        return _container([_json(item, level + 1) for item in obj], level, "[]")
    return json.dumps(obj)


def _print_json(report: dict, tol: ToleranceConfig) -> None:
    print(_json({**report, "tolerances": dataclasses.asdict(tol)}))


def _print_verdict_text(v: OrderVerdict, indent: int = 1) -> None:
    pad = "  " * indent
    for key, w in v.witnesses.items():
        if isinstance(w, OrderVerdict):
            print(f"{pad}{key}: {'holds' if w.holds else 'does not hold'}")
            _print_verdict_text(w, indent + 1)
        elif isinstance(w, float):
            print(f"{pad}{key}: {w:.3e}")
        else:
            print(f"{pad}{key}: {w}")


def _resolve_tol(args: argparse.Namespace) -> ToleranceConfig:
    def pick(flag_value, env_name, default):
        if flag_value is not None:
            return flag_value
        env = os.environ.get(env_name)
        if env is not None:
            try:
                return float(env)
            except ValueError:
                raise ValueError(f"{env_name} must be a number, got {env!r}") from None
        return default

    return ToleranceConfig(
        rank_rtol=pick(args.rank_rtol, "GINV_RANK_RTOL", DEFAULT_TOL.rank_rtol),
        eq_rtol=pick(args.eq_rtol, "GINV_EQ_RTOL", DEFAULT_TOL.eq_rtol),
    )


def _cmd_inverse(args: argparse.Namespace, tol: ToleranceConfig) -> int:
    a = load_matrix(args.input)
    if args.route is not None and args.kind != "wg":
        print("error: --route applies only to the wg inverse", file=sys.stderr)
        return EXIT_PARSE
    if args.kind == "wg":
        route = WGRoute(args.route) if args.route else WGRoute.BLOCK_FORM
        result = wg_inverse(a, tol, route)
    else:
        result = _INVERSE_OPS[args.kind](a, tol)

    if args.json:
        report = {
            "kind": args.kind,
            "route": result.route,
            "index": result.index,
            "value": result.value,
            "residuals": result.residuals,
            "warnings": result.warnings,
        }
        _print_json(report, tol)
        return EXIT_OK

    sys.stdout.write(format_matrix(result.value))
    print(f"# kind: {args.kind}   route: {result.route}   index: {result.index}", file=sys.stderr)
    print("# residuals (relative Frobenius):", file=sys.stderr)
    for label, value in result.residuals.items():
        print(f"#   {label:<16} {value:.3e}", file=sys.stderr)
    for warning in result.warnings:
        print(f"# warning: {warning}", file=sys.stderr)
    return EXIT_OK


def _cmd_order(args: argparse.Namespace, tol: ToleranceConfig) -> int:
    a = load_matrix(args.input_a)
    b = load_matrix(args.input_b)
    verdict = _ORDER_OPS[args.kind](a, b, tol)
    if args.json:
        _print_json(_verdict_report(verdict), tol)
    else:
        print(f"{verdict.order_name} order: {'holds' if verdict.holds else 'does not hold'}")
        _print_verdict_text(verdict)
    return EXIT_OK if verdict.holds else EXIT_ORDER_FAILS


def _print_block(name: str, a: np.ndarray) -> None:
    print(f"{name} =")
    body = format_matrix(a) if a.size else f"{a.shape[0]} {a.shape[1]}\n"
    for line in body.rstrip("\n").splitlines():
        print(f"  {line}")


def _decomposition(kind: str, a: np.ndarray, tol: ToleranceConfig) -> tuple[dict, list[str], tuple[str, ...]]:
    """The ``--json`` report of one decomposition, the header lines of its
    text and the names of the report's blocks the text prints."""
    if kind == "index":
        idx = index(a, tol)
        seq = " ".join(str(r) for r in idx.rank_sequence)
        report = {"index": idx.index, "rank_sequence": idx.rank_sequence}
        return report, [f"index = {idx.index}", f"rank sequence = {seq}"], ()
    if kind == "core-ep":
        parts = core_ep_decompose(a, tol)
        recon = residual(parts.A1 + parts.A2, a)
        blocks = ("T", "S", "N", "A1", "A2")
        report = {"index": parts.k, "rank_ak": parts.r, "U": parts.U, "reconstruction_residual": recon}
        report.update((name, getattr(parts, name)) for name in blocks)
        header = [f"index = {parts.k}   rank(A^k) = {parts.r}", f"reconstruction residual = {recon:.3e}"]
        return report, header, blocks
    if kind == "core-nilpotent":
        cn = core_nilpotent_decompose(a, tol)
        recon = residual(cn.C + cn.Nil, a)
        nilres = residual(np.linalg.matrix_power(cn.Nil, cn.k), np.zeros_like(a))
        report = {"index": cn.k, "C": cn.C, "Nil": cn.Nil}
        report.update(reconstruction_residual=recon, nilpotency_residual=nilres)
        header = [
            f"index = {cn.k}",
            f"reconstruction residual = {recon:.3e}",
            f"nilpotency residual = {nilres:.3e}",
        ]
        return report, header, ("C", "Nil")
    hs = hs_decompose(a, tol)
    recon_block = np.block([[hs.SigmaK, hs.SigmaL], [np.zeros((a.shape[0] - hs.r, a.shape[0]))]])
    recon = residual(hs.U @ recon_block @ hs.U.conj().T, a)
    kkll = residual(hs.K @ hs.K.conj().T + hs.L @ hs.L.conj().T, np.eye(hs.r, dtype=complex))
    blocks = ("Sigma", "K", "L", "SigmaK", "SigmaL")
    report = {"rank": hs.r, "U": hs.U, "reconstruction_residual": recon, "kkstar_llstar_residual": kkll}
    report.update((name, getattr(hs, name)) for name in blocks)
    header = [f"rank = {hs.r}", f"reconstruction residual = {recon:.3e}", f"KK* + LL* = I residual = {kkll:.3e}"]
    return report, header, blocks


def _cmd_decompose(args: argparse.Namespace, tol: ToleranceConfig) -> int:
    report, header, blocks = _decomposition(args.kind, load_matrix(args.input), tol)
    if args.json:
        _print_json({"kind": args.kind, **report}, tol)
        return EXIT_OK
    print("\n".join(header))
    for name in blocks:
        _print_block(name, report[name])
    return EXIT_OK


def _cmd_suite(args: argparse.Namespace, tol: ToleranceConfig) -> int:
    from .oracle import run_suite  # the oracle loads only for this command

    report = run_suite(args.name, count=args.count, seed=args.seed, tol=tol)
    if args.json:
        _print_json(
            {
                "suite": report.suite,
                "cases_run": report.cases_run,
                "cases_passed": report.cases_passed,
                "failures": [dataclasses.asdict(f) for f in report.failures],
            },
            tol,
        )
    else:
        print(f"suite {report.suite}: passed {report.cases_passed}/{report.cases_run} cases")
        for f in report.failures:
            print(f"FAIL {f.case_id} {f.property_id}: {f.detail}")
    return EXIT_OK if report.all_passed else EXIT_ORDER_FAILS


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rank-rtol", type=float, default=None, help="relative rank cutoff")
    common.add_argument("--eq-rtol", type=float, default=None, help="relative equality tolerance")
    common.add_argument("--json", action="store_true", help="emit a structured JSON report")

    parser = argparse.ArgumentParser(
        prog="ginv",
        description="Generalized inverses, decompositions, and matrix order tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("inverse", parents=[common], help="compute a generalized inverse")
    p_inv.add_argument("kind", choices=sorted(_INVERSE_OPS))
    p_inv.add_argument("input", help="matrix file")
    p_inv.add_argument(
        "--route",
        choices=[r.value for r in WGRoute],
        default=None,
        help="formula for the wg inverse (default block-form)",
    )
    p_inv.set_defaults(func=_cmd_inverse)

    p_ord = sub.add_parser("order", parents=[common], help="test a matrix order")
    p_ord.add_argument("kind", choices=sorted(_ORDER_OPS))
    p_ord.add_argument("input_a", help="matrix file for the smaller candidate")
    p_ord.add_argument("input_b", help="matrix file for the larger candidate")
    p_ord.set_defaults(func=_cmd_order)

    p_dec = sub.add_parser("decompose", parents=[common], help="run a decomposition")
    p_dec.add_argument("kind", choices=["core-ep", "core-nilpotent", "hs", "index"])
    p_dec.add_argument("input", help="matrix file")
    p_dec.set_defaults(func=_cmd_decompose)

    p_suite = sub.add_parser("suite", parents=[common], help="run a verification suite")
    p_suite.add_argument("name", help="suite id (see ginv.oracle.SUITE_NAMES)")
    p_suite.add_argument("--count", type=int, default=50, help="number of random cases")
    p_suite.add_argument("--seed", type=int, default=0, help="suite master seed")
    p_suite.set_defaults(func=_cmd_suite)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tol = _resolve_tol(args)
        return args.func(args, tol)
    except (MatrixParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    # LinAlgError is a ValueError, so it must be caught before the
    # precondition branch; every GinvError of the numerical kind is an
    # ArithmeticError, as are overflow and division by zero
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (GinvError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entrypoint() -> None:
    if hasattr(signal, "SIGPIPE"):
        # a reader that stops early (``| head``) ends the process silently
        # instead of turning the broken pipe into an error exit
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
