"""Command-line surface.

Subcommands::

    weylharm normal-order "a1*c1" --d 1
    weylharm order "z1*zb1" --q 1/2
    weylharm unorder "c1*a1 + 1" --q 0
    weylharm decompose "c1^2*a1^2" --q 1/2
    weylharm omega --d 1 --q 1/2 --kmax 6
    weylharm eta --d 2 --q 1/4 --k 3
    weylharm verify <suite> [--d D] [--q Q] [--deg N] [--kmax K] [--tol X]
                            [--seed S] [--quick] [--json]

Generators are spelled a1..ad (annihilation) and c1..cd (creation);
polynomial variables z1..zd and zb1..zbd.  --q takes an exact rational
string such as 1/2.  All randomized suites record their seed in the
report and default to seed 0, so identical invocations produce identical
output.  Exit status is 0 on success, 1 when a verification case fails,
2 on bad input, which includes a flag that is not spelled in full, and
141 (128 + SIGPIPE) with nothing on stderr when the reader closes
standard output early, as ``| head`` does.

A process enters through `run`, which freezes the collector on its way
out; `main` has no process-wide effect.  A call builds only the rendering
it prints, and imports ``json`` and `weylharm.expr` only where it uses them.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from fractions import Fraction

from .ordering import OrderingContext, order_q, unorder_q
from .poly import CPolynomial
from .radial import RadialContext, decompose_weyl, eta, omega_table

EXIT_CLOSED_PIPE = 141  # what a shell reports for a process SIGPIPE ended
SUITES = ("sl2", "intertwine", "radial", "harmonics", "hahn",
          "orthogonality", "genfun", "all")


def _fraction(text: str) -> Fraction:
    if "." in text:
        raise argparse.ArgumentTypeError(
            f"decimals are not exact; write a rational like 1/2, got {text!r}"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are one ``prog: error: msg`` line with
    exit status 2, like every other bad input.  `add_subparsers` makes the
    subcommand parsers of the same class."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weylharm",
        description="Exact q-ordered Weyl algebra kernel and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help_text):
        # No prefix matching: "--k" must not be read as "--kmax".
        return sub.add_parser(name, help=help_text, allow_abbrev=False)

    def add_common(p, expr=False, need_q=False, k=False, kmax=False):
        if expr:
            p.add_argument("expression")
        p.add_argument("--d", type=int, default=None if expr else 1,
                       help="mode count (inferred from indices when omitted)")
        if need_q:
            p.add_argument("--q", type=_fraction, required=True,
                           help="exact rational ordering parameter, e.g. 1/2")
        if k:
            p.add_argument("--k", type=int, required=True)
        if kmax:
            p.add_argument("--kmax", type=int, default=8)
        p.add_argument("--json", action="store_true", help="emit JSON")

    add_common(add_parser("normal-order", "normal form of a Weyl expression"),
               expr=True)
    add_common(add_parser("order", "apply the ordering map to a polynomial"),
               expr=True, need_q=True)
    add_common(add_parser("unorder", "invert the ordering map"),
               expr=True, need_q=True)
    add_common(add_parser("decompose",
                          "radial-times-harmonic decomposition of a Weyl expression"),
               expr=True, need_q=True)
    add_common(add_parser("omega", "table of the radial polynomials"),
               need_q=True, kmax=True)
    add_common(add_parser("eta", "a radial basis element of the Weyl algebra"),
               need_q=True, k=True)

    vp = add_parser("verify", "run a verification suite")
    vp.add_argument("suite", choices=SUITES)
    vp.add_argument("--d", type=int, default=None,
                    help="mode count; hahn sweeps d = 1..D "
                         "(default 4 for hahn, 2 otherwise)")
    vp.add_argument("--q", type=_fraction, default=Fraction(1, 2))
    vp.add_argument("--deg", type=int, default=4)
    vp.add_argument("--kmax", type=int, default=None,
                    help="top degree (default 4 for harmonics, 8 otherwise)")
    vp.add_argument("--count", type=int, default=20)
    vp.add_argument("--tol", type=float, default=1e-8)
    vp.add_argument("--order", type=int, default=10)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--quick", action="store_true")
    vp.add_argument("--json", action="store_true")
    return parser


def _print(as_json: bool, payload, text) -> None:
    """Print ``payload()`` as JSON or ``text()``; only that one is called.

    Everything is computed before this point, so a ValueError while
    rendering is the interpreter refusing to write an int of more digits
    than `sys.get_int_max_str_digits` allows; it becomes bad input in the
    package's words, and nothing is printed."""
    try:
        if as_json:
            import json

            out = json.dumps(payload(), sort_keys=True)
        else:
            out = text()
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if not limit:
            raise
        raise ValueError(f"the result has a coefficient of more than {limit} digits, "
                         "too long to print") from None
    print(out)


def _report_text(report: dict) -> str:
    width = max((len(c["id"]) for c in report["cases"]), default=10)
    lines = [f"suite {report['suite']}  params {report['params']}  seed {report['seed']}"]
    for case in report["cases"]:
        detail = f"  {case['detail']}" if case["detail"] else ""
        lines.append(f"  [{case['status']}] {case['id']:<{width}}{detail}")
    if "table" in report:
        lines.append("  k : coefficients (ascending degree)")
        lines += [f"  {row['k']:>2} : {', '.join(row['coeffs'])}"
                  for row in report["table"]]
    return "\n".join(lines)


def _text(x) -> str:
    """The printed form of a polynomial or a Weyl element."""
    from . import expr

    return (expr.format_cpoly if isinstance(x, CPolynomial) else expr.format_weyl)(x)


def main(argv=None) -> int:
    """Run one command.  Exit status: 0 pass, 1 a verification case
    failed, 2 bad input, usage errors included (one line on stderr),
    EXIT_CLOSED_PIPE when the reader closed standard output early."""
    parser = build_parser()
    # Bad input surfaces as ValueError or IndexError: ParseError,
    # MixedContextError, ModeMismatchError and InvalidParameterError subclass
    # ValueError, and context and mode-index validation raise one or the other.
    try:
        try:
            return _dispatch(parser.parse_args(argv))
        finally:
            # so that a closed pipe shows here, not at exit, also after the
            # SystemExit that follows --help
            sys.stdout.flush()
    except (ValueError, IndexError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # what is still buffered goes nowhere, so the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE


def run() -> int:
    """The process entry point: `main` on ``sys.argv``, then, on every way
    out (a returned status, or argparse's SystemExit, ``--help`` included),
    freeze the collector.  Everything the imports built lives until the
    process ends, and frozen objects are left out of the full collections
    the interpreter runs at shutdown, which otherwise traverse every one."""
    try:
        return main()
    finally:
        gc.freeze()


def _dispatch(args) -> int:
    if args.command == "verify":
        # the battery is imported here only, so the exact verbs never load it
        from .verify import report_failed

        reports = _run_suite(args)
        for report in reports:
            _print(args.json, lambda: report, lambda: _report_text(report))
        return 1 if any(map(report_failed, reports)) else 0

    if args.command == "omega":
        table = omega_table(args.d, args.q, args.kmax)
        _print(args.json, lambda: {"d": args.d, "q": str(args.q), "omegas": table},
               lambda: "\n".join([" k : coefficients (ascending degree)"] + [
                   f"{row['k']:>2} : {', '.join(row['coeffs'])}" for row in table]))
        return 0

    if args.command == "eta":
        x = eta(RadialContext(args.d, args.q), args.k)
    elif args.command == "order":
        from .expr import parse_poly

        p = parse_poly(args.expression, args.d)
        x = order_q(OrderingContext(p.d, args.q), p)
    else:
        from .expr import parse_weyl

        x = parse_weyl(args.expression, args.d)
        if args.command == "unorder":
            x = unorder_q(OrderingContext(x.d, args.q), x)
        elif args.command == "decompose":
            parts = decompose_weyl(RadialContext(x.d, args.q), x)
            _print(args.json,
                   lambda: {"d": x.d, "q": str(args.q), "parts": [
                       {"k": k, "harmonic": h.to_json_dict()} for k, h in parts]},
                   lambda: "\n".join(f"k={k}: {_text(h)}" for k, h in parts) or "0")
            return 0
    _print(args.json, x.to_json_dict, lambda: _text(x))
    return 0


def _run_suite(args) -> list:
    from . import verify as V

    name = args.suite
    kmax = args.kmax
    if kmax is None:
        kmax = 4 if name == "harmonics" else 8
    d = args.d
    if d is None:
        d = 4 if name == "hahn" else 2
    if name == "sl2":
        return [V.suite_sl2(d, args.q, args.deg, args.count, args.seed)]
    if name == "intertwine":
        return [V.suite_intertwine(d, args.q, args.deg, args.count, args.seed)]
    if name == "radial":
        return [V.suite_radial(d, args.q, kmax, args.seed)]
    if name == "harmonics":
        return [V.suite_harmonics(d, k_max=kmax,
                                  count=args.count, deg=args.deg, seed=args.seed)]
    if name == "hahn":
        return [V.suite_hahn(kmax, d_max=d, seed=args.seed)]
    if name == "orthogonality":
        return [V.suite_orthogonality(d, kmax, args.tol, args.seed)]
    if name == "genfun":
        return [V.suite_genfun(args.q, d, args.order, args.tol, args.seed)]
    return V.suite_all(seed=args.seed, quick=args.quick)


if __name__ == "__main__":
    sys.exit(run())
