"""Command-line front end: relation suites, one-shot evaluation,
normalization and root-vector construction.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage or
config error.  Reports are deterministic byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from math import comb

from .aqn import Element, monomials_up_to
from .errors import InvalidArgs, QweylError
from .exprparse import parse_element, parse_operator
from .report import RelationResult, VerificationReport
from .rootvec import (_Twist, braid_relation_check, default_braid_word,
                      lemma34_check, positive_roots_in_convex_order,
                      prop32_check, theorem33_check)
from .uqrealize import (_oracle_monomials, build_realization,
                        classical_degeneration_check, lemma21_check, root_op,
                        verify_gl, verify_serre)
from .weylops import (apply, decide, normalize, op_eq_up_to_degree,
                      verify_weyl_relations)

# The relation suites in report order: name -> (least n, runner(args)).
# "verify all" skips a suite whose least n exceeds --n.
SUITES = {
    "weyl": (1, lambda a: verify_weyl_relations(a.n, a.degree)),
    "serre": (1, lambda a: verify_serre(a.n, a.degree)),
    "gl": (2, lambda a: verify_gl(a.n, a.degree)),
    "prop32": (2, lambda a: prop32_check(a.n, a.degree)),
    "braid": (2, lambda a: braid_relation_check(a.n, a.degree)),
    "lemma34": (2, lambda a: lemma34_check(a.n, a.degree)),
    "theorem33": (1, lambda a: theorem33_check(a.n, a.degree, word=a.word)),
    "lemma21": (1, lambda a: lemma21_check(a.n, max_degree=a.degree)),
    "classical": (1, lambda a: classical_degeneration_check(a.n, a.degree)),
}


def _check_args(args) -> None:
    """Validate the parsed arguments in place.  --word becomes an int tuple;
    rootvec and the theorem33 and all suites read it, other suites refuse it."""
    if args.n < 1:
        raise InvalidArgs("n must be >= 1")
    if args.degree < 0:
        raise InvalidArgs("degree must be >= 0")
    if args.threads < 1:
        raise InvalidArgs("threads must be >= 1")
    cap = os.environ.get("QWEYL_THREADS")
    if cap is not None:
        try:
            int(cap)
        except ValueError:
            raise InvalidArgs(f"QWEYL_THREADS must be an integer, got {cap!r}")
    word = getattr(args, "word", None)
    if word:
        try:
            word = tuple(int(x) for x in word.split(","))
        except ValueError:
            raise InvalidArgs("--word must be a comma-separated integer list")
        if getattr(args, "suite", "all") not in ("theorem33", "all"):
            raise InvalidArgs(f"--word is not used by the {args.suite} suite")
    args.word = word or None


def _emit(args, text: str) -> None:
    sys.stdout.write(text + "\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _cmd_verify(args) -> int:
    if args.suite == "all":
        _oracle_monomials("lemma21", args.n, args.degree)  # before any suite runs
        reports = []
        for name, (min_n, runner) in SUITES.items():
            if args.n < min_n:
                skipped = VerificationReport(name, args.n, args.degree)
                skipped.add(RelationResult(f"suite:{name}", "skipped",
                                           {"reason": f"requires n >= {min_n}"}))
                reports.append(skipped)
            else:
                reports.append(runner(args))
    else:
        reports = [SUITES[args.suite][1](args)]
    failed = sum(r.failed for r in reports)
    if args.format == "json":
        if len(reports) == 1:
            payload = reports[0].to_json()
        else:
            payload = {"check": "all", "n": args.n, "degree": args.degree,
                       "suites": [r.to_json() for r in reports],
                       "failed": failed}
        _emit(args, json.dumps(payload))
    else:
        blocks = [r.render_text() for r in reports]
        blocks.append(f"RESULT: {'PASS' if failed == 0 else 'FAIL'}"
                      f" ({failed} failed)")
        _emit(args, "\n".join(blocks))
    return 0 if failed == 0 else 1


def _cmd_act(args) -> int:
    op = parse_operator(args.op, args.n)
    elem = parse_element(args.on, args.n)
    result = apply(op, elem)
    if args.format == "json":
        _emit(args, json.dumps(result.to_json()))
    else:
        _emit(args, f"{result}\n" + json.dumps(result.to_json()))
    return 0


# normalize --check applies every word of the operator and of its normal
# form to every monomial of degree <= --degree, at about 10 us per word
# application; above this many it is refused instead of left to run for minutes.
NORMALIZE_CHECK_CAP = 200000


def _cmd_normalize(args) -> int:
    op = parse_operator(args.op, args.n)
    nf = normalize(op)
    if args.check:
        monomials = comb(args.n + args.degree, args.n)
        words = len(op.terms) + len(nf.terms)
        if monomials * words > NORMALIZE_CHECK_CAP:
            raise InvalidArgs(
                f"normalize --check at n={args.n}, degree {args.degree} applies "
                f"{monomials * words} words ({words} words on each of {monomials} "
                f"monomials), above the cap of {NORMALIZE_CHECK_CAP}")
    lines = []
    if args.format == "json":
        lines.append(json.dumps(nf.to_json()))
    else:
        lines.append(str(nf))
        lines.append(json.dumps(nf.to_json()))
    code = 0
    if args.check:
        res = op_eq_up_to_degree(op, nf, args.degree)
        if res.equal:
            lines.append(f"check: action equality up to degree {args.degree} confirmed")
        else:
            lines.append(f"check FAILED at beta={list(res.beta)}")
            code = 1
    _emit(args, "\n".join(lines))
    return code


def _cmd_rootvec(args) -> int:
    i, j, n = args.i, args.j, args.n
    if i == j or not (1 <= i <= n + 1 and 1 <= j <= n + 1):
        raise InvalidArgs(f"need distinct indices in 1..{n + 1}, got i={i}, j={j}")
    word = args.word or default_braid_word(n)
    roots = positive_roots_in_convex_order(word, n)
    key = (i, j) if i < j else (j, i)
    if key not in roots:
        raise InvalidArgs(f"root {key} not produced by the braid word {list(word)}")
    p = roots.index(key) + 1
    sign = "+" if i < j else "-"
    op = root_op(i, j, n)
    nf = normalize(op)
    side = _Twist(build_realization(n), word).root_vector(p, sign)
    expr = side.expansion()
    agreement = decide(VerificationReport("rootvec", n, args.degree), "agreement",
                       side, op).equal
    table = []
    for beta in monomials_up_to(n, min(args.degree, 3)):
        value = apply(op, Element.monomial(beta))
        table.append((beta, value))
    if args.format == "json":
        payload = {
            "n": n, "i": i, "j": j, "degree": args.degree,
            "word": list(word),
            "root_op": op.to_json(),
            "normal_form": nf.to_json(),
            "braid_expr": expr.to_json(),
            "table": [{"beta": b.to_json(), "value": v.to_json()}
                      for b, v in table],
            "agreement": agreement,
        }
        _emit(args, json.dumps(payload))
    else:
        lines = [
            f"root operator ({i},{j}) at n={n}:",
            f"  word form:   {op}",
            f"  normal form: {nf}",
            f"  braid form:  {expr} (prefix {p} of word {list(word)})",
            "  action table:",
        ]
        for b, v in table:
            lines.append(f"    {Element.monomial(b)} -> {v}")
        lines.append(f"  agreement up to degree {args.degree}: "
                     f"{'pass' if agreement else 'FAIL'}")
        _emit(args, "\n".join(lines))
    return 0 if agreement else 1


@lru_cache(maxsize=None)
def _make_parser() -> argparse.ArgumentParser:
    # Built on the first main call and reused: parse_args keeps no state
    # between calls, and _check_args reads the environment each time.
    parser = argparse.ArgumentParser(
        prog="qweyl",
        description="Exact checks for quantum differential operators on the "
                    "quantum divided power algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=2, help="number of variables")
        p.add_argument("--degree", type=int, default=6,
                       help="degree bound for action sweeps")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", help="also write the report to this file")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for CI compatibility; sweeps run in one "
                            "thread")

    p = sub.add_parser("verify", help="run a relation suite")
    p.add_argument("suite", choices=(*SUITES, "all"))
    common(p)
    p.add_argument("--word", help="comma-separated reduced braid word")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("act", help="apply an operator expression to an element")
    common(p)
    p.add_argument("--op", required=True, help="operator expression")
    p.add_argument("--on", required=True, help="element expression")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("normalize", help="rewrite an operator to normal form")
    common(p)
    p.add_argument("--op", required=True, help="operator expression")
    p.add_argument("--check", action="store_true",
                   help="re-verify action equality up to the degree bound")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("rootvec", help="compare a root operator with its "
                                       "braid-built form")
    common(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--word", help="comma-separated reduced braid word")
    p.set_defaults(func=_cmd_rootvec)
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_args(args)
        return args.func(args)
    except QweylError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
