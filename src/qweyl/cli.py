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
from dataclasses import dataclass

from .aqn import Element, monomials_up_to
from .errors import QweylError
from .exprparse import (format_element, format_formal, format_operator,
                        parse_element, parse_operator)
from .report import RelationResult, VerificationReport
from .rootvec import (_Twist, braid_relation_check, braid_root_vector,
                      default_braid_word, lemma34_check,
                      positive_roots_in_convex_order, prop32_check,
                      root_op, theorem33_check)
from .uqrealize import (build_realization, classical_degeneration_check,
                        lemma21_check, verify_gl, verify_serre)
from .weylops import (apply, normalize, op_eq_up_to_degree, sweep_actions,
                      verify_weyl_relations)

# The relation suites in report order: name -> (least n, runner(cfg)).
# "verify all" skips a suite whose least n exceeds --n.
SUITES = {
    "weyl": (1, lambda c: verify_weyl_relations(c.n, c.degree)),
    "serre": (1, lambda c: verify_serre(c.n, c.degree)),
    "gl": (2, lambda c: verify_gl(c.n, c.degree)),
    "prop32": (2, lambda c: prop32_check(c.n, c.degree)),
    "braid": (2, lambda c: braid_relation_check(c.n, c.degree)),
    "lemma34": (2, lambda c: lemma34_check(c.n, c.degree)),
    "theorem33": (1, lambda c: theorem33_check(c.n, c.degree, word=c.word)),
    "lemma21": (1, lambda c: lemma21_check(c.n, max_degree=c.degree)),
    "classical": (1, lambda c: classical_degeneration_check(c.n, c.degree)),
}


@dataclass
class CliConfig:
    n: int = 2
    degree: int = 6
    fmt: str = "text"
    out: str | None = None
    word: tuple[int, ...] | None = None


class _ConfigError(Exception):
    pass


def _build_config(args) -> CliConfig:
    if args.n < 1:
        raise _ConfigError("n must be >= 1")
    degree = getattr(args, "degree", 6)
    if degree < 0:
        raise _ConfigError("degree must be >= 0")
    if getattr(args, "threads", 1) < 1:
        raise _ConfigError("threads must be >= 1")
    cap = os.environ.get("QWEYL_THREADS")
    if cap is not None:
        try:
            int(cap)
        except ValueError:
            raise _ConfigError(f"QWEYL_THREADS must be an integer, got {cap!r}")
    word = None
    if getattr(args, "word", None):
        try:
            word = tuple(int(x) for x in args.word.split(","))
        except ValueError:
            raise _ConfigError("--word must be a comma-separated integer list")
    return CliConfig(n=args.n, degree=degree, fmt=args.format,
                     out=getattr(args, "out", None), word=word)


def _emit(cfg: CliConfig, text: str) -> None:
    sys.stdout.write(text + "\n")
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _cmd_verify(args) -> int:
    cfg = _build_config(args)
    if args.suite == "all":
        reports = []
        for name, (min_n, runner) in SUITES.items():
            if cfg.n < min_n:
                skipped = VerificationReport(name, cfg.n, cfg.degree)
                skipped.add(RelationResult(f"suite:{name}", "skipped",
                                           {"reason": f"requires n >= {min_n}"}))
                reports.append(skipped)
            else:
                reports.append(runner(cfg))
    else:
        reports = [SUITES[args.suite][1](cfg)]
    failed = sum(r.failed for r in reports)
    if cfg.fmt == "json":
        if len(reports) == 1:
            payload = reports[0].to_json()
        else:
            payload = {"check": "all", "n": cfg.n, "degree": cfg.degree,
                       "suites": [r.to_json() for r in reports],
                       "failed": failed}
        _emit(cfg, json.dumps(payload))
    else:
        blocks = [r.render_text() for r in reports]
        blocks.append(f"RESULT: {'PASS' if failed == 0 else 'FAIL'}"
                      f" ({failed} failed)")
        _emit(cfg, "\n".join(blocks))
    return 0 if failed == 0 else 1


def _cmd_act(args) -> int:
    cfg = _build_config(args)
    op = parse_operator(args.op, cfg.n)
    elem = parse_element(args.on, cfg.n)
    result = apply(op, elem)
    if cfg.fmt == "json":
        _emit(cfg, json.dumps(result.to_json()))
    else:
        _emit(cfg, format_element(result) + "\n" + json.dumps(result.to_json()))
    return 0


def _cmd_normalize(args) -> int:
    cfg = _build_config(args)
    op = parse_operator(args.op, cfg.n)
    nf = normalize(op)
    lines = []
    if cfg.fmt == "json":
        lines.append(json.dumps(nf.to_json()))
    else:
        lines.append(format_operator(nf))
        lines.append(json.dumps(nf.to_json()))
    code = 0
    if args.check:
        res = op_eq_up_to_degree(op, nf, cfg.degree)
        if res.equal:
            lines.append(f"check: action equality up to degree {cfg.degree} confirmed")
        else:
            lines.append(f"check FAILED at beta={list(res.beta.entries)}")
            code = 1
    _emit(cfg, "\n".join(lines))
    return code


def _cmd_rootvec(args) -> int:
    cfg = _build_config(args)
    i, j, n = args.i, args.j, cfg.n
    if i == j or not (1 <= i <= n + 1 and 1 <= j <= n + 1):
        raise _ConfigError(f"need distinct indices in 1..{n + 1}, got i={i}, j={j}")
    word = cfg.word if cfg.word is not None else default_braid_word(n)
    roots = positive_roots_in_convex_order(word, n)
    key = (i, j) if i < j else (j, i)
    if key not in roots:
        raise _ConfigError(f"root {key} not produced by the braid word {list(word)}")
    p = roots.index(key) + 1
    sign = "+" if i < j else "-"
    op = root_op(i, j, n)
    nf = normalize(op)
    expr = braid_root_vector(p, word, sign, n)
    twist = _Twist(build_realization(n), word)
    agreement = sweep_actions(twist.root_vector(p, sign),
                              lambda m: apply(op, m), n, cfg.degree)
    table = []
    for beta in monomials_up_to(n, min(cfg.degree, 3)):
        value = apply(op, Element.monomial(beta))
        table.append((beta, value))
    if cfg.fmt == "json":
        payload = {
            "n": n, "i": i, "j": j, "degree": cfg.degree,
            "word": list(word),
            "root_op": op.to_json(),
            "normal_form": nf.to_json(),
            "braid_expr": expr.to_json(),
            "table": [{"beta": b.to_json(), "value": v.to_json()}
                      for b, v in table],
            "agreement": bool(agreement.equal),
        }
        _emit(cfg, json.dumps(payload))
    else:
        lines = [
            f"root operator ({i},{j}) at n={n}:",
            f"  word form:   {format_operator(op)}",
            f"  normal form: {format_operator(nf)}",
            f"  braid form:  {format_formal(expr)} (prefix {p} of word {list(word)})",
            "  action table:",
        ]
        for b, v in table:
            mono = "x^(" + ",".join(str(x) for x in b.entries) + ")"
            lines.append(f"    {mono} -> {format_element(v)}")
        lines.append(f"  agreement up to degree {cfg.degree}: "
                     f"{'pass' if agreement.equal else 'FAIL'}")
        _emit(cfg, "\n".join(lines))
    return 0 if agreement.equal else 1


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qweyl",
        description="Exact checks for quantum differential operators on the "
                    "quantum divided power algebra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degree_default=6):
        p.add_argument("--n", type=int, default=2, help="number of variables")
        p.add_argument("--degree", type=int, default=degree_default,
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
        return args.func(args)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QweylError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
