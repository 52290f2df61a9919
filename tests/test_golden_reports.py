"""Byte-exact pins of failing and skipped reports, in JSON and text.

The benchmark digests cover passing reports only; these cases pin the
counterexample, ratio and skip records.  The expected bytes live in
tests/golden/<case>.json and tests/golden/<case>.txt; to re-record them
after an intended report change, run this file as a script.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import pytest

from qweyl import cli, weylops
from qweyl.uqrealize import Realization, build_realization, verify_serre
from qweyl.weylops import Operator, compose, verify_weyl_relations

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _cli(argv):
    def run(fmt):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([*argv, "--format", fmt])
        return f"exit {code}\n{buf.getvalue()}"
    return run


def _report(build):
    def run(fmt):
        rep = build()
        if fmt == "json":
            return json.dumps(rep.to_json()) + "\n"
        return rep.render_text() + "\n"
    return run


def _serre_stripped_corner():
    # criterion 11(c): the raising corner word without its Theta factors
    r = build_realization(2)
    stripped = Operator(2, {tuple(g for g in w if g.kind != "T"): c
                            for w, c in r.e[1].terms.items()})
    broken = Realization(2, (r.e[0], stripped), r.f, r.K, r.K_inv)
    return verify_serre(2, 4, realization=broken)


def _serre_swapped_f():
    # R2 passes its e part and fails its second (f) part
    r = build_realization(2)
    swapped = Realization(2, r.e, (r.f[1], r.f[0]), r.K, r.K_inv)
    return verify_serre(2, 3, realization=swapped)


def _serre_squared_k():
    # R3:i=1,j=1 leaves a remainder after dividing by q - q^-1
    r = build_realization(2)
    squared = Realization(2, r.e, r.f, (compose(r.K[0], r.K[0]), r.K[1]),
                          r.K_inv)
    return verify_serre(2, 3, realization=squared)


def _weyl_bad_rewrite():
    # criterion 11(a): drop the sigma term of d_i x_i
    orig = weylops._rewrite_pair

    def bad_rewrite(a, b):
        out = orig(a, b)
        if a.kind == "D" and b.kind == "X" and a.i == b.i:
            return out[:1]
        return out

    weylops._rewrite_pair = bad_rewrite
    try:
        return verify_weyl_relations(1, 3)
    finally:
        weylops._rewrite_pair = orig


CASES = {
    "theorem33_bad_word": _cli(["verify", "theorem33", "--n", "2",
                                "--word", "2,1,2", "--degree", "3"]),
    "serre_stripped_corner": _report(_serre_stripped_corner),
    "serre_swapped_f": _report(_serre_swapped_f),
    "serre_squared_K": _report(_serre_squared_k),
    "weyl_bad_rewrite": _report(_weyl_bad_rewrite),
    "all_rank_one": _cli(["verify", "all", "--n", "1", "--degree", "2"]),
}
_EXT = {"json": "json", "text": "txt"}


def _path(case, fmt):
    return os.path.join(GOLDEN, f"{case}.{_EXT[fmt]}")


@pytest.mark.parametrize("fmt", sorted(_EXT))
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes(case, fmt):
    with open(_path(case, fmt), encoding="utf-8") as fh:
        expected = fh.read()
    assert CASES[case](fmt) == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for case, run in CASES.items():
        for fmt in _EXT:
            with open(_path(case, fmt), "w", encoding="utf-8") as fh:
                fh.write(run(fmt))
