"""In-memory tracing of qweyl from outside the package.

``Tracer.install`` replaces the public functions of every qweyl module, and
the public and arithmetic methods of its value classes, with timing
wrappers.  A function is replaced in every module namespace that holds it,
so calls made inside qweyl through ``from .x import f`` are caught too;
nothing under ``src/`` is edited.

Every wrapped call is aggregated per key (count, inclusive time, self
time = inclusive minus wrapped children).  The coarse keys in ``SPAN_KEYS``
additionally record one span each (name, start, end, parent span); the hot
leaves (LaurentPoly arithmetic, MultiIndex and Element construction,
apply_generator, ...) are only aggregated, so memory stays bounded.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time

LAYERS = ("qring", "qindex", "aqn", "weylops", "uqrealize", "rootvec",
          "exprparse", "report", "cli")

# Classes whose methods are traced.  Small frozen dataclasses (GenSymbol,
# UqSymbol, AST nodes) are left alone: their generated __eq__/__hash__ run
# on every dict lookup and would be charged to their callers anyway.
_CLASSES = {
    "qring": ("LaurentPoly",),
    "qindex": ("MultiIndex",),
    "aqn": ("Element",),
    "weylops": ("Operator",),
    "rootvec": ("FormalUq",),
    "report": ("VerificationReport", "RelationResult"),
}
_DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__",
            "__neg__", "__mul__", "__rmul__", "__pow__", "__eq__"}
# Private functions traced because they are a public constructor's
# fast path (Element instances built without __init__).
_PRIVATE = {"aqn": ("_raw",)}

# Qualified names folded into one metric key.
_ALIASES = {
    "qring.LaurentPoly.__mul__": "qring.mul",
    "qring.LaurentPoly.__add__": "qring.add",
    "qindex.MultiIndex.__init__": "qindex.multiindex",
    "aqn.Element.__init__": "aqn.element",
    "aqn._raw": "aqn.element",
    "weylops.sweep_actions": "weylops.sweep",
    "exprparse.parse_operator": "exprparse.parse",
    "exprparse.parse_element": "exprparse.parse",
    "exprparse.format_element": "exprparse.format",
    "exprparse.format_operator": "exprparse.format",
    "exprparse.format_formal": "exprparse.format",
    "report.VerificationReport.to_json": "report.render",
    "report.VerificationReport.render_text": "report.render",
    "report.RelationResult.to_json": "report.render",
}

SPAN_KEYS = frozenset((
    "cli.main", "weylops.verify_weyl_relations", "uqrealize.verify_serre",
    "uqrealize.verify_gl", "uqrealize.lemma21_check",
    "uqrealize.classical_degeneration_check", "rootvec.prop32_check",
    "rootvec.braid_relation_check", "rootvec.lemma34_check",
    "rootvec.theorem33_check", "uqrealize.build_realization",
    "rootvec.braid_root_vector", "rootvec.evaluate", "weylops.sweep",
    "weylops.op_eq_up_to_degree", "weylops.action_equals_quotient",
    "weylops.normalize", "exprparse.parse", "exprparse.format"))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Aggregates, spans and exact counts for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.agg: dict[str, list] = {}  # key -> [calls, inclusive_s, self_s]
        self.spans: list[tuple] = []    # (id, parent_id, key, start, end)
        self.counts: dict[str, int] = {}
        self._stack: list[list] = [[0.0, 0]]  # frames: [child_s, span_id]

    # -- counters ---------------------------------------------------------

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, key: str, fn):
        entry = self.agg.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        post = _POST.get(key)
        is_span = key in SPAN_KEYS
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            if is_span:
                span_id = len(spans) + 1
                spans.append(None)  # reserves the id; filled in on exit
                frame = [0.0, span_id]
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
                parent[0] += dur
                if is_span:
                    spans[span_id - 1] = (span_id, parent[1], key, t0, t1)
            if post is not None:
                post(tracer, args, kwargs, result)
                # Counting time is charged to no one's self time.
                parent[0] += clock() - t1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced callable in every qweyl namespace holding it.

        There is no way back: a traced run is a process of its own."""
        modules = {name: importlib.import_module(f"qweyl.{name}")
                   for name in LAYERS}
        wrappers: dict[int, object] = {}

        def wrapper_for(layer, fn):
            if id(fn) not in wrappers:
                qual = f"{layer}.{fn.__qualname__}"
                wrappers[id(fn)] = self._wrap(_ALIASES.get(qual, qual), fn)
            return wrappers[id(fn)]

        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                public = (not name.startswith("_")
                          or name in _PRIVATE.get(layer, ()))
                if (public and callable(obj) and not inspect.isclass(obj)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrapper_for(layer, obj)
            for cls_name in _CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for name, attr in list(vars(cls).items()):
                    if name.startswith("_") and name not in _DUNDERS:
                        continue
                    if isinstance(attr, staticmethod):
                        new = staticmethod(wrapper_for(layer, attr.__func__))
                    elif inspect.isfunction(attr):
                        new = wrapper_for(layer, attr)
                    else:
                        continue
                    setattr(cls, name, new)
        import qweyl
        for mod in (qweyl, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])

    # -- results ----------------------------------------------------------

    def calls(self, key: str) -> int:
        return self.agg.get(key, (0, 0.0, 0.0))[0]

    def inclusive_s(self, key: str) -> float:
        return self.agg.get(key, (0, 0.0, 0.0))[1]

    def self_s(self, key: str) -> float:
        return self.agg.get(key, (0, 0.0, 0.0))[2]

    def layer_self_s(self, layer: str) -> float:
        return sum(v[2] for k, v in self.agg.items()
                   if k.split(".", 1)[0] == layer)

    def write(self, path: str) -> None:
        """Write spans and aggregates as one JSON document."""
        spans = [{"run": self.run_id, "id": s[0], "parent": s[1] or None,
                  "name": s[2], "start": s[3], "end": s[4]}
                 for s in self.spans]
        aggregates = {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.agg.items()) if v[0]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": spans,
                       "aggregates": aggregates, "counts": self.counts}, fh)


# ---------------------------------------------------------------------------
# exact counts, taken from arguments and results after each call


def _poly_result(tracer, args, kwargs, result):
    terms = getattr(result, "terms", None)
    if terms:
        tracer.peak("qring.poly_terms.peak", len(terms))
        tracer.peak("qring.coeff_bits.peak",
                    max(map(abs, terms.values())).bit_length())


def _monomials(tracer, args, kwargs, result):
    n = _arg(args, kwargs, 0, "n")
    degree = _arg(args, kwargs, 1, "max_degree")
    tracer.add("aqn.monomials.returned", len(result))
    tracer.add("aqn.monomials.tuples", (degree + 1) ** n)


def _apply(tracer, args, kwargs, result):
    op = _arg(args, kwargs, 0, "op")
    tracer.add("weylops.word_applications", len(op.terms))
    tracer.add("weylops.letters_passed", sum(len(w) for w in op.terms))


def _sweep(tracer, args, kwargs, result):
    n = _arg(args, kwargs, 2, "n")
    degree = _arg(args, kwargs, 3, "degree")
    if result.equal:
        swept = math.comb(n + degree, n)
    else:  # stopped at the first failing monomial, in lexicographic order
        from qweyl.aqn import monomials_up_to
        swept = monomials_up_to.__wrapped__(n, degree).index(result.beta) + 1
    tracer.add("weylops.sweep.monomials", swept)


def _normalize(tracer, args, kwargs, result):
    tracer.add("weylops.normalize.terms_in",
               len(_arg(args, kwargs, 0, "op").terms))
    tracer.add("weylops.normalize.terms_out", len(result.terms))


def _compose(tracer, args, kwargs, result):
    tracer.add("weylops.compose.terms_out", len(result.terms))


def _apply_formal(tracer, args, kwargs, result):
    tracer.add("rootvec.formal_word_applications",
               len(_arg(args, kwargs, 0, "expr").terms))


def _evaluate(tracer, args, kwargs, result):
    tracer.add("rootvec.evaluate.words_out", len(result.terms))


def _formal_result(tracer, args, kwargs, result):
    tracer.peak("rootvec.formal_terms.peak", len(result.terms))


_POST = {
    "qring.mul": _poly_result,
    "qring.add": _poly_result,
    "qring.exact_div": _poly_result,
    "aqn.monomials_up_to": _monomials,
    "weylops.apply": _apply,
    "weylops.sweep": _sweep,
    "weylops.normalize": _normalize,
    "weylops.compose": _compose,
    "rootvec.apply_formal": _apply_formal,
    "rootvec.evaluate": _evaluate,
    "rootvec.lusztig_T": _formal_result,
    "rootvec.braid_root_vector": _formal_result,
}

# The counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = ("weylops.word_applications", "weylops.sweep.monomials",
                "rootvec.formal_word_applications", "rootvec.formal_terms.peak",
                "qring.poly_terms.peak", "qring.coeff_bits.peak")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, window_s: float, report_bytes: int
                  ) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    ``window_s`` is the traced wall time (set-up and job) the self-time
    shares are taken of.  Layers that did not run report 0.
    """
    t, c = tracer, tracer.counts
    m: dict[str, tuple[float, str]] = {}

    def calls(name, key=None):
        m[name] = (t.calls(key or name.rsplit(".", 1)[0]), "count")

    def self_s(name, key=None):
        m[name] = (t.self_s(key or name.rsplit(".", 1)[0]), "s")

    def incl_s(name, key=None):
        m[name] = (t.inclusive_s(key or name.rsplit(".", 1)[0]), "s")

    def count(name, unit="count"):
        m[name] = (c.get(name, 0), unit)

    for op in ("mul", "add", "exact_div"):
        calls(f"qring.{op}.calls")
        self_s(f"qring.{op}.self_s")
    count("qring.poly_terms.peak")
    count("qring.coeff_bits.peak", "bits")

    calls("qindex.multiindex.created", "qindex.multiindex")
    self_s("qindex.multiindex.self_s")
    calls("qindex.theta_exponent.calls")

    calls("aqn.element.created", "aqn.element")
    self_s("aqn.element.self_s")
    self_s("aqn.monomials_up_to.self_s")
    m["aqn.monomials.yield_ratio"] = (_ratio(
        c.get("aqn.monomials.returned", 0), c.get("aqn.monomials.tuples", 0)),
        "ratio")

    for fn in ("apply_generator", "apply"):
        calls(f"weylops.{fn}.calls")
        self_s(f"weylops.{fn}.self_s")
    count("weylops.word_applications")
    m["weylops.letters_applied_ratio"] = (_ratio(
        t.calls("weylops.apply_generator"), c.get("weylops.letters_passed", 0)),
        "ratio")
    count("weylops.sweep.monomials")
    self_s("weylops.sweep.self_s")
    incl_s("weylops.verify_weyl_relations.s")
    calls("weylops.normalize.calls")
    self_s("weylops.normalize.self_s")
    m["weylops.normalize.terms_ratio"] = (_ratio(
        c.get("weylops.normalize.terms_out", 0),
        c.get("weylops.normalize.terms_in", 0)), "ratio")
    calls("weylops.compose.calls")
    count("weylops.compose.terms_out")

    for fn in ("build_realization", "verify_serre", "verify_gl",
               "lemma21_check", "classical_degeneration_check"):
        incl_s(f"uqrealize.{fn}.s")
    calls("uqrealize.q_euler_eigenvalue.calls")

    calls("rootvec.lusztig_T.calls")
    self_s("rootvec.lusztig_T.self_s")
    incl_s("rootvec.braid_root_vector.s")
    count("rootvec.formal_terms.peak")
    calls("rootvec.apply_formal.calls")
    self_s("rootvec.apply_formal.self_s")
    incl_s("rootvec.apply_formal.s")
    count("rootvec.formal_word_applications")
    self_s("rootvec.evaluate.self_s")
    incl_s("rootvec.evaluate.s")
    count("rootvec.evaluate.words_out")
    for fn in ("theorem33_check", "braid_relation_check", "prop32_check",
               "lemma34_check"):
        incl_s(f"rootvec.{fn}.s")

    calls("exprparse.parse.calls")
    self_s("exprparse.parse.self_s")
    self_s("exprparse.format.self_s")

    self_s("report.render.self_s")
    m["report.bytes"] = (report_bytes, "bytes")

    self_s("cli.main.self_s")

    for layer in LAYERS:
        m[f"{layer}.self_share"] = (_ratio(t.layer_self_s(layer), window_s),
                                    "ratio")
    return m
