"""Exact arithmetic in Z[q, q^-1] and the usual q-combinatorics.

LaurentPoly is the coefficient ring for the whole package: monomial
products, operator coefficients and every relation check stay exact.
Coefficients are arbitrary-precision Python ints and the representation
is canonical (zero terms are never stored), so structural equality is
ring equality.  LinComb is the shared base of the sparse combinations
with LaurentPoly coefficients (monomials, operator words, formal words).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidArgs, NotDivisible, RankMismatch


class LaurentPoly:
    """A Laurent polynomial in q with integer coefficients.

    Stored sparsely as ``{exponent: coefficient}``.  Instances are treated
    as immutable: no method mutates ``terms`` after construction, and
    callers must not either (q_binom and q_int hand out cached objects).

    >>> (q_power(1) + q_power(-1)) * (q_power(1) - q_power(-1))
    LaurentPoly('q^2-q^-2')
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {int(k): int(c) for k, c in (terms or {}).items() if c}

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # A constant hashes like the int it equals (the zero polynomial like 0).
        terms = self.terms
        if not terms or (len(terms) == 1 and 0 in terms):
            return hash(terms.get(0, 0))
        return hash(frozenset(terms.items()))

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _raw({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "LaurentPoly":
        if m < 0:
            if len(self.terms) == 1:
                ((k, c),) = self.terms.items()
                if c in (1, -1):
                    return _raw({k * m: c if m % 2 else 1})
            raise InvalidArgs("negative powers only for unit monomials")
        out = LaurentPoly.one()
        base = self
        e = m
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k (fast exponent shift)."""
        return _raw({e + k: c for e, c in self.terms.items()})

    def bar(self) -> "LaurentPoly":
        """The involution q -> q^-1."""
        return _raw({-k: c for k, c in self.terms.items()})

    def eval_at_one(self) -> int:
        """Specialize q = 1, i.e. sum all coefficients."""
        return sum(self.terms.values())

    def min_exp(self) -> int:
        return min(self.terms)

    def max_exp(self) -> int:
        return max(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                power = "q" if k == 1 else f"q^{k}"
                body = power if mag == 1 else f"{mag}{power}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+" if c > 0 else "-") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"

    def to_json(self) -> dict:
        """JSON form: exponent-string -> coefficient, highest exponent first."""
        return {str(k): self.terms[k] for k in sorted(self.terms, reverse=True)}

    @staticmethod
    def from_json(obj: dict) -> "LaurentPoly":
        return LaurentPoly({int(k): int(c) for k, c in obj.items()})


def _raw(terms: dict[int, int]) -> LaurentPoly:
    # Internal constructor for already-canonical dicts.
    p = LaurentPoly.__new__(LaurentPoly)
    p.terms = terms
    return p


def _coerce(v) -> LaurentPoly:
    if isinstance(v, LaurentPoly):
        return v
    if isinstance(v, int):
        return LaurentPoly({0: v})
    raise InvalidArgs(f"cannot treat {v!r} as a Laurent polynomial")


def q_power(k: int, coeff: int = 1) -> LaurentPoly:
    """The monomial coeff * q^k."""
    return LaurentPoly({k: coeff})


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient num/den in Z[q, q^-1].

    Long division from the top exponent.  In an integral domain the
    leading (and trailing) term of a product is the product of the
    leading (trailing) terms, so when an exact quotient exists every
    leading integer division succeeds and the quotient's exponents stay
    above min(num) - min(den); crossing that bound proves there is no
    quotient.  Raises NotDivisible otherwise, never rounds.
    """
    num = _coerce(num)
    den = _coerce(den)
    if den.is_zero():
        raise InvalidArgs("division by the zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero()
    lead_exp = den.max_exp()
    lead_coeff = den.terms[lead_exp]
    low_bound = num.min_exp() - den.min_exp()
    rem = dict(num.terms)
    quot: dict[int, int] = {}
    while rem:
        top = max(rem)
        c = rem[top]
        if c % lead_coeff:
            raise NotDivisible(f"{num} is not divisible by {den}")
        qk = top - lead_exp
        if qk < low_bound:
            raise NotDivisible(f"{num} is not divisible by {den}")
        qc = c // lead_coeff
        quot[qk] = qc
        for k, dc in den.terms.items():
            e = qk + k
            s = rem.get(e, 0) - qc * dc
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return _raw(quot)


@lru_cache(maxsize=None)
def q_int(m: int) -> LaurentPoly:
    """The balanced q-integer [m] = (q^m - q^-m)/(q - q^-1).

    [0] = 0, [m] = q^{m-1} + q^{m-3} + ... + q^{1-m}, [-m] = -[m].
    """
    if m < 0:
        return -q_int(-m)
    return _raw({m - 1 - 2 * t: 1 for t in range(m)})


def q_fact(m: int) -> LaurentPoly:
    """The q-factorial [m]! = [m][m-1]...[1], with [0]! = 1."""
    if m < 0:
        raise InvalidArgs("q_fact needs m >= 0")
    out = LaurentPoly.one()
    for t in range(2, m + 1):
        out = out * q_int(t)
    return out


@lru_cache(maxsize=None)
def _binom(a: int, b: int) -> LaurentPoly:
    if b == 0 or b == a:
        return LaurentPoly.one()
    # Pascal recurrence in the balanced convention; avoids big factorials.
    return _binom(a - 1, b).shift(b) + _binom(a - 1, b - 1).shift(b - a)


def q_binom(a: int, b: int) -> LaurentPoly:
    """The Gaussian binomial [a over b], a Laurent polynomial with
    nonnegative integer coefficients equal to [a]!/([b]![a-b]!)."""
    if b < 0 or a < 0 or b > a:
        raise InvalidArgs(f"q_binom needs 0 <= b <= a, got a={a}, b={b}")
    return _binom(a, b)


def accumulate(out: dict, key, coeff) -> None:
    """Add coeff to out[key] in place, dropping the key when the sum is 0."""
    s = out[key] + coeff if key in out else coeff
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _coeff_prefix(c: LaurentPoly) -> tuple[str, str]:
    """Split a coefficient into (sign, printable prefix ending in a space,
    or '' when the coefficient is 1)."""
    if len(c.terms) == 1:
        ((k, v),) = c.terms.items()
        sign = "-" if v < 0 else "+"
        body = str(LaurentPoly({k: abs(v)}))
        return sign, "" if body == "1" else body + " "
    return "+", f"({c}) "


class LinComb:
    """A finite combination of hashable keys with nonzero LaurentPoly
    coefficients, at a fixed rank n; the canonical form makes structural
    equality semantic equality.

    Subclasses validate keys in __init__, define the product __mul__ and
    the key hooks _sort_key, _key_json and _key_from_json: aqn.Element for
    monomials, and weylops.Words for the words of Operator and FormalUq.
    _key_text and _json_field (the key's name in the JSON form) default to
    a word of symbols.
    """

    __slots__ = ("n", "terms", "_sorted")
    _json_field = "word"

    @classmethod
    def _raw(cls, n: int, terms: dict):
        # Internal constructor for already-canonical dicts.
        obj = cls.__new__(cls)
        obj.n = n
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls, n: int):
        return cls._raw(n, {})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other) -> None:
        if self.n != other.n:
            raise RankMismatch(f"rank {self.n} vs {other.n}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(out, key, c)
        return self._raw(self.n, out)

    def __neg__(self):
        return self._raw(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: LaurentPoly | int):
        if isinstance(c, int):
            c = LaurentPoly({0: c})
        if not c:
            return self.zero(self.n)
        return self._raw(self.n, {k: co * c for k, co in self.terms.items()})

    __rmul__ = scale

    def __eq__(self, other) -> bool:
        # Exact types: combinations of different kinds never compare equal.
        return (type(other) is type(self) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def sorted_terms(self) -> tuple:
        """The terms in _sort_key order, sorted once (terms never change):
        a printed combination's __str__ and to_json both read it."""
        if not hasattr(self, "_sorted"):
            key = self._sort_key
            self._sorted = tuple(sorted(self.terms.items(), key=lambda t: key(t[0])))
        return self._sorted

    @staticmethod
    def _key_text(word) -> str:
        return " ".join(map(str, word))

    def __str__(self) -> str:
        """The expression-language text: the terms in order, each a sign, a
        coefficient prefix and _key_text(key), or the bare coefficient when
        the key's text is empty.

        >>> from qweyl.exprparse import parse_operator
        >>> from qweyl.weylops import normalize
        >>> print(normalize(parse_operator("d1 x1", 1)))
        q x1 d1 + s1^-1
        """
        out = []
        for t, (key, c) in enumerate(self.sorted_terms()):
            sign, prefix = _coeff_prefix(c)
            text = self._key_text(key)
            body = prefix + text if text else prefix.strip() or "1"
            if t == 0:
                out.append(body if sign == "+" else "-" + body)
            else:
                out.append((" + " if sign == "+" else " - ") + body)
        return "".join(out) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def to_json(self) -> dict:
        field = self._json_field
        return {
            "n": self.n,
            "terms": [{field: self._key_json(k), "coeff": c.to_json()}
                      for k, c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, obj: dict):
        field = cls._json_field
        terms = {cls._key_from_json(t[field]): LaurentPoly.from_json(t["coeff"])
                 for t in obj["terms"]}
        return cls(int(obj["n"]), terms)
