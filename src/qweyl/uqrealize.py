"""Chevalley generators and the root operators of every index pair realized
as operator words on the quantum divided power algebra in n variables,
closed-form action oracles, and the relation verifiers for the simple-root
presentation (rank n+1 from n variables: the last raising operator climbs
the degree by one instead of trading it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from .aqn import Element, monomials_up_to
from .errors import InvalidArgs, InvalidIndex, RankMismatch
from .qindex import MultiIndex
from .qring import LaurentPoly, q_int, q_power
from .report import VerificationReport
from .weylops import (D, Operator, S, Side, T, X, at_one, compose, decide,
                      normalize, q_bracket)


def cartan_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """The type-A Cartan matrix of size n (2 on the diagonal, -1 adjacent)."""
    if n < 1:
        raise InvalidArgs("Cartan matrix needs n >= 1")
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
        for i in range(n))


def q_euler_eigenvalue(beta: MultiIndex) -> LaurentPoly:
    """Eigenvalue of the twisted Euler operator sum_k x_k d_k Theta(eps_k):
    sum_k theta(eps_k, beta) [beta_k].  theta(eps_k, beta) = q^(prefix -
    suffix) around beta_k, so the k-th term is q^(2 prefix - |beta| + 2 beta_k
    - 1 - 2t) summed over t < beta_k; the exponents are counted in one dict."""
    degree = sum(beta)
    counts: dict[int, int] = {}
    prefix = 0
    for bk in beta:
        top = 2 * prefix - degree + 2 * bk - 1
        for exp in range(top, top - 2 * bk, -2):
            counts[exp] = counts.get(exp, 0) + 1
        prefix += bk
    return LaurentPoly(counts)


def diagonal_sigma_op(n: int, exponents) -> Operator:
    """The aggregated diagonal word prod_i sigma_i^(w_i)."""
    word = [S(i + 1, w) for i, w in enumerate(exponents) if w]
    return Operator.from_word(n, word)


def corner_raising_op(n: int, s: int) -> Operator:
    """(prod_{k != s} sigma_k^-1) x_s (sum_i x_i d_i Theta(eps_i))."""
    if not 1 <= s <= n:
        raise InvalidArgs(f"index {s} outside 1..{n}")
    prefix = tuple(S(k, -1) for k in range(1, n + 1) if k != s)
    words = [prefix + (X(s), X(i), D(i), T(MultiIndex.unit(n, i)))
             for i in range(1, n + 1)]
    return Operator(n, dict.fromkeys(words, LaurentPoly.one()))


def corner_lowering_op(n: int, s: int) -> Operator:
    """-d_s (prod_{k != s} sigma_k)."""
    if not 1 <= s <= n:
        raise InvalidArgs(f"index {s} outside 1..{n}")
    word = (D(s),) + tuple(S(k, 1) for k in range(1, n + 1) if k != s)
    return Operator.from_word(n, word, -1)


def root_op(i: int, j: int, n: int) -> Operator:
    """The operator realization of the root-vector slot (i, j), indices in
    1..n+1: x_i d_j sigma_i above the diagonal, sigma_j^-1 x_i d_j below,
    and the degree-raising/lowering corner words when one index is n+1."""
    if not (1 <= i <= n + 1 and 1 <= j <= n + 1) or i == j:
        raise InvalidIndex(f"need distinct indices in 1..{n + 1}, got ({i}, {j})")
    if j == n + 1:
        return corner_raising_op(n, i)
    if i == n + 1:
        return corner_lowering_op(n, j)
    if i < j:
        return Operator.from_word(n, [X(i), D(j), S(i, 1)])
    return Operator.from_word(n, [S(j, -1), X(i), D(j)])


def _k_sigma_vector(n: int, j: int) -> tuple[int, ...]:
    # sigma-exponent vector of the j-th Cartan generator
    if j < n:
        return tuple(1 if t == j - 1 else (-1 if t == j else 0) for t in range(n))
    return tuple(2 if t == n - 1 else 1 for t in range(n))


@dataclass(frozen=True)
class Realization:
    """The n-variable operator realization of the rank n+1 Chevalley
    generators: e_i, f_i, K_i^(+-1) for 1 <= i <= n.  realize(s) is the one
    map from a formal letter to its operator, and it reads these fields."""

    n: int
    e: tuple[Operator, ...]
    f: tuple[Operator, ...]
    K: tuple[Operator, ...]
    K_inv: tuple[Operator, ...]
    _letters: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def rank_sl(self) -> int:
        return self.n + 1

    def realize(self, s) -> Operator:
        """E_i -> e_i, F_i -> f_i and K^v -> K_power(v), built once per v."""
        if s.kind == "E":
            return self.e[s.i - 1]
        if s.kind == "F":
            return self.f[s.i - 1]
        op = self._letters.get(s)
        if op is None:
            op = self._letters[s] = self.K_power(s.v)
        return op

    def K_power(self, v) -> Operator:
        """prod_j K_j^(v_j) in normal form: the product of this realization's
        own K[j] (K_inv[j] when v_j < 0), taken |v_j| times each."""
        v = tuple(v)
        if len(v) != self.n:
            raise InvalidArgs(f"K exponent vector of length {len(v)}, rank {self.n}")
        op = Operator.identity(self.n)
        for j, vj in enumerate(v):
            for _ in range(abs(vj)):
                op = compose(op, self.K[j] if vj > 0 else self.K_inv[j])
        return normalize(op)


@lru_cache(maxsize=None)
def build_realization(n: int) -> Realization:
    """Generator words: e_i = root_op(i, i+1), f_i = root_op(i+1, i) and
    K_i = sigma_i sigma_{i+1}^-1 for i < n; the n-th triple raises/lowers the
    total degree via the corner words."""
    if n < 1:
        raise InvalidArgs("n must be >= 1")
    idx = range(1, n + 1)
    e = tuple(root_op(i, i + 1, n) for i in idx)
    f = tuple(root_op(i + 1, i, n) for i in idx)
    K = tuple(diagonal_sigma_op(n, _k_sigma_vector(n, i)) for i in idx)
    K_inv = tuple(diagonal_sigma_op(n, [-x for x in _k_sigma_vector(n, i)])
                  for i in idx)
    return Realization(n, e, f, K, K_inv)


def closed_form_action(kind: str, i: int, beta: MultiIndex) -> Element:
    """The displayed single-monomial action of a generator.

    e_i: [beta_i + 1] x^(beta + eps_i - eps_{i+1}) for i < n, and
    [beta_n + 1] (sum_k theta(eps_k, beta)[beta_k]) x^(beta + eps_n) at i = n;
    f_i: [beta_{i+1} + 1] x^(beta - eps_i + eps_{i+1}), f_n: -x^(beta - eps_n);
    K_i: diagonal with eigenvalue q^(beta_i - beta_{i+1}), K_n: q^(|beta| + beta_n).
    Out-of-lattice shifts give 0.
    """
    n = beta.n
    if not 1 <= i <= n:
        raise InvalidArgs(f"generator index {i} outside 1..{n}")
    if kind == "e":
        if i < n:
            if beta[i] == 0:
                return Element.zero(n)
            return Element.monomial(beta.bump(i, 1).bump(i + 1, -1),
                                    q_int(beta[i - 1] + 1))
        coeff = q_int(beta[n - 1] + 1) * q_euler_eigenvalue(beta)
        return Element.monomial(beta.bump(n, 1), coeff)
    if kind == "f":
        if i < n:
            if beta[i - 1] == 0:
                return Element.zero(n)
            return Element.monomial(beta.bump(i, -1).bump(i + 1, 1), q_int(beta[i] + 1))
        if beta[n - 1] == 0:
            return Element.zero(n)
        return Element.monomial(beta.bump(n, -1), LaurentPoly({0: -1}))
    if kind in ("K", "Kinv"):
        exp = beta[i - 1] - beta[i] if i < n else beta.degree() + beta[n - 1]
        if kind == "Kinv":
            exp = -exp
        return Element.monomial(beta, q_power(exp))
    raise InvalidArgs(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# verifiers

def verify_serre(n: int, degree: int, realization: Realization | None = None
                 ) -> VerificationReport:
    """Check the full simple-root presentation (R1)-(R7) as exact action
    identities on all monomials of degree <= degree."""
    if n < 1:
        raise InvalidArgs("n must be >= 1")
    if degree < 2:
        raise InvalidArgs("degree must be >= 2")
    r = realization if realization is not None else build_realization(n)
    if r.n != n:
        raise RankMismatch(f"realization rank {r.n}, suite rank {n}")
    rep = VerificationReport("serre", n, degree, rank_sl=n + 1)
    A = cartan_matrix(n)
    q = q_power(1)
    den = q - q_power(-1)
    two = q + q_power(-1)

    e, f, K, K_inv = ([Side.leaf(n, op) for op in ops]
                      for ops in (r.e, r.f, r.K, r.K_inv))
    ident = Side.identity(n)
    for i in range(1, n + 1):
        Ki, Kinv = K[i - 1], K_inv[i - 1]
        decide(rep, f"R1:i={i}", compose(Ki, Kinv), ident,
               parts=[(compose(Kinv, Ki), ident, None)])
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            decide(rep, f"R1:i={i},j={j}", compose(K[i - 1], K[j - 1]),
                   compose(K[j - 1], K[i - 1]))

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            a = A[i - 1][j - 1]
            conj_e = compose(K[i - 1], compose(e[j - 1], K_inv[i - 1]))
            conj_f = compose(K[i - 1], compose(f[j - 1], K_inv[i - 1]))
            decide(rep, f"R2:i={i},j={j}", conj_e, e[j - 1].scale(q_power(a)),
                   parts=[(conj_f, f[j - 1].scale(q_power(-a)), None)])

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            # [e_i, f_j] = delta_ij (K_i - K_i^-1) / (q - q^-1)
            num = K[i - 1] - K_inv[i - 1] if i == j else Side.zero(n)
            decide(rep, f"R3:i={i},j={j}", q_bracket(e[i - 1], f[j - 1], 1),
                   num, den)

    # quantum Serre (R4 for e, R6 for f) and far commutation (R5, R7)
    for serre_id, far_id, gens in (("R4", "R5", e), ("R6", "R7", f)):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if abs(i - j) != 1:
                    continue
                gi, gj = gens[i - 1], gens[j - 1]
                lhs = (compose(gi, compose(gi, gj))
                       - compose(gi, compose(gj, gi)).scale(two)
                       + compose(gj, compose(gi, gi)))
                decide(rep, f"{serre_id}:i={i},j={j}", lhs, Side.zero(n))
        for i in range(1, n + 1):
            for j in range(i + 2, n + 1):
                decide(rep, f"{far_id}:i={i},j={j}",
                       compose(gens[i - 1], gens[j - 1]),
                       compose(gens[j - 1], gens[i - 1]))
    return rep


def verify_gl(n: int, degree: int) -> VerificationReport:
    """Check that k_i = sigma_i complete the degree-preserving generators
    (the i < n family) to the gl-style presentation: k-commutation,
    K_i = k_i k_{i+1}^-1, and the weight conjugations."""
    if n < 2:
        raise InvalidArgs("gl verification needs n >= 2")
    if degree < 1:
        raise InvalidArgs("degree must be >= 1")
    r = build_realization(n)
    rep = VerificationReport("gl", n, degree)

    e, f = ([Side.leaf(n, op) for op in ops] for ops in (r.e, r.f))
    k = {(i, s): Side.leaf(n, Operator.from_word(n, [S(i, s)]))
         for i in range(1, n + 1) for s in (1, -1)}

    for i in range(1, n + 1):
        decide(rep, f"k-inv:i={i}", compose(k[i, 1], k[i, -1]), Side.identity(n))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            decide(rep, f"k-comm:i={i},j={j}", compose(k[i, 1], k[j, 1]),
                   compose(k[j, 1], k[i, 1]))
    for i in range(1, n):
        decide(rep, f"K-factor:i={i}", r.K[i - 1], compose(k[i, 1], k[i + 1, -1]))
    for i in range(1, n + 1):
        for j in range(1, n):
            # <eps_i, alpha_j> = delta_{ij} - delta_{i,j+1}
            w = (1 if i == j else 0) - (1 if i == j + 1 else 0)
            conj_e = compose(k[i, 1], compose(e[j - 1], k[i, -1]))
            conj_f = compose(k[i, 1], compose(f[j - 1], k[i, -1]))
            decide(rep, f"k-e:i={i},j={j}", conj_e, e[j - 1].scale(q_power(w)))
            decide(rep, f"k-f:i={i},j={j}", conj_f, f[j - 1].scale(q_power(-w)))
    return rep


# lemma21 and classical compare values on every monomial of degree <= degree,
# C(n + degree, n) of them, at up to about 0.2 ms each for n <= 16; above
# this many they are refused instead of left to run for minutes.
ORACLE_MONOMIAL_CAP = 20000


def _oracle_monomials(suite: str, n: int, degree: int) -> None:
    """Raise InvalidArgs, naming the estimate, when suite's sweep at (n,
    degree) would visit more than ORACLE_MONOMIAL_CAP monomials.  A negative
    degree is left to monomials_up_to to refuse."""
    count = comb(n + degree, n) if degree >= 0 else 0
    if count > ORACLE_MONOMIAL_CAP:
        raise InvalidArgs(f"{suite} at n={n}, degree {degree} sweeps {count} "
                          f"monomials, above the cap of {ORACLE_MONOMIAL_CAP}")


def lemma21_check(n: int, max_degree: int = 5) -> VerificationReport:
    """The twisted Euler eigenvalue is invariant under lattice shifts along
    eps_i - eps_{i+1}: checked exactly over the whole (beta, i, |m| <= 3) grid.
    It compares eigenvalues, not operator actions, so it records through
    its own (beta, i, m) counterexample rather than through decide.  Each
    eigenvalue is computed once; when they are constant on each degree
    class, every shift passes without a sweep, since a shift keeps |beta|."""
    if n < 1:
        raise InvalidArgs("n must be >= 1")
    _oracle_monomials("lemma21", n, max_degree)
    rep = VerificationReport("lemma21", n, max_degree)
    betas = monomials_up_to(n, max_degree)
    # a step eps_i - eps_{i+1} keeps the degree, so every nonnegative
    # shifted beta is itself a key
    eigen = {beta: q_euler_eigenvalue(beta) for beta in betas}
    by_degree: dict[int, LaurentPoly] = {}
    if all(by_degree.setdefault(sum(beta), e) == e for beta, e in eigen.items()):
        # every shift keeps |beta|, so each compares two equal values
        for i in range(1, n):
            for m in range(-3, 4):
                rep.record(f"shift:i={i},m={m}", None)
        return rep
    for i in range(1, n):
        for m in range(-3, 4):
            fail = None
            for beta in betas:
                shifted = list(beta)
                shifted[i - 1] += m
                shifted[i] -= m
                if shifted[i - 1] < 0 or shifted[i] < 0:
                    continue
                lhs = eigen[beta]
                rhs = eigen[tuple(shifted)]
                if lhs != rhs:
                    fail = {"beta": beta.to_json(), "i": i, "m": m,
                            "lhs": lhs.to_json(), "rhs": rhs.to_json()}
                    break
            rep.record(f"shift:i={i},m={m}", fail)
    return rep


def _classical_action(kind: str, i: int, beta: MultiIndex) -> dict[tuple, int]:
    """Independent oracle: the classical divided-power action of the q=1
    limits (x_i d_{i+1}, x_{i+1} d_i, x_n * Euler, -d_n, identity)."""
    n = len(beta)
    if kind == "e":
        if i < n:
            if beta[i] == 0:
                return {}
            return {(*beta[:i - 1], beta[i - 1] + 1, beta[i] - 1, *beta[i + 1:]):
                    beta[i - 1] + 1}
        total = sum(beta)
        if total == 0:
            return {}
        return {(*beta[:-1], beta[-1] + 1): (beta[-1] + 1) * total}
    if kind == "f":
        if i < n:
            if beta[i - 1] == 0:
                return {}
            return {(*beta[:i - 1], beta[i - 1] - 1, beta[i] + 1, *beta[i + 1:]):
                    beta[i] + 1}
        if beta[-1] == 0:
            return {}
        return {(*beta[:-1], beta[-1] - 1): -1}
    if kind in ("K", "Kinv"):
        return {beta: 1}
    raise InvalidArgs(f"unknown generator kind {kind!r}")


def classical_degeneration_check(n: int, degree: int) -> VerificationReport:
    """Specializing every action coefficient at q = 1 must reproduce the
    classical differential-operator realization on divided powers.
    It compares integer values at q = 1 against an oracle, not two actions
    over Z[q, q^-1], so it records its own counterexample, not through decide."""
    if n < 1:
        raise InvalidArgs("n must be >= 1")
    _oracle_monomials("classical", n, degree)
    r = build_realization(n)
    rep = VerificationReport("classical", n, degree)
    gens = []
    for i in range(1, n + 1):
        gens.append((f"e{i}", "e", i, r.e[i - 1]))
        gens.append((f"f{i}", "f", i, r.f[i - 1]))
        gens.append((f"K{i}", "K", i, r.K[i - 1]))
        gens.append((f"K{i}^-1", "Kinv", i, r.K_inv[i - 1]))
    betas = monomials_up_to(n, degree)
    for rel_id, kind, i, op in gens:
        fail = None
        act = at_one(op)
        for beta in betas:
            quantum = act(beta)
            classical = _classical_action(kind, i, beta)
            if quantum != classical:
                fail = {"beta": beta.to_json(),
                        "lhs": {str(list(b)): v for b, v in sorted(quantum.items())},
                        "rhs": {str(list(b)): v for b, v in sorted(classical.items())}}
                break
        rep.record(rel_id, fail)
    return rep
