"""Chevalley generators realized as operator words on the quantum divided
power algebra in n variables, closed-form action oracles, and the relation
verifiers for the simple-root presentation (rank n+1 from n variables: the
last raising operator climbs the degree by one instead of trading it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .aqn import Element, monomials_up_to
from .errors import InvalidArgs
from .qindex import MultiIndex
from .qring import LaurentPoly, q_int, q_power
from .report import VerificationReport
from .weylops import D, Operator, S, T, X, apply, compose, decide, q_bracket


def cartan_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """The type-A Cartan matrix of size n (2 on the diagonal, -1 adjacent)."""
    if n < 1:
        raise InvalidArgs("Cartan matrix needs n >= 1")
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
        for i in range(n))


def q_euler_eigenvalue(beta: MultiIndex) -> LaurentPoly:
    """Eigenvalue of the twisted Euler operator sum_k x_k d_k Theta(eps_k):
    sum_k theta(eps_k, beta) [beta_k]."""
    n = beta.n
    total = LaurentPoly.zero()
    degree = beta.degree()
    prefix = 0
    for k in range(n):
        bk = beta.entries[k]
        # theta(eps_{k+1}, beta) = q^(prefix - suffix)
        exp = prefix - (degree - prefix - bk)
        total = total + q_int(bk).shift(exp)
        prefix += bk
    return total


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


def _k_sigma_vector(n: int, j: int) -> tuple[int, ...]:
    # sigma-exponent vector of the j-th Cartan generator
    if j < n:
        return tuple(1 if t == j - 1 else (-1 if t == j else 0) for t in range(n))
    return tuple(2 if t == n - 1 else 1 for t in range(n))


@dataclass(frozen=True)
class Realization:
    """The n-variable operator realization of the rank n+1 Chevalley
    generators: e_i, f_i, K_i^(+-1) for 1 <= i <= n."""

    n: int
    e: tuple[Operator, ...]
    f: tuple[Operator, ...]
    K: tuple[Operator, ...]
    K_inv: tuple[Operator, ...]

    @property
    def rank_sl(self) -> int:
        return self.n + 1

    def K_power(self, v) -> Operator:
        """prod_j K_j^(v_j), built as one aggregated diagonal word."""
        v = tuple(v)
        if len(v) != self.n:
            raise InvalidArgs(f"K exponent vector of length {len(v)}, rank {self.n}")
        w = [0] * self.n
        for j, vj in enumerate(v, start=1):
            if vj:
                for t, x in enumerate(_k_sigma_vector(self.n, j)):
                    w[t] += vj * x
        return diagonal_sigma_op(self.n, w)


@lru_cache(maxsize=None)
def build_realization(n: int) -> Realization:
    """Generator words: e_i = x_i d_{i+1} sigma_i, f_i = sigma_i^-1 x_{i+1} d_i,
    K_i = sigma_i sigma_{i+1}^-1 for i < n; the n-th triple raises/lowers the
    total degree via the corner words."""
    if n < 1:
        raise InvalidArgs("n must be >= 1")
    e = []
    f = []
    K = []
    K_inv = []
    for i in range(1, n):
        e.append(Operator.from_word(n, [X(i), D(i + 1), S(i, 1)]))
        f.append(Operator.from_word(n, [S(i, -1), X(i + 1), D(i)]))
        K.append(diagonal_sigma_op(n, _k_sigma_vector(n, i)))
        K_inv.append(diagonal_sigma_op(n, [-x for x in _k_sigma_vector(n, i)]))
    e.append(corner_raising_op(n, n))
    f.append(corner_lowering_op(n, n))
    K.append(diagonal_sigma_op(n, _k_sigma_vector(n, n)))
    K_inv.append(diagonal_sigma_op(n, [-x for x in _k_sigma_vector(n, n)]))
    return Realization(n, tuple(e), tuple(f), tuple(K), tuple(K_inv))


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
    b = beta.entries
    if kind == "e":
        if i < n:
            if b[i] == 0:
                return Element.zero(n)
            return Element.monomial(beta.bump(i, 1).bump(i + 1, -1), q_int(b[i - 1] + 1))
        coeff = q_int(b[n - 1] + 1) * q_euler_eigenvalue(beta)
        return Element.monomial(beta.bump(n, 1), coeff)
    if kind == "f":
        if i < n:
            if b[i - 1] == 0:
                return Element.zero(n)
            return Element.monomial(beta.bump(i, -1).bump(i + 1, 1), q_int(b[i] + 1))
        if b[n - 1] == 0:
            return Element.zero(n)
        return Element.monomial(beta.bump(n, -1), LaurentPoly({0: -1}))
    if kind in ("K", "Kinv"):
        exp = b[i - 1] - b[i] if i < n else beta.degree() + b[n - 1]
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
    rep = VerificationReport("serre", n, degree, rank_sl=n + 1)
    A = cartan_matrix(n)
    q = q_power(1)
    den = q - q_power(-1)
    two = q + q_power(-1)

    ident = Operator.identity(n)
    for i in range(1, n + 1):
        Ki, Kinv = r.K[i - 1], r.K_inv[i - 1]
        decide(rep, f"R1:i={i}", compose(Ki, Kinv), ident,
               parts=[(compose(Kinv, Ki), ident, None)])
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            decide(rep, f"R1:i={i},j={j}", compose(r.K[i - 1], r.K[j - 1]),
                   compose(r.K[j - 1], r.K[i - 1]))

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            a = A[i - 1][j - 1]
            conj_e = compose(r.K[i - 1], compose(r.e[j - 1], r.K_inv[i - 1]))
            conj_f = compose(r.K[i - 1], compose(r.f[j - 1], r.K_inv[i - 1]))
            decide(rep, f"R2:i={i},j={j}", conj_e, r.e[j - 1].scale(q_power(a)),
                   parts=[(conj_f, r.f[j - 1].scale(q_power(-a)), None)])

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            # [e_i, f_j] = delta_ij (K_i - K_i^-1) / (q - q^-1)
            num = r.K[i - 1] - r.K_inv[i - 1] if i == j else Operator.zero(n)
            decide(rep, f"R3:i={i},j={j}", q_bracket(r.e[i - 1], r.f[j - 1], 1),
                   num, den)

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if abs(i - j) != 1:
                continue
            ei, ej = r.e[i - 1], r.e[j - 1]
            lhs = (compose(ei, compose(ei, ej))
                   - compose(ei, compose(ej, ei)).scale(two)
                   + compose(ej, compose(ei, ei)))
            decide(rep, f"R4:i={i},j={j}", lhs, Operator.zero(n))
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1):
            decide(rep, f"R5:i={i},j={j}", compose(r.e[i - 1], r.e[j - 1]),
                   compose(r.e[j - 1], r.e[i - 1]))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if abs(i - j) != 1:
                continue
            fi, fj = r.f[i - 1], r.f[j - 1]
            lhs = (compose(fi, compose(fi, fj))
                   - compose(fi, compose(fj, fi)).scale(two)
                   + compose(fj, compose(fi, fi)))
            decide(rep, f"R6:i={i},j={j}", lhs, Operator.zero(n))
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1):
            decide(rep, f"R7:i={i},j={j}", compose(r.f[i - 1], r.f[j - 1]),
                   compose(r.f[j - 1], r.f[i - 1]))
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

    def k(i, e=1):
        return Operator.from_word(n, [S(i, e)])

    for i in range(1, n + 1):
        decide(rep, f"k-inv:i={i}", compose(k(i), k(i, -1)), Operator.identity(n))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            decide(rep, f"k-comm:i={i},j={j}", compose(k(i), k(j)),
                   compose(k(j), k(i)))
    for i in range(1, n):
        decide(rep, f"K-factor:i={i}", r.K[i - 1], compose(k(i), k(i + 1, -1)))
    for i in range(1, n + 1):
        for j in range(1, n):
            # <eps_i, alpha_j> = delta_{ij} - delta_{i,j+1}
            w = (1 if i == j else 0) - (1 if i == j + 1 else 0)
            conj_e = compose(k(i), compose(r.e[j - 1], k(i, -1)))
            conj_f = compose(k(i), compose(r.f[j - 1], k(i, -1)))
            decide(rep, f"k-e:i={i},j={j}", conj_e, r.e[j - 1].scale(q_power(w)))
            decide(rep, f"k-f:i={i},j={j}", conj_f, r.f[j - 1].scale(q_power(-w)))
    return rep


def lemma21_check(n: int, max_degree: int = 5, max_shift: int = 3
                  ) -> VerificationReport:
    """The twisted Euler eigenvalue is invariant under lattice shifts along
    eps_i - eps_{i+1}: checked exactly over the whole (beta, i, m) grid.
    It compares eigenvalues, not operator actions, so it records through
    its own (beta, i, m) counterexample rather than through decide."""
    if n < 1:
        raise InvalidArgs("n must be >= 1")
    rep = VerificationReport("lemma21", n, max_degree)
    betas = monomials_up_to(n, max_degree)
    for i in range(1, n):
        step = MultiIndex.unit(n, i) - MultiIndex.unit(n, i + 1)
        for m in range(-max_shift, max_shift + 1):
            fail = None
            for beta in betas:
                shifted = beta + step.scaled(m)
                if not shifted.is_nonneg():
                    continue
                lhs = q_euler_eigenvalue(beta)
                rhs = q_euler_eigenvalue(shifted)
                if lhs != rhs:
                    fail = {"beta": beta.to_json(), "i": i, "m": m,
                            "lhs": lhs.to_json(), "rhs": rhs.to_json()}
                    break
            rep.record(f"shift:i={i},m={m}", fail)
    return rep


def _classical_action(kind: str, i: int, beta: MultiIndex) -> dict[MultiIndex, int]:
    """Independent oracle: the classical divided-power action of the q=1
    limits (x_i d_{i+1}, x_{i+1} d_i, x_n * Euler, -d_n, identity)."""
    n = beta.n
    b = beta.entries
    if kind == "e":
        if i < n:
            if b[i] == 0:
                return {}
            return {beta.bump(i, 1).bump(i + 1, -1): b[i - 1] + 1}
        total = beta.degree()
        if total == 0:
            return {}
        return {beta.bump(n, 1): (b[n - 1] + 1) * total}
    if kind == "f":
        if i < n:
            if b[i - 1] == 0:
                return {}
            return {beta.bump(i, -1).bump(i + 1, 1): b[i] + 1}
        if b[n - 1] == 0:
            return {}
        return {beta.bump(n, -1): -1}
    if kind in ("K", "Kinv"):
        return {beta: 1}
    raise InvalidArgs(f"unknown generator kind {kind!r}")


def classical_degeneration_check(n: int, degree: int,
                                 realization: Realization | None = None
                                 ) -> VerificationReport:
    """Specializing every action coefficient at q = 1 must reproduce the
    classical differential-operator realization on divided powers.
    It compares integer values at q = 1 against an oracle, not two actions
    over Z[q, q^-1], so it records its own counterexample, not through decide."""
    if n < 1:
        raise InvalidArgs("n must be >= 1")
    r = realization if realization is not None else build_realization(n)
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
        for beta in betas:
            out = apply(op, Element.monomial(beta))
            quantum = {b: v for b, v in
                       ((b, c.eval_at_one()) for b, c in out.terms.items()) if v}
            classical = _classical_action(kind, i, beta)
            if quantum != classical:
                fail = {"beta": beta.to_json(),
                        "lhs": {str(list(b.entries)): v for b, v in sorted(
                            quantum.items(), key=lambda t: t[0].entries)},
                        "rhs": {str(list(b.entries)): v for b, v in sorted(
                            classical.items(), key=lambda t: t[0].entries)}}
                break
        rep.record(rel_id, fail)
    return rep
