"""Workload definitions: the qweyl command lines each workload runs.

Every workload is a closed loop with one client: one list of ``qweyl``
argument vectors, run in order, each started after the previous one
returned.  The seed only chooses and orders the inputs; qweyl sees the
resulting command lines and nothing else.

Sizes come in two flavours: ``full`` (what the benchmark measures) and
``tiny`` (the same shapes at a size that runs in well under a second,
used by the self-test).
"""

from __future__ import annotations

import random
import shlex

WORKLOADS = ("wide", "braid", "deep", "rewrite")
SIZES = ("full", "tiny")

# The primary seed is the one later changes are tuned against; the
# hold-out seed is kept back so that a claimed gain can be re-checked on
# inputs not used while the change was written.
PRIMARY_SEED = 1
HOLDOUT_SEED = 2

# The rewrite pool is drawn once from this fixed seed, so that every
# command a run can issue has a digest recorded in digests.json.
POOL_SEED = 20140131
POOL_CANDIDATES = 4
SLOT_PICKS = 3  # commands each expression slot contributes to a stream

SWEEP_SUITES = ("weyl", "serre", "gl", "prop32", "lemma34", "lemma21",
                "classical")

# (n, degree) per size.
_SWEEP_SIZE = {
    "wide": {"full": (5, 4), "tiny": (2, 2)},
    "deep": {"full": (2, 24), "tiny": (2, 4)},
}
# theorem33 at n=4 is left out on purpose: it ran for more than 14
# minutes at the seed commit (see NOTES.md).
_BRAID_JOBS = {
    "full": (("theorem33", 3, 2), ("braid", 3, 3)),
    "tiny": (("theorem33", 2, 2), ("braid", 2, 2)),
}


def verify_argv(suite: str, n: int, degree: int) -> list[str]:
    return ["verify", suite, "--n", str(n), "--degree", str(degree),
            "--format", "json"]


def command_key(argv) -> str:
    """The text a command is filed under in digests.json."""
    return shlex.join(argv)


def ranks(workload: str, size: str = "full") -> tuple[int, ...]:
    """The ranks whose realizations the workload uses (built during set-up)."""
    if workload in _SWEEP_SIZE:
        return (_SWEEP_SIZE[workload][size][0],)
    if workload == "braid":
        return tuple(sorted({n for _, n, _ in _BRAID_JOBS[size]}))
    if workload == "rewrite":
        return tuple(sorted({s[1] for s in _rewrite_shapes(size)}))
    raise ValueError(f"unknown workload {workload!r}")


def commands(workload: str, seed: int, size: str = "full") -> list[list[str]]:
    """The argument vectors of one job of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in _SWEEP_SIZE:
        n, degree = _SWEEP_SIZE[workload][size]
        suites = list(SWEEP_SUITES)
        # Suites share caches (q_binom, build_realization), so their order
        # is part of the input.
        rng.shuffle(suites)
        return [verify_argv(s, n, degree) for s in suites]
    if workload == "braid":
        jobs = list(_BRAID_JOBS[size])
        rng.shuffle(jobs)
        return [verify_argv(s, n, d) for s, n, d in jobs]
    if workload == "rewrite":
        stream = []
        for cands in rewrite_pool(size):
            stream += rng.sample(cands, min(SLOT_PICKS, len(cands)))
        rng.shuffle(stream)
        return stream
    raise ValueError(f"unknown workload {workload!r}")


def all_commands(size: str) -> list[list[str]]:
    """Every command any seed of any workload can issue at ``size``."""
    out = []
    for w in ("wide", "deep"):
        n, degree = _SWEEP_SIZE[w][size]
        out.extend(verify_argv(s, n, degree) for s in SWEEP_SUITES)
    out.extend(verify_argv(s, n, d) for s, n, d in _BRAID_JOBS[size])
    for cands in rewrite_pool(size):
        out.extend(cands)
    return out


# ---------------------------------------------------------------------------
# the rewrite stream
#
# Command cost depends mostly on the expression's shape: how many atoms it
# has, whether it is a q-bracket, and how many of them are multi-word
# "corner" operators (e_n and E(i, n+1), which have n words each).  The
# stream therefore holds SLOT_PICKS commands per shape, and the seed picks
# which of that shape's pool candidates are used.  This keeps the stream's
# total cost nearly the same across seeds while the commands differ.
#
# Suites report with --format json.  Rewrite commands use the default text
# output, which a user reads: it goes through exprparse's printers and, for
# act and normalize, also carries the JSON form.


def _atoms(n: int) -> tuple[list[str], list[str]]:
    single = [f"e{i}" for i in range(1, n)]
    single += [f"f{i}" for i in range(1, n + 1)]
    single += [f"K{i}" for i in range(1, n + 1)]
    single += [f"K{i}^-1" for i in range(1, n + 1)]
    single += [f"E({i},{j})" for i in range(1, n + 2) for j in range(1, n + 1)
               if i != j]
    corner = [f"e{n}"] + [f"E({i},{n + 1})" for i in range(1, n + 1)]
    return single, corner


def _expression(rng: random.Random, n: int, atoms: int, bracket: bool,
                corners: int) -> str:
    single, corner = _atoms(n)
    picked = ([rng.choice(corner) for _ in range(corners)]
              + [rng.choice(single) for _ in range(atoms - corners)])
    rng.shuffle(picked)
    if not bracket:
        return " ".join(picked)
    cut = rng.randint(1, atoms - 1)
    tag = rng.choice(("", "_q", "_{q^-1}"))
    return f"[{' '.join(picked[:cut])},{' '.join(picked[cut:])}]{tag}"


def _element(rng: random.Random, n: int) -> str:
    def mono():
        parts = [0] * n
        for _ in range(rng.randint(0, 3)):
            parts[rng.randrange(n)] += 1
        return "x^(" + ",".join(map(str, parts)) + ")"
    if rng.random() < 0.5:
        return mono()
    return f"q^{rng.randint(-2, 2)} {mono()} - (q + q^-1) {mono()}"


def _rewrite_shapes(size: str) -> list[tuple]:
    """(kind, n, atoms, bracket, corners) for every stream slot."""
    full = size == "full"
    shapes = []
    for kind in ("normalize", "check", "act"):
        for n in ((2, 3, 4) if full else (2,)):
            for atoms in ((2, 3, 4) if full else (2,)):
                for bracket in (False, True):
                    for corners in ((0, 1, 2) if full else (0, 1)):
                        shapes.append((kind, n, atoms, bracket, corners))
    return shapes


def _rewrite_argv(rng: random.Random, kind: str, n: int, atoms: int,
                  bracket: bool, corners: int) -> list[str]:
    op = _expression(rng, n, atoms, bracket, corners)
    if kind == "act":
        return ["act", "--n", str(n), "--op", op, "--on", _element(rng, n)]
    argv = ["normalize", "--n", str(n), "--op", op]
    if kind == "check":
        # Degree is fixed by the shape, not drawn, so stream cost stays
        # level across seeds.
        degree = 1 + (atoms + corners + bracket) % 3
        argv += ["--check", "--degree", str(degree)]
    return argv


def _rootvec_commands(size: str) -> list[list[str]]:
    """rootvec for every index pair at n <= 3 and degree <= 2, except the
    pairs whose braid-built vector has 128 or more words at degree 2 and
    1024 words at any degree (0.1-1.6 s each at the seed commit, far from
    the 1-60 ms of the other commands)."""
    out = []
    for n in ((2, 3) if size == "full" else (2,)):
        for i in range(1, n + 2):
            for j in range(1, n + 2):
                if i == j:
                    continue
                for degree in ((1, 2) if size == "full" else (1,)):
                    if n == 3 and {i, j} == {3, 4}:
                        continue
                    if n == 3 and {i, j} == {2, 4} and degree == 2:
                        continue
                    out.append(["rootvec", "--n", str(n), "--i", str(i),
                                "--j", str(j), "--degree", str(degree)])
    return out


def rewrite_pool(size: str = "full") -> list[list[list[str]]]:
    """One list of candidate commands per stream slot.

    Expression slots get POOL_CANDIDATES candidates each, drawn from
    POOL_SEED; rootvec slots are deterministic and have one each.
    """
    rng = random.Random(POOL_SEED)
    pool = []
    for shape in _rewrite_shapes(size):
        pool.append([_rewrite_argv(rng, *shape)
                     for _ in range(POOL_CANDIDATES)])
    pool.extend([argv] for argv in _rootvec_commands(size))
    return pool
