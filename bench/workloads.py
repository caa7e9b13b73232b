"""The benchmark's workloads: seeded inputs, the timed operations, and their checks.

Each workload is a function `build(rng, rounds)` that constructs every input
up front and returns a `Plan`: a flat list of operations `(fn, args, tag)`
and a checker.  The worker calls `fn(*args)` once per operation in the timed
phase and afterwards hands the results to `plan.check(results)`, which
returns a list of problems (empty when every output is right).

A round is a fixed composition of operations; the seed only chooses operands
and the order inside a round.  So every run of a workload does the same mix of
work, and the number of rounds is the only thing the run length changes.

The checks never compare against stored output of the program.  They use the
theorem being reproduced, labels known to the generator, or arithmetic done
here independently of the library (plain square-and-multiply matrix powers
and structure-constant brackets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from padiclie import PadicContext, PMatrix, bch_mul
from padiclie.bch import free_nilpotent_lattice
from padiclie.catalog import (
    iso_test_3dim,
    make_example_dim_p,
    make_p2_groups,
    make_thm73,
    thm73_grid,
)
from padiclie.propgroup import (
    GroupElement,
    check_gamma_p_in_phi_p,
    lower_p_series_group,
    verify_group_potent_filtration,
)


@dataclass
class Plan:
    ops: list  # (fn, args, tag)
    check: Callable[[list], list]


def _invertible_mod_p(rows, p) -> bool:
    """Full rank over F_p, by elimination (a Laplace determinant is too slow at n = 8)."""
    work = [[e % p for e in row] for row in rows]
    n = len(work)
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            return False
        work[col], work[piv] = work[piv], work[col]
        inv = pow(work[col][col], -1, p)
        for r in range(col + 1, n):
            f = work[r][col] * inv % p
            if f:
                work[r] = [(a - f * b) % p for a, b in zip(work[r], work[col])]
    return True


def random_unimodular(ctx: PadicContext, n: int, rng) -> PMatrix:
    """A uniformly drawn n x n matrix over Z/p^N with unit determinant."""
    while True:
        rows = [[rng.randrange(ctx.modulus) for _ in range(n)] for _ in range(n)]
        if _invertible_mod_p(rows, ctx.p):
            return PMatrix(ctx, rows)


def _shuffled_rounds(rng, rounds, make_round) -> list:
    ops = []
    for _ in range(rounds):
        batch = make_round()
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


# ---------------------------------------------------------------------------
# saturability: Theorem 7.3 grid members and the dimension-p example
# ---------------------------------------------------------------------------

SAT_PRIMES = (5, 7)
SAT_PRECISION = 4


def saturability_verdict(lattice, group):
    """One member's full verdict, lattice side then group side."""
    return (
        lattice.saturable_sufficient(),
        lattice.verify_potent_filtration(lattice.lower_p_series()).first_failure(),
        check_gamma_p_in_phi_p(group).holds,
        verify_group_potent_filtration(group, lower_p_series_group(group)).first_failure(),
    )


def saturability(rng, rounds) -> Plan:
    def make_round():
        # fresh objects every round, so no round inherits another's caches
        batch = []
        for p in SAT_PRIMES:
            ctx = PadicContext(p, SAT_PRECISION)
            for label, family, params in thm73_grid(ctx):
                lattice, group = make_thm73(ctx, family, params)
                batch.append((saturability_verdict, (lattice, group), ("grid", f"p={p} {label}")))
        group, lattice = make_example_dim_p(PadicContext(5, SAT_PRECISION))
        batch.append((saturability_verdict, (lattice, group), ("dim-p", "p=5 example-dim-p")))
        return batch

    def check(results):
        problems = []
        for (_, _, (kind, label)), verdict in zip(ops, results):
            if verdict is None:
                continue
            sat, lattice_failure, gamma_ok, group_failure = verdict
            if sat != gamma_ok or (lattice_failure is None) != (group_failure is None):
                problems.append(f"{label}: lattice and group verdicts disagree: {verdict}")
            # dimension 3 < p: saturable; dimension p: potency breaks at step 1
            expected = (True, None, True, None) if kind == "grid" else (False, 1, False, 1)
            if verdict != expected:
                problems.append(f"{label}: verdict {verdict}, theorem says {expected}")
        return problems

    ops = _shuffled_rounds(rng, rounds, make_round)
    return Plan(ops, check)


# ---------------------------------------------------------------------------
# classification: iso_test_3dim on basis-changed grid lattices
# ---------------------------------------------------------------------------

CLS_PRIMES = (5, 7)
CLS_PRECISION = 12
CLS_BASIS_CHANGES = 3  # versions per member: the member itself plus these
CLS_SAME_PAIRS = 250  # per prime and round
CLS_OTHER_PAIRS = 250  # per prime and round


def classification(rng, rounds) -> Plan:
    pools = {}
    for p in CLS_PRIMES:
        ctx = PadicContext(p, CLS_PRECISION)
        members = []
        for label, family, params in thm73_grid(ctx):
            lattice, _ = make_thm73(ctx, family, params)
            versions = [lattice] + [
                lattice.change_basis(random_unimodular(ctx, 3, rng))
                for _ in range(CLS_BASIS_CHANGES)
            ]
            members.append((f"p={p} {label}", versions))
        pools[p] = members

    def make_round():
        batch = []
        for p in CLS_PRIMES:
            members = pools[p]
            for _ in range(CLS_SAME_PAIRS):
                label, versions = members[rng.randrange(len(members))]
                a, b = rng.sample(versions, 2)
                batch.append((iso_test_3dim, (a, b), (label, label)))
            for _ in range(CLS_OTHER_PAIRS):
                (la, va), (lb, vb) = rng.sample(members, 2)
                batch.append((iso_test_3dim, (rng.choice(va), rng.choice(vb)), (la, lb)))
        return batch

    def check(results):
        problems = []
        for (_, _, (la, lb)), cert in zip(ops, results):
            if cert is not None and cert.isomorphic != (la == lb):
                problems.append(f"{la} vs {lb}: isomorphic={cert.isomorphic}")
        return problems

    ops = _shuffled_rounds(rng, rounds, make_round)
    return Plan(ops, check)


# ---------------------------------------------------------------------------
# group-law: SemidirectGroup arithmetic and bch_mul products
# ---------------------------------------------------------------------------

GL_PRECISION = 12
GL_PRODUCTS = 6  # fresh-exponent products per group and pass
GL_INVERSES = 3
GL_WORDS = 1
GL_WORD_LENGTH = 6
# A round is GL_POWER_EVERY passes, each with the products, inverses and
# words above on every group and the bch products below; one power triple x^k, x^l, x^(k+l), k and l
# uniform in Z/p^N, goes to each group once per round.  A power costs about
# ten products, and more of them would drown the twist-cache signal in
# matrix products.
GL_POWER_EVERY = 3
GL_P2_SIGNS_AND_S = (("+", 2), ("+", 3), ("+", None), ("-", 2), ("-", 3), ("-", None))
BCH_CLASS2_PRODUCTS = 10  # per G0 lattice and pass
BCH_FREE_PRODUCTS = 40  # per free lattice and pass
BCH_FRESH_COPIES = 20  # basis-changed copies of the class-3 lattice per pass, one product each


def group_law_groups():
    groups = []
    for p in (5, 7):
        ctx = PadicContext(p, GL_PRECISION)
        groups += [make_thm73(ctx, family, params)[1] for _, family, params in thm73_grid(ctx)]
    groups.append(make_example_dim_p(PadicContext(5, GL_PRECISION))[0])
    ctx2 = PadicContext(2, GL_PRECISION)
    groups += [make_p2_groups(ctx2, sign, s) for sign, s in GL_P2_SIGNS_AND_S]
    return groups


def word_product(group, letters):
    """Left-to-right product of a word in the group."""
    out = letters[0]
    for h in letters[1:]:
        out = group.mul(out, h)
    return out


class SplitLaw:
    """(a1, v1)(a2, v2) = (a1 + a2, v1 M^a2 + v2), evaluated without the library."""

    def __init__(self, group):
        self.mod = group.ctx.modulus
        self.action = [list(row) for row in group.action.entries]
        self.n = group.fiber_dim
        self.powers = {}

    def _matmul(self, A, B):
        mod, n = self.mod, self.n
        return [[sum(A[i][t] * B[t][j] for t in range(n)) % mod for j in range(n)] for i in range(n)]

    def matrix_power(self, e):
        out = self.powers.get(e)
        if out is None:
            n = self.n
            out = [[int(i == j) for j in range(n)] for i in range(n)]
            base, k = self.action, e
            while k:
                if k & 1:
                    out = self._matmul(out, base)
                base = self._matmul(base, base)
                k >>= 1
            self.powers[e] = out
        return out

    def mul(self, g, h):
        M = self.matrix_power(h.a % self.mod)
        v = tuple(
            (sum(g.v[i] * M[i][j] for i in range(self.n)) + h.v[j]) % self.mod
            for j in range(self.n)
        )
        return GroupElement((g.a + h.a) % self.mod, v)

    def identity(self):
        return GroupElement(0, (0,) * self.n)

    def pow(self, g, k):
        """g^k for k >= 0, by square-and-multiply over `mul`."""
        out, base = self.identity(), g
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out


def _bracket_from_constants(L, u, v):
    mod, d = L.ctx.modulus, L.dim
    out = [0] * d
    for i in range(d):
        for j in range(d):
            if u[i] and v[j]:
                c = L.constants[i][j]
                for k in range(d):
                    out[k] += u[i] * v[j] * c[k]
    return tuple(e % mod for e in out)


def group_law(rng, rounds) -> Plan:
    groups = group_law_groups()
    laws = {id(g): SplitLaw(g) for g in groups}

    def rand_element(g):
        mod = g.ctx.modulus
        return g.element(rng.randrange(mod), [rng.randrange(mod) for _ in range(g.fiber_dim)])

    def letters(g):
        mod = g.ctx.modulus
        gens = g.standard_generators()
        inverses = [GroupElement(-x.a % mod, tuple(-e % mod for e in x.v)) for x in gens]
        return gens + inverses

    alphabets = {id(g): letters(g) for g in groups}

    class2, free = [], []
    for p in (5, 7):
        ctx = PadicContext(p, GL_PRECISION)
        class2 += [make_thm73(ctx, "G0", {"s": s})[0] for s in (0, 1, 2)]
    for p, nil_class in ((5, 3), (7, 4)):
        free.append(free_nilpotent_lattice(PadicContext(p, GL_PRECISION), nil_class))

    def rand_vector(L):
        return tuple(rng.randrange(L.ctx.modulus) for _ in range(L.dim))

    pow_triples = [0]

    def make_round():
        batch = []
        for turn in range(GL_POWER_EVERY):
            batch += make_pass(turn)
        return batch

    def make_pass(turn):
        batch = []
        for gi, g in enumerate(groups):
            mod = g.ctx.modulus
            for _ in range(GL_PRODUCTS):
                batch.append((g.mul, (rand_element(g), rand_element(g)), ("mul", g)))
            for _ in range(GL_INVERSES):
                batch.append((g.inv, (rand_element(g),), ("inv", g)))
            alphabet = alphabets[id(g)]
            for _ in range(GL_WORDS):
                word = [rng.choice(alphabet) for _ in range(GL_WORD_LENGTH)]
                batch.append((word_product, (g, word), ("word", g)))
            if gi % GL_POWER_EVERY == turn:
                x = rand_element(g)
                k, l = rng.randrange(mod), rng.randrange(mod)
                t = pow_triples[0]
                pow_triples[0] += 1
                for role, n in (("k", k), ("l", l), ("kl", k + l)):
                    batch.append((g.pow, (x, n), ("pow", g, t, role)))
        for L in class2:
            for _ in range(BCH_CLASS2_PRODUCTS):
                batch.append((bch_mul, (L, rand_vector(L), rand_vector(L)), ("bch2", L)))
        for L in free:
            for _ in range(BCH_FREE_PRODUCTS):
                batch.append((bch_mul, (L, rand_vector(L), rand_vector(L)), ("bch", L, rand_vector(L))))
        L = free[0]
        for _ in range(BCH_FRESH_COPIES):
            copy = L.change_basis(random_unimodular(L.ctx, L.dim, rng))
            batch.append((bch_mul, (copy, rand_vector(copy), rand_vector(copy)), ("bch", copy, rand_vector(copy))))
        return batch

    def check(results):
        problems = []
        powers = {}
        axioms_checked = set()
        for (_, args, tag), out in zip(ops, results):
            if out is None:
                continue
            kind = tag[0]
            if kind in ("mul", "inv", "word", "pow"):
                g = tag[1]
                law = laws[id(g)]
                if kind == "mul":
                    x, y = args
                    if out != law.mul(x, y):
                        problems.append(f"product {x} * {y} = {out} on {g.action!r}")
                    if id(g) not in axioms_checked:
                        axioms_checked.add(id(g))
                        problems += _group_axioms(g, x, y)
                elif kind == "inv":
                    (x,) = args
                    e = law.identity()
                    if law.mul(x, out) != e or law.mul(out, x) != e:
                        problems.append(f"inverse of {x} is not {out} on {g.action!r}")
                elif kind == "word":
                    _, word = args
                    expect = word[0]
                    for h in word[1:]:
                        expect = law.mul(expect, h)
                    if out != expect:
                        problems.append(f"word {word} = {out}, expected {expect}")
                else:
                    _, t, role = tag[1:]
                    powers.setdefault(t, (g, {}))[1][role] = (args, out)
            elif kind == "bch2":
                L = tag[1]
                u, v = args[1], args[2]
                mod = L.ctx.modulus
                half = pow(2, -1, mod)
                br = _bracket_from_constants(L, u, v)
                expect = tuple((a + b + half * c) % mod for a, b, c in zip(u, v, br))
                if tuple(out) != expect:
                    problems.append(f"class-2 product {u} * {v} = {out}, expected {expect}")
            else:
                L, w = tag[1], tag[2]
                u, v = args[1], args[2]
                mod = L.ctx.modulus
                if tuple(bch_mul(L, out, w)) != tuple(bch_mul(L, u, bch_mul(L, v, w))):
                    problems.append(f"series law not associative on {u}, {v}, {w}")
                neg = tuple(-a % mod for a in u)
                if any(bch_mul(L, u, neg)):
                    problems.append(f"u * (-u) != 0 for u = {u}")
        for t, (g, got) in powers.items():
            if len(got) != 3:
                continue
            law = laws[id(g)]
            (x, k), xk = got["k"]
            if xk != law.pow(x, k):
                problems.append(f"x^k = {xk} for x = {x}, k = {k}, expected {law.pow(x, k)}")
            if law.mul(xk, got["l"][1]) != got["kl"][1]:
                problems.append(f"x^k x^l != x^(k+l) in power triple {t}")
        return problems

    ops = _shuffled_rounds(rng, rounds, make_round)
    return Plan(ops, check)


def _group_axioms(g, x, y):
    """Associativity and the identity law, evaluated through the library."""
    e = g.identity_element()
    problems = []
    if g.mul(g.mul(x, y), x) != g.mul(x, g.mul(y, x)):
        problems.append(f"(xy)x != x(yx) for {x}, {y}")
    if g.mul(x, e) != x or g.mul(e, x) != x:
        problems.append(f"identity law fails for {x}")
    return problems


WORKLOADS = {
    "saturability": saturability,
    "classification": classification,
    "group-law": group_law,
}

# Nominal CPU seconds of one round on the reference machine.  The number of
# rounds a run makes is fixed from the run length through these constants,
# never from a clock, so two runs of one seed always do the same work.
ROUND_SECONDS = {
    "saturability": 15.5,
    "classification": 1.7,
    "group-law": 11.3,
}


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))
