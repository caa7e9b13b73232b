import random
from contextlib import suppress
from functools import lru_cache

import pytest

from padiclie import PadicContext, PMatrix, Span, mat_exp, mat_log, mat_pow_padic
from padiclie.bch import lie_from_matrix_group
from padiclie.catalog import _split_pair, make_example_dim_p, make_p2_groups, make_thm73, thm73_fiber_matrix
from padiclie.classifier import classify, descriptors_equal
from padiclie.errors import ConvergenceViolated, NotNormal, NotProP
from padiclie.lattice import Filtration
from padiclie.linalg import fixpoint, solve_over_rows
from padiclie import propgroup
from padiclie.propgroup import (
    GammaPhiReport,
    GroupElement,
    SemidirectGroup,
    SubgroupData,
    check_gamma_p_in_phi_p,
    commutator_subgroup,
    frattini_p,
    frattini_p_power,
    full_subgroup,
    gamma_series,
    generated_subgroup,
    join,
    lower_p_series_group,
    normal_closure,
    power_subgroup,
    verify_group_potent_filtration,
)

from oracles import (
    conj_loop_is_normal,
    fixpoint_normal_closure,
    fixpoint_routes,
    fixpoint_twist_closure,
    generator_commutator_subgroup,
    grid,
    index_exp_in_group,
    lower_p_series_by_subgroups,
    potency_report_by_subgroups,
    random_element,
    random_nilpotent_mod_p,
)


def abelian_group(ctx):
    return SemidirectGroup(ctx, PMatrix.identity(ctx, 1))


def heisenberg_group(ctx, s=0):
    A = PMatrix(ctx, [[0, -(ctx.p**s)], [0, 0]])
    return SemidirectGroup(ctx, PMatrix.identity(ctx, 2) + A)


def example42(ctx):
    group, _ = make_example_dim_p(ctx)
    return group


def jordan_block():
    """Class p = 3 through a Jordan block at p^4: [G,_2 G] lies in G^p and [G, G] does not."""
    ctx = PadicContext(3, 4)
    return SemidirectGroup(ctx, PMatrix(ctx, [[1, 1, 0], [0, 1, 1], [0, 0, 1]]))


def group_pool(p):
    """Split groups for the checks against the subgroup route: seeded random actions I + A
    and, where the series converges (p >= 5), exp(A), for A nilpotent mod p and fiber
    dimension 1 to p + 2; actions `SemidirectGroup` rejects are left out.  At p = 3 the pool
    also holds the Jordan block."""
    rng = random.Random(4300 + p)
    pool = [jordan_block()] if p == 3 else []
    for N in (2, 4):
        ctx = PadicContext(p, N)
        for n in range(1, p + 3):
            A = PMatrix(ctx, random_nilpotent_mod_p(ctx, n, rng))
            actions = [PMatrix.identity(ctx, n) + A]
            with suppress(ConvergenceViolated):
                actions.append(mat_exp(A))
            for M in actions:
                with suppress(NotProP):
                    pool.append(SemidirectGroup(ctx, M))
    return pool


class TestGroupLaw:
    def test_identity_and_inverse(self):
        ctx = PadicContext(5, 4)
        g = example42(ctx)
        rng = random.Random(0)
        e = g.identity_element()
        for _ in range(20):
            a = random_element(g, rng)
            assert g.mul(a, e) == a == g.mul(e, a)
            assert g.mul(a, g.inv(a)) == e

    def test_mixed_products_differ_by_twist(self):
        ctx = PadicContext(5, 4)
        g = example42(ctx)
        rng = random.Random(1)
        for _ in range(20):
            a = rng.randrange(ctx.modulus)
            v = tuple(rng.randrange(ctx.modulus) for _ in range(g.fiber_dim))
            left = g.mul(g.element(a, (0,) * g.fiber_dim), g.element(0, v))
            right = g.mul(g.element(0, v), g.element(a, (0,) * g.fiber_dim))
            tw = g.twist(a) - PMatrix.identity(ctx, g.fiber_dim)
            assert left.v == tuple(
                (right.v[j] - tw.apply_row(v)[j]) % ctx.modulus for j in range(g.fiber_dim)
            )

    def test_associativity_random(self):
        ctx = PadicContext(5, 4)
        g = example42(ctx)
        rng = random.Random(2)
        for _ in range(40):
            a, b, c = (random_element(g, rng) for _ in range(3))
            assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))

    def test_pow_laws(self):
        ctx = PadicContext(5, 4)
        g = example42(ctx)
        rng = random.Random(3)
        for _ in range(10):
            a = random_element(g, rng)
            assert g.pow(a, 0) == g.identity_element()
            for m in (2, 3, 7):
                for n in (2, 5):
                    assert g.pow(a, m * n) == g.pow(g.pow(a, m), n)
        v = tuple(rng.randrange(ctx.modulus) for _ in range(g.fiber_dim))
        fib = g.element(0, v)
        assert g.pow(fib, ctx.p) == g.element(0, tuple(ctx.p * x for x in v))

    def test_requires_unipotent_action(self):
        ctx = PadicContext(5, 4)
        with pytest.raises(NotProP):
            SemidirectGroup(ctx, PMatrix(ctx, [[2]]))

    @pytest.mark.parametrize(
        "p, n, N, accepted",
        [(2, 3, 6, False), (3, 4, 5, False), (5, 6, 4, False), (5, 4, 4, True)],
    )
    def test_requires_action_order_dividing_p_to_the_n(self, p, n, N, accepted):
        # a Jordan block I + J of size n > p has p-power order above p^N
        ctx = PadicContext(p, N)
        M = PMatrix(ctx, [[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n)])
        assert (M.pow(p**N) == PMatrix.identity(ctx, n)) == accepted
        mod = ctx.modulus

        # the product with exponents reduced mod p^N, through plain matrix powers
        def law(g, h):
            v = M.pow(h[0]).apply_row(g[1])
            return (g[0] + h[0]) % mod, tuple((x + y) % mod for x, y in zip(v, h[1]))

        rng = random.Random(p * n * N)
        triples = [
            [(rng.randrange(mod), tuple(rng.randrange(mod) for _ in range(n))) for _ in range(3)]
            for _ in range(50)
        ]
        associative = all(law(law(x, y), z) == law(x, law(y, z)) for x, y, z in triples)
        assert associative == accepted
        if accepted:
            SemidirectGroup(ctx, M)
        else:
            with pytest.raises(NotProP):
                SemidirectGroup(ctx, M)


class TestFastPaths:
    """The binomial (Mahler) and cached routes against plain ones."""

    def groups(self):
        _, g3 = make_thm73(PadicContext(5, 8), "G3", {"s": 1, "r": 0, "d": 1})
        return [g3, example42(PadicContext(5, 4))]

    def test_pow_against_repeated_products(self):
        rng = random.Random(11)
        for g in self.groups():
            x = random_element(g, rng)
            acc = g.identity_element()
            for n in range(31):
                assert g.pow(x, n) == acc, n
                acc = g.mul(acc, x)

    def test_pow_adds_uniform_exponents(self):
        rng = random.Random(12)
        for g in self.groups():
            mod = g.ctx.modulus
            for _ in range(10):
                x = random_element(g, rng)
                k, l = rng.randrange(mod), rng.randrange(mod)
                assert g.mul(g.pow(x, k), g.pow(x, l)) == g.pow(x, k + l)

    def test_twist_against_unreduced_power(self):
        rng = random.Random(13)
        for g in self.groups():
            for a in [0, 1, -1, -7] + [rng.randrange(g.ctx.modulus) for _ in range(20)]:
                assert g.twist(a) == g.action.pow(a) == mat_pow_padic(g.action, a), a

    def test_twist_miss_makes_no_matmul(self, monkeypatch):
        groups = self.groups()  # the tables of E^j are built here
        calls = []
        original = PMatrix.__matmul__

        def counted(self, other):
            calls.append(self)
            return original(self, other)

        monkeypatch.setattr(PMatrix, "__matmul__", counted)
        rng = random.Random(14)
        for g in groups:
            for a in rng.sample(range(g.ctx.modulus), 50):
                assert a % g.ctx.modulus not in g._twist_cache
                g.twist(a)
        assert calls == []

    def test_law_miss_builds_no_matrix(self, monkeypatch):
        groups = self.groups()
        built = []
        original = PMatrix._reduced.__func__

        def counted(cls, ctx, entries):
            built.append(entries)
            return original(cls, ctx, entries)

        monkeypatch.setattr(PMatrix, "_reduced", classmethod(counted))
        monkeypatch.setattr(PMatrix, "__init__", lambda *args: built.append(args))
        rng = random.Random(19)
        for g in groups:
            for a in rng.sample(range(g.ctx.modulus), 30):
                x = random_element(g, rng)
                g.mul(x, g.element(a, x.v))
                g.inv(g.element(a + 1, x.v))
                g.pow(g.element(a + 2, x.v), rng.randrange(g.ctx.modulus))
        assert built == []

    def test_twist_cache_is_bounded(self):
        rng = random.Random(18)
        for g in self.groups():
            mod = g.ctx.modulus
            for a in rng.sample(range(mod), min(1000, mod)):  # 625 residues at p = 5, N = 4
                g.twist(a)
                assert len(g._twist_cache) <= propgroup.TWIST_CACHE_SIZE
            assert len(g._twist_cache) == propgroup.TWIST_CACHE_SIZE

    def test_cached_fiber_intersection_matches_recomputation(self):
        # the stored fiber is the whole meet: the given fiber plus w^(p^(N-e)), twist-closed
        pairs = [(g, V) for which in ORACLE_GROUPS for g, V in oracle_subgroups(which)]
        for g in self.groups():
            full = full_subgroup(g)
            pairs += [(g, V) for V in (full, frattini_p(g), power_subgroup(full), frattini_p_power(g))]
        for g, V in pairs:
            assert V.fiber_intersection() is V.fiber
            if V.witness is not None:
                ctx = g.ctx
                deep = g.pow(V.witness, ctx.p ** (ctx.precision - V.h_valuation))
                assert deep.a % ctx.modulus == 0
                S = V.fiber.sum(Span(ctx, g.fiber_dim, [deep.v]))
                assert V.fiber == fixpoint_twist_closure(g, S, V.witness.a), V


ORACLE_GROUPS = ("grid", "dim-p", "p2")


@lru_cache(maxsize=None)
def oracle_actions(which):
    """(context, action entries) of the Theorem-7.3 grid at p = 5, N = 8; of the dimension-p
    group at p = 5, N = 4; of the six p = 2 groups at N = 8."""
    if which == "grid":
        groups = [m.group for m in grid(PadicContext(5, 8), (0, 1), (0, 1))]
    elif which == "dim-p":
        groups = [example42(PadicContext(5, 4))]
    else:
        groups = [make_p2_groups(PadicContext(2, 8), sign, s) for sign in "+-" for s in (2, 3, 4)]
    return tuple((g.ctx, tuple(map(tuple, g.action.entries))) for g in groups)


def oracle_groups(which):
    """New group objects, so that no test sees a cache or a slot another test filled."""
    return [SemidirectGroup(ctx, PMatrix(ctx, action)) for ctx, action in oracle_actions(which)]


def sample_subgroups(g, rng):
    """Trivial, full and fiber-only subgroups, and witnesses of valuation 0, 1 and 2."""
    ctx = g.ctx
    p, mod = ctx.p, ctx.modulus

    def vec(scale=1):
        return tuple(scale * rng.randrange(mod) % mod for _ in range(g.fiber_dim))

    out = [generated_subgroup(g, []), full_subgroup(g)]
    out.append(generated_subgroup(g, [g.element(0, vec())]))
    out.append(generated_subgroup(g, [g.element(0, vec(p)), g.element(0, vec(p * p))]))
    for e in (0, 1, 2):
        unit = rng.choice([u for u in range(1, 4 * p) if u % p])
        a = p**e * unit
        out.append(generated_subgroup(g, [g.element(a, (0,) * g.fiber_dim)]))
        out.append(generated_subgroup(g, [g.element(a, vec())]))
        out.append(generated_subgroup(g, [g.element(a, vec(p)), g.element(0, vec(p))]))
    return out


@lru_cache(maxsize=None)
def oracle_keys(which):
    """(group index, then the (witness, fiber) keys of U, [U, G] and U^G), all three built by
    the fixed-point routes."""
    rng = random.Random(ORACLE_GROUPS.index(which))
    keys = []
    with fixpoint_routes():
        for i, g in enumerate(oracle_groups(which)):
            for U in sample_subgroups(g, rng):
                cases = (U, generator_commutator_subgroup(U), fixpoint_normal_closure(U))
                keys.append((i, *((X.witness, X.fiber) for X in cases)))
    return tuple(keys)


def oracle_cases(which):
    """(group, subgroup, [U, G], U^G) as new objects built from the stored keys."""
    groups = oracle_groups(which)
    return [(groups[i], *(SubgroupData(groups[i], *key) for key in keys)) for i, *keys in oracle_keys(which)]


def oracle_subgroups(which):
    """(group, subgroup) for the sample, its fixed-point [U, G] and U^G, and U's closed-form
    normal closure and power subgroup."""
    return [
        (g, V)
        for g, U, comm, closure in oracle_cases(which)
        for V in (U, comm, closure, normal_closure(U), power_subgroup(U))
    ]


class TestClosedForms:
    """commutator_subgroup, normal_closure and _twist_closure against the fixed-point routes."""

    @pytest.mark.parametrize("which", ORACLE_GROUPS)
    def test_commutator_subgroup_matches_generator_commutators(self, which):
        for g, U, comm, _ in oracle_cases(which):
            got = commutator_subgroup(U)
            assert got.witness is None
            assert got == comm, U

    @pytest.mark.parametrize("which", ORACLE_GROUPS)
    def test_normal_closure_matches_fixpoint(self, which):
        moved = 0
        for g, U, _, closure in oracle_cases(which):
            assert normal_closure(U) == closure, U
            moved += U != closure
        assert moved  # the sample holds subgroups that are not normal

    @pytest.mark.parametrize("which", ORACLE_GROUPS)
    def test_twist_closure_matches_fixpoint(self, which):
        rng = random.Random(21)
        for g in oracle_groups(which):
            ctx = g.ctx
            p, mod = ctx.p, ctx.modulus
            for e in (0, 1, 2):
                a = p**e * rng.choice([u for u in range(1, 4 * p) if u % p])
                for scales in ((1,), (p,), (1, p * p), (p, p)):
                    rows = [[s * rng.randrange(mod) % mod for _ in range(g.fiber_dim)] for s in scales]
                    S = Span(ctx, g.fiber_dim, rows)
                    assert propgroup._twist_closure(g, S, a) == fixpoint_twist_closure(g, S, a)

    @pytest.mark.parametrize("which", ORACLE_GROUPS)
    def test_series_joins_are_already_normal(self, which):
        # lower_p_series_group and frattini_p build their closed-form terms unclosed
        for g in oracle_groups(which):
            terms = lower_p_series_group(g) + [frattini_p(g)]
            with fixpoint_routes():
                closures = [fixpoint_normal_closure(X) for X in terms]
            for X, V in zip(terms, closures):
                assert X == V, X

    @pytest.mark.parametrize("which", ORACLE_GROUPS)
    def test_normal_join_matches_generated_subgroup(self, which):
        by_group = {}
        for g, V in oracle_subgroups(which):
            if conj_loop_is_normal(V):
                by_group.setdefault(g, set()).add(V)
        witnessed = 0
        for g, normal in by_group.items():
            normal = list(normal)
            for i, U in enumerate(normal):
                for V in normal[i:]:
                    UV = generated_subgroup(g, U.generators() + V.generators())
                    assert join(U, V) == UV == join(V, U), (U, V)
                    witnessed += U.witness is not None and V.witness is not None
        assert witnessed  # pairs where both witnesses enter the fiber part x

    @pytest.mark.parametrize("which", ORACLE_GROUPS)
    def test_full_subgroup_matches_generated_subgroup(self, which):
        for g in oracle_groups(which):
            with fixpoint_routes():
                full = generated_subgroup(g, g.standard_generators())
            assert full_subgroup(g) == full

    @pytest.mark.parametrize("which", ORACLE_GROUPS)
    def test_normality_test_matches_conj_loop(self, which):
        verdicts = set()
        for g, V in oracle_subgroups(which):
            normal = conj_loop_is_normal(V)
            verdicts.add(normal)
            if normal:
                verify_group_potent_filtration(g, [V])
            else:
                with pytest.raises(NotNormal):
                    verify_group_potent_filtration(g, [V])
        assert verdicts == {True, False}

    def test_closed_forms_run_no_fixpoint(self, monkeypatch):
        calls = []

        def counted(step, start, budget):
            calls.append(step)
            return fixpoint(step, start, budget)

        monkeypatch.setattr(propgroup, "fixpoint", counted)
        for which in ORACLE_GROUPS:
            for g, U, _, _ in oracle_cases(which)[:20]:
                commutator_subgroup(U)
                normal_closure(U)
                if U.witness is not None:
                    propgroup._twist_closure(g, U.fiber, U.witness.a)
        assert calls == []
        gamma_series(oracle_groups("dim-p")[0])  # the series still iterate, through the counter
        assert calls


class TestCanonicalForm:
    """SubgroupData keys: equality and hashing by (witness, fiber), checked against containment."""

    @pytest.mark.parametrize("which", ORACLE_GROUPS)
    def test_key_equality_matches_containment(self, which):
        by_group = {}
        for g, V in oracle_subgroups(which):
            by_group.setdefault(g, []).append(V)
        for subgroups in by_group.values():
            inside = [[X.contains(Y) for Y in subgroups] for X in subgroups]
            for i, X in enumerate(subgroups):
                for j, Y in enumerate(subgroups):
                    assert (X == Y) == (inside[i][j] and inside[j][i]), (X, Y)
                    if X == Y:
                        assert hash(X) == hash(Y)
            classes = {frozenset(j for j, Y in enumerate(subgroups) if X == Y) for X in subgroups}
            assert len(set(subgroups)) == len(classes)  # hashing agrees with equality

    @pytest.mark.parametrize("which", ORACLE_GROUPS)
    def test_witness_quotient_is_a_fiber_difference(self, which):
        # w^-lam x = (0, x.v - (w^lam).v) when x.a = lam a_w, the identity behind
        # contains_element, generated_subgroup and join, against the group law
        rng = random.Random(37)
        for g in oracle_groups(which):
            p, mod = g.ctx.p, g.ctx.modulus
            for e in (0, 1, 2) * 4:
                w, x = random_element(g, rng), random_element(g, rng)
                w = g.element(p**e * w.a, w.v)
                lam = rng.randrange(mod)
                h = g.pow(w, lam)
                x = g.element(lam * w.a, x.v)
                difference = tuple((a - b) % mod for a, b in zip(x.v, h.v))
                assert g.mul(g.inv(h), x) == GroupElement(0, difference)

    @pytest.mark.parametrize("which", ORACLE_GROUPS)
    def test_witness_is_canonical(self, which):
        for g, V in oracle_subgroups(which):
            if V.witness is not None:
                assert V.witness.a == g.ctx.p**V.h_valuation
                assert V.fiber.reduce(V.witness.v) == V.witness.v

    @pytest.mark.parametrize("which", ORACLE_GROUPS)
    def test_generated_from_scaled_shuffled_generators(self, which):
        rng = random.Random(31)
        for g, V in oracle_subgroups(which):
            units = [u for u in range(1, 4 * g.ctx.p) if u % g.ctx.p]
            gens = [g.pow(x, rng.choice(units)) for x in V.generators()]
            rng.shuffle(gens)
            if len(gens) > 1:
                gens.append(g.mul(gens[0], gens[1]))
            assert generated_subgroup(g, gens) == V, V

    def test_only_generated_subgroup_closes_under_the_twist(self, monkeypatch):
        pairs = oracle_subgroups("dim-p")  # built before the counters: the fixed-point routes conjugate
        verdict_groups = oracle_groups("grid")[:1] + oracle_groups("dim-p")
        closures, containments, conjugations = [], [], []
        twist_closure = propgroup._twist_closure
        contains_element = propgroup.SubgroupData.contains_element
        conj = SemidirectGroup.conj
        monkeypatch.setattr(
            propgroup, "_twist_closure", lambda *a: closures.append(a) or twist_closure(*a)
        )
        monkeypatch.setattr(
            propgroup.SubgroupData,
            "contains_element",
            lambda *a: containments.append(a) or contains_element(*a),
        )
        monkeypatch.setattr(SemidirectGroup, "conj", lambda *a: conjugations.append(a) or conj(*a))
        for g, V in pairs:
            propgroup.SubgroupData(g, V.witness, V.fiber)
            normal_closure(V)
            power_subgroup(V)
            commutator_subgroup(V)
            for _, W in pairs:
                _ = V == W
        assert closures == [] and containments == []
        # a full group verdict, as the saturability check makes it: no closure, no conjugation
        for g in verdict_groups:
            check_gamma_p_in_phi_p(g)
            verify_group_potent_filtration(g, lower_p_series_group(g))
        assert closures == [] and conjugations == []
        generated_subgroup(g, g.standard_generators())
        assert closures


class TestSubgroupSlots:
    """A subgroup's slots are its key alone, so equal keys give equal results; Phi(G) is the
    one derived subgroup a group keeps, in its `_phi` slot."""

    @pytest.mark.parametrize("which", ORACLE_GROUPS)
    def test_same_key_gives_equal_results(self, which):
        for g, V in oracle_subgroups(which):
            twin = SubgroupData(g, V.witness, V.fiber)
            assert commutator_subgroup(twin) == commutator_subgroup(V)
            assert power_subgroup(twin) == power_subgroup(V)

    def test_frattini_is_stored_once_per_group(self):
        g = example42(PadicContext(5, 4))
        phi = frattini_p(g)
        assert frattini_p(g) is phi and g._phi is phi
        other = SemidirectGroup(g.ctx, g.action)
        assert frattini_p(other) is not phi and frattini_p(other).group is other
        assert frattini_p(other) == SubgroupData(other, phi.witness, phi.fiber)


class TestSubgroups:
    def test_generated_examples(self):
        ctx = PadicContext(5, 4)
        g = abelian_group(ctx)
        assert generated_subgroup(g, []).is_trivial()
        h_line = generated_subgroup(g, [g.element(1, (0,))])
        assert h_line.h_valuation == 0 and h_line.fiber.is_zero()
        assert index_exp_in_group(full_subgroup(g)) == 0

    def test_contains_and_index(self):
        ctx = PadicContext(5, 4)
        g = example42(ctx)
        full = full_subgroup(g)
        rng = random.Random(4)
        for _ in range(20):
            assert full.contains_element(random_element(g, rng))
        phi = frattini_p(g)
        assert index_exp_in_group(phi) == 2  # the group is 2-generated

    def test_gamma_series_abelian(self):
        ctx = PadicContext(5, 4)
        gam = gamma_series(abelian_group(ctx))
        assert gam[-1].is_trivial() and len(gam) == 2

    def test_gamma_series_example42(self):
        ctx = PadicContext(5, 4)
        g = example42(ctx)
        gam = gamma_series(g)
        E = g.action - PMatrix.identity(ctx, g.fiber_dim)
        image = Span.full(ctx, g.fiber_dim).image(E)
        closure = image
        for _ in range(10):
            closure = closure.sum(closure.image(g.action))
        assert gam[1].witness is None
        assert gam[1].fiber == closure
        # gamma_p = p * fiber: the action satisfies (M-1)^(p-1) = p
        assert gam[4].fiber == Span.full(ctx, g.fiber_dim).scale(ctx.p)

    def test_descending_with_commutator_inclusion(self):
        ctx = PadicContext(5, 4)
        g = heisenberg_group(ctx)
        gam = gamma_series(g)
        for a, b in zip(gam, gam[1:]):
            assert a.contains(b)

    def test_frattini_abelian(self):
        ctx = PadicContext(5, 4)
        g = SemidirectGroup(ctx, PMatrix.identity(ctx, 1))
        phi = frattini_p(g)
        assert phi.h_valuation == 1
        assert phi.fiber == Span(ctx, 1, [(5,)])
        phi_p = frattini_p_power(g)
        assert phi_p.h_valuation == 2
        assert phi_p.fiber == Span(ctx, 1, [(25,)])

    def test_frattini_heisenberg_contains_commutators(self):
        ctx = PadicContext(5, 4)
        g = heisenberg_group(ctx)
        phi = frattini_p(g)
        x, y, z = g.standard_generators()
        assert phi.contains_element(g.comm(x, y))

    def test_power_subgroup_closed_form_matches_brute_force(self):
        # <h^p> must contain every sampled p-th power and be generated by them
        ctx = PadicContext(5, 3)
        g = example42(ctx)
        U = full_subgroup(g)
        P = power_subgroup(U)
        rng = random.Random(5)
        seen = Span(ctx, g.fiber_dim, [])
        powers = []
        for _ in range(200):
            u = random_element(g, rng)
            up = g.pow(u, ctx.p)
            powers.append(up)
            assert P.contains_element(up)
            if up.a % ctx.modulus == 0:
                seen = seen.sum(Span(ctx, g.fiber_dim, [up.v]))
        assert P.fiber_intersection().contains(seen)
        assert generated_subgroup(g, powers) == P


class TestSaturabilityChecks:
    def test_abelian_passes(self):
        ctx = PadicContext(5, 4)
        assert check_gamma_p_in_phi_p(abelian_group(ctx)).holds

    def test_abelian_lower_p_series_passes(self):
        ctx = PadicContext(5, 4)
        g = abelian_group(ctx)
        assert verify_group_potent_filtration(g, lower_p_series_group(g)).passed

    def test_catalog_group_passes(self):
        ctx = PadicContext(5, 8)
        _, g = make_thm73(ctx, "G4", {"s": 0, "r": 1})
        assert check_gamma_p_in_phi_p(g).holds
        assert verify_group_potent_filtration(g, lower_p_series_group(g)).passed

    def test_one_commutator_per_term_matches_reference(self):
        jordan = jordan_block()
        full, trivial = full_subgroup(jordan), generated_subgroup(jordan, [])
        groups = oracle_groups("grid") + oracle_groups("dim-p") + [example42(PadicContext(7, 4))]
        cases = [(g, lower_p_series_group(g)) for g in groups]
        cases += [(jordan, [full, full, trivial]), (jordan, [full, trivial])]
        for g, chain in cases:
            assert verify_group_potent_filtration(g, chain) == potency_report_by_subgroups(g, chain)
        assert [s.deep_ok for s in potency_report_by_subgroups(*cases[-2]).steps] == [True, False]
        assert not potency_report_by_subgroups(*cases[-1]).steps[0].deep_ok

    def test_gamma_p_matches_gamma_series(self):
        def reference(g):
            """The check with gamma_p read from the whole gamma series."""
            p = g.ctx.p
            gammas = gamma_series(g)
            gamma_p = gammas[p - 1] if len(gammas) >= p else gammas[-1]
            phi_p = frattini_p_power(g)
            failing = [x for x in gamma_p.generators() if not phi_p.contains_element(x)]
            return GammaPhiReport(not failing, gamma_p.generators(), failing)

        groups = oracle_groups("grid") + oracle_groups("dim-p") + [example42(PadicContext(7, 4)), jordan_block()]
        for g in groups:
            assert check_gamma_p_in_phi_p(g) == reference(g)
        # both ends of the table: E^(p-1) = 0 (K <= p - 1, e.g. abelian G0) and E^(p-1) != 0
        # (the dim-p example, where E^(p-1) = pI, and the Jordan block)
        assert {len(g._powers) <= g.ctx.p - 1 for g in groups} == {True, False}
        assert not check_gamma_p_in_phi_p(groups[-2]).holds

    @pytest.mark.parametrize("p", (2, 3, 5, 7))
    def test_lower_p_series_matches_subgroup_route(self, p):
        # each term, Phi(G) among them, against the join of [U, G] and U^p, by key and by
        # hash; the own series' report against p - 1 commutator subgroups per step
        first_failures, later_failures = set(), 0
        for g in group_pool(p):
            series = lower_p_series_group(g)
            reference = lower_p_series_by_subgroups(g)
            assert series == reference, g.action
            assert [hash(X) for X in series] == [hash(X) for X in reference]
            assert frattini_p(g) is series[1]
            report = verify_group_potent_filtration(g, series)
            assert report == potency_report_by_subgroups(g, series), g.action
            first_failures.add(report.first_failure())
            later_failures += any(not s.deep_ok for s in report.steps[1:])
        # the own series fails at step 1 or not at all (as on the lattice side), and often at
        # later steps too, where D_i with i >= 2 decides
        assert first_failures == {None, 1} and later_failures

    def test_verdicts_match_the_lattice_of_E(self):
        # L_E is the split lattice with fiber matrix E = M - I (not L(G): for M = exp(A), L(G)
        # has fiber matrix A).  The group's own report equals L_E's step by step, with L_E on
        # the bracket route through a plain Filtration copy, and gamma_p <= Phi(G)^p is L_E's
        # sufficient condition
        groups = [g for p in (3, 5, 7) for g in group_pool(p)]
        for p in (5, 7):
            groups += [m.group for exp_action in (False, True) for m in grid(PadicContext(p, 8), exp_action=exp_action)]
        groups += [example42(PadicContext(5, 4)), example42(PadicContext(7, 6))]
        passed, holds = set(), set()
        for g in groups:
            L_E = _split_pair(g.action - PMatrix.identity(g.ctx, g.fiber_dim), None)[0]
            report = verify_group_potent_filtration(g, lower_p_series_group(g))
            assert report == L_E.verify_potent_filtration(Filtration(list(L_E.lower_p_series().terms))), g.action
            gamma = check_gamma_p_in_phi_p(g)
            assert gamma.holds == L_E.saturable_sufficient(), g.action
            passed.add(report.passed)
            holds.add(gamma.holds)
        assert passed == holds == {True, False}

    def test_only_the_own_series_skips_the_subgroup_route(self, monkeypatch):
        calls = {"commutator_subgroup": [], "join": [], "gamma_series": []}
        powers = []  # the subgroups passed to power_subgroup
        for name, objects in (*calls.items(), ("power_subgroup", powers)):
            original = getattr(propgroup, name)
            monkeypatch.setattr(propgroup, name, lambda *a, f=original, seen=objects: seen.append(a[0]) or f(*a))

        groups = oracle_groups("grid")[::3] + oracle_groups("dim-p") + group_pool(3)[::4]
        altered_kinds = set()
        for g in groups:
            for objects in (*calls.values(), powers):
                objects.clear()
            chain = lower_p_series_group(g)
            check_gamma_p_in_phi_p(g)
            assert len(powers) == 1 and powers[0] is chain[1]  # Phi(G)^p, on the stored G_2
            powers.clear()
            report = verify_group_potent_filtration(g, chain)
            assert all(objects == [] for objects in calls.values())
            assert frattini_p(g) is chain[1]
            # at most one G_i^p per member; with E^(p-1) = 0 every D_i is zero, and none is built
            assert len({id(U) for U in powers}) == len(powers) and {id(U) for U in powers} <= {id(U) for U in chain}
            if len(g._powers) < g.ctx.p:
                assert powers == []
            assert report == potency_report_by_subgroups(g, chain)

            # a user's chain, a copy, a reordered one, one truncated in the middle, one with a
            # term swapped for an equal object, and another group's series
            altered = [("user", [full_subgroup(g), generated_subgroup(g, [])]), ("copy", list(chain))]
            reordered = lower_p_series_group(g)
            reordered[0], reordered[1] = reordered[1], reordered[0]
            altered.append(("reordered", reordered))
            if len(chain) > 3:
                truncated = lower_p_series_group(g)
                del truncated[2]
                altered.append(("truncated", truncated))
            swapped = lower_p_series_group(g)
            U = swapped[-1]
            swapped[-1] = SubgroupData(U.group, U.witness, U.fiber)
            altered.append(("swapped", swapped))
            altered.append(("other group", lower_p_series_group(SemidirectGroup(g.ctx, g.action))))
            for kind, other in altered:
                calls["commutator_subgroup"].clear()
                report = verify_group_potent_filtration(g, other)
                assert {id(U) for U in calls["commutator_subgroup"]} >= {id(U) for U in other}, kind
                assert report == potency_report_by_subgroups(g, other), kind
                altered_kinds.add(kind)
        assert len(altered_kinds) == 6

    def test_not_normal_rejected(self):
        ctx = PadicContext(5, 4)
        g = example42(ctx)
        crooked = generated_subgroup(g, [g.element(0, (1, 0, 0, 0))])
        with pytest.raises(NotNormal):
            verify_group_potent_filtration(g, [full_subgroup(g), crooked])

    def test_group_lattice_consistency(self):
        # the two sides of the saturability check agree on catalog pairs
        ctx = PadicContext(5, 8)
        for m in grid(ctx, (0, 1), (0, 1), (0, 1)):
            assert m.lattice.saturable_sufficient() == check_gamma_p_in_phi_p(m.group).holds
        ctx4 = PadicContext(5, 4)
        grp, lat = make_example_dim_p(ctx4)
        assert lat.saturable_sufficient() == check_gamma_p_in_phi_p(grp).holds == False


class TestGroupLatticeRoundTrip:
    def _matrix_model(self, ctx, A):
        full = [[0] * 3 for _ in range(3)]
        for i in range(2):
            for j in range(2):
                full[i][j] = A.entries[i][j]
        xhat = PMatrix(ctx, full)
        y1 = PMatrix(ctx, [[0, 0, 0], [0, 0, 0], [1, 0, 0]])
        y2 = PMatrix(ctx, [[0, 0, 0], [0, 0, 0], [0, 1, 0]])
        return xhat, y1, y2

    def test_descriptor_recovered_from_matrix_group(self):
        # the group with the exponential action gives back the defining
        # matrix class through the limit-formula dictionary
        ctx = PadicContext(5, 5)
        for fam, params in (
            ("G1", {"s": 1}),
            ("G2", {"s": 1, "r": 1, "d": 2}),
            ("G4", {"s": 0, "r": 1}),
            ("G5", {"s": 1, "r": 0}),
        ):
            A = thm73_fiber_matrix(ctx, fam, params)
            xhat, y1, y2 = self._matrix_model(ctx, A)
            gx = mat_exp(xhat)
            recovered = []
            for yhat in (y1, y2):
                _, br = lie_from_matrix_group(mat_exp(yhat), gx)
                b = mat_log(br)
                coeffs = solve_over_rows(
                    [tuple(y1.entries[2]), tuple(y2.entries[2])],
                    tuple(b.entries[2]),
                    ctx,
                    3,
                )
                assert coeffs is not None
                assert all(e == 0 for row in b.entries[:2] for e in row)
                recovered.append(coeffs)
            B = PMatrix(ctx, recovered)
            assert descriptors_equal(classify(B), classify(A), ctx.p)
