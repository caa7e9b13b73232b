"""Acceptance suite: one check per criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Criterion 9 is expected to fail: the logarithm of 1 + A is not
multiplicatively similar to A (see the assertion message for the
mechanism), and the check is kept as stated rather than weakened.
"""

import random
import time
from fractions import Fraction

from padiclie import PadicContext, PMatrix, Span, mat_log
from padiclie.bch import (
    bch_mul,
    bch_neg,
    free_nilpotent_lattice,
    hausdorff_table,
    poly_add,
    poly_scale,
)
from padiclie.catalog import (
    iso_test_3dim,
    make_2dim,
    make_example_dim_p,
    make_p2_groups,
    make_thm73,
    thm73_fiber_matrix,
    thm73_grid,
)
from padiclie.claims import (
    classifier_oracle,
    example_4_2,
    example_4_7,
    levi,
    p3_pair,
    random_invertible,
    thm73_irredundant,
    thm73_members,
    thm73_saturable,
    two_dim,
)
from padiclie.classifier import classify, descriptors_equal
from padiclie.errors import PrecisionExhausted
from padiclie.lattice import Lattice
from padiclie.propgroup import lower_p_series_group, verify_group_potent_filtration

from oracles import as_assoc, direct_sum, hausdorff_oracle


def report(num, label, ok, started=None):
    stamp = f" [{time.time() - started:.1f}s]" if started is not None else ""
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {label}{stamp}")
    return ok


def failed(checks):
    """The labels of the claim checks that did not hold."""
    return [label for label, ok in checks if not ok]


def test_criterion_01_bch_table():
    t0 = time.time()
    table = hausdorff_table(3)
    coeffs = {w: c for c, w in table.terms}
    low_ok = coeffs == {
        "X": 1,
        "Y": 1,
        "XY": Fraction(1, 2),
        "XYY": Fraction(1, 12),
        "XYX": Fraction(-1, 12),
    }
    t6 = hausdorff_table(6)
    oracle_ok = poly_add(as_assoc(t6), poly_scale(-1, hausdorff_oracle(6))) == {}
    elapsed = time.time() - t0
    ok = low_ok and oracle_ok and elapsed < 10
    assert report(1, "series table: displayed low-weight coefficients and weight-6 oracle", ok, t0)


def test_criterion_02_order_p3_reproduction():
    t0 = time.time()
    fails = failed([check for p in (5, 7) for check in p3_pair(p)])
    ok = not fails and (time.time() - t0) < 30
    assert report(2, "order-p^3 pair: presentations hold, order multisets differ (p = 5, 7)", ok, t0), fails


def test_criterion_03_group_axiom_suite():
    t0 = time.time()
    ctx = PadicContext(5, 6)
    rng = random.Random(100)
    failures = 0

    nilpotent_lattices = [
        make_thm73(ctx, "G0", {"s": s})[0] for s in (0, 1, 2)
    ] + [
        make_thm73(ctx, "G0", {"s": None})[0],
        free_nilpotent_lattice(ctx, 3),
    ]
    for L in nilpotent_lattices:
        zero = (0,) * L.dim
        for _ in range(200):
            u, v, w = (tuple(rng.randrange(ctx.modulus) for _ in range(L.dim)) for _ in range(3))
            if bch_mul(L, u, bch_mul(L, v, w)) != bch_mul(L, bch_mul(L, u, v), w):
                failures += 1
            if bch_mul(L, u, zero) != u or bch_mul(L, u, bch_neg(L, u)) != zero:
                failures += 1

    groups = [make_thm73(ctx, fam, params)[1] for _, fam, params in thm73_grid(ctx)]
    groups += [make_2dim(ctx, s)[1] for s in (1, 2, 3)]
    groups.append(make_example_dim_p(PadicContext(5, 4))[0])
    c2 = PadicContext(2, 8)
    groups += [make_p2_groups(c2, "+", 2), make_p2_groups(c2, "-", 3)]
    for g in groups:
        e = g.identity_element()
        m = g.ctx.modulus
        for _ in range(100):
            a, b, c = (
                g.element(rng.randrange(m), [rng.randrange(m) for _ in range(g.fiber_dim)])
                for _ in range(3)
            )
            if g.mul(g.mul(a, b), c) != g.mul(a, g.mul(b, c)):
                failures += 1
            if g.mul(a, e) != a or g.mul(a, g.inv(a)) != e:
                failures += 1
    assert report(3, f"group axioms: series law on nilpotent lattices, split law on {len(groups)} groups", failures == 0, t0)


def test_criterion_04_classifier_oracle():
    t0 = time.time()
    checks = classifier_oracle(3, 2)
    # the first label carries the number of matrices enumerated
    ok = not failed(checks) and checks[0][0].endswith("(all 6561 matrices)") and time.time() - t0 < 300
    assert report(4, "exhaustive mod-9 oracle: orbits match descriptors", ok, t0), checks


def test_criterion_05_classifier_invariance():
    t0 = time.time()
    ctx = PadicContext(5, 4)
    rng = random.Random(101)
    failures = 0
    tested = 0
    while tested < 50:
        A = PMatrix(ctx, [[rng.randrange(ctx.modulus) for _ in range(2)] for _ in range(2)])
        try:
            d0 = classify(A)
        except PrecisionExhausted:
            continue  # too deep to carry a descriptor at this precision
        tested += 1
        for _ in range(100):
            u = rng.choice([x for x in range(1, ctx.modulus) if x % 5])
            B = random_invertible(ctx, 2, rng)
            if not descriptors_equal(d0, classify(u * (B.inverse() @ A @ B)), 5):
                failures += 1
    assert report(5, "descriptor invariance under 50 x 100 unit-scaled conjugations", failures == 0, t0)


def test_criterion_06_dimension_p_counterexamples():
    t0 = time.time()
    ctx = PadicContext(5, 4)
    fails = failed(example_4_2(ctx) + example_4_7(ctx))
    ok = not fails and time.time() - t0 < 10
    assert report(6, "dimension-p pair: both sufficiency checks fail, potency breaks at step 1", ok, t0), fails


def test_criterion_07_small_dimension_saturability():
    t0 = time.time()
    members = thm73_members(PadicContext(5, 8))
    failures = failed(thm73_saturable(members))
    for name, lat, grp in members:
        if not lat.verify_potent_filtration(lat.lower_p_series()).passed:
            failures.append((name, "lattice potency"))
        if not verify_group_potent_filtration(grp, lower_p_series_group(grp)).passed:
            failures.append((name, "group potency"))
    assert report(7, f"saturability across the parameter grid ({len(members)} members)", not failures, t0), failures


def test_criterion_08_classification_irredundancy():
    t0 = time.time()
    ctx = PadicContext(5, 12)
    members = thm73_members(ctx)
    collisions = failed(thm73_irredundant(members))
    rng = random.Random(102)
    change_failures = []
    for name, lat, _ in members:
        for _ in range(20):
            P = random_invertible(ctx, 3, rng)
            if not iso_test_3dim(lat, lat.change_basis(P)).isomorphic:
                change_failures.append(name)
    ok = not collisions and not change_failures
    assert report(
        8,
        f"irredundancy: {len(members)} members pairwise distinct, stable under 20 basis changes each",
        ok,
        t0,
    ), (collisions, change_failures)


def test_criterion_09_exp_versus_linear_action():
    t0 = time.time()
    ctx = PadicContext(5, 6)
    mismatches = []
    total = 0
    for name, fam, params in thm73_grid(ctx):
        A = thm73_fiber_matrix(ctx, fam, params)
        sq = A @ A
        if any(e % 5 for row in sq.entries for e in row):
            continue
        total += 1
        L = mat_log(PMatrix.identity(ctx, 2) + A)
        try:
            if not descriptors_equal(classify(L), classify(A), 5):
                mismatches.append((name, classify(A).render(5), classify(L).render(5)))
        except PrecisionExhausted:
            # the logarithm consumes more digits than A itself does: its
            # class is not even determined at the stated precision
            mismatches.append((name, classify(A).render(5), "not classifiable at N=6"))
    ok = not mismatches
    report(9, f"descriptor equality of log(1 + A) with A on {total} grid matrices", ok, t0)
    assert ok, (
        "log(1 + A) is not multiplicatively similar to A: the logarithm picks up "
        "a nonzero trace of valuation s + r on trace-zero inputs and drifts the "
        "parameter d by a factor (1 + O(p^s))^2 otherwise, so the two actions "
        "parameterise the classification differently. "
        f"{len(mismatches)} of {total} grid matrices differ, e.g. {mismatches[:3]}"
    )


def test_criterion_10_isolator_laws():
    t0 = time.time()
    ctx = PadicContext(5, 4)
    rng = random.Random(103)

    def heisenberg():
        constants = [[[0] * 3 for _ in range(3)] for _ in range(3)]
        constants[0][1] = [0, 0, 1]
        constants[1][0] = [0, 0, -1]
        return Lattice(ctx, constants)

    pool = [
        heisenberg(),
        make_thm73(ctx, "G4", {"s": 0, "r": 1})[0],
        Lattice(ctx, [[[0] * 4 for _ in range(4)] for _ in range(4)]),
        direct_sum(heisenberg(), Lattice(ctx, [[[0]]])),
    ]
    failures = 0
    for trial in range(100):
        L = pool[trial % len(pool)]
        gens = [
            tuple(rng.randrange(ctx.modulus) for _ in range(L.dim))
            for _ in range(rng.randrange(1, 3))
        ]
        S = L.sublattice_closure(Span(ctx, L.dim, gens))
        iso = L.isolator(S)
        if not iso.contains(S):
            failures += 1
        if L.isolator(iso) != iso:
            failures += 1
        if iso.index_exp(S) < 0:
            failures += 1
        if iso.structural_rank() != S.structural_rank():
            failures += 1
    assert report(10, "isolator laws on 100 random sublattice spans (dimension <= 4)", failures == 0, t0)


def test_criterion_11_levi_fixture():
    t0 = time.time()
    checks = levi(PadicContext(5, 7), 2)
    # the last label carries the number of lifts scanned
    ok = not failed(checks) and checks[-1][0].endswith(f"({5**8} offsets)") and time.time() - t0 < 60
    assert report(11, "powerful 5-dim fixture: radical has no complement over the full lift grid", ok, t0), checks


def test_criterion_12_two_dim_invariant():
    t0 = time.time()
    rng = random.Random(104)
    fails = failed([check for p in (5, 7) for check in two_dim(PadicContext(p, 8), rng, 50)])
    assert report(12, "rank-2 invariant recovers s under 50 random basis changes (p = 5, 7)", not fails, t0), fails
