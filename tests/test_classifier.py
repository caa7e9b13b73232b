import random
from collections import defaultdict

import pytest

from padiclie import PadicContext, PMatrix
from padiclie.classifier import (
    canonical_matrix,
    classify,
    descriptors_equal,
    full_orbit_partition,
    similar,
)
from padiclie.claims import random_invertible
from padiclie.errors import BadParameter, PrecisionExhausted, ScaleTooLarge

from oracles import brute_force_orbit


class TestClassify:
    def test_zero(self):
        ctx = PadicContext(5, 3)
        assert classify(PMatrix.zero(ctx, 2)).variant == "zero"

    def test_nilpotent(self):
        ctx = PadicContext(5, 4)
        d = classify(PMatrix(ctx, [[0, 0], [5, 0]]))
        assert (d.variant, d.s) == ("nilpotent", 1)

    def test_scalar(self):
        ctx = PadicContext(5, 3)
        d = classify(PMatrix(ctx, [[2, 0], [0, 2]]))
        assert (d.variant, d.s) == ("scalar", 0)

    def test_tracecore_with_orbit_confirmation(self):
        ctx = PadicContext(5, 3)
        A = PMatrix(ctx, [[1, 1], [0, 1]])
        d = classify(A)
        assert (d.variant, d.s, d.r) == ("scalarplus", 0, 1) or (d.variant, d.s, d.r) == (
            "tracecore",
            0,
            0,
        )
        # ((1,1),(0,1)) is scalar mod 5 minus nothing: trace 2 is a unit but
        # the matrix is scalar mod p^0... the case split: not scalar mod p?
        # off-diagonal 1 is a unit, so not scalar mod p: case 3 with r = 0.
        assert d.variant == "tracecore"
        # confirm through the brute-force orbit mod 25
        orb = brute_force_orbit(5, 2, (1, 1, 0, 1))
        cm = canonical_matrix(d, ctx)
        q = 25
        cmt = (cm.entries[0][0] % q, cm.entries[0][1] % q, cm.entries[1][0] % q, cm.entries[1][1] % q)
        assert cmt in orb

    def test_rendering(self):
        ctx = PadicContext(5, 4)
        assert classify(PMatrix.zero(ctx, 2)).render(5) == "zero"
        assert classify(PMatrix(ctx, [[0, 0], [5, 0]])).render(5) == "nilpotent s=1"
        d = classify(PMatrix(ctx, [[0, 5], [1, 0]]))
        assert d.render(5) == "zerotrace s=0 r=1 residue=square"

    def test_strict_precision_guard(self):
        ctx = PadicContext(5, 2)
        with pytest.raises(PrecisionExhausted):
            classify(PMatrix(ctx, [[0, 0], [5, 0]]))  # s = 1 >= N - 1
        assert classify(PMatrix(ctx, [[0, 0], [5, 0]]), strict=False).variant == "nilpotent"

    def test_odd_prime_required(self):
        ctx = PadicContext(2, 4)
        with pytest.raises(ValueError):
            classify(PMatrix(ctx, [[1, 0], [0, 1]]))


class TestSimilar:
    def test_reflexive_and_conjugates(self):
        ctx = PadicContext(5, 4)
        rng = random.Random(30)
        for _ in range(25):
            A = PMatrix(ctx, [[rng.randrange(ctx.modulus) for _ in range(2)] for _ in range(2)])
            try:
                assert similar(A, A)
            except PrecisionExhausted:
                continue
            B = random_invertible(ctx, 2, rng)
            u = rng.choice([x for x in range(1, ctx.modulus) if x % 5])
            A2 = u * (B.inverse() @ A @ B)
            assert similar(A, A2)

    def test_distinct_scalings_differ(self):
        ctx = PadicContext(5, 4)
        assert not similar(PMatrix(ctx, [[0, 0], [1, 0]]), PMatrix(ctx, [[0, 0], [5, 0]]))

    def test_invariance_sample(self):
        ctx = PadicContext(5, 4)
        rng = random.Random(31)
        done = 0
        while done < 15:
            A = PMatrix(ctx, [[rng.randrange(ctx.modulus) for _ in range(2)] for _ in range(2)])
            try:
                d0 = classify(A)
            except PrecisionExhausted:
                continue
            done += 1
            for _ in range(20):
                u = rng.choice([x for x in range(1, ctx.modulus) if x % 5])
                B = random_invertible(ctx, 2, rng)
                assert descriptors_equal(d0, classify(u * (B.inverse() @ A @ B)), 5)

    def test_valuation_invariants_on_conjugates(self):
        ctx = PadicContext(5, 5)
        rng = random.Random(32)
        A = 5 * PMatrix(ctx, [[1, 0], [0, 1]]) + 25 * PMatrix(ctx, [[0, 2], [1, 0]])
        d0 = classify(A)
        assert (d0.variant, d0.s, d0.r) == ("scalarplus", 1, 1)
        for _ in range(25):
            u = rng.choice([x for x in range(1, ctx.modulus) if x % 5])
            B = random_invertible(ctx, 2, rng)
            d = classify(u * (B.inverse() @ A @ B))
            assert (d.s, d.r) == (1, 1)

    def test_rho_relabels_without_changing_partition(self):
        # swapping the chosen non-residue renames zerotrace labels but
        # preserves which matrices are similar
        c2 = PadicContext(5, 4, rho=2)
        c3 = PadicContext(5, 4, rho=3)
        rng = random.Random(33)
        mats = []
        while len(mats) < 12:
            entries = [[rng.randrange(c2.modulus) for _ in range(2)] for _ in range(2)]
            try:
                classify(PMatrix(c2, entries))
                classify(PMatrix(c3, entries))
            except PrecisionExhausted:
                continue
            mats.append(entries)
        for a in mats:
            for b in mats:
                assert similar(PMatrix(c2, a), PMatrix(c2, b)) == similar(
                    PMatrix(c3, a), PMatrix(c3, b)
                )


class TestBruteForce:
    def test_zero_orbit(self):
        assert brute_force_orbit(3, 2, (0, 0, 0, 0)) == frozenset({(0, 0, 0, 0)})

    def test_disjoint_nilpotent_scales(self):
        a = brute_force_orbit(3, 2, (0, 0, 1, 0))
        b = brute_force_orbit(3, 2, (0, 0, 3, 0))
        assert a.isdisjoint(b)
        assert min(a) != min(b)

    def test_scale_cap(self):
        with pytest.raises(ScaleTooLarge):
            brute_force_orbit(7, 3, (1, 0, 0, 1))

    def test_odd_prime_required(self):
        # both enumeration routines share the guard; p = 2 has no primitive root mod 2^k
        for p in (2, 9):
            with pytest.raises(BadParameter, match="odd prime"):
                brute_force_orbit(p, 1, (1, 0, 0, 1))
            with pytest.raises(BadParameter, match="odd prime"):
                full_orbit_partition(p, 1)

    def test_small_oracle_partition(self):
        # mod 9 enumeration: descriptor classes coincide with orbits
        p, k = 3, 2
        ctx = PadicContext(p, k)
        rep = full_orbit_partition(p, k)
        by_orbit = defaultdict(set)
        q = p**k
        for m, r in rep.items():
            d = classify(PMatrix(ctx, [[m[0], m[1]], [m[2], m[3]]]), strict=False)
            by_orbit[r].add(d.key())
            cm = canonical_matrix(d, ctx)
            cmt = (
                cm.entries[0][0] % q,
                cm.entries[0][1] % q,
                cm.entries[1][0] % q,
                cm.entries[1][1] % q,
            )
            assert rep[cmt] == r
        assert all(len(v) == 1 for v in by_orbit.values())
        keys = [next(iter(v)) for v in by_orbit.values()]
        assert len(set(keys)) == len(by_orbit)
