import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sepgamma import (BoundExceededError, Poly, PreconditionError, RealRoots,
                      cycle_graph, gamma_to_hstar, hstar_to_gamma, path_graph,
                      polynomials, property_reports, real_rootedness, solve)
from sepgamma.polynomials import _signed_slots, check_hstar_size

from oracles import compose, one_plus_x_power


class TestArithmetic:
    def test_square_of_binomial(self):
        assert Poly([1, 1]) * Poly([1, 1]) == Poly([1, 2, 1])

    def test_scale_arg(self):
        # g(C_3, x) = 1 + 3x scaled to 1 + 6x
        assert Poly([1, 3]).scale_arg(2) == Poly([1, 6])

    def test_zero_annihilates(self):
        assert Poly() * Poly([3, 1, 4]) == Poly()

    def test_trailing_zeros_trimmed(self):
        assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
        assert Poly([0, 0]).is_zero()

    def test_fraction_normalization(self):
        p = Poly([Fraction(2, 2), Fraction(1, 3)])
        assert p.coeffs == (1, Fraction(1, 3))
        assert type(p.coeffs[0]) is int

    def test_shift_and_pow(self):
        assert Poly.monomial(2) * Poly([1, 1]) == Poly([0, 0, 1, 1])
        assert Poly([1, 1]) * Poly([1, 2, 1]) == Poly([1, 3, 3, 1])

    def test_compose(self):
        # (1+x)^2 composed with 2x -> 1 + 4x + 4x^2
        assert compose(Poly([1, 2, 1]), Poly([0, 2])) == Poly([1, 4, 4])

    def test_evaluate_exact(self):
        assert Poly([1, 6])(Fraction(1, 4)) == Fraction(5, 2)
        assert 8 * Poly([1, 6])(Fraction(1, 4)) == 20
        assert Poly([1, 2, 6])(Fraction(1, 4)) == Fraction(15, 8)
        assert 16 * Poly([1, 2, 6])(Fraction(1, 4)) == 30
        assert Poly([7, 1, 1])(0) == 7

    def test_text_forms(self):
        assert Poly([1, 9, 9, 1]).coeff_text() == "[1, 9, 9, 1]"
        assert Poly([1, 9, 9, 1]).pretty() == "1 + 9x + 9x^2 + x^3"
        assert Poly([2, 0, -4, 0, 1]).pretty() == "2 - 4x^2 + x^4"
        assert Poly().pretty() == "0"


def schoolbook(p: Poly, q: Poly) -> Poly:
    """The product of p and q, every pair of coefficients multiplied."""
    out = [0] * (len(p.coeffs) + len(q.coeffs))
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(out)


# zero, the constant 1, monomials such as the tiling's edge weight 2x, and
# lists of small ints of either sign, Fractions and ints of 3,000 bits
factors = st.sampled_from([Poly(), Poly.one(), Poly([0, 2]), Poly([0, 0, -3]),
                           Poly([0, Fraction(1, 2)]), Poly([1, 1])]) | st.lists(
    st.integers(-3, 3) | st.fractions(max_denominator=6) | st.builds(
        lambda sign, low: sign * (1 << 2999 | low), st.sampled_from([1, -1]),
        st.integers(0, 1 << 64)), max_size=9).map(Poly)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(factors, factors)
@example(Poly([0, 2]), Poly([(-1) ** i << 3000 for i in range(40)]))
@example(Poly.one(), Poly([Fraction(1, 3), 0, 5]))
def test_product_in_either_order_is_the_schoolbook_product(p, q):
    want = schoolbook(p, q)
    for got in (p * q, q * p):
        assert got == want
        assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    if p == Poly.one() != q:
        assert p * q is q and q * p is q


class TestGammaTransforms:
    def test_expand_examples(self):
        assert gamma_to_hstar(Poly([1, 6]), 3) == Poly([1, 9, 9, 1])
        assert gamma_to_hstar(Poly([1, 2, 6]), 4) == Poly([1, 6, 16, 6, 1])
        for n in range(7):
            assert gamma_to_hstar(Poly([1]), n) == one_plus_x_power(n)

    def test_invert_examples(self):
        assert hstar_to_gamma(Poly([1, 9, 9, 1])) == Poly([1, 6])
        assert hstar_to_gamma(one_plus_x_power(5)) == Poly([1])
        assert hstar_to_gamma(Poly([1, 4, 1])) == Poly([1, 2])

    def test_degree_precondition(self):
        with pytest.raises(ValueError):
            gamma_to_hstar(Poly([1, 1, 1]), 3)

    def test_size_guard(self):
        # (d + 1) coefficients of d + (bits of gamma) bits, at most 2 * 10^8:
        # for gamma = 1 that is d <= 14,141
        assert gamma_to_hstar(Poly([1]), 9000) == one_plus_x_power(9000)
        check_hstar_size(14141)
        with pytest.raises(BoundExceededError):
            check_hstar_size(14142)
        for gamma, d in ((Poly([1]), 14142), (Poly([1 << 2 * 10 ** 8]), 0),
                         (Poly([1, 1 << 40000]), 5000)):
            with pytest.raises(BoundExceededError):
                gamma_to_hstar(gamma, d)

    def test_horner_steps_match_products(self):
        def by_products(gamma, d):
            out = Poly()
            for i, c in enumerate(gamma.coeffs):
                out = out * Poly((1, 2, 1)) + Poly.monomial(i, c)
            return out * one_plus_x_power(d - 2 * gamma.degree)

        rng = random.Random(20261018)
        cases = [(Poly(), 0), (Poly(), 5), (Poly([7]), 0), (Poly([1]), 1),
                 (Poly([Fraction(1, 3), 2]), 3), (Poly([1, 1 << 300]), 40)]
        for _ in range(200):
            m = rng.randrange(0, 9)
            gamma = Poly([rng.randrange(-50, 51) for _ in range(m)] + [rng.randrange(1, 51)])
            cases.append((gamma, 2 * m))            # d = 2 deg gamma
            cases.append((gamma, 2 * m + 1))        # odd d
            cases.append((gamma, 2 * m + rng.randrange(2, 9)))
        for gamma, d in cases:
            assert gamma_to_hstar(gamma, d) == by_products(gamma, d)
        # at the size bound: gamma = 1 with d = 14,141 passes the guard, and
        # the largest gamma bits that pass with d = 40 still match
        check_hstar_size(14141)
        bits = 2 * 10 ** 8 // 41 - 40
        check_hstar_size(40, bits)
        gamma = Poly([1, (1 << bits - 1) + 1])
        assert gamma_to_hstar(gamma, 40) == by_products(gamma, 40)
        with pytest.raises(BoundExceededError):
            gamma_to_hstar(Poly([1, 1 << bits]), 40)

    def test_signed_slots_round_trip(self):
        # every slot at either end of its signed range or at 0, and
        # trailing zero slots, which the read-off keeps
        for width in (8, 16, 64, 448):
            top = (1 << width - 1) - 1
            for cs in ([top], [-top], [0], [top, -top, 0, top], [-top, top, -1, 1],
                       [5, -top, 0, 0], [0, 0, top, -top, top]):
                value = sum(c << width * k for k, c in enumerate(cs))
                assert _signed_slots(value, width, len(cs)) == cs
                assert _signed_slots(value, width, len(cs) + 2) == cs + [0, 0]
            with pytest.raises(OverflowError):  # more slots than asked for
                _signed_slots(1 << 2 * width, width, 2)

    def test_packed_and_schoolbook_agree(self, monkeypatch):
        # negative gamma, d = 2 deg gamma, odd d, a gamma_0 of 0; the
        # schoolbook steps run with the limit at 0, and a Fraction gamma
        # takes them at any limit
        packed = []

        def spy(value, width, count):
            packed.append(width)
            return _signed_slots(value, width, count)

        monkeypatch.setattr(polynomials, "_signed_slots", spy)
        rng = random.Random(34)
        cases = [(Poly([-3, 5, -7]), 4), (Poly([-1]), 0), (Poly([2, -9, 4]), 5),
                 (Poly([1, -1]), 7), (Poly([0, 0, -5]), 4), (Poly([1, -(1 << 200)]), 2),
                 (Poly([7, -2, 1]), 44)]
        for _ in range(100):
            m = rng.randrange(0, 12)
            gamma = Poly([rng.randrange(-10 ** 9, 10 ** 9) for _ in range(m + 1)])
            cases.append((gamma, 2 * m + rng.randrange(0, 3)))
        for gamma, d in cases:
            got = gamma_to_hstar(gamma, d)
            with monkeypatch.context() as patch:
                patch.setattr(polynomials, "PACK_SLOT_BITS", 0)
                assert gamma_to_hstar(gamma, d) == got == \
                    binomial_expansion(gamma, d), (gamma, d)
        assert len(packed) == len(cases)
        packed.clear()
        gamma = Poly([Fraction(1, 3), -2, Fraction(-5, 2)])
        assert gamma_to_hstar(gamma, 5) == binomial_expansion(gamma, 5)
        assert packed == []

    def test_binomial_rows(self):
        for k in range(12):
            assert one_plus_x_power(k).coeff_list() == \
                [math.comb(k, i) for i in range(k + 1)]

    def test_non_palindromic_rejected(self):
        with pytest.raises(ValueError):
            hstar_to_gamma(Poly([1, 2, 3]))
        with pytest.raises(ValueError):
            hstar_to_gamma(Poly())

    def test_round_trip_random(self):
        rng = random.Random(20240601)
        for _ in range(300):
            d = rng.randrange(0, 12)
            gamma = Poly([rng.randrange(-9, 10) for _ in range(d // 2 + 1)])
            h = gamma_to_hstar(gamma, d)
            if h.is_zero():
                continue
            if h.degree == d and h.is_palindromic():
                assert hstar_to_gamma(h) == gamma

    def test_sum_identity(self):
        # h*(1) = 2^d gamma(1/4), exactly
        rng = random.Random(7)
        for _ in range(100):
            d = rng.randrange(0, 10)
            gamma = Poly([rng.randrange(0, 8) for _ in range(d // 2 + 1)])
            h = gamma_to_hstar(gamma, d)
            assert h(1) == (1 << d) * gamma(Fraction(1, 4))


def binomial_expansion(gamma, d):
    """sum_i gamma_i x^i (1+x)^(d-2i), one binomial power per term."""
    out = Poly()
    for i, c in enumerate(gamma.coeffs):
        out = out + Poly.monomial(i, c) * one_plus_x_power(d - 2 * i)
    return out


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12), st.integers(1, 10 ** 6),
       st.integers(0, 5))
def test_gamma_to_hstar_round_trip(tail, head, extra):
    gamma = Poly([head] + tail)  # gamma_0 != 0, so deg h* = d
    d = 2 * gamma.degree + extra
    h = gamma_to_hstar(gamma, d)
    assert h == binomial_expansion(gamma, d)
    assert hstar_to_gamma(h) == gamma


def test_half_rows_past_the_pack_limit(monkeypatch):
    # both transforms against the schoolbook sum of binomial rows where the
    # packed route does not reach: signed, zero and Fraction coefficients,
    # d - 2m = 0, 1 and at least 500, m = 0 and 1 with d >= 1,000, and the
    # suspension gamma of P1000
    packed = []
    monkeypatch.setattr(polynomials, "_signed_slots",
                        lambda *args: packed.append(args) or _signed_slots(*args))
    rng = random.Random(41)
    # (coefficient, least m with t <= 1): an int gamma may pack below d = 416
    kinds = [(lambda: rng.randrange(-10 ** 6, 10 ** 6), 250),
             (lambda: rng.choice([0, 0, 1, -2]), 250),
             (lambda: Fraction(rng.randrange(-50, 51), rng.randrange(1, 9)), 20)]
    cases = [(Poly([1]), 1000), (Poly([-7]), 1001), (Poly([3, -1]), 1200),
             (Poly([Fraction(1, 3), 0, 5]), 504), (Poly([0, 0, -5]), 505),
             (solve(path_graph(1000), "ahat", "formula").gamma, 1000)]
    for kind, least in kinds:
        for t in (0, 1, 500, 501):
            m = rng.randrange(1, 4) if t >= 500 else rng.randrange(least, least + 50)
            gamma = Poly([kind() for _ in range(m)] + [rng.randrange(1, 9)])
            cases.append((gamma, 2 * m + t))
    for gamma, d in cases:
        h = gamma_to_hstar(gamma, d)
        assert h == binomial_expansion(gamma, d), (gamma.degree, d)
        if gamma[0]:
            assert hstar_to_gamma(h) == gamma
    assert packed == []
    # one row, then every gamma_i = 0 is skipped
    assert hstar_to_gamma(one_plus_x_power(9000)) == Poly([1])


rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.integers(-10 ** 6, 10 ** 6), rationals), max_size=10),
       st.one_of(st.integers(1, 10 ** 6), rationals.filter(bool)), st.integers(0, 5))
def test_hstar_to_gamma_inverts_gamma_to_hstar(tail, head, extra):
    """Integer and Fraction gamma alike, gamma_0 != 0 so that deg h* = d."""
    gamma = Poly([head] + tail)
    h = gamma_to_hstar(gamma, 2 * gamma.degree + extra)
    assert hstar_to_gamma(h) == gamma
    assert gamma_to_hstar(hstar_to_gamma(h), h.degree) == h


class TestRealRootedness:
    def test_known_nonreal_example(self):
        rr = real_rootedness(Poly([1, 2, 6]))
        assert not rr.is_real_rooted and rr.distinct_real_roots == 0

    def test_linear_always(self):
        assert real_rootedness(Poly([1, 6])).is_real_rooted

    def test_multiplicity_via_squarefree(self):
        assert real_rootedness(Poly([1, 2, 1])).is_real_rooted
        assert real_rootedness(Poly([1, 2, 1])) == RealRoots(True, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            real_rootedness(Poly())

    def test_random_products_of_linear_factors(self):
        rng = random.Random(321)
        for _ in range(200):
            f = Poly([rng.randrange(1, 5)])
            roots = set()
            for _ in range(rng.randrange(1, 6)):
                b = rng.randrange(1, 4)
                a = rng.randrange(-6, 7)
                f = f * Poly([a, b])
                roots.add(Fraction(-a, b))
            rr = real_rootedness(f)
            assert rr.is_real_rooted
            assert rr.distinct_real_roots == len(roots)

    def test_random_products_with_complex_pair(self):
        rng = random.Random(654)
        for _ in range(200):
            # irreducible quadratic: discriminant < 0
            while True:
                a, b, c = (rng.randrange(1, 6), rng.randrange(-4, 5),
                           rng.randrange(1, 6))
                if b * b - 4 * a * c < 0:
                    break
            f = Poly([c, b, a])
            for _ in range(rng.randrange(0, 4)):
                f = f * Poly([rng.randrange(-5, 6), rng.randrange(1, 4)])
            assert not real_rootedness(f).is_real_rooted

    def test_rational_coefficients_cleared(self):
        f = Poly([Fraction(1, 3), Fraction(1, 2)])
        assert real_rootedness(f).is_real_rooted


signed_scalars = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)).flatmap(
    lambda c: st.sampled_from([c, -c]))
linear_factors = st.tuples(st.integers(-6, 6), st.integers(1, 4), st.integers(1, 3))
# a x^2 + b x + c with negative discriminant, of either sign
irreducible_quadratics = st.tuples(
    st.integers(-4, 4).filter(bool), st.integers(-5, 5), st.integers(-9, 9)
).filter(lambda abc: abc[1] ** 2 < 4 * abc[0] * abc[2])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(signed_scalars, st.lists(linear_factors, max_size=5),
       irreducible_quadratics, st.integers(0, 2))
def test_sturm_count_on_known_factorizations(s, linear, quadratic, e):
    """f = s * prod (q x - p)^m * Q^e: the distinct rational roots p/q are
    the real roots, and Q^e adds two non-real roots when e > 0."""
    f = math.prod([Poly(quadratic[::-1])] * e, start=Poly([s]))
    for p, q, m in linear:
        f = math.prod([Poly([-p, q])] * m, start=f)
    k = len({Fraction(p, q) for p, q, _ in linear})
    assert real_rootedness(f) == RealRoots(e == 0, k)


class TestPropertyReport:
    def test_wheel_hstar_all_good(self):
        rep = property_reports(Poly([1, 9, 9, 1]))[0]
        assert rep.palindromic and rep.unimodal and rep.log_concave
        assert rep.gamma_positive and rep.gamma == Poly([1, 6])
        assert rep.real_rooted

    def test_c5_hstar_not_real_rooted(self):
        rep = property_reports(Poly([1, 6, 16, 6, 1]))[0]
        assert rep.palindromic and rep.gamma == Poly([1, 2, 6])
        assert rep.gamma_positive and not rep.real_rooted

    def test_non_palindromic(self):
        rep = property_reports(Poly([1, 1, 0, 1]))[0]
        assert not rep.palindromic and not rep.unimodal
        assert rep.gamma is None

    def test_degenerate_conventions(self):
        assert Poly().is_unimodal()
        assert Poly([5]).is_unimodal()
        assert Poly([5]).is_log_concave()

    def test_implication_chain_on_positive_polys(self):
        # (RR) => (LC) => (UN) whenever all coefficients are positive
        rng = random.Random(99)
        for _ in range(500):
            d = rng.randrange(1, 9)
            f = Poly([rng.randrange(1, 30) for _ in range(d + 1)])
            rep = property_reports(f)[0]
            if rep.real_rooted:
                assert rep.log_concave
            if rep.log_concave:
                assert rep.unimodal

    def test_log_concavity_literal_definition(self):
        # a_i^2 >= a_{i-1} a_{i+1} verbatim, no positivity requirement
        assert not Poly([1, 0, 1]).is_log_concave()
        assert Poly([1, 0, 0, 1]).is_log_concave()  # inequalities vacuous through zeros
        assert Poly([0, 1]).is_log_concave()

    def test_quarter_as_a_multiple_root_of_gamma(self):
        # gamma = (1 - 13x + 22x^2)(4x - 1)^2, with the roots 1/11, 1/2 and
        # the double root 1/4: every element of its Sturm chain vanishes at
        # 1/4, and h* has the real roots 1 and two from 1/11
        h = Poly([1, -13, 44, -75, 86, -75, 44, -13, 1])
        rep = property_reports(h)[0]
        assert rep.gamma == Poly([1, -21, 142, -384, 352])
        assert rep.gamma(Fraction(1, 4)) == 0
        assert (rep.real_rooted, rep.real_root_count) == (False, 3)
        assert real_rootedness(h) == RealRoots(False, 3)

    def test_one_chain_for_both_reports(self, monkeypatch):
        from sepgamma import polynomials
        real = polynomials._sturm_chain
        degrees = []

        def counted(cs):
            degrees.append(len(cs) - 1)
            return real(cs)

        monkeypatch.setattr(polynomials, "_sturm_chain", counted)
        h = Poly([1, 9, 9, 1])
        hstar_rep, gamma_rep = property_reports(h)
        assert degrees == [1]
        assert property_reports(h, Poly([1, 6])) == (hstar_rep, gamma_rep)
        assert gamma_rep == property_reports(Poly([1, 6]))[0]
        assert property_reports(Poly([1, 1, 0, 1]))[1] is None


# x^2 + (2 - 1/r)x + 1 = (1+x)^2 (1 - y/r) at y = x/(1+x)^2: gamma 1 - x/r,
# with the root r; r = 1/4 gives (1 - x)^2
gamma_roots = st.one_of(
    st.just(Fraction(1, 4)),
    st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 40)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(signed_scalars, st.lists(st.tuples(gamma_roots, st.integers(1, 3)), max_size=4),
       st.integers(0, 3))
@example(Fraction(1), [(Fraction(1, 4), 2)], 0)
@example(Fraction(-2, 3), [(Fraction(1, 4), 3), (Fraction(1, 5), 2), (Fraction(2, 7), 1)], 2)
def test_gamma_route_on_palindromic_products(s, factors, k):
    """s (1+x)^k prod (x^2 + (2 - 1/r)x + 1)^e: two real roots for each
    distinct r < 1/4, the root 1 for r = 1/4, -1 when k > 0, and real-rooted
    iff no r > 1/4.  The report agrees with that and with the h* chain."""
    f = Poly([s]) * one_plus_x_power(k)
    for r, e in factors:
        f = math.prod([Poly([1, 2 - 1 / r, 1])] * e, start=f)
    quarter = Fraction(1, 4)
    rs = {r for r, _ in factors}
    expected = RealRoots(all(r <= quarter for r in rs),
                         2 * sum(r < quarter for r in rs) + (quarter in rs) + (k > 0))
    rep = property_reports(f)[0]
    assert rep.palindromic
    assert RealRoots(rep.real_rooted, rep.real_root_count) == expected == real_rootedness(f)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-30, 30), rationals), max_size=6),
       st.integers(-9, 9).filter(bool), st.integers(1, 4))
def test_gamma_route_on_expanded_gamma(tail, head, extra):
    """h* = gamma_to_hstar(gamma, d) for a random signed gamma, d > 2 deg gamma."""
    gamma = Poly([head] + tail)
    f = gamma_to_hstar(gamma, 2 * gamma.degree + extra)
    rep = property_reports(f)[0]
    assert rep.gamma == gamma
    assert RealRoots(rep.real_rooted, rep.real_root_count) == real_rootedness(f)


def test_graph_hstar_reports_against_the_hstar_chain(atlas7):
    """Every atlas7 h* of ahat and b, and the wheels C3-C60: the report's
    verdict and count are those of the Sturm chain of h* itself, and the
    gamma report's those of the chain of gamma; given the known gamma, as
    check passes it, both reports are the same."""
    results = []
    for g in atlas7:
        results.append(solve(g, "ahat"))
        try:
            results.append(solve(g, "b"))
        except PreconditionError:
            pass
    results += [solve(cycle_graph(n), "ahat") for n in range(3, 61)]
    for res in results:
        hstar_rep, gamma_rep = property_reports(res.hstar)
        assert hstar_rep.gamma == res.gamma
        assert property_reports(res.hstar, res.gamma) == (hstar_rep, gamma_rep)
        assert RealRoots(hstar_rep.real_rooted, hstar_rep.real_root_count) == \
            real_rootedness(res.hstar)
        assert RealRoots(gamma_rep.real_rooted, gamma_rep.real_root_count) == \
            real_rootedness(res.gamma)
