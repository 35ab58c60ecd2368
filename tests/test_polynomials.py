import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sepgamma import (Poly, RealRoots, check_properties, gamma_to_hstar,
                      hstar_to_gamma, is_real_rooted, real_rootedness)
from sepgamma.polynomials import one_plus_x_power


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
        assert not p.is_integral()

    def test_shift_and_pow(self):
        assert Poly([1, 1]).shift(2) == Poly([0, 0, 1, 1])
        assert Poly([1, 1]) ** 3 == Poly([1, 3, 3, 1])

    def test_compose(self):
        # (1+x)^2 composed with 2x -> 1 + 4x + 4x^2
        assert Poly([1, 2, 1]).compose(Poly([0, 2])) == Poly([1, 4, 4])

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


class TestGammaTransforms:
    def test_expand_examples(self):
        assert gamma_to_hstar(Poly([1, 6]), 3) == Poly([1, 9, 9, 1])
        assert gamma_to_hstar(Poly([1, 2, 6]), 4) == Poly([1, 6, 16, 6, 1])
        for n in range(7):
            assert gamma_to_hstar(Poly([1]), n) == Poly([1, 1]) ** n

    def test_invert_examples(self):
        assert hstar_to_gamma(Poly([1, 9, 9, 1])) == Poly([1, 6])
        assert hstar_to_gamma(Poly([1, 1]) ** 5) == Poly([1])
        assert hstar_to_gamma(Poly([1, 4, 1])) == Poly([1, 2])

    def test_degree_precondition(self):
        with pytest.raises(ValueError):
            gamma_to_hstar(Poly([1, 1, 1]), 3)

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


class TestRealRootedness:
    def test_known_nonreal_example(self):
        rr = real_rootedness(Poly([1, 2, 6]))
        assert not rr.is_real_rooted and rr.distinct_real_roots == 0

    def test_linear_always(self):
        assert is_real_rooted(Poly([1, 6]))

    def test_multiplicity_via_squarefree(self):
        assert is_real_rooted(Poly([1, 2, 1]))
        assert real_rootedness(Poly([1, 2, 1])) == RealRoots(True, 1, 1)

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
            assert not is_real_rooted(f)

    def test_rational_coefficients_cleared(self):
        f = Poly([Fraction(1, 3), Fraction(1, 2)])
        assert is_real_rooted(f)


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
    the real roots, and Q^e adds 2 to the square-free degree when e > 0."""
    f = Poly([s]) * Poly(quadratic[::-1]) ** e
    for p, q, m in linear:
        f = f * Poly([-p, q]) ** m
    k = len({Fraction(p, q) for p, q, _ in linear})
    assert real_rootedness(f) == RealRoots(e == 0, k, k + 2 * (e > 0))


class TestPropertyReport:
    def test_wheel_hstar_all_good(self):
        rep = check_properties(Poly([1, 9, 9, 1]))
        assert rep.palindromic and rep.unimodal and rep.log_concave
        assert rep.gamma_positive and rep.gamma == Poly([1, 6])
        assert rep.real_rooted

    def test_c5_hstar_not_real_rooted(self):
        rep = check_properties(Poly([1, 6, 16, 6, 1]))
        assert rep.palindromic and rep.gamma == Poly([1, 2, 6])
        assert rep.gamma_positive and not rep.real_rooted

    def test_non_palindromic(self):
        rep = check_properties(Poly([1, 1, 0, 1]))
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
            rep = check_properties(f)
            if rep.real_rooted:
                assert rep.log_concave
            if rep.log_concave:
                assert rep.unimodal

    def test_log_concavity_literal_definition(self):
        # a_i^2 >= a_{i-1} a_{i+1} verbatim, no positivity requirement
        assert not Poly([1, 0, 1]).is_log_concave()
        assert Poly([1, 0, 0, 1]).is_log_concave()  # inequalities vacuous through zeros
        assert Poly([0, 1]).is_log_concave()
