"""Exact dense univariate polynomials and the predicates built on them.

Coefficients are Python ints or fractions.Fraction, never floats, so every
operation in the library (gamma <-> h* transforms, Horner evaluation) is
exact.  A single class covers both the integer and the rational case;
Fractions that reduce to integers are normalized to int.  Both transforms
work on coefficients 0..d//2 of the palindromic h* only, and both add
binomial rows to that half with one helper (_add_row); the forward one
packs a small integer gamma into one int instead.  Real-rootedness
is decided by one Sturm chain over integer coefficient lists, which
yields the verdict and the count of distinct real roots that the property
report carries; property_reports builds the reports of h* and of its
gamma from one chain.  For a palindromic f of degree d that chain is gamma's,
at half the degree: f(x) = (1+x)^d gamma(x/(1+x)^2), so f is real-rooted
iff gamma is, with no root right of 1/4, and f has 2 real roots for each
root of gamma below 1/4, the root 1 when gamma(1/4) = 0, and -1 when
d > 2 deg gamma.  The chain's signs just right of 1/4 count the roots of
gamma there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import BoundExceededError

# The gamma -> h* transform writes d + 1 coefficients of up to d + (bits of
# gamma) bits each.  For gamma = 1 this admits d <= 14,141, just below
# d = 14,285, where the middle coefficient of (1+x)^d passes the 4,300
# decimal digits Python prints by default; there the transform took 0.07 s
# and the decimal text of h* 2.7 s (one core of a 2-core x86-64 host).  The
# degree-2000 h* of the suspension of C2000 holds about 8 * 10^6 bits.
MAX_HSTAR_BITS = 2 * 10 ** 8

# Kronecker substitution: a polynomial with integer coefficients below
# 2^(w-1) in absolute value is read off its value at x = 2^w, one signed
# w-bit slot per coefficient, so a product of polynomials is one product of
# ints.  Both the formula's tiling and the gamma -> h* transform take that
# route up to this slot width, and past it the tiling keeps the Poly
# arithmetic and the transform its half rows: the packed ints grow as the
# slot width times the degree.  Below the limit the packed tiling took 0.15
# to 0.85 of the CPU of the Polys on paths, cycles, random cacti and
# diamond chains, and lost from about 450 to 500 bits; the packed transform
# took 0.44 to 0.83 of the half rows' CPU, and 1.30 / 1.54 / 4.15 at 608 /
# 808 / 2,008 bits.  So the limit sits at both crossovers (one core of a
# 2-core x86-64 host; tests/pack_table.py prints the ratios).
PACK_SLOT_BITS = 416


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class Poly:
    """Dense polynomial, index = degree, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if type(c) is int else _norm_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def monomial(cls, k: int, c=1) -> "Poly":
        return cls((0,) * k + (c,))

    # -- basic queries -----------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        """The product; the other factor itself where one is the constant
        1, and the outer loop over the shorter factor, skipping its zeros."""
        if isinstance(other, Poly):
            a, b = self.coeffs, other.coeffs
            if a == (1,) or b == (1,):
                return other if a == (1,) else self
            if len(a) > len(b):
                a, b = b, a
            if not a:
                return Poly()
            out = [0] * (len(a) + len(b) - 1)
            for i, c in enumerate(a):
                if c:
                    for j, d in enumerate(b, i):
                        out[j] += c * d
            return Poly(out)
        return Poly(tuple(c * other for c in self.coeffs))

    def scale_arg(self, m) -> "Poly":
        """Substitute x -> m*x, i.e. return f(mx)."""
        out, p = [], 1
        for c in self.coeffs:
            out.append(c * p)
            p *= m
        return Poly(out)

    def __call__(self, x):
        """Exact Horner evaluation; x may be int or Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _norm_coeff(acc)

    # -- text forms ---------------------------------------------------

    def coeff_list(self) -> list:
        return list(self.coeffs)

    def coeff_text(self) -> str:
        """Machine form, low -> high: "[1, 9, 9, 1]"."""
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"

    def pretty(self) -> str:
        """Readable form, low -> high: "1 + 9x + 9x^2 + x^3"."""
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if i == 0:
                body = str(mag)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                if mag == 1:
                    body = xs
                elif isinstance(mag, Fraction):
                    body = f"({mag}){xs}"
                else:
                    body = f"{mag}{xs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    # -- predicates ----------------------------------------------------

    def is_palindromic(self) -> bool:
        """True iff a_i = a_{d-i} against the polynomial's own degree."""
        cs = self.coeffs
        return bool(cs) and all(cs[i] == cs[-1 - i] for i in range(len(cs) // 2 + 1))

    def is_unimodal(self) -> bool:
        """Rises then falls; zero and constant polynomials count as unimodal."""
        cs = self.coeffs
        if len(cs) <= 1:
            return True
        rising = True
        for a, b in zip(cs, cs[1:]):
            if rising:
                if b < a:
                    rising = False
            elif b > a:
                return False
        return True

    def is_log_concave(self) -> bool:
        """a_i^2 >= a_{i-1} a_{i+1} for all interior i (no positivity demanded)."""
        cs = self.coeffs
        return all(cs[i] * cs[i] >= cs[i - 1] * cs[i + 1] for i in range(1, len(cs) - 1))


# ---------------------------------------------------------------------------
# gamma <-> h* transforms
# ---------------------------------------------------------------------------

def check_hstar_size(d: int, gamma_bits: int = 1) -> None:
    """Raise BoundExceededError when sum_i gamma_i x^i (1+x)^(d-2i), with
    gamma's coefficients of up to gamma_bits bits, is estimated to hold
    more than MAX_HSTAR_BITS bits: (d + 1) coefficients of d + gamma_bits
    bits.  With the default, the least gamma (= 1), it bounds any gamma."""
    bits = (d + 1) * (d + gamma_bits)
    if bits > MAX_HSTAR_BITS:
        raise BoundExceededError(
            f"h* of degree {d} holds about {bits} coefficient bits "
            f"> {MAX_HSTAR_BITS}")


def _packed_width(bits: int) -> int:
    """The slot width, in whole bytes, for coefficients of up to `bits`
    bits with their sign; 0 past PACK_SLOT_BITS."""
    width = bits + -bits % 8
    return width if width <= PACK_SLOT_BITS else 0


def _signed_slots(value: int, width: int, count: int) -> list:
    """The coefficients c_0..c_(count-1) of value = sum_k c_k 2^(width k),
    each below 2^(width-1) in absolute value: adding 2^(width-1) to every
    slot leaves a nonnegative int whose slots hold c_k + 2^(width-1), so
    one to_bytes and a slice per slot read them off."""
    size = width // 8
    half = 1 << width - 1
    data = (value + int.from_bytes(b"\x80".ljust(size, b"\0") * count, "big")
            ).to_bytes(size * count, "little")
    return [int.from_bytes(data[i:i + size], "little") - half
            for i in range(0, size * count, size)]


def _add_row(half: list, i: int, c, k: int) -> None:
    """Add c C(k, j) to half[i + j] for j = 0..k//2: the coefficients of
    c x^i (1+x)^k up to its middle, each binomial from the one before;
    nothing when c = 0."""
    if c:
        b = 1
        for j in range(k // 2 + 1):
            half[i + j] += c * b
            b = b * (k - j) // (j + 1)


def gamma_to_hstar(gamma: Poly, d: int) -> Poly:
    """Expand sum_i gamma_i x^i (1+x)^(d-2i).

    With m = deg gamma and t = d - 2m this is the Horner sum
    P_i = P_(i-1) (1+x)^2 + gamma_i x^i (1+x)^t, P_m = h*.  For an integer
    gamma whose slot width w = d + bits(sum_i |gamma_i|) + 2 packs
    (_packed_width) the steps run on the value at x = 2^w, each three
    shifts and adds of one int, and one power of 2^w + 1 takes the
    (1+x)^t: every coefficient of h* is at most sum_i |gamma_i| 2^d in
    absolute value.  Otherwise every P_i is palindromic of degree t + 2i,
    so only its coefficients 0..t//2 + i are kept: each factor (1+x) is
    one pass of additions over them (from an odd degree the new middle
    coefficient is twice the old one), gamma_i's row of (1+x)^t is added
    at offset i (_add_row), and the half is mirrored at the end.  Inverse
    of hstar_to_gamma on palindromic polynomials of degree d.  Guarded by
    check_hstar_size.
    """
    m = gamma.degree
    if m > d // 2:
        raise ValueError(f"gamma degree {m} exceeds floor({d}/2)")
    check_hstar_size(d, max(int(abs(c)).bit_length() for c in gamma.coeffs or (1,)))
    if all(type(c) is int for c in gamma.coeffs):
        width = _packed_width(d + sum(map(abs, gamma.coeffs)).bit_length() + 2)
        if width:
            v = 0
            for i, c in enumerate(gamma.coeffs):
                v += (v << width + 1) + (v << 2 * width) + (c << width * i)
            v *= ((1 << width) + 1) ** (d - 2 * m)
            return Poly(_signed_slots(v, width, d + 1))
    t = d - 2 * m
    half = [0] * (t // 2 + 1)
    for i, c in enumerate(gamma.coeffs):
        for odd in (t % 2, 1 - t % 2) if i else ():  # from degree t + 2i - 2
            half = [a + b for a, b in zip(half + half[-1:] * odd, [0] + half)]
        _add_row(half, i, c, t)
    return Poly(half + half[:(d + 1) // 2][::-1])


def hstar_to_gamma(hstar: Poly) -> Poly:
    """Unique gamma with hstar = sum gamma_i x^i (1+x)^(d-2i), d = deg hstar.

    Only coefficients 0..d//2 of the palindromic hstar are read.  For
    i = 0, 1, ..., d//2, gamma_i is coefficient i of what is left, and the
    half of gamma_i x^i (1+x)^(d-2i) is taken off it (_add_row).  Raises
    ValueError unless hstar is palindromic of its own degree.
    """
    if hstar.is_zero():
        raise ValueError("zero polynomial has no gamma expansion")
    if not hstar.is_palindromic():
        raise ValueError("not palindromic; gamma-polynomial undefined")
    d = hstar.degree
    half = list(hstar.coeffs[:d // 2 + 1])
    gamma = []
    for i in range(d // 2 + 1):
        gamma.append(half[i])
        _add_row(half, i, -half[i], d - 2 * i)
    return Poly(gamma)


# ---------------------------------------------------------------------------
# Sturm-chain real-root counting
# ---------------------------------------------------------------------------

def _primitive(cs: list) -> list:
    """Divide a nonzero integer list by its (positive) content."""
    g = math.gcd(*cs)
    return [c // g for c in cs]


def _negated_prem(a: list, b: list) -> list:
    """Minus the remainder of a by b times a positive integer; [] when b
    divides a.  Each reduction step multiplies by |lc(b)|, so every sign
    of the true remainder is kept."""
    m, s = abs(b[-1]), (1 if b[-1] > 0 else -1)
    r = list(a)
    while len(r) >= len(b):
        q, k = s * r[-1], len(r) - len(b)
        r = [m * c for c in r]
        for i, c in enumerate(b):
            r[k + i] -= q * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return [-c for c in r]


def _sign_changes(signs: list) -> int:
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _integers(f: Poly) -> list:
    """The nonzero f scaled to primitive integers: the lcm of its
    denominators, read off numerator and denominator, then its content."""
    lcm = math.lcm(*(c.denominator for c in f.coeffs))
    return _primitive([c.numerator * (lcm // c.denominator) for c in f.coeffs])


def _sturm_chain(cs: list) -> list:
    """Sturm chain of the primitive integer list cs: cs, cs', then minus
    each pseudo-remainder of the last two, divided by its content.  The
    last element is gcd(cs, cs') up to a constant factor."""
    chain = [cs]
    nxt = [i * c for i, c in enumerate(cs)][1:]
    while nxt:
        chain.append(_primitive(nxt))
        nxt = _negated_prem(chain[-2], chain[-1])
    return chain


def _at_quarter(p: list) -> int:
    """4^deg(p) p(1/4), which has the sign of p(1/4)."""
    v = 0
    for c in p:
        v = 4 * v + c
    return v


def _sign_right_of_quarter(p: list) -> int:
    """Sign of p just right of 1/4: that of p / (4x - 1)^k at 1/4, where k
    is the multiplicity of the root 1/4; p / (4x - 1) is exact in integers
    by Gauss's lemma, lowest coefficient first."""
    while True:
        v = _at_quarter(p)
        if v:
            return 1 if v > 0 else -1
        q = [-p[0]]
        for c in p[1:-1]:
            q.append(4 * q[-1] - c)
        p = q


@dataclass(frozen=True)
class RealRoots:
    """Verdict of the Sturm count, and the distinct real roots it counted."""
    is_real_rooted: bool
    distinct_real_roots: int


def _chain_roots(chain: list) -> RealRoots:
    """Sign variations at -inf less those at +inf count the distinct real
    roots; deg chain[0] - deg chain[-1] is the square-free degree."""
    at_plus = [1 if p[-1] > 0 else -1 for p in chain]
    at_minus = [s if len(p) % 2 else -s for s, p in zip(at_plus, chain)]
    count = _sign_changes(at_minus) - _sign_changes(at_plus)
    return RealRoots(count == len(chain[0]) - len(chain[-1]), count)


def _roots_from_gamma(chain: list, gamma_roots: RealRoots, d: int) -> RealRoots:
    """Real roots of f(x) = (1+x)^d gamma(x/(1+x)^2), from the Sturm chain
    of gamma and gamma's own count.

    y = x/(1+x)^2 takes two distinct real x to each real root y < 1/4 of
    gamma (never y = 0, since gamma_0 = f_0), the double root x = 1 to
    y = 1/4, and no real x to a root y > 1/4 or a non-real one; x = -1, a
    root of multiplicity d - 2 deg gamma, takes no y.  So f is real-rooted
    iff gamma is and no root of gamma lies right of 1/4.  The chain's sign
    variations just right of 1/4, less those at +inf, count the roots
    there; the signs are taken right of 1/4 because when 1/4 is a multiple
    root of gamma every element of the chain vanishes at it.
    """
    at_plus = _sign_changes([1 if p[-1] > 0 else -1 for p in chain])
    above = _sign_changes([_sign_right_of_quarter(p) for p in chain]) - at_plus
    quarter = _at_quarter(chain[0]) == 0
    below = gamma_roots.distinct_real_roots - above - quarter
    count = 2 * below + quarter + (d > 2 * (len(chain[0]) - 1))
    return RealRoots(gamma_roots.is_real_rooted and not above, count)


def real_rootedness(f: Poly) -> RealRoots:
    """Count distinct real roots exactly with one Sturm chain of f over
    integers; real-rooted iff that count equals the square-free degree.

    f is scaled once to primitive integers (roots unchanged).  The chain
    ends at gcd(f, f') up to a constant factor, so sign variations at -inf
    and +inf differ by the number of distinct real roots, and deg f less
    the degree of its last element is the square-free degree.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    return _chain_roots(_sturm_chain(_integers(f)))


# ---------------------------------------------------------------------------
# Property report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropertyReport:
    """All exactly-decided shape predicates of one polynomial."""
    degree: int
    palindromic: bool
    unimodal: bool
    log_concave: bool
    gamma_positive: bool
    gamma: Optional[Poly]
    real_rooted: bool
    real_root_count: int


def _report(f: Poly, gamma: Optional[Poly], rr: RealRoots) -> PropertyReport:
    return PropertyReport(
        degree=f.degree,
        palindromic=gamma is not None,
        unimodal=f.is_unimodal(),
        log_concave=f.is_log_concave(),
        gamma_positive=gamma is not None and all(c >= 0 for c in gamma.coeffs),
        gamma=gamma,
        real_rooted=rr.is_real_rooted,
        real_root_count=rr.distinct_real_roots,
    )


def property_reports(f: Poly, gamma: Optional[Poly] = None) -> tuple:
    """The report of f (palindromicity, unimodality, log-concavity,
    gamma-positivity with the gamma-polynomial attached when defined, and
    real-rootedness) and, when f is palindromic, the report of its gamma,
    both from one Sturm chain of gamma (at half the degree of f's); for
    any other f, its report by f's own chain and None.  A caller that
    already holds hstar_to_gamma(f) passes it as `gamma`."""
    if gamma is None:
        if not f.is_palindromic():
            rr = real_rootedness(f) if f else RealRoots(False, 0)  # 0: undefined
            return _report(f, None, rr), None
        gamma = hstar_to_gamma(f)
    chain = _sturm_chain(_integers(gamma))
    gamma_roots = _chain_roots(chain)
    inner = hstar_to_gamma(gamma) if gamma.is_palindromic() else None
    return (_report(f, gamma, _roots_from_gamma(chain, gamma_roots, f.degree)),
            _report(gamma, inner, gamma_roots))
