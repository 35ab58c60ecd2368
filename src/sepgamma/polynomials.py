"""Exact dense univariate polynomials and the predicates built on them.

Coefficients are Python ints or fractions.Fraction, never floats, so every
operation in the library (gamma <-> h* transforms, Horner evaluation) is
exact.  A single class covers both the integer and the rational case;
Fractions that reduce to integers are normalized to int.  Real-rootedness
is decided by one Sturm chain over integer coefficient lists, which
yields the verdict and the count of distinct real roots that the property
report carries.
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
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return Poly(tuple(c * other for c in self.coeffs))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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

def one_plus_x_power(k: int) -> Poly:
    """(1+x)^k via binomial coefficients, each from the one before."""
    row = [1]
    for i in range(k):
        row.append(row[-1] * (k - i) // (i + 1))
    return Poly(row)


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


def gamma_to_hstar(gamma: Poly, d: int) -> Poly:
    """Expand sum_i gamma_i x^i (1+x)^(d-2i).

    With m = deg gamma this is (1+x)^(d-2m) sum_i gamma_i x^i (1+x)^(2(m-i)),
    and the sum takes m Horner steps in (1+x)^2, each one pass of additions
    over the coefficients.  Inverse of hstar_to_gamma on palindromic
    polynomials of degree d.  Guarded by check_hstar_size.
    """
    m = gamma.degree
    if m > d // 2:
        raise ValueError(f"gamma degree {m} exceeds floor({d}/2)")
    check_hstar_size(d, max(int(abs(c)).bit_length() for c in gamma.coeffs or (1,)))
    out = []
    for i, c in enumerate(gamma.coeffs):
        # out * (1 + 2x + x^2) + c x^i
        pad = [0, 0] + out + [0, 0]
        out = [pad[k + 2] + 2 * pad[k + 1] + pad[k] for k in range(len(out) + 2)]
        out[i] += c
    return Poly(out) * one_plus_x_power(d - 2 * m)


def hstar_to_gamma(hstar: Poly) -> Poly:
    """Unique gamma with hstar = sum gamma_i x^i (1+x)^(d-2i), d = deg hstar.

    Raises ValueError unless hstar is palindromic of its own degree.
    """
    if hstar.is_zero():
        raise ValueError("zero polynomial has no gamma expansion")
    if not hstar.is_palindromic():
        raise ValueError("not palindromic; gamma-polynomial undefined")
    d = hstar.degree
    rem = hstar
    gamma = []
    for i in range(d // 2 + 1):
        gi = rem[i]
        gamma.append(gi)
        if gi:
            rem = rem - Poly.monomial(i, gi) * one_plus_x_power(d - 2 * i)
    if not rem.is_zero():  # cannot happen for palindromic input
        raise ValueError("gamma expansion did not terminate")
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


@dataclass(frozen=True)
class RealRoots:
    """Verdict of the Sturm count, and the distinct real roots it counted."""
    is_real_rooted: bool
    distinct_real_roots: int


def real_rootedness(f: Poly) -> RealRoots:
    """Count distinct real roots exactly with one Sturm chain over integers;
    real-rooted iff that count equals the square-free degree.

    f is scaled once to primitive integers (roots unchanged).  The chain
    starts f, f' and continues with negated pseudo-remainders; its last
    element is gcd(f, f') up to a constant factor, so sign variations at
    -inf and +inf differ by the number of distinct real roots and
    deg f - deg(last) is the square-free degree.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    lcm = math.lcm(*(c.denominator for c in f.coeffs))
    chain = [_primitive([c.numerator * (lcm // c.denominator) for c in f.coeffs])]
    nxt = [i * c for i, c in enumerate(chain[0])][1:]
    while nxt:
        chain.append(_primitive(nxt))
        nxt = _negated_prem(chain[-2], chain[-1])
    at_plus = [1 if p[-1] > 0 else -1 for p in chain]
    at_minus = [s if len(p) % 2 else -s for s, p in zip(at_plus, chain)]
    count = _sign_changes(at_minus) - _sign_changes(at_plus)
    d = len(chain[0]) - len(chain[-1])
    return RealRoots(count == d, count)


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


def check_properties(f: Poly) -> PropertyReport:
    """Evaluate palindromicity, unimodality, log-concavity, gamma-positivity
    (with the gamma-polynomial attached when defined) and real-rootedness.
    """
    palindromic = f.is_palindromic()
    gamma = hstar_to_gamma(f) if palindromic else None
    gamma_positive = gamma is not None and all(c >= 0 for c in gamma.coeffs)
    if f.is_zero():
        rr = RealRoots(False, 0)  # convention: undefined for 0
    else:
        rr = real_rootedness(f)
    return PropertyReport(
        degree=f.degree,
        palindromic=palindromic,
        unimodal=f.is_unimodal(),
        log_concave=f.is_log_concave(),
        gamma_positive=gamma_positive,
        gamma=gamma,
        real_rooted=rr.is_real_rooted,
        real_root_count=rr.distinct_real_roots,
    )
