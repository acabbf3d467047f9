"""Exact rational evaluation of the closed-form Ramsey bound formulas.

All arithmetic is Fraction-based; square roots that are not exact rationals
are replaced by outward-rounded rational enclosures so host sizes are never
under-reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .errors import UndefinedTarget

ParityName = Literal["even", "odd"]

_SQRT_SCALE = 10**18


def rational(value, name: str) -> Fraction:
    """``Fraction(value)`` of an int, a Fraction or text such as ``"1/2"``; a
    zero denominator or anything else is a ValueError naming ``name``."""
    try:
        return Fraction(value)
    except (ArithmeticError, TypeError, ValueError):  # ZeroDivisionError too
        raise ValueError(f"{name}: {value!r} is not a rational") from None


def floor_parity(x: Fraction | int, parity: ParityName) -> int:
    """Largest integer of the given parity not exceeding x."""
    if parity not in ("even", "odd"):
        raise ValueError(f"unknown parity {parity!r}")
    x, least = Fraction(x), 3 if parity == "odd" else 2
    if x < least:
        raise UndefinedTarget(f"no {parity} target length <= {x} (need x >= {least})")
    f = math.floor(x)
    return f if f % 2 == least % 2 else f - 1


def sqrt_enclosure(x: Fraction) -> tuple[Fraction, Fraction]:
    """Rational (lo, hi) with lo <= sqrt(x) <= hi; lo == hi when exact."""
    if x < 0:
        raise ValueError("negative radicand")
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        exact = Fraction(rn, rd)
        return exact, exact
    t = num * den
    r = math.isqrt(t * _SQRT_SCALE * _SQRT_SCALE)
    return Fraction(r, den * _SQRT_SCALE), Fraction(r + 1, den * _SQRT_SCALE)


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class TargetTriple:
    """Three cycle demands: scaling factors, parities and the scale n."""

    alphas: tuple[Fraction, Fraction, Fraction]
    parities: tuple[ParityName, ParityName, ParityName]
    n: int

    def __post_init__(self):
        object.__setattr__(
            self, "alphas", tuple(Fraction(a) for a in self.alphas)
        )
        if len(self.alphas) != 3 or len(self.parities) != 3:
            raise ValueError("a target triple needs exactly three components")
        if any(a <= 0 for a in self.alphas):
            raise ValueError("scaling factors must be positive")
        if any(p not in ("even", "odd") for p in self.parities):
            raise ValueError("parities must be 'even' or 'odd'")
        if self.n <= 0:
            raise ValueError("scale n must be positive")
        for m, p in zip(self.target_lengths(), self.parities):
            if p == "odd" and m < 3 or p == "even" and m < 4:
                raise UndefinedTarget(
                    f"target length {m} too small for parity {p}"
                )

    def target_lengths(self) -> tuple[int, int, int]:
        return tuple(
            floor_parity(a * self.n, p) for a, p in zip(self.alphas, self.parities)
        )

    def canonical(self) -> tuple["TargetTriple", str, tuple[int, int, int]]:
        """Permute so evens precede odds; within a parity, keep descending alphas.

        Returns (canonical triple, case id, permutation), where
        canonical.alphas[i] == self.alphas[perm[i]].
        """
        order = sorted(
            range(3), key=lambda i: (self.parities[i] == "odd", -self.alphas[i], i)
        )
        perm = tuple(order)
        alphas = tuple(self.alphas[i] for i in perm)
        parities = tuple(self.parities[i] for i in perm)
        case = {0: "iv", 1: "iii", 2: "ii", 3: "i"}[parities.count("even")]
        return TargetTriple(alphas, parities, self.n), case, perm


def theorem_coefficient(t: TargetTriple) -> Fraction:
    """Leading coefficient of the three-cycle Ramsey number for this triple."""
    canon, case, _ = t.canonical()
    a1, a2, a3 = canon.alphas
    if case == "i":
        return Fraction(1, 2) * (a1 + a2 + a3 + max(a1, a2, a3))
    if case == "ii":
        return max(
            2 * a1 + a2,
            a1 + 2 * a2,
            Fraction(1, 2) * a1 + Fraction(1, 2) * a2 + a3,
        )
    if case == "iii":
        return max(4 * a1, a1 + 2 * a2, a1 + 2 * a3)
    return 4 * max(a1, a2, a3)


def xi(alpha: Fraction | int, beta: Fraction | int, nu: Fraction | int) -> Fraction:
    """Host-size coefficient for the two-color hole problem with a
    non-bipartite demand on the second color."""
    alpha, beta, nu = Fraction(alpha), Fraction(beta), Fraction(nu)
    if alpha <= 0 or beta <= 0 or nu < 0:
        raise ValueError("need alpha, beta > 0 and nu >= 0")
    half = Fraction(1, 2)
    return max(
        half * alpha + half * beta + max(half * alpha, half * beta, nu),
        Fraction(3, 2) * alpha + max(half * alpha, nu),
    )


@dataclass(frozen=True)
class HoleParams:
    """Parameters of the two-colored nearly-complete-with-hole host."""

    alpha: Fraction
    beta: Fraction
    nu: Fraction
    epsilon: Fraction

    def __post_init__(self):
        for name in ("alpha", "beta", "nu", "epsilon"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.nu < 0:
            raise ValueError("nu must be nonnegative")
        if max(self.alpha, self.beta, self.nu) != 1:
            raise ValueError("max{alpha, beta, nu} must equal 1")
        if not 0 < self.epsilon < Fraction(1, 100) * min(self.alpha, self.beta):
            raise ValueError("need 0 < epsilon < 0.01*min{alpha, beta}")


def _host_size(base: Fraction, sqrt_coeff: int, eps: Fraction, n: int) -> int:
    """ceil((base + sqrt_coeff*sqrt(eps)) * n), rounded outward: never under-reported."""
    _, hi = sqrt_enclosure(eps)
    return _ceil((base + sqrt_coeff * hi) * n)


def lemma_dwa_host_size(p: HoleParams, n: int) -> int:
    """ceil((0.5a + 0.5b + max{nu, 0.5a, 0.5b} + 3*sqrt(eps)) * n)."""
    if n <= 0:
        raise ValueError("n must be positive")
    half = Fraction(1, 2)
    base = half * p.alpha + half * p.beta + max(p.nu, half * p.alpha, half * p.beta)
    return _host_size(base, 3, p.epsilon, n)


def lemma_trzy_host_size(p: HoleParams, n: int) -> int:
    """ceil((xi(a, b, nu) + 5*sqrt(eps)) * n)."""
    if n <= 0:
        raise ValueError("n must be positive")
    return _host_size(xi(p.alpha, p.beta, p.nu), 5, p.epsilon, n)


def construction_sizes(t: TargetTriple) -> list[tuple[str, int]]:
    """Exact lower-bound host sizes realizable for this triple.

    Case ids follow the builder names; all-even triples have no construction
    here and yield an empty list.
    """
    canon, case, _ = t.canonical()
    a1, a2, a3 = canon.alphas
    n = canon.n
    if case == "i":
        return []
    if case == "iv":
        m1 = floor_parity(a1 * n, "odd")
        return [("odd_triple", 4 * m1 - 4)]
    if case == "ii":
        m1 = floor_parity(a1 * n, "even")
        m2 = floor_parity(a2 * n, "even")
        m3 = floor_parity(a3 * n, "odd")
        return [
            ("eeo_four_part", 2 * m1 + m2 - 4),
            ("eeo_three_part", m1 // 2 + m2 // 2 + m3 - 3),
        ]
    # case iii: one even target, two odd ones
    m1 = floor_parity(a1 * n, "even")
    m2 = floor_parity(a2 * n, "odd")
    m3 = floor_parity(a3 * n, "odd")
    m1_odd = floor_parity(a1 * n, "odd")
    return [
        ("oee_four_part:2", m1 + 2 * m2 - 4),
        ("oee_four_part:3", m1 + 2 * m3 - 4),
        ("odd_triple", 4 * m1_odd - 4),
    ]
