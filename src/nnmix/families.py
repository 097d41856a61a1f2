"""Closed-form parametric matrix families.

Three 4-by-4 families with known exact behavior:

* the symmetric count pattern U(a, b) whose normalized matrix is a member
  exactly when b >= (sqrt(2) - 1) * a, together with the eight closed-form
  likelihood maximizers in the complementary regime (a cubic in one entry,
  rational formulas for the rest);
* the rectangle family, a member exactly when a*b + a + b <= 1;
* a two-parameter pencil whose determinant cuts out a quartic curve, used
  for membership spot checks along that curve.

The sign of the cubic's integer discriminant decides its real roots.  A
double root leaves the simple one as an exact rational formula; a lone real
root is refined from the Cauchy bound by bisection on integer numerators
over one power-of-two denominator.  A rational simple root comes back as a
Fraction, so everything downstream stays exactly representable, and an
irrational one as the float nearest the refined interval's midpoint.
``Fraction`` remains in the interval ``refine_root`` returns and in the
letters and matrices of the maximizers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactla import Matrix, clear_denominators

# -- the cubic root --------------------------------------------------------


def polyval(coeffs, x):
    acc = coeffs[-1] * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def refine_root(f, lo, hi, width=Fraction(1, 10**24)):
    """Shrink an isolating interval by exact bisection to the given width.

    The bisection runs on integers.  With ``lo = a / q`` and ``hi = b / q``,
    every point it visits after k halvings is ``x = N / D`` with ``D = q * 2**k``,
    and f(x) has the sign of the homogeneous form ``sum F_i N**i D**(deg - i)``
    of the integer coefficients ``F`` of f.  The interval it returns is the
    one the same bisection on ``Fraction``s returns.
    """
    if lo == hi:
        return lo, hi
    F, _ = clear_denominators(f)

    def sign(N, D):  # the sign of f(N / D) for D > 0
        value = polyval([c * D ** (len(F) - 1 - i) for i, c in enumerate(F)], N)
        return (value > 0) - (value < 0)

    (a, b), D = clear_denominators((lo, hi))
    slo = sign(a, D)
    if slo == 0:
        return lo, lo
    while (b - a) * width.denominator > width.numerator * D:
        mid, a, b, D = a + b, 2 * a, 2 * b, 2 * D
        sm = sign(mid, D)
        if sm == 0:
            return Fraction(mid, D), Fraction(mid, D)
        a, b = (mid, b) if sm == slo else (a, mid)
    return Fraction(a, D), Fraction(b, D)


class AmbiguousRootError(ArithmeticError):
    """The cubic did not have a unique simple real root."""

    def __init__(self, message, roots):
        super().__init__(message)
        self.roots = roots


def unique_simple_real_root(coeffs):
    """The unique real root of multiplicity exactly one of a cubic.

    ``coeffs`` are the rational coefficients ``[d, c, b, a]`` of
    ``a t^3 + b t^2 + c t + d``, ascending, with ``a != 0``.  The sign of the
    integer discriminant decides the real roots: three distinct ones when it
    is positive, one simple root and a complex pair when it is negative, and
    a double and a simple root (or one triple root) when it is zero.  Unless
    exactly one real root is simple, an AmbiguousRootError carries float
    approximations of the real roots.  Returns an exact Fraction when the
    root is rational, otherwise the float nearest the midpoint of an
    isolating interval 1e-24 wide.
    """
    if len(coeffs) != 4 or coeffs[3] == 0:
        raise ValueError("expected the four coefficients of a cubic")
    F, _ = clear_denominators([Fraction(x) for x in coeffs])
    d, c, b, a = F
    disc = (18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3
            - 27 * a * a * d * d)
    if disc > 0:
        import numpy as np
        monic = [float(Fraction(x, a)) for x in (a, b, c, d)]
        roots = sorted(float(x) for x in np.roots(monic).real)
        raise AmbiguousRootError("expected one simple real root, found 3", roots)
    if disc == 0:
        if b * b == 3 * a * c:
            raise AmbiguousRootError("expected one simple real root, found 0",
                                     [float(Fraction(-b, 3 * a))])
        return Fraction(4 * a * b * c - 9 * a * a * d - b**3, a * (b * b - 3 * a * c))
    # one real root, inside the Cauchy bound
    bound = 1 + Fraction(max(abs(x) for x in F[:3]), abs(a))
    lo, hi = refine_root(F, -bound, bound)
    cand = ((lo + hi) / 2).limit_denominator(10**9)
    if lo <= cand <= hi and polyval(F, cand) == 0:
        return cand
    return float((lo + hi) / 2)


# -- the U(a, b) family --------------------------------------------------


def uab_matrix(a: int, b: int) -> Matrix:
    """The symmetric 4-by-4 count pattern with entries a and b (rank <= 3)."""
    if not (a >= b >= 0):
        raise ValueError("requires integers a >= b >= 0")
    return Matrix.exact([[a, a, b, b],
                         [a, b, a, b],
                         [b, a, b, a],
                         [b, b, a, a]])


def uab_in_model(a: int, b: int) -> bool:
    """Whether the normalized pattern is a member: b >= (sqrt(2)-1)*a.

    Decided exactly through the squared form b^2 + 2ab - a^2 >= 0.
    """
    if not (a >= b >= 0) or (a == 0 and b == 0):
        raise ValueError("requires integers a >= b >= 0, not both zero")
    return b * b + 2 * a * b - a * a >= 0


def _uab_mle_cubic(a: int, b: int) -> list[int]:
    return [-(8 * a**6 + 16 * a**5 * b + 10 * a**4 * b**2 + 2 * a**3 * b**3),
            22 * a**5 + 43 * a**4 * b + 30 * a**3 * b**2 + 7 * a**2 * b**3,
            -(20 * a**4 + 44 * a**3 * b + 8 * a * b**3 + 32 * a**2 * b**2),
            6 * a**3 + 16 * a**2 * b + 14 * a * b**2 + 4 * b**3]


_UAB_PATTERNS = [
    "aabb|vwtu|wvut|ssrr",
    "vtwu|abab|srsr|wuvt",
    "tvuw|rsrs|baba|uwtv",
    "rrss|tuvw|utwv|bbaa",
    "avws|awvs|btur|butr",
    "vasw|tbru|wasv|ubrt",
    "trbu|vsaw|urbt|wsav",
    "rtub|rutb|svwa|swva",
]


@dataclass
class UabMle:
    """The eight closed-form maximizers for a count pattern off the model."""

    a: int
    b: int
    t: object  # Fraction when rational, else float
    s: object
    u: object
    v: object
    w: object
    r: object
    matrices: list[Matrix]
    exact: bool

    def letters(self) -> dict:
        return {"t": self.t, "s": self.s, "u": self.u,
                "v": self.v, "w": self.w, "r": self.r}


def uab_closed_form_mle(a: int, b: int) -> UabMle:
    """Eight boundary maximizers of the likelihood for U(a, b) off the model.

    Applies in the regime a > b >= 0 with the normalized pattern outside the
    member set.  The entry t solves a cubic with integer coefficients (its
    unique simple real root); the remaining letters are rational in t, and
    the eight matrices arise by filling symmetric patterns, each divided by
    8(a+b).
    """
    if not (a > b >= 0):
        raise ValueError("requires integers a > b >= 0")
    if uab_in_model(a, b):
        raise ValueError("closed form applies only off the model "
                         "(b < (sqrt(2)-1) * a)")
    t = unique_simple_real_root(_uab_mle_cubic(a, b))
    exact = isinstance(t, Fraction)
    if exact:
        a_, b_ = Fraction(a), Fraction(b)
    else:
        t = float(t)
        a_, b_ = float(a), float(b)
    s = ((a_ + b_) * t - a_**2) / a_
    u = t * b_ / a_
    w = -(t * ((3 * a_**2 + 5 * a_ * b_ + 2 * b_**2) * t
               - 4 * a_**3 - 5 * a_**2 * b_ - 2 * a_ * b_**2)) \
        / (2 * a_**3 + a_**2 * b_)
    r = (2 * a_**2 + a_ * b_ - (a_ + b_) * t) / a_
    v = ((3 * a_**2 + 5 * a_ * b_ + 2 * b_**2) * t**2
         - (6 * a_**3 + 8 * a_**2 * b_ + 3 * a_ * b_**2) * t
         + 6 * a_**3 * b_ + 2 * a_**2 * b_**2 + 4 * a_**4) \
        / (2 * a_**3 + a_**2 * b_)
    letters = {"a": a_, "b": b_, "t": t, "s": s, "u": u, "v": v, "w": w, "r": r}
    denom = 8 * (a + b)
    matrices = []
    for pat in _UAB_PATTERNS:
        rows = [[letters[ch] for ch in chunk] for chunk in pat.split("|")]
        matrices.append(Matrix.of(rows).scale(Fraction(1, denom)))
    return UabMle(a=a, b=b, t=t, s=s, u=u, v=v, w=w, r=r,
                  matrices=matrices, exact=exact)


# -- rectangle family ----------------------------------------------------


def rectangle_family(a, b) -> Matrix:
    """The 4-by-4 rectangle-in-square family for parameters in [0, 1].

    Exact for rational parameters, float otherwise.
    """
    if not (0 <= a <= 1 and 0 <= b <= 1):
        raise ValueError("parameters must lie in [0, 1]")
    rows = [[1 - a, 1 + a, 1 + a, 1 - a],
            [1 - b, 1 - b, 1 + b, 1 + b],
            [1 + a, 1 - a, 1 - a, 1 + a],
            [1 + b, 1 + b, 1 - b, 1 - b]]
    return Matrix.of(rows)


def rectangle_in_model(a, b) -> bool:
    """Membership of the rectangle family: a*b + a + b <= 1."""
    a, b = Fraction(a), Fraction(b)
    if not (0 <= a <= 1 and 0 <= b <= 1):
        raise ValueError("parameters must lie in [0, 1]")
    return a * b + a + b <= 1


# -- two-parameter determinantal pencil ----------------------------------

_GREEN_BASE = [[51, 9, 64, 9], [27, 63, 8, 8], [3, 34, 40, 31], [30, 25, 80, 35]]
_GREEN_M1 = [[1, 1, 3, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]
_GREEN_M2 = [[5, 4, 1, 1], [5, 1, 5, 1], [1, 5, 1, 5], [1, 1, 5, 5]]


def greencurve_matrix(x, y) -> Matrix:
    """The pencil base + x*M1 + y*M2 whose determinant defines a quartic curve.

    Exact for rational parameters, float otherwise.
    """
    x, y = Matrix.of([[x, y]]).entries[0]
    return Matrix.of([[_GREEN_BASE[i][j] + x * _GREEN_M1[i][j] + y * _GREEN_M2[i][j]
                       for j in range(4)] for i in range(4)])
