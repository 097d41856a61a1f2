"""Closed-form parametric matrix families.

Three 4-by-4 families with known exact behavior:

* the symmetric count pattern U(a, b) whose normalized matrix is a member
  exactly when b >= (sqrt(2) - 1) * a, together with the eight closed-form
  likelihood maximizers in the complementary regime (a cubic in one entry,
  rational formulas for the rest);
* the rectangle family, a member exactly when a*b + a + b <= 1;
* a two-parameter pencil whose determinant cuts out a quartic curve, used
  for membership spot checks along that curve.

The cubic is solved by exact square-free decomposition plus Sturm-chain
root isolation over the rationals, so a rational simple root comes back as
a Fraction and everything downstream stays exactly representable.  The
isolating interval is then refined by bisection on integer numerators over
one power-of-two denominator; ``Fraction`` remains in the polynomial
helpers, the isolation, the interval ``refine_root`` returns, and the
letters and matrices of the maximizers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactla import Matrix, clear_denominators

# -- exact polynomial helpers (dense, ascending coefficients) -----------


def polyval(coeffs, x):
    acc = coeffs[-1] * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def polyderiv(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def polydivmod(f, g):
    f = list(f)
    g = _trim(list(g))
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    r = list(f)
    while _trim(r) and len(_trim(r)) >= len(g):
        r = _trim(r)
        k = len(r) - len(g)
        c = r[-1] / g[-1]
        q[k] = c
        for i, gc in enumerate(g):
            r[i + k] -= c * gc
        r = r[:-1]
    return _trim(q), _trim(r)


def polygcd(f, g):
    """Monic gcd over the rationals (Euclid)."""
    a, b = _trim(list(f)), _trim(list(g))
    while b:
        _, r = polydivmod(a, b)
        a, b = b, r
    if not a:
        return a
    lead = a[-1]
    return [c / lead for c in a]


def sturm_chain(f):
    chain = [_trim(list(f))]
    chain.append(_trim(polyderiv(chain[0])))
    while chain[-1]:
        _, r = polydivmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return [p for p in chain if p]


def _sign_variations(values):
    signs = [s for s in ((v > 0) - (v < 0) for v in values) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def sturm_count(chain, lo, hi):
    """Number of distinct real roots in (lo, hi] for a square-free chain."""
    va = _sign_variations([polyval(p, lo) for p in chain])
    vb = _sign_variations([polyval(p, hi) for p in chain])
    return va - vb


def cauchy_bound(f):
    lead = f[-1]
    return 1 + max(abs(c / lead) for c in f[:-1]) if len(f) > 1 else Fraction(1)


def isolate_real_roots(f):
    """Disjoint isolating intervals (lo, hi) for the real roots of a
    square-free rational polynomial, by Sturm-count bisection.

    Interval endpoints are never roots (split points are chosen non-root and
    the starting Cauchy bound strictly exceeds all root magnitudes).
    """
    f = _trim([Fraction(c) for c in f])
    if len(f) <= 1:
        return []
    chain = sturm_chain(f)
    bound = cauchy_bound(f)
    stack = [(-bound, bound)]
    out = []
    while stack:
        lo, hi = stack.pop()
        k = sturm_count(chain, lo, hi)
        if k == 0:
            continue
        if k == 1:
            out.append((lo, hi))
            continue
        # split at a non-root interior point (at most deg(f) offsets can fail)
        for num, den in ((1, 2), (1, 3), (2, 5), (3, 7), (4, 9)):
            mid = lo + (hi - lo) * Fraction(num, den)
            if polyval(f, mid) != 0:
                break
        else:
            raise ArithmeticError("could not find a non-root split point")
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(out)


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
    """The unique real root of multiplicity exactly one.

    Roots of even multiplicity are discarded via the square-free
    decomposition; if the remaining simple real roots do not number exactly
    one, an AmbiguousRootError carries float approximations of all real
    roots.  Returns an exact Fraction when the root is rational, otherwise
    a float polished by Newton steps.
    """
    f = _trim([Fraction(c) for c in coeffs])
    if len(f) < 2:
        raise ValueError("constant polynomial has no roots")
    g = polygcd(f, polyderiv(f))
    if len(g) > 1:
        squarefree, rem = polydivmod(f, g)
        if rem:
            raise ArithmeticError("square-free division left a remainder")
        gchain = sturm_chain(g)
    else:
        squarefree, gchain = f, None
    intervals = isolate_real_roots(squarefree)
    # a root of the square-free part is simple for f iff it is not a root of
    # g = gcd(f, f'); roots of g are among the square-free roots, so the
    # isolating interval either contains one root of g (multiple) or none.
    flags = [gchain is None or sturm_count(gchain, lo, hi) == 0
             for lo, hi in intervals]
    only = [iv for iv, simple in zip(intervals, flags) if simple]
    if len(only) != 1:
        approx = [float(sum(refine_root(squarefree, lo, hi, Fraction(1, 10**18))) / 2)
                  for lo, hi in intervals]
        raise AmbiguousRootError(
            f"expected one simple real root, found {len(only)}", approx)
    if len(squarefree) == 2:
        return -squarefree[0] / squarefree[1]
    lo, hi = refine_root(squarefree, *only[0])
    cand = ((lo + hi) / 2).limit_denominator(10**9)
    if lo <= cand <= hi and polyval(squarefree, cand) == 0:
        return cand
    mid = float((lo + hi) / 2)
    # two float Newton steps to land on the nearest double
    fs = [float(c) for c in squarefree]
    ds = [float(c) for c in polyderiv(squarefree)]
    for _ in range(2):
        d = polyval(ds, mid)
        if d != 0:
            mid -= polyval(fs, mid) / d
    return mid


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


def _uab_mle_cubic(a: int, b: int) -> list[Fraction]:
    return [Fraction(c) for c in (
        -(8 * a**6 + 16 * a**5 * b + 10 * a**4 * b**2 + 2 * a**3 * b**3),
        22 * a**5 + 43 * a**4 * b + 30 * a**3 * b**2 + 7 * a**2 * b**3,
        -(20 * a**4 + 44 * a**3 * b + 8 * a * b**3 + 32 * a**2 * b**2),
        6 * a**3 + 16 * a**2 * b + 14 * a * b**2 + 4 * b**3,
    )]


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
