"""Polynomials in one and two complex variables, with certified root finding.

The central objects are polynomials ``f(z, w)`` of fixed degree ``n`` in ``w``
whose ``w``-leading coefficient is a nonzero constant, so every fiber
``f(z0, .)`` has exactly ``n`` roots counted with multiplicity and none escape
to infinity.  Roots are the eigenvalues of companion matrices, a
backward-stable root finder solved for a whole batch of polynomials in one
call; the same solve serves single polynomials and every fiber of the fiber
kernel.  Roots are certified by Weierstrass inclusion discs, of radii from
each root's Horner residual and its rounding bound; a radius that is not
finite makes root finding raise.  A connected component of k discs holds
exactly k roots and is one root of multiplicity k, for the roots of a fiber
and of the discriminant alike.
Every polynomial here and in the fiber kernel is evaluated by one Horner
routine over a coefficient table; run on absolute values, it gives the scale
against which a value is rounding.  :meth:`BivariatePolynomial.jet` reads any
partial derivative of ``f`` and its scale that way, in z and then in w.

The discriminant with respect to ``w`` vanishes where the Sylvester matrix
``S(z)`` of ``f`` and its ``w``-derivative is singular.  Its multiplicity
structure is decided exactly, once per polynomial: every float is a dyadic
rational, so the discriminant is computed modulo two fixed primes from
resultants at integer points, and its square-free decomposition gives the
multiplicities of its distinct roots.  Its roots are found without expanding
the determinant, as the finite eigenvalues of ``S(z)`` taken as a matrix
polynomial in ``z`` (Nakatsukasa, Noferini and Townsend, Numer. Math. 129,
2015): ``w`` is first translated to the fiber centroid, every row is
balanced, the reversal about one shift point is solved with one eigenvalue
call, and the exact degree says how many of its eigenvalues are finite.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, NumericalFailure

__all__ = [
    "UnivariatePolynomial",
    "BivariatePolynomial",
    "RootSet",
    "roots",
    "discriminant_w",
    "fiber_roots",
    "parse_bivariate_text",
    "bivariate_to_json",
    "bivariate_from_json",
]

DEFAULT_ROOT_TOL = 1e-12
# Horner's rounding error is below _ROUNDING * degree * (sum of absolute terms).
_ROUNDING = 2 * np.finfo(float).eps


@dataclass(frozen=True)
class UnivariatePolynomial:
    """Coefficients in ascending degree order; exact trailing zeros trimmed."""

    coefficients: tuple[complex, ...]

    def __post_init__(self) -> None:
        coefficients = [complex(v) for v in self.coefficients]
        while coefficients and coefficients[-1] == 0:
            coefficients.pop()
        object.__setattr__(self, "coefficients", tuple(coefficients))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coefficients) - 1

    def __call__(self, z):
        """Horner evaluation; accepts scalars or numpy arrays."""
        value = _horner(np.array(self.coefficients or (0j,)), z)
        return value if np.ndim(z) else complex(value)

    def derivative(self) -> UnivariatePolynomial:
        return UnivariatePolynomial(
            tuple(k * c for k, c in enumerate(self.coefficients) if k > 0)
        )

    def __add__(self, other: UnivariatePolynomial) -> UnivariatePolynomial:
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return UnivariatePolynomial(tuple(summed))

    def __sub__(self, other: UnivariatePolynomial) -> UnivariatePolynomial:
        return self + other.scale(-1)

    def __mul__(self, other: UnivariatePolynomial) -> UnivariatePolynomial:
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return UnivariatePolynomial(())
        prod = np.convolve(np.array(a, dtype=complex), np.array(b, dtype=complex))
        return UnivariatePolynomial(tuple(prod))

    def scale(self, factor: complex) -> UnivariatePolynomial:
        return UnivariatePolynomial(tuple(factor * c for c in self.coefficients))


@dataclass(frozen=True)
class RootSet:
    """Roots grouped by multiplicity: one value per connected component of
    inclusion discs, the number of discs in it, and the largest disc radius."""

    values: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    residual: float

    def __post_init__(self) -> None:
        if len(self.values) != len(self.multiplicities):
            raise InputError("values and multiplicities must align")

    @property
    def total(self) -> int:
        return sum(self.multiplicities)


def _horner(c: np.ndarray, x):
    """The polynomial with ascending coefficients ``c`` over the first axis at
    ``x``, by Horner's rule; every ``c[k]`` broadcasts against ``x``.  Its
    rounding error is below ``_ROUNDING`` times the degree times
    ``_horner(abs(c), abs(x))`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 2002, section 5.1)."""
    if len(c) == 1:
        return c[0] + np.zeros_like(x)
    value = c[-1] * x + c[-2]
    for coeff in c[-3::-1]:
        value *= x
        value += coeff
    return value


def _inclusion_radii(values: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Radii of the Weierstrass inclusion discs about ``values``, approximate
    roots of a monic polynomial of degree ``d``, the length of the last axis,
    that is at most ``residuals`` there in absolute value; rows of a batch
    are independent.

    The disc of v_i has radius (d + 1)|W_i| with W_i = residual_i divided by
    the product of v_i - v_j over the other values.  Values within
    8 sqrt(eps) max|v| of each other count as one m-fold value: they leave
    each other out of the product, and their |W_i| takes the m-th root.
    """
    diff = values[..., :, None] - values[..., None, :]
    reach = 8 * math.sqrt(np.finfo(float).eps) * np.abs(values).max(axis=-1)
    near = np.abs(diff) <= reach[..., None, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = residuals / np.abs(np.where(near, 1.0, diff).prod(axis=-1))
        return (values.shape[-1] + 1) * w ** (1.0 / near.sum(axis=-1))


def _cluster_values(
    values: np.ndarray, radii: np.ndarray
) -> tuple[tuple[complex, ...], tuple[int, ...]]:
    """The connected components of the discs of ``radii`` about ``values``,
    each as its mean and its number of discs, by real then imaginary part.

    A component of k inclusion discs holds exactly k roots (Braess and
    Hadeler, Numer. Math. 21, 1973; Carstensen, Numer. Math. 59, 1991).
    """
    reach = np.abs(values[:, None] - values[None, :]) <= radii[:, None] + radii[None, :]
    reach |= np.eye(len(values), dtype=bool)
    # Squaring doubles the length of the chains of overlapping discs covered.
    for _ in range(len(values).bit_length()):
        reach = reach @ reach
    label = reach.argmax(axis=1)
    reps = []
    for k in np.unique(label):
        group = [complex(v) for v in values[label == k]]
        reps.append((sum(group) / len(group), len(group)))
    reps.sort(key=lambda pair: (pair[0].real, pair[0].imag))
    return tuple(r for r, _ in reps), tuple(c for _, c in reps)


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of every row of ascending coefficients, shape (rows, degree).

    They are the eigenvalues of the companion matrices, solved in one batched
    call: a backward-stable root finder (Edelman and Murakami, Math. Comp. 64,
    1995).
    """
    n = coeffs.shape[-1] - 1
    comp = np.repeat(np.eye(n, k=-1, dtype=complex)[None], len(coeffs), axis=0)
    comp[:, :, -1] = -coeffs[:, :-1] / coeffs[:, -1:]
    try:
        return np.linalg.eigvals(comp)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"companion eigenvalue solve failed: {exc}") from exc


def _certified_roots(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of every row of ascending ``coeffs`` from :func:`_companion_roots`,
    and the radii of their inclusion discs, both of shape (rows, degree).

    Each root's residual is the Horner value of its monic row there plus
    that value's rounding bound.  Raises :class:`NumericalFailure`, with the
    roots attached, when a radius is not finite.
    """
    if coeffs.shape[-1] < 2:
        raise InputError("root finding needs a polynomial of degree >= 1")
    values = _companion_roots(coeffs)
    rows, n = values.shape
    monic = coeffs / coeffs[:, -1:]
    monic[:, -1] = 1.0  # the division can round it
    # One Horner pass: the values in the first rows, their scales after them.
    table = np.concatenate([monic, np.abs(monic)]).T[:, :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        both = _horner(table, np.concatenate([values, np.abs(values)]))
    radii = _inclusion_radii(values, np.abs(both[:rows]) + _ROUNDING * n * both[rows:].real)
    if not np.isfinite(radii).all():
        raise NumericalFailure(
            "root finding did not certify: an inclusion radius is not finite",
            diagnostics={"values": [repr(complex(v)) for v in values.ravel()]},
        )
    return values, radii


def raw_roots(p: UnivariatePolynomial) -> tuple[complex, ...]:
    """All complex roots, certified as by :func:`roots` but not clustered:
    near-coincident values are returned as they are, which is what structural
    checks on nearly-degenerate fibers need."""
    found, _ = _certified_roots(np.array([p.coefficients], dtype=complex))
    return tuple(sorted((complex(v) for v in found[0]), key=lambda c: (c.real, c.imag)))


def roots(p: UnivariatePolynomial) -> RootSet:
    """All complex roots of ``p``, grouped by multiplicity.

    Each root gets the inclusion disc of :func:`_certified_roots`, and every
    connected component of k discs is one root of multiplicity k at the mean
    of its values.  A radius that is not finite raises there.
    """
    found, radii = _certified_roots(np.array([p.coefficients], dtype=complex))
    values, mults = _cluster_values(found[0], radii[0])
    return RootSet(values, mults, float(radii.max()))


@dataclass(frozen=True)
class BivariatePolynomial:
    """f(z, w) with ``w_coefficients[k]`` the z-polynomial multiplying w^k.

    The leading coefficient (of w^n) must be a nonzero constant, so fibers
    never drop degree and the zero set has no vertical asymptotes.
    """

    w_coefficients: tuple[UnivariatePolynomial, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "w_coefficients", tuple(self.w_coefficients))
        if len(self.w_coefficients) < 3:
            raise InputError("w-degree must be at least 2")
        lead = self.w_coefficients[-1]
        if lead.degree != 0:
            raise InputError(
                "the coefficient of the top w-power must be a nonzero constant"
            )
        if not np.isfinite(self.coefficient_table).all():
            raise InputError("polynomial coefficients must be finite")

    @property
    def w_degree(self) -> int:
        return len(self.w_coefficients) - 1

    @property
    def leading_constant(self) -> complex:
        return self.w_coefficients[-1].coefficients[0]

    @cached_property
    def coefficient_table(self) -> np.ndarray:
        """Read-only array whose entry [j, k] multiplies z^j w^k."""
        depth = max(c.degree for c in self.w_coefficients) + 1
        table = np.zeros((depth, self.w_degree + 1), dtype=complex)
        for k, c in enumerate(self.w_coefficients):
            table[: c.degree + 1, k] = c.coefficients
        table.flags.writeable = False
        return table

    def fiber(self, z: complex) -> UnivariatePolynomial:
        """The univariate polynomial w -> f(z, w)."""
        return UnivariatePolynomial(tuple(_horner(self.coefficient_table, complex(z))))

    def evaluate(self, z: complex, w: complex) -> complex:
        """f(z, w); broadcasts over arrays of z and w."""
        axes = (...,) + (None,) * max(np.ndim(z), np.ndim(w))
        return _horner(_horner(self.coefficient_table[axes], z), w)

    def jet(self, z, w, orders) -> tuple[np.ndarray, np.ndarray]:
        """Partial derivatives of f with their scales, by Horner in z, then in w.

        ``orders`` is a tuple of pairs (a, b).  Entry i of the first array is
        the partial derivative of f taken a times in z and b times in w, for
        ``(a, b) = orders[i]``; entry i of the second is its sum of absolute
        terms, the scale against which it counts as zero.  Both broadcast over
        ``z`` and ``w``: their shape is ``(len(orders),)`` followed by the
        broadcast shape of z and w.
        """
        parts, magnitudes = self.derivative_tables(orders)
        z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
        # Horner in z, then in w, with the orders after the two table axes.
        axes = (...,) + (None,) * max(z.ndim, w.ndim)
        values = _horner(_horner(parts.transpose(1, 2, 0)[axes], z), w)
        scales = _horner(_horner(magnitudes.transpose(1, 2, 0)[axes], np.abs(z)), np.abs(w))
        return values, scales

    def derivative_tables(self, orders) -> tuple[np.ndarray, np.ndarray]:
        """Coefficient tables, shaped like :attr:`coefficient_table`, of the
        partials of f that :meth:`jet` evaluates for ``orders``, and their
        absolute values, each stacked on a new first axis."""
        tables = self._derivative_tables.get(orders)
        if tables is None:
            table = self.coefficient_table
            depth, width = table.shape
            parts = np.zeros((len(orders), depth, width), dtype=complex)
            for i, (a, b) in enumerate(orders):
                # The a-th derivative of z^j is j! / (j - a)! z^(j - a); w alike.
                falling = np.multiply.outer(
                    [math.perm(j, a) for j in range(a, depth)],
                    [math.perm(k, b) for k in range(b, width)],
                )
                parts[i, : depth - a, : width - b] = table[a:, b:] * falling
            tables = self._derivative_tables[orders] = (parts, np.abs(parts))
        return tables

    @cached_property
    def _derivative_tables(self) -> dict:
        """The :meth:`derivative_tables` built so far, by tuple of orders."""
        return {}

    @cached_property
    def discriminant_multiplicities(self) -> tuple[int, ...]:
        """Multiplicities of the distinct roots of the w-discriminant
        Delta(z) = Res_w(f, f_w), ascending; their sum is Delta's degree.

        Every float is a dyadic rational, so Delta has exact coefficients in
        Q(i), and its structure is computed modulo each prime of ``_PRIMES``.
        Raises :class:`InputError` when Delta is identically zero: f has a
        repeated factor.  Modulo an unlucky prime the structure is coarser,
        never finer: Delta vanishes, its degree drops (the prime divides its
        leading coefficient), or distinct roots meet and fake a repeated
        root.  The two primes must agree, or this raises
        :class:`NumericalFailure`.  A faked repeated root is loud even when
        both agree on it, since :func:`~quasibraid.branch.branch_points`
        raises when the pencil eigenvalues cluster otherwise.  Only a degree
        drop or a vanishing Delta modulo both primes at once is silent: it
        needs their product, about 2^123, to divide the leading coefficient
        or every coefficient of Delta scaled to Gaussian integers.
        """
        found = [_multiplicities_mod(self, p) for p in _PRIMES]
        if len(set(found)) > 1:
            raise NumericalFailure(
                "the discriminant's multiplicities differ between its primes",
                diagnostics={"primes": list(_PRIMES), "multiplicities": found},
            )
        if found[0] is None:
            raise InputError("f has a repeated factor (discriminant is identically zero)")
        return found[0]

    def add_w_linear(self, epsilon: complex) -> BivariatePolynomial:
        """f + epsilon * w, the standard genericity perturbation."""
        coeffs = list(self.w_coefficients)
        coeffs[1] = coeffs[1] + UnivariatePolynomial((epsilon,))
        return BivariatePolynomial(tuple(coeffs))


# The primes modulo which the discriminant's structure is computed.  Both
# are 5 mod 8, so 2 is not a square mod p and 2^((p - 1)/4) is a square root
# of -1 mod p.  Polynomials mod p are lists of coefficients, leading first.
_PRIMES = (2**61 - 259, 2**62 - 171)


def _mod_p(x: float, p: int) -> int:
    """The image mod p of ``x``, a dyadic rational."""
    num, den = x.as_integer_ratio()
    return num * pow(den, -1, p) % p


def _trim_p(a: list[int]) -> list[int]:
    while a and not a[0]:
        a = a[1:]
    return a


def _rem_p(a: list[int], b: list[int], p: int) -> list[int]:
    """The remainder of ``a`` by ``b`` mod p; ``b`` has a nonzero lead."""
    a, inv = list(a), pow(b[0], -1, p)
    while len(a) >= len(b):
        q = a[0] * inv % p
        for j in range(1, len(b)):
            a[j] = (a[j] - q * b[j]) % p
        a = _trim_p(a[1:])
    return a


def _derivative_p(a: list[int], p: int) -> list[int]:
    return [c * (len(a) - 1 - i) % p for i, c in enumerate(a[:-1])]


def _euclid_p(a: list[int], b: list[int], p: int) -> tuple[list[int], int]:
    """A gcd of nonzero ``a`` and ``b`` mod p, and Res(a, b) mod p by
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r) for the
    remainder r of a by b, lc(b)^(deg a) for constant b, and 0 when r = 0."""
    res = 1
    while b:
        r = _rem_p(a, b, p)
        if len(b) == 1:
            res = res * pow(b[0], len(a) - 1, p) % p
        elif not r:
            res = 0
        else:
            sign = -1 if (len(a) - 1) * (len(b) - 1) % 2 else 1
            res = res * sign * pow(b[0], len(a) - len(r), p) % p
        a, b = b, r
    return a, res


def _multiplicities_mod(f: BivariatePolynomial, p: int) -> tuple[int, ...] | None:
    """Multiplicities of the distinct roots of the discriminant mod p,
    ascending, or None when it vanishes identically mod p.

    The discriminant is interpolated from Euclidean resultants of f and f_w
    at z = 0, 1, ..., (2n - 1) deg_z f; its square-free decomposition gives
    the multiplicities.
    """
    root = pow(2, (p - 1) // 4, p)  # a square root of -1 mod p
    columns = [
        [(_mod_p(c.real, p) + root * _mod_p(c.imag, p)) % p for c in column]
        for column in f.coefficient_table.T[::-1].tolist()
    ]
    if not columns[0][0]:
        return None  # the Sylvester matrix has a zero column mod p
    count = (2 * f.w_degree - 1) * (len(f.coefficient_table) - 1) + 1
    values = []
    for t in range(count):
        powers = [pow(t, j, p) for j in range(len(f.coefficient_table))]
        fiber = [sum(c * s for c, s in zip(column, powers)) % p for column in columns]
        values.append(_euclid_p(fiber, _derivative_p(fiber, p), p)[1])
    # Newton's divided differences on the nodes 0, 1, ..., count - 1, whose
    # differences at level k are all k; then the Newton form in monomials.
    for k in range(1, count):
        inv = pow(k, -1, p)
        values[k:] = [(b - a) * inv % p for a, b in zip(values[k - 1 :], values[k:])]
    delta = [values[-1]]
    for k in range(count - 2, -1, -1):
        delta = [(c - k * prev) % p for c, prev in zip(delta + [values[k]], [0] + delta)]
    delta = _trim_p(delta)
    if not delta:
        return None
    # Square-free decomposition by repeated gcds: g = gcd(g, g') lowers every
    # multiplicity by one, so its degree falls by the number of distinct
    # roots of multiplicity at least k at the k-th step.
    at_least = []
    g = delta
    while len(g) > 1:
        h = _euclid_p(g, _derivative_p(g, p), p)[0]
        at_least.append(len(g) - len(h))
        g = h
    at_least.append(0)
    return tuple(k for k in range(1, len(at_least)) for _ in range(at_least[k - 1] - at_least[k]))


# Shift points for the pencil reversal, placed like generic sample points.
_SHIFTS = 1.37 * np.exp(2j * np.pi * (np.arange(9) + 0.31) / 9)


def _sylvester_pencil(f: BivariatePolynomial) -> tuple[np.ndarray, np.ndarray]:
    """Row-balanced Sylvester matrix of f and f_w as a polynomial in z.

    Entry [j] of the returned stack multiplies z^j.  The layout is n - 1
    shifted rows of f's descending w-coefficients over n rows of f_w's, after
    w is translated by the centroid of the fiber over z = 0; a translation
    leaves the resultant unchanged and keeps the coefficients from growing
    with the distance of the roots from the origin.  Returns the stack and
    the row scales it was divided by.
    """
    table = f.coefficient_table
    n = f.w_degree
    center = -table[0, n - 1] / (n * table[0, n])
    k = np.arange(n + 1)
    taylor = np.array([[math.comb(a, b) for b in k] for a in k]) * center ** np.maximum(
        k[:, None] - k[None, :], 0
    )
    shifted = table @ taylor
    deriv = shifted[:, 1:] * k[1:]
    size = 2 * n - 1
    stack = np.zeros((len(table), size, size), dtype=complex)
    for r in range(n - 1):
        stack[:, r, r : r + n + 1] = shifted[:, ::-1]
    for r in range(n):
        stack[:, n - 1 + r, r : r + n] = deriv[:, ::-1]
    scale = np.abs(stack).max(axis=(0, 2))
    return stack / scale[:, None], scale


def _discriminant_roots(f: BivariatePolynomial) -> tuple[np.ndarray, complex, np.ndarray]:
    """Roots of the w-discriminant, ungrouped, its leading coefficient, and
    the absolute value of the monic discriminant at every root.

    The roots are the finite eigenvalues of the Sylvester pencil S(z).  For a
    shift point sigma with S(sigma) regular, the reversal mu^d S(sigma + 1/mu)
    has the regular leading coefficient S(sigma) and a block companion
    linearization; infinite eigenvalues of S become mu = 0, which rounding
    moves only slightly.  The shift with the best-conditioned S(sigma) is
    solved, and the exact degree D of the discriminant keeps its D
    eigenvalues of largest |mu|.  Raises :class:`InputError` when the
    discriminant is identically zero, which means f has a repeated factor.
    """
    degree = sum(f.discriminant_multiplicities)
    stack, scale = _sylvester_pencil(f)
    d = len(stack) - 1
    size = stack.shape[1]
    at = _horner(stack, _SHIFTS[:, None, None])
    sing = np.linalg.svd(at, compute_uv=False)
    best = int(np.argmax(sing[:, -1] / np.maximum(sing[:, 0], 1e-300)))
    # A one-element array: numpy's scalar power can round differently in the
    # last bit, and the frozen tracks in tests/data used its array power.
    sigma = _SHIFTS[best : best + 1]
    if degree == 0:
        values = np.zeros(0, dtype=complex)
    else:
        # Coefficient k of mu^d S(sigma + 1/mu) is sum_j C(j, i) sigma^i S_j
        # over i + d - j = k; the top one, k = d, is S(sigma).
        rev = np.zeros((d + 1, size, size), dtype=complex)
        for j in range(d + 1):
            for i in range(j + 1):
                rev[i + d - j] += math.comb(j, i) * sigma**i * stack[j]
        companion = np.zeros((d * size, d * size), dtype=complex)
        companion[:size] = -np.linalg.solve(rev[d], np.concatenate(rev[d - 1 :: -1], axis=1))
        companion[size:, :-size] = np.eye((d - 1) * size)
        mu = np.linalg.eigvals(companion)
        order = np.argsort(-np.abs(mu), kind="stable")
        values = sigma + 1.0 / mu[np.sort(order[:degree])]
    # The determinant of S, times the row scales, is the discriminant.
    at_values = _horner(stack, values[:, None, None])
    det = np.linalg.det(np.concatenate([at[best : best + 1], at_values]))
    det *= np.prod(scale)
    lead = det[0] / np.prod(sigma - values)
    return values, complex(lead), np.abs(det[1:] / lead)


def discriminant_w(f: BivariatePolynomial) -> UnivariatePolynomial:
    """Resultant of f and df/dw with respect to w, as a polynomial in z.

    Vanishes exactly at the z where the fiber has a repeated root.  Returned
    in product form, the leading coefficient times the monic polynomial with
    the finite eigenvalues of the Sylvester pencil as roots, of the exact
    degree.  Raises :class:`InputError` when the discriminant is identically
    zero, which means f has a repeated factor.
    """
    values, lead, _ = _discriminant_roots(f)
    return UnivariatePolynomial(tuple(lead * np.atleast_1d(np.poly(values))[::-1]))


def fiber_roots(f: BivariatePolynomial, z: complex) -> RootSet:
    """Roots in w of f(z, .), grouped by multiplicity as by :func:`roots`."""
    return roots(f.fiber(z))


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)|(?P<var>[zw])"
    r"|(?P<pow>\^)|(?P<mul>\*)|(?P<plus>\+)|(?P<minus>-))"
)


def parse_bivariate_text(text: str) -> BivariatePolynomial:
    """Parse expressions like ``w^3 - 3*w + 2*z^4``.

    Terms are products of a decimal coefficient and powers of z and w; no
    parentheses.  The result must have w-degree >= 2 with a constant leading
    coefficient.
    """
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise InputError(f"cannot tokenize polynomial text at {text[pos:]!r}")
            break
        pos = m.end()
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
    tokens.append(("end", ""))

    grid: dict[tuple[int, int], complex] = {}
    i = 0
    while tokens[i][0] != "end":
        sign = 1.0
        while tokens[i][0] in ("plus", "minus"):
            sign = -sign if tokens[i][0] == "minus" else sign
            i += 1
        if tokens[i][0] == "end":
            if grid:
                raise InputError("dangling sign at end of polynomial text")
            break
        coeff, degrees, saw_factor = sign, {"z": 0, "w": 0}, False
        while tokens[i][0] in ("number", "var", "mul"):
            kind, value = tokens[i]
            saw_factor |= kind != "mul"
            i += 1
            if kind == "number":
                coeff *= float(value)
            elif kind == "var":
                exponent = "1"
                if tokens[i][0] == "pow":
                    if tokens[i + 1][0] != "number":
                        raise InputError("exponent must follow '^'")
                    exponent = tokens[i + 1][1]
                    if not exponent.isdigit():
                        raise InputError(
                            f"exponent must be a non-negative integer, got {exponent!r}"
                        )
                    i += 2
                degrees[value] += int(exponent)
        if not saw_factor:
            raise InputError("empty term in polynomial text")
        key = (degrees["z"], degrees["w"])
        grid[key] = grid.get(key, 0j) + coeff

    if not grid:
        raise InputError("empty polynomial text")
    rows = [[0j] * (max(z for z, _ in grid) + 1) for _ in range(max(w for _, w in grid) + 1)]
    for (z, w), c in grid.items():
        rows[w][z] = c
    return BivariatePolynomial(tuple(UnivariatePolynomial(tuple(row)) for row in rows))


def bivariate_to_json(f: BivariatePolynomial) -> dict:
    """Serialize with coefficients listed by descending w-power."""
    desc = [[[v.real, v.imag] for v in c.coefficients] or [[0.0, 0.0]] for c in f.w_coefficients]
    return {"n": f.w_degree, "coeffs_w_desc": desc[::-1]}


def bivariate_from_json(data: dict) -> BivariatePolynomial:
    try:
        n = int(data["n"])
        desc = data["coeffs_w_desc"]
        count = len(desc)
        asc = tuple(
            UnivariatePolynomial(tuple(complex(re, im) for re, im in entry))
            for entry in reversed(desc)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(
            f"polynomial JSON needs an integer 'n' and 'coeffs_w_desc' lists of"
            f" [re, im] pairs: {exc}"
        ) from exc
    if count != n + 1:
        raise InputError(
            f"expected {n + 1} coefficient lists for w-degree {n}, got {count}"
        )
    return BivariatePolynomial(asc)
