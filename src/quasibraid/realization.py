"""Realize quasipositive factorizations as curves with explicit loops.

Every product of positive bands in the braid group on n strands is the
monodromy word of some algebraic function along some loop.  The construction
here uses the curve family f(z, w) = P(w) * (w - z) + epsilon with
P(w) = (w - 1)(w - 2)...(w - (n-1)): for small epsilon its branch points
cluster into n - 1 two-point batches along the real axis, one batch per braid
generator, and a loop encircling the right feature of batch k reads exactly
the generator k.  Conjugates and products are then concatenations of these
generator loops through a common basepoint.

Each generator loop comes from one waypoint template at one epsilon.  The
template is a heuristic only: its loop is verified by tracking the fiber
monodromy along it, and accepted only when its freely reduced word is exactly
the target generator; otherwise the plan fails with a ``NumericalFailure``
naming the generator.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .branch import (
    BranchData,
    branch_points,
    check_genericity,
    select_rotation,
)
from .errors import InputError, NumericalFailure
from .monodromy import braid_along
from .paths import Arc, LoopPath, Segment, concat_loops, reverse_loop
from .poly import BivariatePolynomial, UnivariatePolynomial
from .words import (
    BraidWord,
    QuasipositiveFactorization,
    expand_factorization,
    exponent_sum,
    free_reduce,
    word_to_text,
)

__all__ = [
    "BatchFeature",
    "RealizationPlan",
    "realization_curve",
    "build_plan",
    "generator_loop",
    "realize",
    "DEFAULT_EPSILON",
]

DEFAULT_EPSILON = 0.05

# Lane half-width around each batch center.  P's roots are consecutive
# integers and every branch point sits within 2*sqrt(|eps|) <= 0.45 of its
# integer, so +-0.48 clears the features of one batch without entering the
# neighboring lane.
_LANE = 0.48


@dataclass(frozen=True)
class BatchFeature:
    """The two branch points associated with one braid generator.

    ``kind`` is "cross" when both points are real (the local picture is a
    junction of the real interval between them and a vertical line) and "ray"
    when they form a conjugate pair (two vertical rays with a free gap on the
    real axis between them).  ``span`` is the half-width of the real pair for
    a cross and the gap half-height for a ray.
    """

    index: int
    kind: str
    center: float
    points: tuple[complex, complex]
    span: float


@dataclass(frozen=True)
class RealizationPlan:
    """A curve plus verified generator loops sharing one basepoint."""

    n: int
    epsilon: float
    f: BivariatePolynomial
    branch: BranchData
    basepoint: complex
    batches: tuple[BatchFeature, ...]
    generator_loops: tuple[LoopPath, ...]
    verification_words: tuple[BraidWord, ...] = ()


def _curve_polynomial(n: int, epsilon: float) -> BivariatePolynomial:
    p = np.array([1.0 + 0j])
    for j in range(1, n):
        p = np.convolve(p, np.array([-j, 1.0], dtype=complex))
    coeffs = []
    for m in range(n + 1):
        lower = p[m - 1] if m >= 1 else 0j
        upper = p[m] if m <= n - 1 else 0j
        const = lower + (epsilon if m == 0 else 0j)
        coeffs.append(UnivariatePolynomial((const, -upper)))
    return BivariatePolynomial(tuple(coeffs))


def _curve_data(n: int, epsilon: float) -> tuple[BivariatePolynomial, BranchData]:
    f = _curve_polynomial(n, epsilon)
    data = branch_points(f)
    report = check_genericity(f, data)
    if not report.ok:
        raise NumericalFailure(
            "curve is not generic at this epsilon",
            diagnostics={
                "epsilon": epsilon,
                "issues": [issue.reason for issue in report.issues],
            },
        )
    theta = select_rotation(f, data)
    return f, replace(data, generic=True, rotation_theta=theta)


def _validate_curve_args(n: int, epsilon: float) -> None:
    if not isinstance(n, numbers.Integral) or n < 2:
        raise InputError(f"need an integral number of at least 2 strands, got {n!r}")
    if not isinstance(epsilon, numbers.Real) or not 0.0 < abs(epsilon) <= 0.1:
        raise InputError(
            f"epsilon must be real with 0 < |epsilon| <= 0.1, got {epsilon!r}"
        )


def realization_curve(
    n: int, epsilon: float = DEFAULT_EPSILON
) -> BivariatePolynomial:
    """The curve P(w)(w - z) + epsilon with a certified generic branch locus.

    Raises ``NumericalFailure`` when genericity fails at this epsilon.
    """
    _validate_curve_args(n, epsilon)
    return _curve_data(n, float(epsilon))[0]


def _classify_batches(n: int, data: BranchData) -> tuple[BatchFeature, ...]:
    """Pair the branch points into one two-point batch per generator.

    Conjugate pairs become ray batches; the remaining (real) points, sorted
    along the axis, pair up consecutively into cross batches, which is safe
    because cross intervals of neighboring batches never overlap for the
    epsilon range in use.  Batches are then indexed 1..n-1 by center order.
    """
    values = list(data.values())
    real_tol = 1e-8 * (1.0 + max(abs(z) for z in values))
    reals = sorted((z for z in values if abs(z.imag) <= real_tol), key=lambda z: z.real)
    complexes = [z for z in values if abs(z.imag) > real_tol]
    raw: list[tuple[str, float, tuple[complex, complex], float]] = []
    used = [False] * len(complexes)
    for i, z in enumerate(complexes):
        if used[i] or z.imag < 0:
            continue
        mate = None
        for j in range(len(complexes)):
            if j != i and not used[j] and abs(complexes[j] - z.conjugate()) <= real_tol:
                mate = j
                break
        if mate is None:
            raise NumericalFailure(
                "a non-real branch point has no conjugate partner",
                diagnostics={"point": repr(z)},
            )
        used[i] = used[mate] = True
        raw.append(("ray", z.real, (complexes[mate], z), abs(z.imag)))
    if len(reals) % 2 != 0:
        raise NumericalFailure(
            "real branch points do not pair up into batches",
            diagnostics={"count": len(reals)},
        )
    for a, b in zip(reals[::2], reals[1::2]):
        center = 0.5 * (a.real + b.real)
        raw.append(("cross", center, (a, b), 0.5 * (b.real - a.real)))
    if len(raw) != n - 1:
        raise NumericalFailure(
            f"found {len(raw)} batches, expected {n - 1}",
            diagnostics={"points": [repr(z) for z in values]},
        )
    raw.sort(key=lambda item: item[1])
    batches = []
    for idx, (kind, center, pts, span) in enumerate(raw, start=1):
        if span <= 0:
            raise NumericalFailure(
                f"batch {idx} has zero feature size",
                diagnostics={"batch": idx},
            )
        batches.append(BatchFeature(idx, kind, center, pts, span))
    return tuple(batches)


def _corridor_height(batches: tuple[BatchFeature, ...]) -> float:
    ray_spans = [b.span for b in batches if b.kind == "ray"]
    if ray_spans:
        h = 0.45 * min(ray_spans)
    else:
        h = 0.45 * min(b.span for b in batches)
    return min(h, 0.35)


def _pass_points(batch: BatchFeature, h: float) -> list[complex]:
    """Waypoints that carry the corridor past one intermediate batch.

    A ray batch is passed by doing nothing: the corridor height is below the
    gap half-height, so the straight segment goes through the free gap.  A
    cross batch blocks every height with its vertical line, so the corridor
    crosses it and immediately cancels the letter by diving through the real
    arm east of the junction and resurfacing past the batch.
    """
    if batch.kind == "ray":
        return []
    c = batch.center
    x_dive = 0.5 * (c + batch.points[1].real)
    return [
        complex(c - _LANE, h),
        complex(x_dive, h),
        complex(x_dive, -h),
        complex(c + _LANE, -h),
        complex(c + _LANE, h),
    ]


def _target_approach(batch: BatchFeature, h: float) -> tuple[list[complex], Arc]:
    """Stick waypoints to the target circle, and the circle itself.

    For a cross batch the circle runs counterclockwise around the east real
    branch point; its one letter per lap comes from crossing the real arm.
    For a ray batch it runs counterclockwise around the upper branch point,
    on the corridor's side of the axis; the letter comes from crossing the
    ray, and the opposite circle crossing falls in the free gap.
    """
    c = batch.center
    if batch.kind == "cross":
        east = batch.points[1].real
        radius = 0.3 * batch.span
        circle = Arc(complex(east, 0.0), radius, np.pi / 2.0, np.pi / 2.0 + 2.0 * np.pi)
        pts = [complex(c - _LANE, h), complex(east, h), complex(east, radius)]
        return pts, circle
    gap = batch.span
    radius = 0.3 * gap
    circle = Arc(complex(c, gap), radius, np.pi, 3.0 * np.pi)
    pts = [
        complex(c - _LANE, h),
        complex(c - 0.7 * gap, h),
        complex(c - 0.7 * gap, gap),
        complex(c - radius, gap),
    ]
    return pts, circle


def _polyline(points: list[complex]) -> list[Segment]:
    prims = []
    for a, b in zip(points, points[1:]):
        if abs(a - b) > 1e-12:
            prims.append(Segment(a, b))
    return prims


def _candidate_loop(
    batches: tuple[BatchFeature, ...], basepoint: complex, k: int
) -> LoopPath:
    h = _corridor_height(batches)
    out: list[complex] = [basepoint, complex(basepoint.real, h)]
    for batch in batches[: k - 1]:
        out.extend(_pass_points(batch, h))
    stick, circle = _target_approach(batches[k - 1], h)
    out.extend(stick)
    prims: list[Segment | Arc] = _polyline(out)
    prims.append(circle)
    prims.extend(_polyline(list(reversed(out))))
    return LoopPath(tuple(prims), closed=True)


def _verified_generator(
    f: BivariatePolynomial,
    branch: BranchData,
    batches: tuple[BatchFeature, ...],
    basepoint: complex,
    k: int,
) -> tuple[LoopPath, BraidWord]:
    loop = _candidate_loop(batches, basepoint, k)
    message = f"the template loop for generator {k} did not verify"
    try:
        word = braid_along(f, branch, loop)
    except (InputError, NumericalFailure) as exc:
        # This module built the loop, so even the clearance InputError is a
        # failure of the construction, not of any input.
        raise NumericalFailure(
            message, diagnostics={"generator": k, "refusal": str(exc)}
        ) from exc
    reduced = free_reduce(word)
    if tuple((letter.index, letter.sign) for letter in reduced.letters) != ((k, 1),):
        raise NumericalFailure(
            message,
            diagnostics={
                "generator": k,
                "verification_word": word_to_text(reduced) or "(empty)",
            },
        )
    return loop, word


def build_plan(n: int, epsilon: float = DEFAULT_EPSILON) -> RealizationPlan:
    """Curve, batches, basepoint, and verified loops for every generator.

    Built at this one epsilon; a genericity or generator-loop verification
    failure raises ``NumericalFailure``.  Failures are cached too, and a cached
    one is raised afresh.
    """
    _validate_curve_args(n, epsilon)
    eps = float(epsilon)
    key = (n, eps)
    cached = _PLAN_CACHE.get(key)
    if isinstance(cached, NumericalFailure):
        raise NumericalFailure(str(cached), cached.diagnostics)
    if cached is not None:
        return cached
    try:
        f, data = _curve_data(n, eps)
        batches = _classify_batches(n, data)
        values = data.values()
        lo = min(z.real for z in values)
        hi = max(z.real for z in values)
        spread = max(hi - lo, 0.5)
        basepoint = complex(lo - 2.0 * spread, 0.0)
        loops, words = zip(
            *(_verified_generator(f, data, batches, basepoint, k) for k in range(1, n))
        )
    except NumericalFailure as exc:
        # A fresh copy is cached, so the cache holds no traceback frames.
        _PLAN_CACHE[key] = NumericalFailure(str(exc), exc.diagnostics)
        raise NumericalFailure(str(exc), exc.diagnostics) from exc
    _PLAN_CACHE[key] = plan = RealizationPlan(
        n=n,
        epsilon=eps,
        f=f,
        branch=data,
        basepoint=basepoint,
        batches=batches,
        generator_loops=loops,
        verification_words=words,
    )
    return plan


_PLAN_CACHE: dict[tuple[int, float], RealizationPlan | NumericalFailure] = {}


def generator_loop(plan: RealizationPlan, k: int) -> LoopPath:
    """A loop through the plan basepoint whose word freely reduces to s<k>,
    verified by monodromy when :func:`build_plan` made the plan."""
    if not 1 <= k <= plan.n - 1:
        raise InputError(
            f"generator index must be in 1..{plan.n - 1}, got {k}"
        )
    return plan.generator_loops[k - 1]


def realize(
    qpf: QuasipositiveFactorization,
    epsilon: float = DEFAULT_EPSILON,
) -> tuple[BivariatePolynomial, LoopPath, BraidWord]:
    """A curve and loop whose monodromy word freely equals the factorization.

    The loop is the concatenation, factor by factor, of generator loops for
    the conjugator letters, the loop for the band's generator, and the
    reversed conjugator loops in reverse order.  The whole concatenation is
    re-tracked and the verification word is returned; both the free equality
    with the expanded factorization and the exponent-sum count of factors are
    asserted, never assumed.
    """
    if not qpf.bands:
        raise InputError("factorization has no bands; there is no loop to build")
    plan = build_plan(qpf.strands, epsilon)
    pieces: list[LoopPath] = []
    for band in qpf.bands:
        for letter in band.conjugator:
            base = plan.generator_loops[letter.index - 1]
            pieces.append(base if letter.sign > 0 else reverse_loop(base))
        pieces.append(plan.generator_loops[band.index - 1])
        for letter in reversed(band.conjugator):
            base = plan.generator_loops[letter.index - 1]
            pieces.append(reverse_loop(base) if letter.sign > 0 else base)
    loop = concat_loops(*pieces)
    verification = braid_along(plan.f, plan.branch, loop)
    expected = free_reduce(expand_factorization(qpf))
    got = free_reduce(verification)
    same = tuple((l.index, l.sign) for l in got.letters) == tuple(
        (l.index, l.sign) for l in expected.letters
    )
    if not same or exponent_sum(verification) != len(qpf.bands):
        raise NumericalFailure(
            "realized loop failed verification",
            diagnostics={
                "expected": word_to_text(expected),
                "tracked": word_to_text(got),
                "exponent_sum": exponent_sum(verification),
                "factors": len(qpf.bands),
            },
        )
    return plan.f, loop, verification
