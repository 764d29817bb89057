"""Branch points of an algebraic function and the genericity toolkit.

The branch locus is the finite set of z where the fiber of f(z, w) = 0 has a
repeated root, i.e. the roots of the discriminant in w.  Downstream machinery
wants the locus in general position: every branch fiber should carry exactly
one simple double root with a genuine vertical tangent, and a rotation angle
theta should separate the real parts of all roots over every branch point.
Both properties hold after adding a small multiple of w to f, which is what
:func:`perturb_generic` automates.

The discriminant roots come from the Sylvester pencil eigensolve in
:mod:`quasibraid.poly`, and the discriminant's exact multiplicity structure
from :attr:`~quasibraid.poly.BivariatePolynomial.discriminant_multiplicities`.
That structure checks the located points and alone decides genericity: by
Teissier's lemma every branch point is a simple vertical tangent exactly when
the discriminant is square-free.  The fibers over the branch points, which
the rotation separates, are solved in one batch by the companion eigensolve
of the fiber kernel and certified by Weierstrass inclusion discs: over a
simple branch point, only the discs of the double root may meet.  Their
worst rotated real-part gap is a minimum of rectified sinusoids, one per
root pair, so its maximum is found in closed form near a grid sample.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, NumericalFailure
from .fibers import coefficients as fiber_coefficients
from .paths import bbox_diameter, bounding_box
from .poly import (
    BivariatePolynomial,
    _certified_roots,
    _cluster_values,
    _discriminant_roots,
    _inclusion_radii,
)

__all__ = [
    "BranchPoint",
    "BranchData",
    "GenericityIssue",
    "GenericityReport",
    "branch_points",
    "check_genericity",
    "perturb_generic",
    "select_rotation",
    "prepare",
    "branch_data_to_json",
    "branch_data_from_json",
]

SEPARATION_FLOOR_FACTOR = 1e-4
ROTATION_SAMPLES = 720
PERTURB_TRIALS = 24


@dataclass(frozen=True)
class BranchPoint:
    z: complex
    multiplicity: int


@dataclass(frozen=True)
class BranchData:
    """Branch points plus the analysis state attached to them.

    ``generic`` records whether :func:`check_genericity` passed; :func:`prepare`
    sets it, ``realization`` refuses a curve without it and ``analyze`` prints
    it.  ``rotation_theta`` is the w-rotation separating real parts over branch
    fibers, and ``perturbation`` is the epsilon of the ``f + epsilon*w``
    replacement (None when f was used unchanged).
    """

    points: tuple[BranchPoint, ...]
    generic: bool = False
    rotation_theta: float = 0.0
    perturbation: complex | None = None

    def values(self) -> tuple[complex, ...]:
        return tuple(p.z for p in self.points)


@dataclass(frozen=True)
class GenericityIssue:
    z: complex
    reason: str


@dataclass(frozen=True)
class GenericityReport:
    ok: bool
    issues: tuple[GenericityIssue, ...]


def branch_points(f: BivariatePolynomial) -> BranchData:
    """Roots of the w-discriminant, grouped by multiplicity, in canonical order.

    The roots are the finite eigenvalues of the Sylvester pencil of f and
    df/dw.  Each gets the Weierstrass inclusion disc of the discriminant's
    value there, and every connected component of k discs is one branch
    point of multiplicity k at the mean of its eigenvalues.  Raises
    :class:`NumericalFailure`, naming both, when these multiplicities are not
    those of the exact discriminant structure.  Points are sorted by real
    part, with real parts within 1e-9 of the scale counted as equal, then by
    imaginary part.
    """
    values, _, residuals = _discriminant_roots(f)
    if len(values) == 0:
        return BranchData(points=())
    centers, mults = _cluster_values(values, _inclusion_radii(values, residuals))
    exact = f.discriminant_multiplicities
    if tuple(sorted(mults)) != exact:
        raise NumericalFailure(
            "branch point clusters do not match the discriminant's multiplicities",
            diagnostics={"clusters": sorted(mults), "multiplicities": list(exact)},
        )
    tie = 1e-9 * (1.0 + float(np.max(np.abs(values))))
    pts = sorted((BranchPoint(z, m) for z, m in zip(centers, mults)), key=lambda p: p.z.real)
    runs: list[list[BranchPoint]] = []
    for p in pts:
        if runs and p.z.real - runs[-1][-1].z.real <= tie:
            runs[-1].append(p)
        else:
            runs.append([p])
    ordered = (p for run in runs for p in sorted(run, key=lambda p: p.z.imag))
    return BranchData(points=tuple(ordered))


def _branch_fibers(f: BivariatePolynomial, data: BranchData) -> np.ndarray:
    """The fibers over the points of ``data`` from one kernel solve, each with
    its closest root pair replaced by the pair midpoint, which goes last:
    shape (count, n - 1).

    Over a point of multiplicity 1 the fiber is one double root and n - 2
    simple ones (Teissier), so the inclusion discs outside the closest pair
    must meet no other disc, or this raises :class:`NumericalFailure` naming
    z.  Points of higher multiplicity are merged with no such claim.
    """
    vals, radii = _certified_roots(fiber_coefficients(f, data.values()))
    count, n = vals.shape
    rows, cols = np.arange(count), np.arange(n)
    d = np.abs(vals[:, :, None] - vals[:, None, :])
    d[:, cols, cols] = np.inf
    i, j = np.divmod(d.reshape(count, n * n).argmin(axis=1), n)
    d[rows, i, j] = d[rows, j, i] = np.inf  # the double root's discs may meet
    for k in np.flatnonzero((d <= radii[:, :, None] + radii[:, None, :]).any(axis=(1, 2))):
        if data.points[k].multiplicity == 1:
            z = data.points[k].z
            raise NumericalFailure(
                f"inclusion discs meet off the double root over the simple branch point z = {z!r}",
                diagnostics={"z": repr(z), "values": [repr(complex(v)) for v in vals[k]]},
            )
    keep = (cols != i[:, None]) & (cols != j[:, None])
    mid = 0.5 * (vals[rows, i] + vals[rows, j])
    return np.concatenate([vals[keep].reshape(count, n - 2), mid[:, None]], axis=1)


def check_genericity(f: BivariatePolynomial, data: BranchData) -> GenericityReport:
    """Whether every branch point of f is one simple vertical tangent.

    By Teissier's lemma the order of the discriminant at z0 is the sum of
    mu_p + i_p - 1 over the points p of the fiber, with mu the Milnor number
    and i the intersection number with the vertical line.  It is 1 exactly
    when the fiber has one smooth point with a simple vertical tangent and
    n - 2 simple roots, so f is generic exactly when its discriminant is
    square-free.  The report is ok when f's exact multiplicities are all 1
    and ``data`` has them.  Each multiple point of ``data`` is an issue, and
    a ``data`` with other multiplicities is one more, at z = nan.
    """
    exact = list(f.discriminant_multiplicities)
    issues = [
        GenericityIssue(p.z, f"discriminant root has multiplicity {p.multiplicity}")
        for p in data.points
        if p.multiplicity != 1
    ]
    found = sorted(p.multiplicity for p in data.points)
    if found != exact:
        reason = f"branch data has multiplicities {found}, the discriminant {exact}"
        issues.append(GenericityIssue(complex(math.nan, math.nan), reason))
    return GenericityReport(ok=not issues, issues=tuple(issues))


def _separation_ok(values: tuple[complex, ...]) -> bool:
    if len(values) < 2:
        return True
    floor = SEPARATION_FLOOR_FACTOR * bbox_diameter(bounding_box(values))
    return not any(abs(a - b) < floor for a, b in itertools.combinations(values, 2))


def perturb_generic(
    f: BivariatePolynomial,
    budget: float = 1e-2,
) -> tuple[BivariatePolynomial, BranchData]:
    """Replace f by f + epsilon*w with the smallest workable epsilon.

    Epsilon 0 is tried first; afterwards the trial sequence is
    ``budget * 2^-k``.  The scan keeps decreasing while trials pass (so the
    returned epsilon is the smallest passing one before a failure) and a trial
    passes when the branch locus is generic and pairwise branch separation
    stays above the floor.  A zero budget tries epsilon 0 alone: its errors
    propagate, and a curve that does not pass is an :class:`InputError`.
    """
    if not math.isfinite(budget):
        raise InputError(f"the perturbation budget must be finite, not {budget!r}")
    best: tuple[BivariatePolynomial, BranchData, complex | None] | None = None
    for eps in [None] + [budget * 2.0 ** (-k) for k in range(PERTURB_TRIALS) if budget]:
        candidate = f if eps is None else f.add_w_linear(eps)
        try:
            data = branch_points(candidate)
            ok = check_genericity(candidate, data).ok and _separation_ok(data.values())
        except (InputError, NumericalFailure):
            if not budget:
                raise
            ok = False
        if ok:
            best = (candidate, data, eps)
            if eps is None:
                break
        elif best is not None:
            break
    if best is None and not budget:
        raise InputError("f is not generic, and a perturbation budget of 0 allows no epsilon")
    if best is None:
        raise NumericalFailure(
            "no epsilon in the trial sequence produced a generic branch locus",
            diagnostics={"budget": budget, "trials": PERTURB_TRIALS},
        )
    candidate, data, eps = best
    return candidate, replace(data, generic=True, perturbation=eps)


def select_rotation(f: BivariatePolynomial, data: BranchData) -> float:
    """Angle theta making the rotated real parts distinct over every branch fiber.

    The double root of each branch fiber counts once, at its pair midpoint.
    The worst gap, the least |Re(e^{i theta} d)| over the root pairs d, has
    period pi and never exceeds the least |d|; theta = 0 when its gap is at
    least half that bound, or half the maximum found.  The pair form screens
    half of a 720-angle grid, the sorted real parts re-score what it keeps
    and its images shifted by pi, and the maximum is the best pair peak or
    crossing near the best sample of a 64 times finer grid.  The first best
    grid index wins, so rounding, not size, picks among the tied images
    -theta, pi - theta and pi + theta of a real curve's theta.
    """
    if not data.points or f.w_degree < 3:
        return 0.0
    merged = _branch_fibers(f, data)
    i, j = np.triu_indices(merged.shape[1], 1)
    pairs = (merged[:, i] - merged[:, j]).ravel()

    def gaps(thetas: np.ndarray) -> np.ndarray:
        rot = np.exp(1j * thetas)
        re = np.sort((rot[:, None, None] * merged[None]).real, axis=-1)
        return np.diff(re, axis=-1).min(axis=(1, 2))

    gap_zero = float(gaps(np.zeros(1))[0])
    if gap_zero > 0.0 and gap_zero >= 0.5 * np.abs(pairs).min():
        return 0.0
    step, half = 2.0 * math.pi / ROTATION_SAMPLES, ROTATION_SAMPLES // 2
    thetas = np.arange(ROTATION_SAMPLES) * step
    # The pair form over half a turn, 45 angles at a time.
    screen = np.concatenate([
        np.abs((np.exp(1j * block)[:, None] * pairs).real).min(axis=1)
        for block in thetas[:half].reshape(8, -1)
    ])
    kept = np.flatnonzero(screen >= screen.max() - 1e-9 * np.abs(merged).max())
    kept = np.concatenate([kept, kept + half])
    best = thetas[kept[np.argmax(gaps(thetas[kept]))]]
    fine = step / 64
    samples = best + np.arange(-64, 65) * fine
    peak = samples[np.argmax(gaps(samples))]
    # Peaks and crossings of the pairs whose Lipschitz bound |d| lets them be least.
    value, slack = np.abs((np.exp(1j * peak) * pairs).real), np.abs(pairs) * fine
    near = pairs[value - slack <= (value + slack).min()]
    x, y = near.real, near.imag
    a, b = np.triu_indices(len(near), 1)
    angles = np.concatenate([
        np.arctan2(-y, x), np.arctan2(x[a] - x[b], y[a] - y[b]), np.arctan2(x[a] + x[b], y[a] + y[b])
    ])
    angles = (angles - peak + 0.5 * math.pi) % math.pi - 0.5 * math.pi
    candidates = np.append(peak + angles[np.abs(angles) <= fine], peak) % (2.0 * math.pi)
    scores = gaps(candidates)
    theta_best, gap_best = float(candidates[scores.argmax()]), max(float(scores.max()), 0.0)
    if gap_zero >= 0.5 * gap_best and gap_zero > 0.0:
        return 0.0
    if gap_best <= 0.0:
        raise NumericalFailure(
            "no rotation separates the branch-fiber real parts",
            diagnostics={"best_theta": theta_best, "best_gap": gap_best},
        )
    return theta_best


def prepare(
    f: BivariatePolynomial, theta: float | None = None, budget: float | None = None
) -> tuple[BivariatePolynomial, BranchData]:
    """The curve and branch data that tracking and graph sampling read.

    With a ``budget``, f is made generic by :func:`perturb_generic`; without
    one, f is kept and ``generic`` records :func:`check_genericity`.  The
    rotation is ``theta`` when given, else :func:`select_rotation`'s.
    """
    if budget is not None:
        f, data = perturb_generic(f, budget=budget)
    else:
        data = branch_points(f)
        data = replace(data, generic=check_genericity(f, data).ok)
    angle = select_rotation(f, data) if theta is None else float(theta)
    return f, replace(data, rotation_theta=angle)


def branch_data_to_json(data: BranchData) -> dict:
    eps = data.perturbation
    return {
        "points": [
            {"z": [p.z.real, p.z.imag], "multiplicity": p.multiplicity}
            for p in data.points
        ],
        "generic": data.generic,
        "theta": data.rotation_theta,
        "epsilon": None if eps is None else [eps.real, eps.imag],
    }


def branch_data_from_json(payload: dict) -> BranchData:
    try:
        pts = tuple(
            BranchPoint(complex(p["z"][0], p["z"][1]), int(p["multiplicity"]))
            for p in payload["points"]
        )
        eps = payload.get("epsilon")
        return BranchData(
            points=pts,
            generic=bool(payload.get("generic", False)),
            rotation_theta=float(payload.get("theta", 0.0)),
            perturbation=None if eps is None else complex(eps[0], eps[1]),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InputError(f"malformed branch data JSON: {exc}") from exc
