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
of the fiber kernel and certified by the coefficients rebuilt from their
roots.
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
    _companion_roots,
    _cluster_values,
    _discriminant_roots,
    _inclusion_radii,
    _rebuilt_residual,
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
    "branch_data_to_json",
    "branch_data_from_json",
]

SEPARATION_FLOOR_FACTOR = 1e-4
ROTATION_SAMPLES = 720
PERTURB_TRIALS = 24
# Accepted coefficient residual of a branch fiber rebuilt from its roots; a
# fiber over a branch point carries a near-double root.
FIBER_CERTIFY_TOL = 1e-7


@dataclass(frozen=True)
class BranchPoint:
    z: complex
    multiplicity: int


@dataclass(frozen=True)
class BranchData:
    """Branch points plus the analysis state attached to them.

    ``generic`` records whether :func:`check_genericity` passed, ``rotation_theta``
    is the w-rotation separating real parts over branch fibers, and
    ``perturbation`` is the epsilon of the ``f + epsilon*w`` replacement (None
    when f was used unchanged).
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


def _certified_fibers(f: BivariatePolynomial, zs) -> np.ndarray:
    """Roots of the fibers over ``zs`` from one kernel solve, certified by
    the coefficient residual of each fiber rebuilt from its roots."""
    zs = np.asarray(zs, dtype=complex)
    coeffs = fiber_coefficients(f, zs)
    vals = _companion_roots(coeffs)
    residual = _rebuilt_residual(coeffs / coeffs[:, -1:], vals)
    worst = float(residual.max(initial=0.0))
    if worst > FIBER_CERTIFY_TOL:
        raise NumericalFailure(
            f"branch fiber roots did not certify: coefficient residual {worst:.3e}"
            f" > {FIBER_CERTIFY_TOL:.3e}",
            diagnostics={"residual": worst, "z": repr(complex(zs[int(residual.argmax())]))},
        )
    return vals


def _merge_double_roots(vals: np.ndarray) -> np.ndarray:
    """Every fiber with its closest root pair replaced by the pair midpoint,
    which goes last: shape (count, n - 1)."""
    count, n = vals.shape
    d = np.abs(vals[:, :, None] - vals[:, None, :])
    d[:, np.arange(n), np.arange(n)] = np.inf
    i, j = np.divmod(d.reshape(count, n * n).argmin(axis=1), n)
    rows = np.arange(count)
    cols = np.arange(n)
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
    stays above the floor.
    """
    if not math.isfinite(budget):
        raise InputError(f"the perturbation budget must be finite, not {budget!r}")
    best: tuple[BivariatePolynomial, BranchData, complex | None] | None = None
    for eps in [None] + [budget * 2.0 ** (-k) for k in range(PERTURB_TRIALS)]:
        candidate = f if eps is None else f.add_w_linear(eps)
        try:
            data = branch_points(candidate)
            ok = check_genericity(candidate, data).ok and _separation_ok(data.values())
        except (InputError, NumericalFailure):
            ok = False
        if ok:
            best = (candidate, data, eps)
            if eps is None:
                break
        elif best is not None:
            break
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
    Maximizes the worst real-part gap over a uniform grid, refines the best
    bracket by golden-section search, and keeps theta = 0 whenever its gap is
    at least half the optimum.  Ties prefer the smaller angle.
    """
    if not data.points or f.w_degree < 3:
        return 0.0
    merged = _merge_double_roots(_certified_fibers(f, data.values()))

    def gaps(thetas: np.ndarray) -> np.ndarray:
        rot = np.exp(1j * thetas)
        re = np.sort((rot[:, None, None] * merged[None]).real, axis=-1)
        return np.diff(re, axis=-1).min(axis=(1, 2))

    def gap(theta: float) -> float:
        return float(gaps(np.array([theta]))[0])

    thetas = np.arange(ROTATION_SAMPLES) * (2.0 * math.pi / ROTATION_SAMPLES)
    best_idx = int(np.argmax(gaps(thetas)))

    lo = thetas[best_idx] - 2.0 * math.pi / ROTATION_SAMPLES
    hi = thetas[best_idx] + 2.0 * math.pi / ROTATION_SAMPLES
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = gap(c), gap(d)
    for _ in range(60):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = gap(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = gap(d)
    theta_best = (c if fc >= fd else d) % (2.0 * math.pi)
    gap_best = max(gap(theta_best), 0.0)
    gap_zero = gap(0.0)
    if gap_zero >= 0.5 * gap_best and gap_zero > 0.0:
        return 0.0
    if gap_best <= 0.0:
        raise NumericalFailure(
            "no rotation separates the branch-fiber real parts",
            diagnostics={"best_theta": theta_best, "best_gap": gap_best},
        )
    return float(theta_best)


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
