"""The fiber kernel shared by continuation and the crossing graph.

The fiber over z is the n roots in w of f(z, w).  Predicted fibers are
corrected and certified by :func:`correct`, with :func:`solve` (stacked
companion eigenvalues) as the fallback, and matched root to root by nearest
distance.  The kernel owns the rules every fiber walk shares, each applied to
whole batches: :func:`step` accepts a step when the matching is a bijection
and each root moves less than a third of its gap, at most its distance to
the nearest other root of the old fiber (:func:`root_gaps`), and matches in
place, without a search, a fiber whose roots all move less, so a far root
keeps its own pace, :func:`orders` sorts strands by rotated real part, and
:func:`swaps` reads the adjacent strand pairs that changed places.
:func:`bisect_crossings` closes every bracket of a batch on the crossing
inside it with one solve per iteration over the open brackets: a safeguarded
regula falsi (Illinois) step, or a midpoint step whenever two evaluations in
a row have not halved the bracket.  A bracket closes at its tolerance
(``t_tol``, or 2^-``max_halvings`` of its width, the width fixed halving
reached) after at most 3 * ``max_halvings`` evaluations, or earlier once its
midpoint repeats the z of an end.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .poly import DEFAULT_ROOT_TOL, BivariatePolynomial, _companion_roots, _monic_horner

_SWEEP_STEPS = 6


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The root pairs i < j, and for every root the pairs it belongs to."""
    i, j = np.triu_indices(n, 1)
    roots = np.arange(n)[:, None]
    return i, j, np.nonzero((i == roots) | (j == roots))[1].reshape(n, n - 1)


def coefficients(f: BivariatePolynomial, zs: np.ndarray) -> np.ndarray:
    """Ascending w-coefficients of every fiber f(z, .), shape (len(zs), n + 1)."""
    zs = np.asarray(zs, dtype=complex)
    # Horner in z over every w-coefficient at once.
    table = f.coefficient_table
    coeffs = np.zeros((zs.shape[0], f.w_degree + 1), dtype=complex) + table[-1]
    column = zs[:, None]
    for row in table[-2::-1]:
        coeffs *= column
        coeffs += row
    return coeffs


def solve(f: BivariatePolynomial, zs: np.ndarray) -> np.ndarray:
    """Roots of every fiber f(z, .) for an array of z, shape (len(zs), n)."""
    return _companion_roots(coefficients(f, zs))


def correct(coeffs: np.ndarray, guess: np.ndarray, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Roots of every row of ascending coefficients, corrected from ``guess``
    (rows, n), and the radii of their inclusion discs.  After up to
    ``_SWEEP_STEPS`` Weierstrass steps W, k discs of radius n|W_i| that meet
    hold k roots (Carstensen, Numer. Math. 59, 1991); they are widened by the
    last step and the rounding bound.  A row is kept when every radius is
    finite and at most ``rtol`` of the distance to the nearest other root, a
    rule that holds under w -> mu w and for ``rtol`` < 1/2 keeps the discs
    apart.  Any other row is solved, in the guess's order if :func:`match` is
    one to one, and gets infinite radii."""
    n = coeffs.shape[-1] - 1
    # Rows are transposed to (n, rows); entry [j, i] of a difference is w_i - w_j.
    c, w = (coeffs / coeffs[:, -1:]).T, guess.T.copy()
    diff = np.empty((n, n, len(guess)), dtype=complex)  # one buffer for every difference
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_SWEEP_STEPS):
            value, bound = _monic_horner(c, w)
            np.subtract(w[None], w[:, None], out=diff)
            diff[np.diag_indices(n)] = 1.0
            product = diff.prod(axis=0)
            w -= value / product
            if (np.abs(value) <= bound).all():
                break
        radius = (n + 1) * (np.abs(value) + bound) / np.abs(product)
        apart = np.abs(np.subtract(w[None], w[:, None], out=diff))
        apart[np.diag_indices(n)] = np.inf
        certified = ((radius <= rtol * apart.min(axis=0)) & (radius < np.inf)).all(axis=0)
    roots, radius = w.T, radius.T
    bad = np.flatnonzero(~certified)
    if bad.size:
        solved = _companion_roots(coeffs[bad])
        sel, _, bijective = match(guess[bad], solved)
        roots[bad] = np.where(bijective[:, None], np.take_along_axis(solved, sel, -1), solved)
        radius[bad] = np.inf
    return roots, radius


def sweep(f: BivariatePolynomial, grid: np.ndarray) -> np.ndarray:
    """Roots of the fiber over every vertex of a lattice ``grid`` of z, shape
    (ny, nx, n).  Row 0 is solved; each later row is predicted on the line
    through the two rows before it (row 1 from row 0), then corrected and
    certified by :func:`correct` at discs of ``DEFAULT_ROOT_TOL`` of the gap."""
    grid = np.asarray(grid, dtype=complex)
    fibers = np.empty(grid.shape + (f.w_degree,), dtype=complex)
    fibers[0] = solve(f, grid[0])
    for j in range(1, len(grid)):
        guess = fibers[j - 1] if j == 1 else 2 * fibers[j - 1] - fibers[j - 2]
        fibers[j] = correct(coefficients(f, grid[j]), guess, DEFAULT_ROOT_TOL)[0]
    return fibers


def root_gaps(vals: np.ndarray) -> np.ndarray:
    """Distance of every root to the nearest other root of its fiber, shape
    of ``vals``, from the root pairs i < j, 4096 fibers at a time."""
    i, j, member = _pairs(vals.shape[-1])
    flat = vals.reshape(-1, vals.shape[-1])
    gaps = np.empty(flat.shape, dtype=vals.real.dtype)
    for k in range(0, len(flat), 4096):
        block = flat[k : k + 4096]
        gaps[k : k + 4096] = np.abs(block[:, i] - block[:, j])[:, member].min(axis=-1, initial=np.inf)
    return gaps.reshape(vals.shape)


def match(old: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest matching of fibers ``old`` to ``new`` over the last axis.

    Returns the selection (``new[..., sel]`` lines up with ``old``), the
    displacement of every root and whether the selection is a bijection:
    whether the bits ``1 << sel`` cover all n places, exact for n < 63.
    """
    d = np.abs(old[..., :, None] - new[..., None, :])
    sel = d.argmin(axis=-1)
    bijective = np.bitwise_or.reduce(1 << sel, axis=-1) == (1 << old.shape[-1]) - 1
    return sel, d.min(axis=-1), bijective


def step(
    old: np.ndarray, new: np.ndarray, gaps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`match` of ``old`` to ``new``, and whether the step is accepted:
    the match is a bijection and each root i moves less than a third of
    ``gaps[..., i]``, which makes it provably right.  ``gaps[..., i]`` must be
    at most root i's distance to the nearest other root, all in ``old`` or all
    in ``new``, so no other new root lies within two thirds of that distance
    of old root i: a fiber whose roots all move less in place is matched by
    the identity without a search.  Moves are judged 4096 fibers at a time."""
    n = old.shape[-1]
    flat_old, flat_new, limit = old.reshape(-1, n), new.reshape(-1, n), gaps.reshape(-1, n)
    move, ok = np.empty(flat_old.shape, dtype=old.real.dtype), np.empty(len(flat_old), dtype=bool)
    for k in range(0, len(flat_old), 4096):
        d = np.abs(flat_old[k : k + 4096] - flat_new[k : k + 4096], out=move[k : k + 4096])
        ok[k : k + 4096] = (d < limit[k : k + 4096] / 3.0).all(axis=-1)
    sel = np.empty(flat_old.shape, dtype=np.intp)
    sel[...] = np.arange(n)
    if not ok.all():
        bad = (~ok).nonzero()[0]
        sel[bad], moved, bijective = match(flat_old.take(bad, 0), flat_new.take(bad, 0))
        move[bad], ok[bad] = moved, bijective & (moved < limit.take(bad, 0) / 3.0).all(axis=-1)
    return sel.reshape(old.shape), move.reshape(old.shape), ok.reshape(old.shape[:-1])[()]


def orders(vals: np.ndarray, rot: complex) -> np.ndarray:
    """Strand order of every fiber: root indices by increasing real part of
    ``rot * w``, ties broken by the imaginary part."""
    rv = rot * vals
    return np.lexsort((rv.imag, rv.real), axis=-1)


def swaps(old: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read each change of strand orders ``old`` -> ``new`` (permutations over
    the last axis) as swaps: ``pairs`` masks the positions p whose strands p,
    p+1 changed places, and ``valid`` says nothing else moved.  Between
    permutations two such exchanges never overlap, and both of their
    positions move, so ``valid`` holds when exchanges move every position
    that moved."""
    pairs = (old[..., :-1] == new[..., 1:]) & (old[..., 1:] == new[..., :-1])
    return (old != new).sum(axis=-1) == 2 * pairs.sum(axis=-1), pairs


# Rotated parts are written out rather than taken from ``rot * w``: numpy's
# vectorized complex product may fuse multiply-adds, and bracket closing must
# round the same way whatever the batch size.
def _rotated_re(rot: complex, w: np.ndarray) -> np.ndarray:
    return rot.real * w.real - rot.imag * w.imag


def _rotated_im(rot: complex, w: np.ndarray) -> np.ndarray:
    return rot.real * w.imag + rot.imag * w.real


def _tracked(f: BivariatePolynomial, refs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Roots of the fibers over zs nearest to each of the values ``refs``."""
    fibers = solve(f, zs)
    sel = np.abs(refs[:, :, None] - fibers[:, None, :]).argmin(axis=2)
    return fibers[np.arange(len(zs))[:, None], sel]


def _gap(rot: complex, pair: np.ndarray) -> np.ndarray:
    return _rotated_re(rot, pair[:, 0] - pair[:, 1])


def bisect_crossings(
    f: BivariatePolynomial,
    rot: complex,
    point: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ref_a: np.ndarray,
    ref_b: np.ndarray,
    far_a: np.ndarray,
    far_b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    max_halvings: int,
    t_tol: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Locate the crossing inside every bracket of a batch.

    Bracket i spans parameters ``lo[i]`` to ``hi[i]``, mapped to z by
    ``point(ts, idx)`` for brackets ``idx``.  Along it the roots w_a, w_b
    nearest to ``ref_a[i]``, ``ref_b[i]`` are tracked (valid while each root
    moves less than a third of its distance to the nearest other root) and the gap
    g = Re(rot * (w_a - w_b)) changes sign.  ``far_a``, ``far_b`` are the
    tracked roots at ``hi``, which every caller already holds.

    Brackets narrow by regula falsi with the Illinois modification, one
    batched solve per iteration over the open brackets.  Every iterate lies
    strictly inside its bracket, and a midpoint step is taken whenever the
    two evaluations since the width last halved have not halved it, so the
    width halves at least once every three evaluations.  A bracket closes
    once its width is at most ``t_tol`` or at most 2^-``max_halvings`` of its
    starting width, whichever is larger, so after at most
    3 * ``max_halvings`` evaluations; it also closes once its midpoint maps
    to the z of one of its ends.  Returns t* (the final midpoint), z*, w_a,
    w_b at t*, and the letter sign: +1 when Im(rot * w_b) > Im(rot * w_a),
    else -1.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    pair = np.stack([ref_a, ref_b], axis=1)
    every = np.arange(len(lo))
    z_lo, z_hi = point(lo, every), point(hi, every)
    g_lo, g_hi = _gap(rot, pair), _rotated_re(rot, far_a - far_b)
    below = g_lo < 0
    tol = np.maximum(t_tol, (hi - lo) * 0.5**max_halvings)
    # No iterate comes nearer an end than half the tolerance, or than the
    # parameter spacing of representable z, below which it repeats the end.
    with np.errstate(divide="ignore", invalid="ignore"):
        spacing = np.spacing(np.abs([z_lo, z_hi]).max(axis=0)) * (hi - lo) / np.abs(z_hi - z_lo)
    margin = np.fmax(0.5 * tol, spacing)
    mark = hi - lo  # the width when it last halved
    stale = np.zeros(len(lo), dtype=int)  # evaluations since then
    last = np.zeros(len(lo), dtype=int)  # end the last step replaced: -1 lo, 1 hi
    open_ = hi - lo > tol
    for _ in range(3 * max_halvings):
        idx = np.flatnonzero(open_)
        if idx.size == 0:
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        z_mid = point(mid, idx)
        # No representable point is left between the ends.
        stuck = (z_mid == z_lo[idx]) | (z_mid == z_hi[idx])
        open_[idx[stuck]] = False
        idx, mid = idx[~stuck], mid[~stuck]
        if idx.size == 0:
            break
        a, b, ga, gb = lo[idx], hi[idx], g_lo[idx], g_hi[idx]
        # Kept off the ends, a secant point next to an end that has converged
        # closes the bracket from the other side.
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = ga / (ga - gb)
            x = np.clip(a + frac * (b - a), a + margin[idx], b - margin[idx])
        secant = (stale[idx] < 2) & (frac >= 0) & (frac <= 1) & (a < x) & (x < b)
        x = np.where(secant, x, mid)
        z = point(x, idx)
        g = _gap(rot, _tracked(f, pair[idx], z))
        left = (g < 0) == below[idx]
        side = np.where(left, -1, 1)
        # Illinois: the value of an end kept twice running is halved.
        again = side == last[idx]
        g_lo[idx] = np.where(left, g, np.where(again, 0.5 * ga, ga))
        g_hi[idx] = np.where(left, np.where(again, 0.5 * gb, gb), g)
        lo[idx] = np.where(left, x, a)
        hi[idx] = np.where(left, b, x)
        z_lo[idx] = np.where(left, z, z_lo[idx])
        z_hi[idx] = np.where(left, z_hi[idx], z)
        last[idx] = side
        width = hi[idx] - lo[idx]
        halved = ~secant | (width <= 0.5 * mark[idx])
        mark[idx] = np.where(halved, width, mark[idx])
        stale[idx] = np.where(halved, 0, stale[idx] + 1)
        open_[idx] = width > tol[idx]
    t = 0.5 * (lo + hi)
    z = point(t, every)
    w_a, w_b = _tracked(f, pair, z).T
    sign = np.where(_rotated_im(rot, w_b) - _rotated_im(rot, w_a) > 0, 1, -1)
    return t, z, w_a, w_b, sign
