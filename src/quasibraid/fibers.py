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
:func:`bisect_crossings`, the one crossing corrector, closes every bracket
of a batch on the point where two strands trade rotated real parts by
safeguarded Newton steps on their rotated gap, with the Illinois and
midpoint rules as fallback, within one budget of 2^-``_HALVINGS`` of the
bracket.  Each iterate predicts the pair along dw/dz = -f_z / f_w, corrects
it by Newton on the fiber and certifies it by a Pellet disc, solving only
rows that fail.  Fibers and their derivatives are evaluated by Horner's rule
(:func:`quasibraid.poly._horner`), whose run on absolute values bounds each
value's rounding error.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .poly import _ROUNDING, DEFAULT_ROOT_TOL, BivariatePolynomial, _companion_roots, _horner

_SWEEP_STEPS = 6
_SWEEP_BLOCK = 4  # lattice rows corrected per call
_HALVINGS = 48  # the bracket budget: 2^-48 of its width, 3 * 48 evaluations
_NEWTON_STEPS = 8


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The root pairs i < j, and for every root the pairs it belongs to."""
    i, j = np.triu_indices(n, 1)
    roots = np.arange(n)[:, None]
    return i, j, np.nonzero((i == roots) | (j == roots))[1].reshape(n, n - 1)


def coefficients(f: BivariatePolynomial, zs: np.ndarray, table: np.ndarray | None = None) -> np.ndarray:
    """Ascending w-coefficients of every fiber f(z, .), shape (len(zs), n + 1),
    or those of the polynomials that another ``table`` (z-power first) holds."""
    zs = np.asarray(zs, dtype=complex)
    # Horner in z over every w-coefficient at once.
    table = f.coefficient_table if table is None else table
    return _horner(table, zs.reshape(zs.shape + (1,) * (table.ndim - 1)))


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
    c[-1] = 1.0  # the division can round it
    size = np.abs(c)
    diff = np.empty((n, n, len(guess)), dtype=complex)  # one buffer for every difference
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_SWEEP_STEPS):
            value, bound = _horner(c, w), _ROUNDING * n * _horner(size, np.abs(w))
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
    (ny, nx, n).  Row 0 is solved; the others go ``_SWEEP_BLOCK`` at a time,
    the k-th after row i predicted as f_i + k (f_i - f_(i-1)) (the first
    block as f_0), then corrected and certified by :func:`correct` at discs
    of ``DEFAULT_ROOT_TOL`` of the gap."""
    grid = np.asarray(grid, dtype=complex)
    n = f.w_degree
    fibers = np.empty(grid.shape + (n,), dtype=complex)
    fibers[0] = solve(f, grid[0])
    for j in range(1, len(grid), _SWEEP_BLOCK):
        block = grid[j : j + _SWEEP_BLOCK]
        k = np.arange(1, len(block) + 1)[:, None, None]
        guess = fibers[j - 1] + k * (fibers[j - 1] - fibers[max(j - 2, 0)])
        roots = correct(coefficients(f, block.ravel()), guess.reshape(-1, n), DEFAULT_ROOT_TOL)[0]
        fibers[j : j + len(block)] = roots.reshape(block.shape + (n,))
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


def _nearest(refs: np.ndarray, fibers: np.ndarray) -> np.ndarray:
    """The roots of ``fibers`` nearest to each of the values ``refs``."""
    return np.take_along_axis(fibers, np.abs(refs[:, :, None] - fibers[:, None, :]).argmin(axis=2), axis=1)


def _tracked(f: BivariatePolynomial, refs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Roots of the fibers over zs nearest to each of the values ``refs``."""
    return _nearest(refs, solve(f, zs))


def _gap(rot: complex, pair: np.ndarray) -> np.ndarray:
    return _rotated_re(rot, pair[..., 0] - pair[..., 1])


def _jet_coefficients(f: BivariatePolynomial, zs: np.ndarray) -> np.ndarray:
    """Coefficients in w of f_z, f and every w-derivative of f, in that
    order, at every z, shape (n + 1, n + 2, len(zs)): entry [k, i, r] is the
    coefficient of w^k in the i-th of them at ``zs[r]``."""
    tables = f.derivative_tables(((1, 0),) + tuple((0, i) for i in range(f.w_degree + 1)))[0]
    return _horner(tables.transpose(1, 2, 0)[..., None], zs)


def _velocity(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """dw/dz = -f_z / f_w at every ``w`` (rows, m) on the fibers whose
    :func:`_jet_coefficients` are ``coeffs``."""
    f_z, f_w = _horner(coeffs[:, 0:3:2, :, None], w)
    return -f_z / f_w


def _corrected(coeffs: np.ndarray, refs: np.ndarray, guess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The roots that continue ``refs`` (rows, m) to fibers with
    :func:`_jet_coefficients` ``coeffs``, from ``guess``, and dw/dz there.

    Each root takes Newton steps on its fiber until the step is at most
    2^-26 |w| + 2^-52, and one more without an evaluation.  It is certified
    at its last evaluation w, if that came within ``_NEWTON_STEPS``, by the
    Taylor coefficients a_k about w widened by their rounding bounds: when
    |a_1| rho > |a_0| + sum_k>1 |a_k| rho^k, the disc of radius
    rho = 2|w - ref| + 3n|a_0 / a_1| holds one root (Pellet), and it lies
    within n|a_0 / a_1| of w, so no other root is as near to ``ref``.  Rows
    with a root that fails are solved, and take the roots nearest ``refs``."""
    w, n, c = guess, len(coeffs) - 1, coeffs[..., None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(_NEWTON_STEPS + 1):
            value, slope = _horner(c[:, 1:3], w)  # f, f_w
            step = value / slope
            busy = np.abs(step) > 2.0**-26 * np.abs(w) + 2.0**-52
            if k == _NEWTON_STEPS or not busy.any():
                break
            w = np.where(busy, w - step, w)
        # The whole jet once, at the last iterate: f_z, then a_k times k!.
        jet = _horner(c, w)
        factorials = np.cumprod(np.maximum(np.arange(n + 1), 1.0))[:, None, None]
        a = jet[1:] / factorials
        bound = 2 * (n + 1) * _ROUNDING * _horner(np.abs(c[:, 1:]), np.abs(w)) / factorials
        terms, lead = np.abs(a) + bound, np.abs(a[1]) - bound[1]
        rho = 2 * np.abs(w - refs) + 3 * n * terms[0] / lead
        rest = _horner(terms[2:], rho) * rho**2
        certified = (~busy & (lead * rho > terms[0] + rest)).all(axis=-1)
        roots, velocity = w - step, -jet[0] / jet[2]
        bad = np.flatnonzero(~certified)
        if bad.size:
            roots[bad] = _nearest(refs[bad], _companion_roots(coeffs[:, 1, bad].T))
            velocity[bad] = _velocity(coeffs[..., bad], roots[bad])
    return roots, velocity


def bisect_crossings(
    f: BivariatePolynomial,
    rot: complex,
    point: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    ref_a: np.ndarray,
    ref_b: np.ndarray,
    far_a: np.ndarray,
    far_b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    t_tol: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Locate the crossing inside every bracket of a batch.

    Bracket i spans ``lo[i]`` to ``hi[i]``, mapped to z and dz/dt by
    ``point(ts, idx)``; the roots continued from ``ref_a[i]``, ``ref_b[i]`` to
    ``far_a[i]``, ``far_b[i]`` make g = Re(rot * (w_a - w_b)) change sign.
    Iterates, kept half the tolerance and the spacing of z from the ends,
    predict the pair from the nearer end along dw/dz and correct it by
    :func:`_corrected`.  The first is the regula falsi point, later ones are
    Newton steps on g from the newest end, with g' = Re(rot (w_a' - w_b') z'),
    or Illinois steps where those leave the bracket, or midpoints once two
    evaluations have not halved it.  A bracket closes at ``t_tol`` or
    2^-``_HALVINGS`` of its width, within 3 * ``_HALVINGS`` evaluations; when
    no iterate fits or one repeats an end's z; and at an iterate where
    |g| <= 8 eps max(1, |w_a|, |w_b|), to which it shrinks.  Returns t* (the
    final midpoint), z*, w_a and w_b there, and the sign: +1 when
    Im(rot * (w_b - w_a)) > 0, else -1.
    """
    # Per open bracket: its ends (lo first) with their t, z, pair, dw/dz, g
    # (the kept end's halved by Illinois) and g'; the sign of g at lo, the
    # width at which it closes, the margin, the width when it last halved,
    # the evaluations since, and the end the last step replaced (-1: none).
    ids = np.arange(len(lo))
    t = np.array([lo, hi], dtype=float)
    z, dz = (part.reshape(t.shape) for part in point(t.ravel(), np.tile(ids, 2)))
    w = np.stack([np.stack([ref_a, ref_b], axis=-1), np.stack([far_a, far_b], axis=-1)])
    width = t[1] - t[0]
    tol = np.maximum(t_tol, width * 0.5**_HALVINGS)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dw = _velocity(_jet_coefficients(f, z.ravel()), w.reshape(-1, 2)).reshape(w.shape)
        margin = np.fmax(0.5 * tol, np.spacing(np.abs(z).max(axis=0)) * width / np.abs(z[1] - z[0]))
    g, dg = _gap(rot, w), _gap(rot, dw * dz[..., None])
    state = [ids, t, z, w, dw, g, dg, g[0] < 0, np.fmax(tol, 2 * margin), margin, width,
             np.zeros_like(ids), np.full_like(ids, -1)]
    ends = [np.copy(part) for part in state[1:5]]  # t, z, pair and dw/dz as each closed
    shut = width <= state[8]
    for k in range(3 * _HALVINGS + 1):
        shut |= k == 3 * _HALVINGS  # the budget is spent
        if shut.any():
            for full, part in zip(ends, state[1:5]):
                full[:, state[0][shut]] = part[:, shut]
            state = [part[:, ~shut] if part.ndim > 1 else part[~shut] for part in state]
        ids, t, z, w, dw, g, dg, below, closing, margin, mark, stale, last = state
        if not len(ids):
            break
        (a, b), rows, newest = t, np.arange(len(ids)), np.maximum(last, 0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = t[newest, rows] - g[newest, rows] / dg[newest, rows]
            frac = g[0] / (g[0] - g[1])
        use_newton = (stale < 2) & (last >= 0) & (a < newton) & (newton < b)
        use_secant = (stale < 2) & (frac >= 0) & (frac <= 1)
        x = np.where(use_newton, newton, np.where(use_secant, a + frac * (b - a), 0.5 * (a + b)))
        x = np.clip(x, a + margin, b - margin)
        (z_x, dz_x), near = point(x, ids), (x - a > b - x).astype(int)
        guess = w[near, rows] + dw[near, rows] * (z_x - z[near, rows])[:, None]
        w_x, dw_x = _corrected(_jet_coefficients(f, z_x), w[near, rows], guess)
        g_x, stuck = _gap(rot, w_x), (z_x == z[0]) | (z_x == z[1])
        side = ((g_x < 0) != below).astype(int)
        # Illinois: the value of an end kept twice running is halved.
        g[1 - side, rows] *= np.where(side == last, 0.5, 1.0)
        t[side, rows], z[side, rows], w[side, rows], dw[side, rows] = x, z_x, w_x, dw_x
        g[side, rows], dg[side, rows] = g_x, _gap(rot, dw_x * dz_x[:, None])
        # A gap that is rounding is a crossing: the bracket shrinks to it.
        zero = np.abs(g_x) <= 4 * _ROUNDING * np.maximum(1.0, np.abs(w_x).max(axis=-1))
        for part, value in ((t, x), (z, z_x), (w, w_x), (dw, dw_x)):
            part[:, zero] = value[zero]
        width = t[1] - t[0]
        halved = ~(use_newton | use_secant) | (width <= 0.5 * mark)
        state[10:] = np.where(halved, width, mark), np.where(halved, 0, stale + 1), side
        shut = (width <= closing) | stuck
    t, z, w, dw = ends
    t_star = 0.5 * (t[0] + t[1])
    z_star = point(t_star, np.arange(len(t_star)))[0]
    near, ids = (t_star - t[0] > t[1] - t_star).astype(int), np.arange(len(t_star))
    w_a, w_b = (w[near, ids] + dw[near, ids] * (z_star - z[near, ids])[:, None]).T
    sign = np.where(_rotated_im(rot, w_b) - _rotated_im(rot, w_a) > 0, 1, -1)
    return t_star, z_star, w_a, w_b, sign
