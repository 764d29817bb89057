"""The fiber kernel shared by continuation and the crossing graph.

The fiber over z is the n roots in w of f(z, w), solved for a batch of z as
the eigenvalues of stacked companion matrices.  Fibers are matched root to
root by nearest distance, and :func:`bisect_crossings` halves every open
bracket of a batch with one solve per halving.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .poly import BivariatePolynomial, _companion_roots


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


def min_gap(vals: np.ndarray) -> np.ndarray:
    """Smallest pairwise distance within each fiber (over the last axis)."""
    d = np.abs(vals[..., :, None] - vals[..., None, :])
    diagonal = np.arange(vals.shape[-1])
    d[..., diagonal, diagonal] = np.inf
    return d.min(axis=(-2, -1))


def match(old: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest matching of fibers ``old`` to ``new`` over the last axis.

    Returns the selection (``new[..., sel]`` lines up with ``old``), the
    largest displacement and whether the selection is a bijection.
    """
    d = np.abs(old[..., :, None] - new[..., None, :])
    sel = d.argmin(axis=-1)
    move = d.min(axis=-1).max(axis=-1)
    bijective = (np.sort(sel, axis=-1) == np.arange(old.shape[-1])).all(axis=-1)
    return sel, move, bijective


# Rotated parts are written out rather than taken from ``rot * w``: numpy's
# vectorized complex product may fuse multiply-adds, and the bisection must
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


def bisect_crossings(
    f: BivariatePolynomial,
    rot: complex,
    point: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ref_a: np.ndarray,
    ref_b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    max_halvings: int,
    t_tol: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Locate the crossing inside every bracket of a batch.

    Bracket i spans parameters ``lo[i]`` to ``hi[i]``, mapped to z by
    ``point(ts, idx)`` for brackets ``idx``.  Along it the roots w_a, w_b
    nearest to ``ref_a[i]``, ``ref_b[i]`` are tracked (valid while no root
    moves by a third of the smallest root gap) and Re(rot * (w_a - w_b))
    changes sign.  A bracket closes after ``max_halvings`` halvings or once
    ``hi - lo <= t_tol``.  Returns t*, z*, w_a, w_b at t*, and the letter
    sign: +1 when Im(rot * w_b) > Im(rot * w_a), else -1.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    pair = np.stack([ref_a, ref_b], axis=1)
    below = _rotated_re(rot, pair[:, 0] - pair[:, 1]) < 0
    for _ in range(max_halvings):
        idx = np.flatnonzero(hi - lo > t_tol)
        if idx.size == 0:
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        w = _tracked(f, pair[idx], point(mid, idx))
        left = (_rotated_re(rot, w[:, 0] - w[:, 1]) < 0) == below[idx]
        lo[idx] = np.where(left, mid, lo[idx])
        hi[idx] = np.where(left, hi[idx], mid)
    t = 0.5 * (lo + hi)
    z = point(t, np.arange(len(t)))
    w_a, w_b = _tracked(f, pair, z).T
    sign = np.where(_rotated_im(rot, w_b) - _rotated_im(rot, w_a) > 0, 1, -1)
    return t, z, w_a, w_b, sign
