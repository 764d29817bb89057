"""Independent checks of program outputs.

Nothing here calls into quasibraid: words are plain ``(index, sign)`` pairs,
loops are read from their primitives' public fields, and fibers are solved
with ``numpy.roots`` on coefficients the benchmark generated itself.  Each
check repeats a guarantee the program makes, several of which it also
asserts internally, so a change that drops such an assertion still has its
answers checked here.
"""

from __future__ import annotations

import math

import numpy as np

Letters = tuple[tuple[int, int], ...]


def letters_of(word) -> Letters:
    """A braid word (or a tuple of letters) as ``(index, sign)`` pairs."""
    letters = getattr(word, "letters", word)
    return tuple((int(l.index), int(l.sign)) for l in letters)


def free_reduce(letters: Letters) -> Letters:
    out: list[tuple[int, int]] = []
    for index, sign in letters:
        if out and out[-1] == (index, -sign):
            out.pop()
        else:
            out.append((index, sign))
    return tuple(out)


def exponent_sum(letters: Letters) -> int:
    return sum(sign for _, sign in letters)


def cyclically_equal(a: Letters, b: Letters) -> bool:
    if len(a) != len(b):
        return False
    return not a or any(a[k:] + a[:k] == b for k in range(len(a)))


def expand_factorization(bands: list[tuple[Letters, int]]) -> Letters:
    """Product of ``w s_k w^-1`` over ``(conjugator w, k)`` bands."""
    out: list[tuple[int, int]] = []
    for conjugator, k in bands:
        out.extend(conjugator)
        out.append((k, 1))
        out.extend((index, -sign) for index, sign in reversed(conjugator))
    return tuple(out)


def word_text(letters: Letters) -> str:
    return " ".join(f"s{i}" if s > 0 else f"s{i}^-1" for i, s in letters) or "e"


_ARC_STEP = 0.02  # radians between polyline samples on an arc


def loop_polyline(loop) -> np.ndarray:
    """Dense polyline through a loop, built from each primitive's fields."""
    points: list[complex] = []
    for prim in loop.primitives:
        if hasattr(prim, "radius"):
            a0, a1 = float(prim.angle_from), float(prim.angle_to)
            count = max(8, int(math.ceil(abs(a1 - a0) / _ARC_STEP)))
            angles = np.linspace(a0, a1, count + 1)
            points.extend(complex(prim.center) + prim.radius * np.exp(1j * angles))
        else:
            points.extend((complex(prim.a), complex(prim.b)))
    return np.asarray(points, dtype=complex)


def winding(polyline: np.ndarray, p: complex) -> int:
    """Winding number of a closed polyline around ``p``."""
    rel = polyline - p
    if np.min(np.abs(rel)) == 0.0:
        raise ValueError("loop passes through the point")
    turn = np.angle(rel[1:] / rel[:-1]).sum() + np.angle(rel[0] / rel[-1])
    return int(round(turn / (2.0 * math.pi)))


def winding_count(loop, points) -> int:
    """Total winding of a loop around ``(z, multiplicity)`` branch points."""
    line = loop_polyline(loop)
    return sum(winding(line, complex(z)) * int(m) for z, m in points)


def fiber_roots(coeffs: np.ndarray, z: complex) -> np.ndarray:
    """Roots in w of f(z, w); ``coeffs[k, j]`` multiplies w^k z^j."""
    w_coeffs = [np.polyval(row[::-1], z) for row in coeffs]
    return np.roots(w_coeffs[::-1])


NEAR_DOUBLE_RTOL = 1e-3
SEPARATION_RTOL = 1e-9


def branch_point_gap(coeffs: np.ndarray, z: complex) -> float:
    """Closest root pair of the fiber over z, relative to the root scale.

    Small at a branch point, where two roots coincide.
    """
    roots = fiber_roots(coeffs, z)
    d = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(d, np.inf)
    return float(d.min() / max(1.0, np.abs(roots).max()))


def rotation_separates(coeffs: np.ndarray, z: complex, theta: float) -> bool:
    """Whether theta gives the branch fiber distinct rotated real parts once
    its coinciding pair is merged."""
    roots = fiber_roots(coeffs, z)
    d = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(d, np.inf)
    i, j = np.unravel_index(int(np.argmin(d)), d.shape)
    merged = [r for k, r in enumerate(roots) if k not in (i, j)]
    merged.append(0.5 * (roots[i] + roots[j]))
    re = np.sort((np.exp(1j * theta) * np.asarray(merged)).real)
    scale = max(1.0, float(np.abs(roots).max()))
    return len(re) < 2 or float(np.diff(re).min()) > SEPARATION_RTOL * scale
