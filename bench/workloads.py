"""The four workloads: seeded inputs, the timed operation, and its checks.

Each workload builds its corpus in ``setup`` (which is what ``setup_s``
times, together with the analysis and warm-up the operations rely on), runs
one operation per call to ``run``, and judges an answer in ``check`` with the
independent oracles of :mod:`oracles`.  Program functions are always looked
up on the ``quasibraid`` package at call time, so the tracer's patches apply.

Every corpus has two sources of randomness.  A constant per-workload
``CORPUS_SEED`` fixes what sets an operation's cost: the curves, the circle
centers, radii and turn counts, the lollipop targets, the factorization
shapes and generators.  ``--seed`` draws what leaves the cost alone but
changes the answer: circle start angles and orientations, the order in which
a lollipop visits its targets, conjugator signs and band order, the sign of
w, a whole-cell shift of each graph region, graph loops and the order of
operations.  A corpus small enough to be timed several times in one run,
redrawn whole per seed, would move the latency median by more than any
useful bound.

An operation whose wrong answer comes from a documented seed defect carries
that defect's name in ``known_defect``.  Such answers still count as wrong;
the name only tells them apart from new wrong answers.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import oracles

FIXTURES = Path(__file__).resolve().parent / "fixtures"

MULTI_TURN = "multi-turn arc read once by crossings_of"
COARSE_READ = "crossings_of misreads a one-turn loop on a resolution-64 graph"
DISCRIMINANT = "expanded discriminant misplaces branch points at n >= 6"


@dataclass
class Op:
    key: str
    kind: str
    args: tuple
    reads: list["Op"] = field(default_factory=list)
    known_defect: str | None = None


def _prepared(qb, text: str):
    f = qb.parse_bivariate_text(text)
    data = qb.branch_points(f)
    if not qb.check_genericity(f, data).ok:
        raise RuntimeError(f"fixture {text!r} is not generic")
    theta = qb.select_rotation(f, data)
    return f, replace(data, generic=True, rotation_theta=theta)


def _circle(qb, center: complex, radius: float, turns: int, start: float):
    arc = qb.Arc(center, radius, start, start + turns * 2.0 * math.pi)
    return qb.LoopPath((arc,), closed=True)


def _multi_turn(loop) -> bool:
    return any(
        abs(getattr(p, "angle_to", 0.0) - getattr(p, "angle_from", 0.0))
        > 2.0 * math.pi + 1e-9
        for p in loop.primitives
    )


def _figure_loop(qb):
    return qb.loop_from_json(json.loads((FIXTURES / "figure_loop.json").read_text()))


def _word_record(word) -> bytes:
    return oracles.word_text(oracles.letters_of(word)).encode()


def _bands_of(qpf) -> list[tuple[oracles.Letters, int]]:
    return [(oracles.letters_of(b.conjugator), int(b.index)) for b in qpf.bands]


def _qpf_text(qpf) -> str:
    return "; ".join(
        f"[{oracles.word_text(c)}] s{k}" for c, k in _bands_of(qpf)
    )


def _winding_count(loop, data) -> int:
    return oracles.winding_count(loop, ((p.z, p.multiplicity) for p in data.points))


class Loops:
    """Braid words of loops on nine random curves of w-degree 2 to 4.

    The curves are drawn the way acceptance criterion 3 draws them.  Per
    curve: three circles of one or two turns read by ``braid_along`` and one
    lollipop read by ``qp_factorization``; the frozen quartic figure loop is
    one more operation.
    """

    name = "loops"
    CORPUS_SEED = 3_2026
    DEGREES = (2, 3, 4) * 3
    CIRCLES = 3
    FIGURE_WORD = ((1, 1), (2, 1), (2, 1), (2, 1), (1, 1), (2, -1), (2, -1), (2, -1))

    def __init__(self, qb, seed: int):
        self.qb = qb
        self.seed = seed

    def _curve_pool(self):
        qb = self.qb
        rng = random.Random(self.CORPUS_SEED)
        curves = []
        for degree in self.DEGREES:
            for _ in range(300):
                coeffs = [
                    qb.UnivariatePolynomial(
                        tuple(rng.randint(-2, 2) for _ in range(rng.choice((2, 3))))
                    )
                    for _ in range(degree)
                ]
                coeffs.append(qb.UnivariatePolynomial((1,)))
                try:
                    g, data = qb.perturb_generic(
                        qb.BivariatePolynomial(tuple(coeffs)), budget=1e-2
                    )
                    values = data.values()
                    if not values:
                        continue
                    gaps = [abs(a - b) for a, b in itertools.combinations(values, 2)]
                    gaps = gaps or [1.0]
                    if max(gaps) > 10.0 or min(gaps) < 0.02 * max(gaps):
                        continue
                    theta = qb.select_rotation(g, data)
                except (qb.InputError, qb.NumericalFailure):
                    continue
                curves.append((g, replace(data, rotation_theta=theta)))
                break
            else:
                raise RuntimeError(f"no usable curve of w-degree {degree}")
        return curves

    def _lollipop(self, rng, data, points, scale):
        """A lollipop spec whose loop keeps 1.25x the tracker's clearance
        floor from every branch point, as acceptance criterion 3 builds it."""
        from quasibraid.monodromy import CLEARANCE_FLOOR_FACTOR, RadiusInfeasible
        from quasibraid.paths import bbox_diameter, bounding_box, min_distance

        qb = self.qb
        separations = [abs(a - b) for a, b in itertools.combinations(points, 2)]
        radius = 0.3 * min(min(separations or [scale]), scale)
        for _ in range(60):
            basepoint = complex(
                min(z.real for z in points) - rng.uniform(0.8, 1.4) * scale,
                rng.uniform(0.2, 0.9) * scale,
            )
            count = rng.randint(1, min(3, len(points)))
            targets = tuple(rng.sample(range(len(points)), count))
            spec = qb.LollipopSpec(basepoint=basepoint, targets=targets, circle_radius=radius)
            for _ in range(8):
                try:
                    built = qb.lollipop_loop(data, spec)
                except RadiusInfeasible as exc:
                    spec = replace(
                        spec,
                        circle_radius=min(spec.circle_radius / 2.0, 0.9 * exc.max_feasible),
                    )
                    continue
                box = bounding_box(list(points) + list(built.path.primitives))
                floor = CLEARANCE_FLOOR_FACTOR * bbox_diameter(box)
                if min(min_distance(built.path, z) for z in points) >= 1.25 * floor:
                    return spec
                break
        return None

    def setup(self) -> list[Op]:
        qb = self.qb
        curves = self._curve_pool()
        fixed = random.Random(self.CORPUS_SEED + 1)
        rng = random.Random(self.seed)
        ops: list[Op] = []
        for ci, (f, data) in enumerate(curves):
            points = data.values()
            scale = 1.0 + max(abs(z) for z in points)
            for j in range(self.CIRCLES):
                while True:
                    center = complex(
                        fixed.uniform(-1.2, 1.2) * scale, fixed.uniform(-1.2, 1.2) * scale
                    )
                    radius = fixed.uniform(0.25, 1.4) * scale
                    if min(abs(abs(center - z) - radius) for z in points) >= 0.03 * scale:
                        break
                turns = fixed.choice((1, 2)) * rng.choice((-1, 1))
                loop = _circle(qb, center, radius, turns, rng.uniform(0.0, 2.0 * math.pi))
                ops.append(Op(f"curve{ci}.circle{j}", "circle", (f, data, loop)))
            spec = self._lollipop(fixed, data, points, scale)
            if spec is not None:
                targets = list(spec.targets)
                rng.shuffle(targets)
                spec = replace(spec, targets=tuple(targets))
                ops.append(Op(f"curve{ci}.lollipop", "lollipop", (f, data, spec)))
        f, data = _prepared(qb, "w^3 - 3*w + 2*z^4")
        ops.append(Op("figure", "figure", (f, data, _figure_loop(qb))))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        f, data, arg = op.args
        if op.kind == "lollipop":
            return self.qb.qp_factorization(f, data, arg)
        return self.qb.braid_along(f, data, arg)

    def check(self, op: Op, out) -> str | None:
        f, data, arg = op.args
        if op.kind == "lollipop":
            if len(out.bands) != len(arg.targets):
                return f"{len(out.bands)} bands for {len(arg.targets)} targets"
            return None
        letters = oracles.letters_of(out)
        expected = _winding_count(arg, data)
        if oracles.exponent_sum(letters) != expected:
            return f"exponent sum {oracles.exponent_sum(letters)}, winding count {expected}"
        if op.kind == "figure" and not oracles.cyclically_equal(
            oracles.free_reduce(letters), self.FIGURE_WORD
        ):
            return f"figure word {oracles.word_text(letters)}"
        return None

    def record(self, op: Op, out) -> bytes:
        if op.kind == "lollipop":
            return _qpf_text(out).encode()
        return _word_record(out)


class Graph:
    """Crossing graphs of the three criterion-6 fixtures, then reads on them.

    An operation samples one graph over a seed-shifted copy of the fixture
    region and renders it; every run samples each fixture at resolutions 64,
    128 and 256.  Each graph is then read with ``crossings_of`` along its
    fixture's seeded loops (twelve circles with one to two turns either way,
    plus the figure loop on the quartic); reads are timed on their own.  The
    shift is a whole number of cells at every resolution, so the sample
    lattice stays the same; a jitter moved the flagged cells, and with them
    the sampling cost, from seed to seed.
    """

    name = "graph"
    FIXTURES = (
        ("w^2 - z", (-2.0, -2.0, 2.0, 2.0)),
        ("w^3 - 3*w + 2*z^4", (-2.0, -2.0, 2.0, 2.0)),
        ("w^4 - z*w^3 - w^2 + z*w + 0.05", (-3.0, -3.0, 3.0, 3.0)),
    )
    RESOLUTIONS = (64, 128, 256)
    # A pass samples nine graphs, about 12 s; a third pass would push the
    # benchmark's full set of runs past its time budget.
    MIN_PASSES = 2
    TURNS = (-2, -1, 1, 2)
    CIRCLES = 12
    SHIFT_CELLS = 1  # largest shift, in cells at the coarsest resolution
    CONTINUATION_CHECKS = 3  # reads per fixture also compared with braid_along

    def __init__(self, qb, seed: int):
        self.qb = qb
        self.seed = seed
        self._continuation: dict[tuple[int, int], object] = {}

    def setup(self) -> list[Op]:
        qb = self.qb
        rng = random.Random(self.seed)
        ops: list[Op] = []
        self.compared: set[tuple[int, int]] = set()
        for fi, (text, (x0, y0, x1, y1)) in enumerate(self.FIXTURES):
            f, data = _prepared(qb, text)
            points = data.values()
            cell = (x1 - x0) / min(self.RESOLUTIONS)
            dx, dy = (cell * rng.randint(-self.SHIFT_CELLS, self.SHIFT_CELLS) for _ in "xy")
            region = (x0 + dx, y0 + dy, x1 + dx, y1 + dy)
            # Loops stay inside every shifted copy of the region.
            margin = cell * self.SHIFT_CELLS
            ix0, iy0 = x0 + margin, y0 + margin
            ix1, iy1 = x1 - margin, y1 - margin
            loops = []
            for j in range(self.CIRCLES):
                turns = self.TURNS[j % len(self.TURNS)]
                while True:
                    center = complex(
                        rng.uniform(ix0 + 0.3, ix1 - 0.3), rng.uniform(iy0 + 0.3, iy1 - 0.3)
                    )
                    room = min(
                        center.real - ix0, ix1 - center.real, center.imag - iy0, iy1 - center.imag
                    )
                    radius = rng.uniform(0.2, max(0.21, room - 0.05))
                    if min(abs(abs(center - z) - radius) for z in points) >= 0.05:
                        break
                loops.append(_circle(qb, center, radius, turns, rng.uniform(0.0, 2.0 * math.pi)))
            if fi == 1:
                loops.append(_figure_loop(qb))
            self.compared |= {(fi, j) for j in rng.sample(range(len(loops)), self.CONTINUATION_CHECKS)}
            for res in self.RESOLUTIONS:
                reads = [
                    Op(
                        f"{fi}@{res}.read{j}",
                        "read",
                        (fi, j, f, data, loop),
                        known_defect=self._read_defect(loop, res),
                    )
                    for j, loop in enumerate(loops)
                ]
                ops.append(Op(f"{fi}@{res}", "graph", (f, data, region, res), reads))
        rng.shuffle(ops)
        return ops

    def _read_defect(self, loop, res: int) -> str | None:
        if _multi_turn(loop):
            return MULTI_TURN
        return COARSE_READ if res == min(self.RESOLUTIONS) else None

    def run(self, op: Op):
        f, data, region, res = op.args
        graph = self.qb.sample_crossing_graph(f, data, region, res)
        return graph, self.qb.render_plane_svg(graph, None, data)

    def read(self, graph_out, read: Op):
        return self.qb.crossings_of(graph_out[0], read.args[-1])

    def check(self, op: Op, out) -> str | None:
        if op.kind == "graph":
            graph, svg = out
            if not graph.segments:
                return "graph has no segments"
            try:
                ElementTree.fromstring(svg)
            except ElementTree.ParseError as exc:
                return f"SVG does not parse: {exc}"
            return None
        fi, j, f, data, loop = op.args
        letters = oracles.letters_of(out)
        expected = _winding_count(loop, data)
        if oracles.exponent_sum(letters) != expected:
            return f"exponent sum {oracles.exponent_sum(letters)}, winding count {expected}"
        if (fi, j) in self.compared:
            if (fi, j) not in self._continuation:
                try:
                    word = self.qb.braid_along(f, data, loop)
                    self._continuation[fi, j] = oracles.free_reduce(oracles.letters_of(word))
                except (self.qb.InputError, self.qb.NumericalFailure):
                    self._continuation[fi, j] = None
            tracked = self._continuation[fi, j]
            if tracked is not None and oracles.free_reduce(letters) != tracked:
                return (
                    f"graph reads {oracles.word_text(oracles.free_reduce(letters))}, "
                    f"continuation reads {oracles.word_text(tracked)}"
                )
        return None

    def record(self, op: Op, out) -> bytes:
        if op.kind == "graph":
            return out[1].encode()
        return _word_record(out)


class Realize:
    """``realize`` on quasipositive factorizations over 2 to 7 strands.

    For each strand count, one factorization per entry of ``SHAPES`` (the
    conjugator length of each band).  Strand counts 6 and 7 fail on the seed
    program, and every n = 6 failure costs about a second, so they get the
    first shape only.  ``build_plan`` is warmed in setup for every strand
    count in the corpus.
    """

    name = "realize"
    CORPUS_SEED = 5_2026
    STRANDS = range(2, 8)
    SHAPES = ((1,), (0, 2), (0, 3, 1, 0))
    FAILING_STRANDS = (6, 7)

    def __init__(self, qb, seed: int):
        self.qb = qb
        self.seed = seed

    def setup(self) -> list[Op]:
        qb = self.qb
        fixed = random.Random(self.CORPUS_SEED)
        rng = random.Random(self.seed)
        ops = []
        for n in self.STRANDS:
            shapes = self.SHAPES[:1] if n in self.FAILING_STRANDS else self.SHAPES
            for si, shape in enumerate(shapes):
                bands = []
                for length in shape:
                    conjugator = [
                        (fixed.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)
                    ]
                    bands.append(
                        qb.Band(qb.letters_from_pairs(conjugator), fixed.randint(1, n - 1))
                    )
                rng.shuffle(bands)
                qpf = qb.QuasipositiveFactorization(n, tuple(bands))
                ops.append(Op(f"n{n}.shape{si}", "realize", (qpf,)))
        for n in sorted({op.args[0].strands for op in ops}):
            try:
                qb.build_plan(n)
            except (qb.InputError, qb.NumericalFailure):
                pass  # the operations at this strand count fail the same way
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        return self.qb.realize(op.args[0])

    def check(self, op: Op, out) -> str | None:
        qpf = op.args[0]
        f, loop, verification = out
        expected = oracles.free_reduce(oracles.expand_factorization(_bands_of(qpf)))
        got = oracles.free_reduce(oracles.letters_of(verification))
        if got != expected:
            return f"verification {oracles.word_text(got)}, expected {oracles.word_text(expected)}"
        count = _winding_count(loop, self.qb.branch_points(f))
        if count != len(qpf.bands):
            return f"loop winds {count} times around the branch points for {len(qpf.bands)} bands"
        return None

    def record(self, op: Op, out) -> bytes:
        return (_qpf_text(op.args[0]) + " -> " + oracles.word_text(oracles.letters_of(out[2]))).encode()


class Analyze:
    """Branch points, genericity and rotation of dense curves.

    Every run analyzes one random curve per (w-degree 2..7, z-degree 1..3)
    with integer coefficients in [-3, 3], plus the realization family
    ``P(w)(w - z) + 0.05`` for n = 2..10, with ``P`` the monic polynomial with
    roots 1..n-1.  ``--seed`` replaces w by -w in a random half of the curves,
    which negates every fiber but leaves the discriminant, and so which
    curves raise, unchanged.
    """

    name = "analyze"
    CORPUS_SEED = 4_2026
    W_DEGREES = range(2, 8)
    Z_DEGREES = (1, 2, 3)
    FAMILY = range(2, 11)
    FAMILY_EPSILON = 0.05

    def __init__(self, qb, seed: int):
        self.qb = qb
        self.seed = seed

    def _polynomial(self, coeffs: np.ndarray):
        qb = self.qb
        return qb.BivariatePolynomial(
            tuple(qb.UnivariatePolynomial(tuple(complex(c) for c in row)) for row in coeffs)
        )

    def setup(self) -> list[Op]:
        fixed = random.Random(self.CORPUS_SEED)
        rng = random.Random(self.seed)
        ops = []
        for d in self.W_DEGREES:
            for e in self.Z_DEGREES:
                coeffs = np.zeros((d + 1, e + 1))
                for k in range(d):
                    coeffs[k] = [fixed.randint(-3, 3) for _ in range(e + 1)]
                coeffs[0, e] = fixed.choice((-3, -2, -1, 1, 2, 3))
                coeffs[d, 0] = 1.0
                ops.append(Op(f"random.w{d}.z{e}", "random", coeffs))
        for n in self.FAMILY:
            p = np.array([1.0])
            for j in range(1, n):
                p = np.convolve(p, [-float(j), 1.0])
            coeffs = np.zeros((n + 1, 2))
            for m in range(n + 1):
                coeffs[m, 0] = (p[m - 1] if m >= 1 else 0.0) + (self.FAMILY_EPSILON if m == 0 else 0.0)
                coeffs[m, 1] = -p[m] if m <= n - 1 else 0.0
            ops.append(
                Op(f"family.n{n}", "family", coeffs, known_defect=DISCRIMINANT if n >= 6 else None)
            )
        for op in ops:
            if rng.random() < 0.5:
                degree = len(op.args) - 1
                op.args = op.args * ((-1.0) ** (degree - np.arange(degree + 1)))[:, None]
                op.key += ".flipped"
            op.args = (self._polynomial(op.args), op.args)
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        qb = self.qb
        f = op.args[0]
        data = qb.branch_points(f)
        report = qb.check_genericity(f, data)
        return data, report.ok, qb.select_rotation(f, data)

    def check(self, op: Op, out) -> str | None:
        coeffs = op.args[1]
        data, generic, theta = out
        gaps = [oracles.branch_point_gap(coeffs, p.z) for p in data.points]
        bad = [g for g in gaps if g > oracles.NEAR_DOUBLE_RTOL]
        if bad:
            return f"{len(bad)} of {len(gaps)} branch fibers lack a double root (worst gap {max(bad):.3g})"
        if generic:
            for p in data.points:
                if not oracles.rotation_separates(coeffs, p.z, theta):
                    return f"theta {theta:.6g} leaves a tie over branch point {p.z:.6g}"
        return None

    def record(self, op: Op, out) -> bytes:
        data, generic, theta = out
        points = ",".join(f"{p.z!r}x{p.multiplicity}" for p in data.points)
        return f"{points}|{generic}|{theta!r}".encode()


WORKLOADS = {cls.name: cls for cls in (Loops, Graph, Realize, Analyze)}
