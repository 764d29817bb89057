"""Braids of algebraic functions: monodromy words, quasipositive
factorizations, crossing-locus graphs, and realization of factorizations as
curves with explicit loops."""

from .branch import (
    BranchData,
    BranchPoint,
    GenericityIssue,
    GenericityReport,
    branch_data_from_json,
    branch_data_to_json,
    branch_points,
    check_genericity,
    perturb_generic,
    prepare,
    select_rotation,
)
from .crossing_graph import (
    CrossingGraph,
    GraphEdge,
    LabeledSegment,
    crossings_of,
    graph_from_json,
    graph_to_json,
    sample_crossing_graph,
)
from .errors import InputError, NumericalFailure, QuasibraidError
from .monodromy import (
    CrossingEvent,
    LollipopSpec,
    Track,
    braid_along,
    enclosed_count,
    events_to_jsonl,
    lollipop_loop,
    qp_factorization,
    track_roots,
)
from .paths import (
    Arc,
    LoopPath,
    Segment,
    bounding_box,
    concat_loops,
    loop_from_json,
    loop_to_json,
    min_distance,
    reverse_loop,
    winding_number,
)
from .poly import (
    BivariatePolynomial,
    RootSet,
    UnivariatePolynomial,
    bivariate_from_json,
    bivariate_to_json,
    discriminant_w,
    fiber_roots,
    parse_bivariate_text,
    raw_roots,
    roots,
)
from .realization import (
    BatchFeature,
    RealizationPlan,
    build_plan,
    generator_loop,
    realization_curve,
    realize,
)
from .render import render_braid_svg, render_plane_svg
from .words import (
    Band,
    BraidLetter,
    BraidWord,
    PositivityReport,
    QuasipositiveFactorization,
    band_euler_characteristic,
    classify_positivity,
    closure_components,
    concat,
    cycle_count,
    cyclic_reduce,
    expand_factorization,
    exponent_sum,
    free_reduce,
    invert,
    letters_from_pairs,
    permutation_of,
    qpf_from_json,
    qpf_to_json,
    word_from_json,
    word_from_text,
    word_to_json,
    word_to_text,
)

__version__ = "0.1.0"
