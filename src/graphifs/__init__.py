"""graphifs: exact-arithmetic directed-graph IFS attractors on [0,1].

Model n-vertex directed-graph iterated function systems with exact
rational similarities; compute level-k attractor approximations, gap
lengths, Hausdorff dimension and (for the two-vertex double-loop family)
Hausdorff measure; and produce replayable certificates deciding whether
attractor components are standard (single-vertex) IFS attractors.
"""

from .attractor import (
    CSSCReport,
    IntervalSet,
    SubsetRefutation,
    components_equal,
    cssc_check,
    endpoint_points,
    level_k_set,
    refute_subset,
    replay_refutation,
)
from .classify import (
    Certificate,
    DetachedCycleWitness,
    Verdict,
    classify_distinct_components,
    classify_gap_condition,
    classify_measure_condition,
    cross_refutation_empty,
    find_detached_cycle,
    replay_certificate,
    rewrite_to_standard,
)
from .dimension import (
    DimensionResult,
    MoranMatrix,
    double_loop_char_root,
    hausdorff_dimension,
    moran_matrix,
    spectral_radius,
)
from .errors import (
    GraphIFSError,
    GraphStructureError,
    NumericError,
    ResourceCapError,
    RewriteError,
    SpecValidationError,
    UnsupportedFeatureError,
)
from .families import (
    DoubleLoopParams,
    double_loop_ifs,
    nested_pair_ifs,
    no_loop_ifs,
    params_from_ifs,
    single_loop_ifs,
)
from .gaps import (
    Condition2Report,
    GapCosets,
    condition2_check,
    gap_length_cosets,
    level_k_gaps,
    max_gap,
    max_gap_closed_form,
)
from .measure import (
    ConditionCheck,
    ConditionStatus,
    MeasureResult,
    component_measures,
    measure_conditions,
)
from .model import (
    Edge,
    GraphIFS,
    Path,
    Similarity,
    ValidationReport,
    endpoint_fixed_check,
    format_rational,
    graph_digest,
    is_unit_interval,
    parse_rational,
    path_count,
    path_similarity,
    paths_from,
    simple_cycles,
    simple_path,
    validate_graph,
)
from .render import render_svg
from .serialize import (
    certificate_from_json,
    certificate_to_json,
    dump_spec,
    load_spec,
)
from .spanning import (
    SpanningHit,
    SpanningParams,
    SurdRoot,
    build_spanning_system,
    example_params,
    gap_quadratic_roots,
    solve_spanning_ratios,
    span_search,
    verify_map_identities,
)

__version__ = "0.1.0"
