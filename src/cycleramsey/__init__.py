"""Edge-colored graph analysis: matchings, cycle certificates, extremal
colorings, exact bound formulas and finite arrowing search."""

__version__ = "0.1.0"

from .graphs import (  # noqa: F401
    DegreeStats,
    EdgeColoring,
    Graph,
    HoleSpec,
    apply_holes_and_deletions,
    bipartition,
    complete_graph,
    components,
    degree_stats,
    dump_coloring,
    dump_graph,
    load_coloring,
    load_graph,
    odd_closed_walk,
)
from .cycles import (  # noqa: F401
    CycleCertificate,
    erdos_gallai_cycle,
    has_cycle_of_length,
    longest_cycle,
    verify_cycle,
)
from .matchings import (  # noqa: F401
    BipartiteSplit,
    ClosedWalk,
    MatchingCertificate,
    TuttePartition,
    best_component_matching,
    bipartite_split,
    closed_walk_through_matching,
    matching_along_cycle,
    maximum_matching,
    tutte_partition,
)
from .bounds import (  # noqa: F401
    HoleParams,
    TargetTriple,
    construction_sizes,
    floor_parity,
    lemma_dwa_host_size,
    lemma_trzy_host_size,
    theorem_coefficient,
    xi,
)
from .constructions import (  # noqa: F401
    Claim,
    ConstructionReport,
    build_eeo_four_part,
    build_eeo_three_part,
    build_odd_triple,
    build_oee_four_part,
    verify_claims,
)
from .search import (  # noqa: F401
    AnnealSchedule,
    ArrowInstance,
    ArrowVerdict,
    CycleTarget,
    MatchingTarget,
    RamseyResult,
    arrow_exhaustive,
    arrow_randomized,
    ramsey_number_exact,
)
from .harness import HarnessReport, lemma_harness  # noqa: F401
from .errors import (  # noqa: F401
    BudgetExceededError,
    HypothesisViolation,
    NoQualifyingComponent,
    PreconditionViolated,
    UndefinedTarget,
)
