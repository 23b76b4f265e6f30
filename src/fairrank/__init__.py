"""Tournament rankings under fairness axioms and backward-arc minimization."""

from .errors import (
    DomainMismatchError,
    DuplicateOrConflictError,
    EmptyClassError,
    FairrankError,
    LoopArcError,
    MissingPairError,
    NoConvergenceError,
    NotStronglyConnectedError,
    ResourceLimitError,
    TournamentSyntaxError,
    UnknownVertexError,
    VerificationFailedError,
)
from .fixpoint import (
    LinearFairResult,
    PerronResult,
    linear_fair_ranking,
    perron_fixed_point,
)
from .optimize import (
    EmnReport,
    EmnRow,
    MinBackwardResult,
    composite_fraction,
    copeland_bound,
    emn_sweep_composite,
    min_backward_copeland_closed_form,
    min_backward_fair,
    min_backward_injective,
    verify_copeland_upper_bound,
)
from .ranking import (
    BackwardReport,
    FairnessClass,
    FairnessVerdict,
    Ranking,
    backward_arcs,
    copeland_ranking,
    is_fair,
    parse_ranking,
    serialize_ranking,
)
from .tournament import (
    Tournament,
    build_tournament,
    gen_composite,
    gen_random,
    gen_rotational,
    parse_tournament,
    scc_decompose,
    serialize_tournament,
)

__version__ = "0.1.0"
