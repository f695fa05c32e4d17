"""Exact calculators for conservation laws of lattice particle systems.

States sit on the vertices of a site graph and hop or react in pairs along
edges, following a symmetric digraph of allowed two-site moves.  Everything
is computed over the rationals with no floating point anywhere: conserved
quantities, exact-support decompositions, uniform (potential-like) functions
and their differences along transitions, reachable components, finite
cochain dimensions, and windowed invariance kernels.
"""

__version__ = "0.1.0"

from .cohomology import (
    CochainSpaceSummary,
    ExtractionResult,
    KernelReport,
    extract_conserved,
    h0_h1_finite,
    invariance_kernel,
)
from .errors import (
    AsymmetricEdgesError,
    CapExceededError,
    LatticeCalcError,
    LocalityError,
    MismatchError,
    NormalizationError,
    NotExchangeableError,
    SchemaError,
    SupportError,
    UnknownStateError,
    UnknownVertexError,
    VerificationError,
    WindowTooSmallError,
)
from .interaction import (
    ConservedQuantity,
    Interaction,
    StateSpace,
    builtin_interaction,
    consv_basis,
    is_exchangeable,
    load_interaction,
    interaction_to_document,
    make_interaction,
    pair_components,
    pair_exchange_path,
    state_space,
)
from .localfn import (
    ExactSupportFunction,
    LocalFunction,
    assemble,
    expand,
    is_exact_support,
    restrict,
)
from .sitegraph import (
    SiteGraph,
    ball,
    cycle_graph,
    diameter_of,
    distance,
    explicit_graph,
    graph_to_document,
    lattice_window,
    load_graph,
    path_graph,
)
from .transitions import (
    ComponentResult,
    InvarianceCheck,
    Transition,
    component_bfs,
    is_invariant,
    neighbors,
    permutation_path,
    swap_path,
    transition_from_document,
)
from .uniform import (
    Configuration,
    UniformFunction,
    configuration,
    difference,
    evaluate,
    explicit_uniform,
    families_equal,
    family_items,
    family_map,
    load_configuration,
    load_uniform,
    rebase,
    sum_of_uniformly_local,
    to_uniformly_local,
    translated_uniform,
    uniform_to_document,
    xi_X,
    zero_uniform,
)

__all__ = [name for name in dir() if not name.startswith("_")]
