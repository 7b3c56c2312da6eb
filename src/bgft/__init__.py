"""Biorthogonal spectral analysis of directed random-walk diffusion.

Pipeline: build a digraph (graphs), form the row-stochastic transition
operator and its Laplacian (markov), eigendecompose into a biorthogonal
analysis/synthesis pair (transform), then filter, diffuse, or sample and
reconstruct bandlimited signals with stability certificates (sampling).
"""

from .errors import (
    BgftError,
    DefectiveMatrixError,
    EdgeListParseError,
    InvalidNodeError,
    InvalidSizeError,
    NotIrreducibleError,
    RankDeficientError,
    SinkNodeError,
)
from .graphs import (
    DirectedGraph,
    add_directed_chord,
    directed_cycle,
    load_edge_list,
    load_graph,
    load_matrix_market,
    out_degrees,
    save_edge_list,
    undirected_cycle,
)
from .linalg import (
    EigenDecomposition,
    LeastSquaresSolution,
    eig_general,
    lstsq,
    spectral_norm2,
)
from .markov import (
    StationaryDistribution,
    TransitionOperator,
    asymmetry_index,
    departure_from_normality,
    is_reversible,
    pi_inner,
    pi_norm,
    stationary,
    symmetrize,
    transition,
)
from .sampling import (
    BandSupport,
    ReconstructionReport,
    SamplingSet,
    band_vectors,
    greedy_sampling_set,
    noise_bound,
    random_bandlimited,
    random_sampling_set,
    reconstruct,
    sample,
    select_band,
)
from .transform import (
    BgftBasis,
    EnergyReport,
    FilterSpec,
    analyze,
    apply_filter,
    decompose,
    diffuse_direct,
    diffuse_spectral,
    energy_report,
    filter_bound,
    filter_matrix,
    iterate_bound,
    synthesize,
)

__version__ = "0.1.0"
