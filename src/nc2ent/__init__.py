"""nc2ent: convert single-system non-classicality into bipartite entanglement.

Build conversion isometries from Gram-matrix splittings of a linearly
independent classical set, check that Schmidt rank matches classical rank,
simulate the bosonic mode-splitting protocol for symmetric coherent states,
and transform entanglement witnesses into non-classicality witnesses.
"""

from .linalg import (
    GramMatrix,
    GramMismatchError,
    SchmidtData,
    StateVector,
    basis_state,
    entanglement_entropy,
    factor_gram,
    fidelity,
    gram_of,
    hadamard,
    negativity,
    partial_transpose,
    random_state,
    schmidt_decompose,
    synthesize_unitary,
)
from .conversion import (
    ClassicalSet,
    Conversion,
    SplitSpec,
    build_conversion,
    classical_rank,
    default_epsilon,
    epsilon_max,
    make_split,
    random_classical_set,
    random_superposition,
    uniform_overlap_gram,
)
from .gcnot import (
    GcnotParams,
    beamsplitter_params,
    cnot_equivalence_probe,
    coherent_overlap,
    gcnot_classical_pair,
    maximal_input_count,
    optimal_epsilon,
    output_entanglement,
    sweep_surface,
)
from .symmetric import (
    SuUnitary,
    SymmetricState,
    coherent_state,
    dicke_dim,
    haar_random_su,
    occupation_basis,
    overlap,
    splitting_isometry,
    symmetric_power_matrix,
)
from .modesplit import (
    ProtocolConfig,
    ProtocolResult,
    TwoModeState,
    apply_tunneling,
    binomial_sector_amplitude,
    inject,
    project_sector,
    run_protocol,
    sector_probabilities,
)
from .witness import (
    Witness,
    detect,
    nonclassicality_witness,
    swap_style_witness,
)

__version__ = "0.1.0"
