"""Bi-block graphs: exact independence numbers, Perron spectral radii,
monotone rewrites, and exhaustive extremal verification at desk scale."""

from .blocks import (
    Block,
    BlockCutTree,
    block_index,
    decompose,
    is_bi_block,
    leaf_blocks,
    neighbor_union,
    peel_leaf_block,
)
from .enumeration import (
    ClassSpec,
    ExtremalReport,
    biblock_classes,
    enumerate_biblock,
    enumerate_class,
    extremal_verify,
    verify_theorem,
)
from .graphs import (
    Bipartition,
    CanonicalForm,
    Graph,
    add_edge,
    bipartition,
    canonical_form,
    complete_bipartite,
    delete_edges,
    format_edge_list,
    from_edge_list,
    is_complete_bipartite,
    is_connected,
    is_isomorphic,
    parse_edge_list,
    read_edge_list,
)
from .independence import (
    AlphaResult,
    LeafCase,
    alpha_bounds,
    alpha_bruteforce,
    alpha_matching,
    classify_leaf,
    lexmin_witness,
    maximum_independent_sets,
    verify_lemma_2_1,
    verify_prop_alpha,
)
from .rewrites import (
    RewriteOutcome,
    RewriteStep,
    apply_step,
    find_applicable,
    merge_blocks,
    normalize,
    reattach_subcase32,
    reduce_block_index,
    split_partition_subcase22,
    unit_decomposition,
)
from .spectral import (
    LeafConfig,
    PerronPair,
    TwoBlockEigenData,
    TwoBlockLabeling,
    build_two_block,
    check_identities_I,
    check_identities_J,
    degree_bounds,
    edge_monotonicity_check,
    extract_two_block_data,
    perron,
    perron_batch,
    quad_form_delta,
    rayleigh,
    two_block_labeling,
    two_block_rho,
)

__version__ = "0.1.0"
