"""Bi-block graphs: exact independence numbers, Perron spectral radii,
monotone rewrites, and exhaustive extremal verification at desk scale.

The package is what the ``biblock`` command runs; the test oracles and
the lemma-by-lemma paper checks live in ``tests/conftest.py``."""

from .blocks import (
    Block,
    BlockCutTree,
    decompose,
    is_bi_block,
    leaf_blocks,
)
from .enumeration import (
    ExtremalReport,
    biblock_classes,
    enumerate_biblock,
    enumerate_class,
    verify_theorem,
)
from .graphs import (
    Bipartition,
    CanonicalForm,
    Graph,
    bipartition,
    canonical_form,
    format_edge_list,
    from_edge_list,
    is_complete_bipartite,
    is_connected,
    parse_edge_list,
    read_edge_list,
)
from .independence import (
    AlphaResult,
    alpha_bounds,
    alpha_matching,
    lexmin_witness,
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
    check_identities_I,
    check_identities_J,
    perron,
    perron_batch,
)

__version__ = "0.1.0"
