"""Exact total domination and total bondage, with certificates and campaigns."""

from .bondage import (
    BondageCertificate,
    bondage,
    max_matching_size,
)
from .campaigns import (
    BoundCheck,
    CampaignResult,
    GraphOutcome,
    run_campaign,
    search_by_bondage,
    verify_prior_bounds,
)
from .domination import (
    DominationCertificate,
    exists_total_dominating_set,
    gamma_t,
    is_total_dominating,
)
from .embedding import Embedding, EmbeddingError
from .families import FamilySpec, complete, complete_bipartite, complete_multipartite, cycle, path, star, subdivided_star
from .formats import (
    FormatError,
    graph6_bytes,
    parse_edge_list,
    parse_graph6,
    parse_graphs,
    read_graphs,
)
from .graphs import Edge, Graph, IsolatedVertexError
from .planar import (
    ChargeLedger,
    ConfigurationReport,
    charge_ledger,
    detect_borodin,
    detect_girth4_config,
    discharge_audit,
    is_planar,
    planar_embedding,
)
from .smallgraphs import (
    count_automorphisms,
    enumerate_graph_classes,
    is_isomorphic,
)
from .trees import enumerate_trees
from .witnesses import (
    WitnessReport,
    apply_rule,
    find_anchors,
    scan_witnesses,
    witness_multipartite,
)

__version__ = "0.1.0"

__all__ = [
    "BondageCertificate",
    "BoundCheck",
    "CampaignResult",
    "ChargeLedger",
    "ConfigurationReport",
    "DominationCertificate",
    "Edge",
    "Embedding",
    "EmbeddingError",
    "FamilySpec",
    "FormatError",
    "Graph",
    "GraphOutcome",
    "IsolatedVertexError",
    "WitnessReport",
    "apply_rule",
    "bondage",
    "charge_ledger",
    "complete",
    "complete_bipartite",
    "complete_multipartite",
    "count_automorphisms",
    "cycle",
    "detect_borodin",
    "detect_girth4_config",
    "discharge_audit",
    "enumerate_graph_classes",
    "enumerate_trees",
    "exists_total_dominating_set",
    "find_anchors",
    "gamma_t",
    "graph6_bytes",
    "is_isomorphic",
    "is_planar",
    "is_total_dominating",
    "max_matching_size",
    "parse_edge_list",
    "parse_graph6",
    "parse_graphs",
    "path",
    "planar_embedding",
    "read_graphs",
    "run_campaign",
    "scan_witnesses",
    "search_by_bondage",
    "star",
    "subdivided_star",
    "verify_prior_bounds",
    "witness_multipartite",
]
