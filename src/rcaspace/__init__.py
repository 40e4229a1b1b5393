"""RCA-based analytics for country-level scientific production.

Computes revealed comparative advantage (RCA) matrices from country x field
production tables, derives the binary knowledge space with its diversity and
ubiquity counts, builds proximity networks between fields and between
countries, and exports summary statistics plus backbone-filtered network
files for visualization.
"""

__version__ = "0.1.0"

from .errors import DataError, UndefinedCellWarning, UnknownFieldWarning
from .ingest import (
    FIELD_LABELS,
    IndexKind,
    ProductionTable,
    parse_production_csv,
    resolve_labels,
    validate_alignment,
)
from .rca import (
    AdvantageMatrix,
    RcaMatrix,
    compute_rca,
    diversity,
    threshold_advantage,
    ubiquity,
)
from .proximity import (
    ProximityNetwork,
    co_occurrence,
    country_proximity,
    field_proximity,
)
from .stats import DistributionSummary, pearson, summarize
from .netexport import NetworkLayout, backbone, build_layout, emit, size_nodes

__all__ = [
    "AdvantageMatrix",
    "DataError",
    "DistributionSummary",
    "FIELD_LABELS",
    "IndexKind",
    "NetworkLayout",
    "ProductionTable",
    "ProximityNetwork",
    "RcaMatrix",
    "UndefinedCellWarning",
    "UnknownFieldWarning",
    "__version__",
    "backbone",
    "build_layout",
    "co_occurrence",
    "compute_rca",
    "country_proximity",
    "diversity",
    "emit",
    "field_proximity",
    "parse_production_csv",
    "pearson",
    "resolve_labels",
    "size_nodes",
    "summarize",
    "threshold_advantage",
    "ubiquity",
    "validate_alignment",
]
