import rcaspace

# The library surface.  A name added to or removed from it is an API change:
# update this list, README and CHANGES.md together.
PUBLIC_API = [
    "AdvantageMatrix",
    "DataError",
    "DistributionSummary",
    "FIELD_LABELS",
    "IndexKind",
    "LabelRegistry",
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


def test_public_api_is_pinned():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert rcaspace.__all__ == PUBLIC_API
    assert all(hasattr(rcaspace, name) for name in PUBLIC_API)
