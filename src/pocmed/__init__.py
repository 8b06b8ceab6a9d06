"""Direct and indirect probabilities of causation for mediation settings.

Estimates how necessary and sufficient a treatment change is for pushing
an ordered outcome past a threshold, split into controlled-direct,
natural-direct, and natural-indirect parts, optionally restricted to a
factual-evidence subpopulation.  Estimation is nonparametric (empirical
conditional CDFs) with percentile-bootstrap intervals; an exact
structural-model oracle computes the same quantities from their
counterfactual definitions for verification.
"""

from .data import (
    ColumnRoles,
    Dataset,
    Evidence,
    Interval,
    Query,
    load_dataset,
    stratify,
)
from .ecdf import CdfModel
from .identify import (
    EvidenceTerms,
    MediatorMonotonicityWarning,
    PnsTriple,
    cd_pns,
    cd_pns_with_evidence,
    natural_pns,
    natural_pns_with_evidence,
    natural_pns_with_mediator_evidence,
    pn_family,
    ps_family,
)
from .oracle import (
    AnalyticCdf,
    LogisticNode,
    MonotonicityReport,
    ScmSpec,
    TableNode,
    TruthReport,
    bernoulli_cell,
    check_monotonicity,
    logistic_bernoulli_preset,
    sample_observational,
    truth_effects,
    truth_pns,
    truth_with_evidence,
)
from .bootstrap import BootstrapConfig, CiResult, bootstrap_ci, estimator_target
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AnalyticCdf",
    "BootstrapConfig",
    "CdfModel",
    "CiResult",
    "ColumnRoles",
    "Dataset",
    "Evidence",
    "EvidenceTerms",
    "Interval",
    "LogisticNode",
    "MediatorMonotonicityWarning",
    "MonotonicityReport",
    "PnsTriple",
    "Query",
    "ScmSpec",
    "TableNode",
    "TruthReport",
    "bernoulli_cell",
    "bootstrap_ci",
    "cd_pns",
    "cd_pns_with_evidence",
    "check_monotonicity",
    "errors",
    "estimator_target",
    "load_dataset",
    "logistic_bernoulli_preset",
    "natural_pns",
    "natural_pns_with_evidence",
    "natural_pns_with_mediator_evidence",
    "pn_family",
    "ps_family",
    "sample_observational",
    "stratify",
    "truth_effects",
    "truth_pns",
    "truth_with_evidence",
    "__version__",
]
