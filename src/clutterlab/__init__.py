"""Exact combinatorics of clutters.

A clutter is a finite antichain of vertex subsets (its edges).  This
package computes, with exact rational arithmetic throughout:

* covers, matchings, the Konig and packing properties (`covering`);
* the set-covering polyhedron, idealness, the fractional cover number
  read off its vertices, and bounded max-flow min-cut certification
  (`polyhedra`);
* Rees-cone Hilbert bases, normality, and bounded torsion-freeness of
  edge ideal powers (`rees`);
* independence complexes, simplicial homology, and Cohen-Macaulayness
  (`cm`);
* corpus enumeration, theorem verification, the counterexample scan, and
  deterministic reports (`harness`, `cli`).
"""

from .core import (
    AntichainViolation,
    Clutter,
    ClutterError,
    ClutterSyntaxError,
    DuplicateEdgeError,
    InstanceTooLargeError,
    NotUniformError,
    UnitIdealError,
    UnknownVertexError,
    adjoin_whisker_edge,
    duplicate,
    graft,
    is_uniform,
    make_clutter,
    minor,
    parallelization,
    parse_clutter,
    serialize_clutter,
)
from .covering import (
    PackingVerdict,
    covering_number,
    has_konig,
    has_packing_property,
    matching_number,
    minimal_vertex_covers,
    packs,
    weighted_cover_number,
)
from .polyhedra import (
    IdealVerdict,
    MfmcVerdict,
    enumerate_Q_vertices,
    is_ideal_clutter,
    mfmc_bounded,
    solve_lp_exact,
    solve_packing_ilp,
)
from .rees import (
    NormalityVerdict,
    PowerCertificate,
    hilbert_basis,
    integral_closure_membership,
    is_normal,
    is_ntf_bounded,
    monomial_string,
    power_membership,
    rees_cone,
    symbolic_power_membership,
)
from .cm import (
    CmVerdict,
    HomologyProfile,
    SimplicialComplex,
    independence_complex,
    is_cohen_macaulay,
    reduced_homology,
)
from .harness import (
    ALL_PROPERTIES,
    CorpusSpec,
    PropertyReport,
    PropertyVerdict,
    ScanResult,
    TheoremViolationError,
    VerificationSummary,
    VerifyBounds,
    check_properties,
    emit_report,
    enumerate_clutters,
    isomorphism_key,
    read_report,
    report_hash,
    scan_conforti_cornuejols,
    verify_theorems,
)

__version__ = "0.1.0"

__all__ = [
    "AntichainViolation",
    "Clutter",
    "ClutterError",
    "ClutterSyntaxError",
    "DuplicateEdgeError",
    "InstanceTooLargeError",
    "NotUniformError",
    "UnitIdealError",
    "UnknownVertexError",
    "adjoin_whisker_edge",
    "duplicate",
    "graft",
    "is_uniform",
    "make_clutter",
    "minor",
    "parallelization",
    "parse_clutter",
    "serialize_clutter",
    "PackingVerdict",
    "covering_number",
    "has_konig",
    "has_packing_property",
    "matching_number",
    "minimal_vertex_covers",
    "packs",
    "weighted_cover_number",
    "IdealVerdict",
    "MfmcVerdict",
    "enumerate_Q_vertices",
    "is_ideal_clutter",
    "mfmc_bounded",
    "solve_lp_exact",
    "solve_packing_ilp",
    "NormalityVerdict",
    "PowerCertificate",
    "hilbert_basis",
    "integral_closure_membership",
    "is_normal",
    "is_ntf_bounded",
    "monomial_string",
    "power_membership",
    "rees_cone",
    "symbolic_power_membership",
    "CmVerdict",
    "HomologyProfile",
    "SimplicialComplex",
    "independence_complex",
    "is_cohen_macaulay",
    "reduced_homology",
    "ALL_PROPERTIES",
    "CorpusSpec",
    "PropertyReport",
    "PropertyVerdict",
    "ScanResult",
    "TheoremViolationError",
    "VerificationSummary",
    "VerifyBounds",
    "check_properties",
    "emit_report",
    "enumerate_clutters",
    "isomorphism_key",
    "read_report",
    "report_hash",
    "scan_conforti_cornuejols",
    "verify_theorems",
    "__version__",
]
