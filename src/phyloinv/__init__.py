"""Binomial phylogenetic invariants of group-based models on trees.

Given a finite abelian group G and a leaf-labelled tree, the package
constructs an explicit set of binomials of low degree — as many as the
codimension of the toric phylogenetic variety — that cut the variety out
of its dense torus orbit, and certifies the result with an independent
exact integer-lattice computation.
"""

from .errors import (BinomialError, Cancelled, Error, FlowCapExceeded,
                     FlowError, GroupParseError, InternalError,
                     InvalidTreeError, LatticeError, NewickParseError,
                     OutsideSpanError)
from .flows import (Binomial, Flow, enumerate_flows, flow_from_leaves,
                    flow_index)
from .groups import Element, GroupSpec, parse_group_spec
from .oracle import (LatticeInfo, VerificationReport, codim, lattice_report,
                     oracle_kernel, verify_complete_intersection)
from .pipeline import (GenerateOptions, InvariantSet, algebra_text, generate)
from .trees import (RootedTree, Tree, canonical_rooting, join, parse_newick)
from .tripod import (AdmissibleMatrix, cyclic_basis, product_basis,
                     tripod_invariants)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleMatrix",
    "Binomial",
    "BinomialError",
    "Cancelled",
    "Element",
    "Error",
    "Flow",
    "FlowCapExceeded",
    "FlowError",
    "GenerateOptions",
    "GroupParseError",
    "GroupSpec",
    "InternalError",
    "InvalidTreeError",
    "InvariantSet",
    "LatticeError",
    "LatticeInfo",
    "NewickParseError",
    "OutsideSpanError",
    "RootedTree",
    "Tree",
    "VerificationReport",
    "algebra_text",
    "canonical_rooting",
    "codim",
    "cyclic_basis",
    "enumerate_flows",
    "flow_from_leaves",
    "flow_index",
    "generate",
    "join",
    "lattice_report",
    "oracle_kernel",
    "parse_group_spec",
    "parse_newick",
    "product_basis",
    "tripod_invariants",
    "verify_complete_intersection",
    "__version__",
]
