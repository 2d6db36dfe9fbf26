"""Binomial phylogenetic invariants of group-based models on trees.

Given a finite abelian group G and a leaf-labelled tree, the package
constructs an explicit set of binomials of low degree — as many as the
codimension of the toric phylogenetic variety — that cut the variety out
of its dense torus orbit, and certifies the result with an independent
exact integer-lattice computation.
"""

from .errors import (BinomialError, Error, FlowCapExceeded, FlowError,
                     GroupParseError, InternalError, InvalidTreeError,
                     LatticeError, NewickParseError)
from .flows import Binomial, Flow, flow_from_leaves, flow_index
from .groups import Element, GroupSpec, parse_group_spec
from .oracle import (LatticeInfo, VerificationReport, codim, lattice_report,
                     verify_complete_intersection)
from .pipeline import (GenerateOptions, InvariantSet, algebra_text, generate)
from .trees import (RootedTree, Tree, canonical_rooting, parse_newick)
from .tripod import (cyclic_basis, matrix_to_binomial, product_basis,
                     tripod_invariants)

__version__ = "0.1.0"

__all__ = [
    "Binomial",
    "BinomialError",
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
    "RootedTree",
    "Tree",
    "VerificationReport",
    "algebra_text",
    "canonical_rooting",
    "codim",
    "cyclic_basis",
    "flow_from_leaves",
    "flow_index",
    "generate",
    "lattice_report",
    "matrix_to_binomial",
    "parse_group_spec",
    "parse_newick",
    "product_basis",
    "tripod_invariants",
    "verify_complete_intersection",
    "__version__",
]
