"""Exact finite-precision computations with p-adic Lie lattices and pro-p groups."""

from .padic import PadicContext, find_nonresidue
from .linalg import PMatrix, Span, mat_exp, mat_log, mat_pow_padic
from .lattice import Filtration, Lattice
from .bch import bch_commutator, bch_mul, bch_neg, bch_pow, hausdorff_table
from .propgroup import GroupElement, SemidirectGroup, SubgroupData
from .classifier import SimilarityDescriptor, classify, similar

__all__ = [
    "PadicContext",
    "find_nonresidue",
    "PMatrix",
    "Span",
    "mat_exp",
    "mat_log",
    "mat_pow_padic",
    "Filtration",
    "Lattice",
    "bch_commutator",
    "bch_mul",
    "bch_neg",
    "bch_pow",
    "hausdorff_table",
    "GroupElement",
    "SemidirectGroup",
    "SubgroupData",
    "SimilarityDescriptor",
    "classify",
    "similar",
]
