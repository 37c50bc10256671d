"""Applications (paper section VI): LBM, Poisson, linear elasticity."""

from .cg import CGResult, ConjugateGradient
from .elasticity import (
    ElasticitySolver,
    assembled_node_blocks,
    hex_element_stiffness,
    make_elastic_operator,
)
from .poisson import PoissonSolver, make_neg_laplacian, manufactured_problem

__all__ = [
    "CGResult",
    "ConjugateGradient",
    "ElasticitySolver",
    "PoissonSolver",
    "assembled_node_blocks",
    "hex_element_stiffness",
    "make_elastic_operator",
    "make_neg_laplacian",
    "manufactured_problem",
]
