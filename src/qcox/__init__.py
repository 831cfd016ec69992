"""Exact q-weighted Cartan and Coxeter matrices for homogeneous bound
quivers, with machine verification of the identities relating them."""

from .algebra import GradedDimTable, cartan_matrix, dim_vector, graded_dims
from .coxeter import (CheckReport, CheckResult,
                      admissible_numbering, bilinear_form_graph,
                      coxeter_matrix_bound, coxeter_matrix_graph, euler_form,
                      gamma_reflection, graph_reflection, gram_matrix,
                      quadratic_form_graph, sigma_reflect,
                      symmetric_euler_form, symmetric_form_matrix,
                      verify_identities)
from .errors import (DegreeCapExceeded, DimensionBudgetExceeded, LoopAtVertex,
                     NotAcyclic, NotUnimodular, QcoxError, QuiverSyntaxError,
                     ValidationError)
from .polyring import (Polynomial, PolyMatrix, Rational, format_rational,
                       parse_rational, poly_vector)
from .quiverdsl import (Arrow, BoundQuiver, Path, Quiver, Relation,
                        ValidationReport, emit_json, emit_text, load_file,
                        parse_json, parse_quiver, validate)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
