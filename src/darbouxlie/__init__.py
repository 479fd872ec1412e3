"""Exact-arithmetic toolkit for r-matrices and coboundary Lie bialgebras
on finite-dimensional Lie algebras given by structure constants.

The package computes Schouten brackets on the exterior algebra, derivation
algebras and their lifts, modified classical Yang-Baxter systems, Darboux
families of linear vector fields, graded central extensions, and verifies
the full classification tables for the thirteen real four-dimensional
indecomposable Lie algebras.  All arithmetic is exact over Q.
"""

from .exactmath import (Poly, RatMatrix, Rational, ideal_membership,
                        ideal_memberships, kernel_basis, poly_rref, rank,
                        rat, rref, solve)
from .liealg import (CatalogId, LieAlgebra, abelian, bracket, catalog,
                     center, from_brackets, parse_algebra, validate)
from .grassmann import (MultiVector, ad_action, blades, generic_rr,
                        invariants, schouten, wedge)
from .derivations import (LinearVectorField, derivation_basis,
                          fundamental_fields, lift, orbit_dim, rank_at,
                          vf_apply)
from .yangbaxter import (AlgebraContext, NotAnAutomorphism, RMatrix,
                         YbSystem, cocommutator, is_automorphism,
                         is_cybe_solution, is_mcybe_solution, necessary_checks,
                         quotient_class, same_coboundary, yb_system)
from .darboux import (Brick, BranchInvalid, DarbouxFamily, TreeBranch,
                      family_sum, find_bricks, flow_invariance,
                      locus_contains, verify_branch, verify_family,
                      verify_family_auto)
from .centerext import (GradingSolution, MatrixRep, RepresentationInvalid,
                        build_rep, solve_grading)

__version__ = "0.1.0"
