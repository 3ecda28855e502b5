"""Numerical laboratory for exterior Dirichlet problems of the weighted
p-Laplace operator -div(|grad u|^(p-2) A(|grad u|) grad u) = f:
radial supersolution families, truncated-domain exterior solves,
symmetrization bounds, and decay diagnostics at infinity.
"""

__version__ = "0.1.0"

from .annulus_solver import (AnnularMesh, EnergyReport, GridFunction,
                             comparison_check, discrete_energy,
                             exhaust_exterior, holder_modulus, polar_mesh,
                             radial_mesh, solve_dirichlet)
from .asymptotics import (CounterexampleReport, DecayFit, OscPrediction,
                          SphereStats, counterexample_suite, decay_fit,
                          envelope_check, harnack_sphere_check,
                          osc_prediction, sphere_stats)
from .barriers import (Barrier, lemma2_C0, lemma2prime_C0, make_lemma1,
                       make_lemma1_prime, make_lemma2, make_lemma2_prime,
                       residual_check)
from .operator_core import (ConditionReport, DomainError, NonConvergenceError,
                            OperatorSpec, make_spec, phi_eval, phi_inverse,
                            phi_inverse_array, phi_inverse_bracket,
                            unit_ball_volume, validate_conditions)
from .quadrature import DivergenceError, integrate
from .radial_solver import (RadialProfile, RadialSolution, exterior_limit,
                            flux_residual, solve_exterior_radial,
                            solve_radial_bvp)
from .rearrangement import (RearrangementData, full_talenti_profile,
                            rearrange, rearrange_samples, talenti_bound)
from .source_terms import (NormConditionReport, SourceTerm, annulus_norm,
                           check_decay, check_part_b_conditions,
                           counterexample_residual, counterexample_source,
                           counterexample_u, exterior_norm, harnack_K,
                           power_decay_source, source_from_name, zero_source)
