"""Exact stochastic calculus and viability analysis on finite filtered bases.

The package decides, in exact rational arithmetic, whether market
viability survives an enlargement of the information flow: it computes
drift operators, factors them through a multiplier against the driving
process, transfers structure connectors between filtrations, builds
local martingale deflators, and cross-validates every verdict against an
independent linear-feasibility oracle.
"""

from .basis import (Diagnostics, Filtration, Partition, Process, SampleSpace,
                    StoppingTime, cond_expect, cond_prob, is_stopping_time, validate)
from .calculus import (compensator, doleans_exp, is_martingale, martingale_violation,
                       stoch_integral, stop)
from .enlargement import (DriftFactors, EnlargedBasis, SupportReport,
                          check_condition_support, check_positivity,
                          compensator_transfer_check, drift_operator,
                          factorization_check, solve_factors, tilde,
                          validate_enlargement)
from .errors import (AzemaDegenerate, ConnectorInvalid, DataInvariantViolated,
                     DimensionMismatch, EngineError, InternalInvariant, InvalidDocument,
                     JacodDegenerate, NotAMartingale, NotARandomTime, NotAStoppingTime,
                     NotAdapted, NotPredictable, RationalTooLong, SchemaError,
                     SupportConditionFailed, Unsolvable)
from .event_kernels import (InaccessibleEventData, inaccessible_jump_value,
                            quotient_identity_holds, reduced_equation_holds,
                            validate_inaccessible)
from .linalg import min_norm_solve
from .models import (GeneratorConfig, azema_phi_crosscheck, gen_initial_enlargement,
                     gen_progressive_enlargement, gen_random_instance,
                     gen_single_filtration, jacod_density_table,
                     jacod_phi_crosscheck, random_viable_asset,
                     tilted_component_assets)
from .oracle import OracleResult, check_deflator, lp_deflator_oracle, verify_no_deflator
from .rational import ONE, ZERO, Q, rat, rat_str
from .representation import RepresentationProcess, build_representation, represent
from .verify import run_verify
from .viability import (ConnectorSearch, ViabilityReport, deflator_from_connector,
                        enlarged_connector, find_structure_connector,
                        full_viability_verdict, g_connector, is_structure_connector,
                        jump_identity_check, solve_accessible_K, witness_asset)

__version__ = "0.1.0"
