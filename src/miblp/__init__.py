"""Branch-and-cut solver for mixed-integer bilevel linear programs.

The solver certifies bilevel feasibility and separates intersection cuts
through one improving-direction search; enumeration tooling provides ground
truth for tests, and a benchmark harness compares solver configurations.
"""

from .bnc import OracleMode, SolveResult, SolverConfig, SolveStatus, solve
from .bruteforce import (EnumerationBudgetError, enumerate_F, enumerate_S,
                         optimal_by_enumeration, phi_by_enumeration)
from .cuts import (BilevelFreeSet, ConeContainedError, Cut, NotSeparableError,
                   bfs_from_direction, bfs_from_solution, cut_violation,
                   intersection_cut)
from .instance import (InstanceError, MiblpInstance, ParseError, Point,
                       generate_random_instance, parse_instance,
                       validate_assumptions, write_instance)
from .kopt import (KoptContext, compute_k_bar, enumerate_Fk, make_context,
                   min_ifd_norm, minimal_ifds, reaction_set, reaction_set_k)
from .oracle import (Direction, DirectionMethod, DirectionObjective,
                     OracleConfig, OracleInconclusive, OracleOutcome,
                     OutcomeKind, build_id_milp, build_k_id_milp,
                     certify_bilevel_feasible, find_improving_direction,
                     legacy_feasibility_check, solve_phi)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
