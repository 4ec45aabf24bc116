"""digitq: deterministic digit-string simulation of quantum statistics.

States are finite base-M digit strings; phases are self-similar block
permutations realizing p-th roots of unity; measurement is deterministic
digit-deletion reduction.  The experiments module reproduces the
closed-form statistics (cos^2(theta/2) polarization, the 3-level trace
rule, the -cos(dtheta) pair correlation) from seeded sweeps of the
p-adic longitude grids.
"""

from .digits import (DeletionLog, DigitString, FrequencyTable,
                     block_frequencies, champernowne, concatenated_squares,
                     degree_of_normality, delete_where, normality_deviation,
                     phi_shift, reinsert, relabel, value, value_float)
from .errors import (DegenerateStatistic, DigitqError, EmptyResult,
                     LengthNotDivisible, NonConvergence, NotAnEigenstate,
                     OffGrid, SuffixTooShort, Tie)
from .phase import (BlockOperator, PAdicRational, apply, chi, compose,
                    extend_to, identity_operator, lag_correlation, omega_root,
                    operator_pow, phase_rotate, rotation_operator)
from .reduction import (BinaryThreshold, ReductionOutcome, WalkResult,
                        biased_quantile_threshold, partial_reduce, project,
                        reduce_Rj, reduce_compound, trajectory_csv,
                        weak_reduction_walk)
from .states import (BlochPoint, QutritAngles, StateConfig, beamsplitter_pair,
                     blocked_mz_output, composite, decompose, default_config,
                     default_qutrit_config, full_mz_output, hadamard_equiv,
                     measurement_coupling, qubit_state, qutrit_state,
                     schrodinger_evolve, subsystem, u_n_gate)

__version__ = "0.1.0"
