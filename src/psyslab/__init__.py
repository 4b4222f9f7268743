"""psyslab: a numerical laboratory for the mixed-type p-system

    u_t = -v_x,   v_t = (p(u))_x

with quadratic-like pressure on the unit circle.  Spectral solver with
blow-up detection, Riemann-invariant and Riccati machinery along traced
characteristics, concave energy diagnostics for the elliptic region,
and a reproducible scenario harness.
"""

__version__ = "0.1.0"

from .characteristics import (CharacteristicCurve, ClassLabel, Direction,
                              SpotcheckReport, classify, dual_growth_spotcheck,
                              gradient_beta, invariant_drift, predict_blowup,
                              trace, trace_batch)
from .energy import (ConcaveGauge, energy, energy_ddot_direct,
                     energy_ddot_formula)
from .errors import (BlowUpError, ConfigError, DomainError, EllipticStart,
                     LengthMismatch, NonFiniteState, PsyslabError,
                     WindowTooShort)
from .field import (PeriodicGrid, SpaceTimeField, StateField,
                    spectral_derivative)
from .pressure import PressureLaw
from .riemann import (Family, RiemannPair, beta_from_gradient, q_of_u,
                      riccati_evolve, riccati_k, riemann_from_state,
                      state_from_riemann, u_of_q)
from .solver import (SERIES_COLUMNS, RunStatus, SolverConfig, Trajectory,
                     cfl_dt, run, step_rk4)
from .verify import (ScenarioReport, constant_state, crossing_time_oracle,
                     default_suite, random_elliptic_state, random_trig_state,
                     scenario_constant, scenario_energy_identity,
                     scenario_ramp_residual, scenario_random_hyperbolic_sweep,
                     scenario_riccati_crosscheck, scenario_simple_wave_blowup,
                     simple_wave_state)
