"""Stochastic difference-equation population models.

Simulation of the model catalog under i.i.d. random environments, plus the
numerical criteria that decide boundedness and persistence: drift-inequality
audits, the scalar extinction/explosion/persistence trichotomy, boundary
invasion rates and permanence weights, and dominant growth exponents of the
linearized dynamics (Monte Carlo and closed form).
"""

from .engine import (
    Complement,
    Coordinate,
    EmpiricalSummary,
    ExtinctionNeighborhood,
    LogNorm,
    LogPerCapita,
    OutsideBall,
    PooledSummary,
    RateEstimate,
    SimConfig,
    SimulationResult,
    ensemble_hit_probability,
    ergodic_average,
    simulate,
)
from .env import (
    Constant,
    Discrete,
    EnvSpec,
    Gamma,
    LogNormal,
    Normal,
    Stream,
    Uniform,
    make_stream,
    sample_block,
)
from .errors import (
    ConfigurationError,
    FaceDegenerateError,
    NumericError,
    QuadratureError,
    StochpopError,
)
from .lyap import (
    GammaClosedFormInput,
    gamma_closed_form,
    gamma_closed_form_detailed,
    lyapunov_mc,
)
from .models import (
    BevertonHolt,
    Biennial,
    Hassell,
    LinearMatrix,
    Lottery,
    RickerCompetition,
    RickerScalar,
    RpsLottery,
)
from .persist import (
    DriftConstruction,
    DriftReport,
    InvasionTable,
    Verdict,
    affine_domination_audit,
    boundary_invasion_report,
    drift_bounded_check,
    drift_construction,
    find_persistence_weights,
    invasion_rate,
    lottery_taylor_rate,
    mean_percapita_growth_at,
    rps_condition,
    scalar_classify,
)

__version__ = "0.1.0"
