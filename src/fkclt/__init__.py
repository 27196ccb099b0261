"""Finite-state Feynman-Kac models: exact oracles, mean-field particle
estimators of normalizing constants, and a statistical harness for their
lognormal central limit behavior."""

from .core import (
    FKError,
    DimensionMismatch,
    InvalidModel,
    ScheduleExhausted,
    ConvergenceError,
    ConsistencyError,
    ProbMeasure,
    FunctionVector,
    StochasticKernel,
    Potential,
    KernelChoice,
    FKStep,
    FKModel,
    ModelBounds,
    homogeneous_model,
    explicit_model,
    boltzmann_gibbs,
    phi_step,
    kernel_row,
    cov_operator,
    dobrushin,
    total_variation,
    oscillation,
)
from .oracle import (
    OracleSolution,
    SpectralPair,
    propagate,
    q_pn_apply,
    qbar_pn_one,
    d_pn,
    markov_pn,
    contraction_profile,
    v_n,
    fixed_point_eta_inf,
    eigen_h_zeta,
    sigma2_homogeneous,
    spectral_pair,
    qbar_p_inf,
)
from .engine import (
    RngStream,
    ParticleSystem,
    RunRecord,
    derive_seed,
    init_particles,
    step,
    run,
    local_error_field,
    global_error_field,
)
from .randenv import (
    EnvironmentChain,
    EnvPath,
    sample_env_path,
    env_model,
    eta_inf_env,
    h_env,
    c_of_y,
    sigma2_env,
    stationary_distribution,
)
from .harness import (
    ExperimentConfig,
    CltReport,
    replicate_experiment,
    lognormal_check,
    ks_statistic,
    unbiasedness_check,
    fixed_n_clt_check,
)
from .models import (
    AbsorptionModel,
    HmmParams,
    absorption_build,
    survival_mc_oracle,
    yaglom_check,
    hmm_generate,
    hmm_build,
    forward_likelihood,
)

__version__ = "0.1.0"
