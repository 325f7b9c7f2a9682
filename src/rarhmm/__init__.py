"""Identification of switching linear dynamical systems from trajectory data,
forecasting with the fitted models, and distillation of expert controllers
into switching locally-linear policies."""

from .model import (
    CLOSED_LOOP,
    OPEN_LOOP,
    Dataset,
    HybridModel,
    InitialModel,
    RegimeController,
    RegimeDynamics,
    Trajectory,
    load_model,
    log_local_evidence,
    sample_initial,
    sample_trajectory,
    save_model,
    step_dynamics,
)
from .transition import TransitionModel, make_transition, transition_matrix, transition_probs
from .inference import Posterior, estep, smooth
from .learning import FitConfig, FitHistory, fit_em
from .envs import (
    EnvConfig,
    collect_demonstrations,
    collect_trajectories,
    default_config,
    expert_policy,
    load_dataset,
    save_dataset,
    simulate,
)
from .evaluation import (
    EvalReport,
    count_params,
    dataset_normalizer,
    evaluate,
    filter_prefix,
    forecast,
    nmse,
)
from .policy import RolloutResult, act, distill, rollout, success_criterion

__version__ = "0.1.0"

__all__ = [
    "CLOSED_LOOP", "OPEN_LOOP", "Dataset", "HybridModel", "InitialModel",
    "RegimeController", "RegimeDynamics", "Trajectory", "load_model",
    "log_local_evidence", "sample_initial", "sample_trajectory", "save_model",
    "step_dynamics", "TransitionModel", "make_transition", "transition_matrix",
    "transition_probs", "Posterior", "estep", "smooth",
    "FitConfig", "FitHistory", "fit_em",
    "EnvConfig", "collect_demonstrations", "collect_trajectories",
    "default_config", "expert_policy", "load_dataset", "save_dataset",
    "simulate",
    "EvalReport", "count_params", "dataset_normalizer", "evaluate",
    "filter_prefix", "forecast", "nmse",
    "RolloutResult", "act", "distill", "rollout", "success_criterion",
    "__version__",
]
