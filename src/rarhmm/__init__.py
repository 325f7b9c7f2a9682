"""Identification of switching linear dynamical systems from trajectory data,
forecasting with the fitted models, and distillation of expert controllers
into switching locally-linear policies.

The public surface is what the pipeline (and the `rarhmm` command) runs:
- models: HybridModel and its blocks, load_model, log_local_evidence and the
  transition link (make_transition, transition_matrices);
- data: the simulated systems (simulate, collect_trajectories,
  collect_demonstrations, expert_policy) and dataset files;
- fitting: fit_em, and estep for the smoothed regime posteriors;
- forecasting: evaluate, which filters a test set and scores h-step
  forecasts by nmse;
- control: fit_em in closed loop distills demonstrations into a switching
  policy (the fitted controller bank), which act and rollout run.
The package draws no trajectories from a fitted model: data comes from the
simulated systems.
"""

from .model import (
    CLOSED_LOOP,
    OPEN_LOOP,
    Controllers,
    Dataset,
    Dynamics,
    HybridModel,
    InitialModel,
    Trajectory,
    load_model,
    log_local_evidence,
)
from .transition import TransitionModel, make_transition, transition_matrices
from .inference import Posterior, estep
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
    nmse,
)
from .policy import RolloutResult, act, rollout, success_criterion

__version__ = "0.1.0"

__all__ = [
    "CLOSED_LOOP", "OPEN_LOOP", "Controllers", "Dataset", "Dynamics",
    "HybridModel", "InitialModel", "Trajectory", "load_model",
    "log_local_evidence", "TransitionModel", "make_transition", "transition_matrices",
    "Posterior", "estep", "FitConfig", "FitHistory", "fit_em",
    "EnvConfig", "collect_demonstrations", "collect_trajectories",
    "default_config", "expert_policy", "load_dataset", "save_dataset",
    "simulate",
    "EvalReport", "count_params", "dataset_normalizer", "evaluate", "nmse",
    "RolloutResult", "act", "rollout", "success_criterion",
    "__version__",
]
