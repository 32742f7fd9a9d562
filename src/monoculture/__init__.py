"""Exact and simulated analysis of hiring competition under shared rankings.

The package models firms that fill one position each from a common pool of
candidates, choosing between a shared algorithmic ranking and independent
human evaluations. Rankings are never objects here: the models give their
probabilities, and the engines hold them as 0-based integer arrays. It
provides exact engines (closed forms, quadrature, and enumeration for small
pools), coupled Monte Carlo estimators for larger ones, and a game solver
that classifies equilibria, certifies welfare losses, and analyzes
many-firm hiring sequences.
"""

from .core import (
    CandidateDistribution,
    CandidatePool,
    PoolError,
    PoolOrDistribution,
)
from .estimators import (
    ConditionReport,
    EstimateWithError,
    check_monotonicity,
    check_pref_first_position,
    check_pref_weaker_competition,
    mc_utility_table,
    mc_utility_trials,
    sample_rankings,
)
from .exact import (
    UtilityTable,
    exact_selection_pmf,
    exact_sequential_utilities,
    exact_utility_table,
    exact_welfare,
    permutation_probabilities,
    top_two_pmf,
)
from .models import (
    NoiseSpec,
    RankingModelSpec,
    TieError,
    UnsupportedModelError,
    UnsupportedNoiseError,
    conditional_order_probability,
    mallows_perm_probs,
    well_ordered_check,
)
from .solver import (
    BracketError,
    DominanceReport,
    EquilibriumOutcome,
    KFirmReport,
    ScanReport,
    StrategySequence,
    SweepCell,
    ThetaStarResult,
    binary_counter_scan,
    check_dominance,
    classify_equilibrium,
    find_theta_star,
    kfirm_braess_check,
    sequential_optimal_sequence,
    sweep_plane,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CandidateDistribution",
    "CandidatePool",
    "ConditionReport",
    "DominanceReport",
    "EquilibriumOutcome",
    "EstimateWithError",
    "KFirmReport",
    "NoiseSpec",
    "PoolError",
    "PoolOrDistribution",
    "RankingModelSpec",
    "ScanReport",
    "StrategySequence",
    "SweepCell",
    "ThetaStarResult",
    "TieError",
    "UnsupportedModelError",
    "UnsupportedNoiseError",
    "UtilityTable",
    "binary_counter_scan",
    "check_dominance",
    "check_monotonicity",
    "check_pref_first_position",
    "check_pref_weaker_competition",
    "classify_equilibrium",
    "conditional_order_probability",
    "exact_selection_pmf",
    "exact_sequential_utilities",
    "exact_utility_table",
    "exact_welfare",
    "find_theta_star",
    "kfirm_braess_check",
    "mallows_perm_probs",
    "mc_utility_table",
    "mc_utility_trials",
    "permutation_probabilities",
    "sample_rankings",
    "sequential_optimal_sequence",
    "sweep_plane",
    "top_two_pmf",
    "well_ordered_check",
]
