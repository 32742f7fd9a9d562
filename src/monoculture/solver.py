"""Equilibrium analysis of the two-firm game and k-firm hiring sequences.

Both firms choose between running the shared algorithmic ranking (A) and
commissioning an independent human ranking (H) before hiring order is
drawn; each is first with probability one half. Payoffs therefore average
the first-mover utility of the chosen strategy and the second-mover
utility against the rival's strategy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import product

import numpy as np

from .core import PoolOrDistribution
from .estimators import DEFAULT_SWEEP_SAMPLES, _increasing_grid, _strict, mc_utility_table
from .exact import (
    SequentialState,
    UtilityTable,
    _sequential_values,
    _validate_sequence,
    exact_sequential_utilities,
    exact_utility_lattice,
    exact_utility_table,
    exact_welfare,
)
from .models import RankingModelSpec

LABEL_AA = "AA"
LABEL_HH = "HH"
LABEL_ASYMMETRIC = "AH_asymmetric"

THETA_STAR_TOL = 1e-6
BRACKET_START_FACTOR = 64.0
BRACKET_LIMIT_FACTOR = 1024.0


class BracketError(RuntimeError):
    """Raised when the dominance margin cannot be sign-bracketed."""


@dataclass(frozen=True)
class DominanceReport:
    """Strictness of the two strategy comparisons, one per rival strategy.

    margin_vs_a compares playing A against playing H when the rival runs
    the shared ranking; margin_vs_h is the same comparison against a human
    rival. Margins are full-table differences (the one-half payoff weights
    cancel). Strictness and ties follow `_strict`.
    """

    margin_vs_a: float
    margin_vs_h: float
    stderr_vs_a: float
    stderr_vs_h: float
    a_dominant_vs_a: bool
    a_dominant_vs_h: bool
    tie_vs_a: bool
    tie_vs_h: bool

    @property
    def a_strictly_dominant(self) -> bool:
        return self.a_dominant_vs_a and self.a_dominant_vs_h


def check_dominance(table: UtilityTable) -> DominanceReport:
    fa, fh, aa = table.u_first_a, table.u_first_h, table.u_aa
    ah, ha, hh = table.u_ah, table.u_ha, table.u_hh
    s_fa, s_fh, s_aa = table.stderr_u_first_a, table.stderr_u_first_h, table.stderr_u_aa
    s_ah, s_ha, s_hh = table.stderr_u_ah, table.stderr_u_ha, table.stderr_u_hh
    margin_a, margin_h = (fa + aa) - (fh + ah), (fa + ha) - (fh + hh)
    # entries share trial draws, so treating them as independent overstates
    # the error; the overstatement only ever downgrades a verdict
    se_a = math.sqrt(s_fa**2 + s_aa**2 + s_fh**2 + s_ah**2)
    se_h = math.sqrt(s_fa**2 + s_ha**2 + s_fh**2 + s_hh**2)
    strict_a, strict_h = _strict(margin_a, se_a), _strict(margin_h, se_h)
    return DominanceReport(margin_a, margin_h, se_a, se_h, strict_a, strict_h,
                           tie_vs_a=not (strict_a or _strict(-margin_a, se_a)),
                           tie_vs_h=not (strict_h or _strict(-margin_h, se_h)))


@dataclass(frozen=True)
class EquilibriumOutcome:
    """Symmetric equilibrium structure of one utility table.

    label is AA or HH when that pure profile is the stable one, and
    AH_asymmetric in the anti-coordination case, where the two asymmetric
    pure equilibria coexist with a symmetric mixed one; p then carries the
    mixed-equilibrium probability of playing A. boundary marks a dominance
    margin that ties. braess is set only when A is strictly dominant yet the
    all-A welfare falls strictly short of the all-H welfare.
    """

    label: str
    p: float | None
    welfare_aa: float
    welfare_hh: float
    braess: bool
    boundary: bool
    detail: dict = field(default_factory=dict)


def classify_equilibrium(table: UtilityTable) -> EquilibriumOutcome:
    """Label, mixing weight, welfare and Braess flag of one utility table.

    One strictness rule, `estimators._strict`, judges both dominance
    margins and the welfare gap, for exact and sampled tables alike: a
    difference is strict when it exceeds both DEFAULT_Z_THRESHOLD times its
    stderr and STRICT_TOL, and a tie when neither it nor its negation is
    strict. A pure profile is stable unless its payoff margin is strictly
    negative by the same rule at stderr 0.
    """
    dom = check_dominance(table)
    # payoff of A minus payoff of H against an A rival (alpha) and an H
    # rival (beta); each payoff averages the first- and second-mover entries
    alpha = 0.5 * dom.margin_vs_a
    beta = 0.5 * dom.margin_vs_h
    aa_stable = not _strict(-alpha, 0.0)
    hh_stable = not _strict(beta, 0.0)
    boundary = dom.tie_vs_a or dom.tie_vs_h

    p = None
    if alpha < 0 < beta:
        label = LABEL_ASYMMETRIC
        p = -beta / (alpha - beta)
    elif aa_stable and not hh_stable:
        label = LABEL_AA
    elif hh_stable and not aa_stable:
        label = LABEL_HH
    else:
        # both pure profiles stable only on a measure-zero tie boundary;
        # fall back to the larger stability margin
        label = LABEL_AA if alpha >= -beta else LABEL_HH

    welfare_aa = exact_welfare(table, "AA")
    welfare_hh = exact_welfare(table, "HH")
    gap_se = math.sqrt(table.stderr_u_first_h**2 + table.stderr_u_hh**2
                       + table.stderr_u_first_a**2 + table.stderr_u_aa**2)
    braess = dom.a_strictly_dominant and _strict(welfare_hh - welfare_aa, gap_se)

    detail = {"payoff_margin_vs_a": alpha, "payoff_margin_vs_h": beta, "dominance": dom}
    return EquilibriumOutcome(label, p, welfare_aa, welfare_hh, braess, boundary, detail)


@dataclass(frozen=True)
class ThetaStarResult:
    """Crossing accuracy where running the shared ranking becomes dominant.

    theta_star solves f(theta_a) = g(theta_a), where f is the all-A welfare
    (also firm A's stability margin numerator against an A rival) and g is
    the deviation payoff to H against an A rival, both doubled to drop the
    one-half weights; Brent's method finds it, and crossing_residual is
    f - g there. theta_prime is the first accuracy of the form
    theta_star * (1 + 2**-m) at which A is strictly dominant and all-A
    welfare falls strictly below all-H welfare; braess_found reports
    whether any such point exists at float resolution.
    """

    theta_h: float
    theta_star: float
    crossing_residual: float
    theta_prime: float | None
    braess_found: bool
    detail: dict = field(default_factory=dict)


def find_theta_star(
    theta_h: float,
    family: RankingModelSpec,
    pool_or_d: PoolOrDistribution,
) -> ThetaStarResult:
    """Locate the dominance crossing and certify a welfare-loss window.

    Brent's method on the margin f - g, `check_dominance`'s margin_vs_a on
    exact tables, from the bracket [theta_h, 64 theta_h], doubling the upper
    end as needed. BracketError when no sign change shows by 1024 theta_h,
    or when the search ends with |margin| >= THETA_STAR_TOL, as it does on
    a margin that jumps across zero (discrete noise).
    """
    from scipy.optimize import brentq

    @cache  # brentq evaluates the bracket ends again and returns a point it evaluated
    def margin(theta_a: float) -> float:
        table = exact_utility_table(theta_a, theta_h, family, pool_or_d)
        return check_dominance(table).margin_vs_a

    lo = theta_h
    hi = BRACKET_START_FACTOR * theta_h
    m_lo = margin(lo)
    if not m_lo < -THETA_STAR_TOL:
        raise BracketError(
            f"margin at theta_a = theta_h is {m_lo:.3e}, not negative; "
            "no crossing to bracket"
        )
    m_hi = margin(hi)
    while m_hi <= 0.0:
        hi *= 2.0
        if hi > BRACKET_LIMIT_FACTOR * theta_h:
            raise BracketError(
                f"margin still {m_hi:.3e} at theta_a = {hi / 2.0:.6g}; no sign "
                f"change up to {BRACKET_LIMIT_FACTOR:g} theta_h"
            )
        m_hi = margin(hi)

    theta_star, root = brentq(margin, lo, hi, full_output=True, disp=False)
    residual = margin(theta_star)
    if not (root.converged and abs(residual) < THETA_STAR_TOL):
        raise BracketError(
            f"root search {root.flag} at theta_a = {theta_star:.6g} with residual "
            f"{residual:.3e}, not below {THETA_STAR_TOL:g}"
        )

    for m in range(0, 64):
        candidate = theta_star * (1.0 + 2.0 ** (-m))
        if candidate == theta_star:
            break
        out = classify_equilibrium(exact_utility_table(candidate, theta_h, family, pool_or_d))
        if out.braess:
            certificate = {
                "margin_vs_a": out.detail["dominance"].margin_vs_a,
                "margin_vs_h": out.detail["dominance"].margin_vs_h,
                "welfare_gap": out.welfare_hh - out.welfare_aa,
                "exponent": m,
            }
            return ThetaStarResult(theta_h, theta_star, residual, candidate, True, certificate)
    return ThetaStarResult(theta_h, theta_star, residual, None, False)


@dataclass(frozen=True)
class StrategySequence:
    """An ordered profile of firm strategies over A and H."""

    choices: tuple[str, ...]
    utilities: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "choices", _validate_sequence(self.choices))
        if self.utilities is not None:
            utilities = tuple(float(u) for u in self.utilities)
            object.__setattr__(self, "utilities", utilities)
            if len(utilities) != len(self.choices):
                raise ValueError("one utility per firm or none at all")

    @property
    def k(self) -> int:
        return len(self.choices)

    def as_string(self) -> str:
        return "".join(self.choices)

    @property
    def binary_value(self) -> int:
        """The sequence read as a binary number, A as 1 and H as 0."""
        return int("".join("1" if c == "A" else "0" for c in self.choices), 2)


def sequential_optimal_sequence(
    k: int,
    phi_a: float,
    phi_h: float,
    pool_or_d: PoolOrDistribution,
) -> StrategySequence:
    """Strategy choices of k firms hiring in order, each maximizing itself.

    A firm's utility depends on predecessors only, so choosing the better
    of A and H given the hiring history is dominant; ties go to H.
    """
    x = _sequential_values(k, phi_a, phi_h, pool_or_d)
    state = SequentialState(phi_a, phi_h, x)
    choices: list[str] = []
    utilities: list[float] = []
    for _ in range(k):
        u_a = state.utility_of_next("A")
        u_h = state.utility_of_next("H")
        choice = "A" if _strict(u_a - u_h, 0.0) else "H"
        choices.append(choice)
        utilities.append(u_a if choice == "A" else u_h)
        state.hire(choice)
    return StrategySequence(tuple(choices), tuple(utilities))


@dataclass(frozen=True)
class ScanPoint:
    phi_a: float
    sequence: StrategySequence


@dataclass(frozen=True)
class ScanReport:
    """Equilibrium sequences along an increasing accuracy grid.

    Each sequence is read as a binary number (A high bit first); the scan
    checks that this value never decreases as the algorithmic accuracy
    grows, and records the first decrease if one occurs.
    """

    phi_h: float
    points: tuple[ScanPoint, ...]
    monotone_nondecreasing: bool
    first_violation: dict | None


def binary_counter_scan(
    phi_h: float,
    phi_a_values,
    k: int,
    pool_or_d: PoolOrDistribution,
) -> ScanReport:
    points = [ScanPoint(phi_a, sequential_optimal_sequence(k, phi_a, phi_h, pool_or_d))
              for phi_a in _increasing_grid(phi_a_values, "phi_a")]
    violation = None
    for i in range(1, len(points)):
        prev, cur = points[i - 1], points[i]
        if cur.sequence.binary_value < prev.sequence.binary_value:
            violation = {
                "index": i,
                "phi_a_prev": prev.phi_a,
                "phi_a": cur.phi_a,
                "value_prev": prev.sequence.binary_value,
                "value": cur.sequence.binary_value,
            }
            break
    return ScanReport(phi_h, tuple(points), violation is None, violation)


@dataclass(frozen=True)
class KFirmReport:
    """Symmetric-game diagnosis of the k-firm hiring interaction.

    Firms commit to A or H before a uniformly random arrival order is
    drawn, so a strategy's value against a rival profile is its per-firm
    utility averaged over arrival positions. A is strictly dominant when
    this average strictly beats H against every rival profile; the Braess
    flag requires that dominance plus all-H average welfare strictly above
    all-A.
    """

    k: int
    phi_a: float
    phi_h: float
    all_a_utilities: tuple[float, ...]
    all_h_utilities: tuple[float, ...]
    all_a_average: float
    all_h_average: float
    all_a_equilibrium: bool
    all_h_equilibrium: bool
    a_strictly_dominant: bool
    braess: bool
    best_average_sequence: StrategySequence
    detail: dict = field(default_factory=dict)


def kfirm_braess_check(
    k: int,
    phi_a: float,
    phi_h: float,
    pool_or_d: PoolOrDistribution,
) -> KFirmReport:
    if k < 2:
        raise ValueError(f"need k >= 2 firms, got {k}")
    # every sequence, in binary-counter order (H as 0, A as 1)
    utilities = {
        "".join(seq): exact_sequential_utilities(seq, phi_a, phi_h, pool_or_d)
        for seq in product("HA", repeat=k)
    }

    def positional_average(own: str, rivals: tuple[str, ...]) -> float:
        total = 0.0
        for position in range(k):
            seq = "".join(rivals[:position]) + own + "".join(rivals[position:])
            total += utilities[seq][position]
        return total / k

    all_a = utilities["A" * k]
    all_h = utilities["H" * k]
    all_a_avg = sum(all_a) / k
    all_h_avg = sum(all_h) / k

    profile_margins = {
        "".join(rivals): positional_average("A", rivals) - positional_average("H", rivals)
        for rivals in product("AH", repeat=k - 1)
    }
    dominant = all(_strict(margin, 0.0) for margin in profile_margins.values())
    margin_all_a = profile_margins["A" * (k - 1)]
    margin_all_h = profile_margins["H" * (k - 1)]
    all_a_equilibrium = not _strict(-margin_all_a, 0.0)
    all_h_equilibrium = not _strict(margin_all_h, 0.0)

    best_seq = None
    best_avg = -math.inf
    for seq, seq_utilities in utilities.items():
        avg = sum(seq_utilities) / k
        if _strict(avg - best_avg, 0.0):
            best_avg = avg
            best_seq = seq

    braess = dominant and _strict(all_h_avg - all_a_avg, 0.0)
    return KFirmReport(
        k=k,
        phi_a=phi_a,
        phi_h=phi_h,
        all_a_utilities=tuple(all_a),
        all_h_utilities=tuple(all_h),
        all_a_average=all_a_avg,
        all_h_average=all_h_avg,
        all_a_equilibrium=all_a_equilibrium,
        all_h_equilibrium=all_h_equilibrium,
        a_strictly_dominant=dominant,
        braess=braess,
        best_average_sequence=StrategySequence(tuple(best_seq), tuple(utilities[best_seq])),
        detail={"profile_margins": profile_margins, "best_average": best_avg},
    )


@dataclass(frozen=True)
class SweepCell:
    theta_h: float
    theta_a: float
    outcome: EquilibriumOutcome | StrategySequence | None
    error: str | None = None


def _cell_seed(seed: int, i: int, j: int) -> int:
    return int(np.random.SeedSequence((seed, i, j)).generate_state(1, np.uint64)[0])


def sweep_plane(
    theta_h_values,
    theta_a_values,
    family: RankingModelSpec,
    pool_or_d: PoolOrDistribution,
    engine: str = "exact",
    k: int = 2,
    n_samples: int = DEFAULT_SWEEP_SAMPLES,
    seed: int = 0,
) -> list[SweepCell]:
    """Classify every cell of an accuracy lattice, row-major in theta_h.

    Two-firm cells carry an EquilibriumOutcome; with k > 2 each cell holds
    the sequential strategy profile instead (distance-based family only,
    mapping theta to dispersion 1 + theta). Domain failures (ValueError and
    its subclasses, such as UnsupportedModelError and TieError) are recorded
    on the cell rather than aborting the sweep; any other exception is a bug
    and propagates. Exact two-firm tables come from one
    `exact_utility_lattice` call, so an accuracy whose pmf fails marks just
    its own row or column. Cell seeds derive from (seed, row, column). Cells
    are classified one after another; a Monte Carlo cell spreads its own
    chunks over the cores, as `mc_utility_table` does by default.
    """
    if engine not in ("exact", "mc"):
        raise ValueError(f"engine must be exact or mc, got {engine!r}")
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if k > 2 and engine != "exact":
        raise ValueError("k-firm sweeps are exact-only")
    if k > 2 and family.kind != "mallows":
        raise ValueError("k-firm sweeps support the distance-based family only")
    rows = [float(t) for t in theta_h_values]
    cols = [float(t) for t in theta_a_values]
    if k == 2 and engine == "exact":
        try:
            lattice = exact_utility_lattice(rows, cols, family, pool_or_d)
        except ValueError as exc:
            lattice = [[exc] * len(cols) for _ in rows]

    def run_cell(i: int, j: int) -> SweepCell:
        theta_h, theta_a = rows[i], cols[j]
        try:
            if k > 2:
                seq = sequential_optimal_sequence(k, 1.0 + theta_a, 1.0 + theta_h, pool_or_d)
                return SweepCell(theta_h, theta_a, seq)
            table = lattice[i][j] if engine == "exact" else mc_utility_table(
                theta_a, theta_h, family, pool_or_d, n_samples, _cell_seed(seed, i, j))
            if not isinstance(table, ValueError):
                return SweepCell(theta_h, theta_a, classify_equilibrium(table))
        except ValueError as exc:
            table = exc
        return SweepCell(theta_h, theta_a, None, f"{type(table).__name__}: {table}")

    return [run_cell(i, j) for i in range(len(rows)) for j in range(len(cols))]
