"""Equilibrium analysis of the two-firm game and k-firm hiring sequences.

Both firms choose between running the shared algorithmic ranking (A) and
commissioning an independent human ranking (H) before hiring order is
drawn; each is first with probability one half. Payoffs therefore average
the first-mover utility of the chosen strategy and the second-mover
utility against the rival's strategy.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .core import PoolOrDistribution
from .estimators import DEFAULT_SWEEP_SAMPLES, DEFAULT_Z_THRESHOLD, mc_utility_table
from .exact import (
    SequentialState,
    UtilityTable,
    _resolve_exact_values,
    exact_sequential_utilities,
    exact_utility_table,
    exact_welfare,
)
from .models import RankingModelSpec

LABEL_AA = "AA"
LABEL_HH = "HH"
LABEL_ASYMMETRIC = "AH_asymmetric"

STRICT_TOL = 1e-12
THETA_STAR_TOL = 1e-6
BRACKET_START_FACTOR = 64.0
BRACKET_LIMIT_FACTOR = 1024.0


class BracketError(RuntimeError):
    """Raised when the dominance margin cannot be sign-bracketed."""


@dataclass(frozen=True)
class PayoffMatrix:
    """Expected payoff of each strategy against each rival strategy."""

    a_vs_a: float
    a_vs_h: float
    h_vs_a: float
    h_vs_h: float

    @staticmethod
    def from_table(table: UtilityTable) -> "PayoffMatrix":
        return PayoffMatrix(
            a_vs_a=0.5 * (table.u_first_a + table.u_aa),
            a_vs_h=0.5 * (table.u_first_a + table.u_ha),
            h_vs_a=0.5 * (table.u_first_h + table.u_ah),
            h_vs_h=0.5 * (table.u_first_h + table.u_hh),
        )

    def payoff(self, own: str, rival: str) -> float:
        key = f"{own.lower()}_vs_{rival.lower()}"
        return getattr(self, key)


def _margin_stderr(table: UtilityTable, names: tuple[str, ...]) -> float:
    # entries share trial draws, so treating them as independent overstates
    # the error; the overstatement only ever downgrades a verdict
    return math.sqrt(sum(table.stderr(name) ** 2 for name in names))


@dataclass(frozen=True)
class DominanceReport:
    """Strictness of the two strategy comparisons, one per rival strategy.

    margin_vs_a compares playing A against playing H when the rival runs
    the shared ranking; margin_vs_h is the same comparison against a human
    rival. Margins are full-table differences (the one-half payoff weights
    cancel). Monte Carlo tables gate strictness on the z-score as well.
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


def check_dominance(
    table: UtilityTable,
    tol: float = STRICT_TOL,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
) -> DominanceReport:
    margin_a = (table.u_first_a + table.u_aa) - (table.u_first_h + table.u_ah)
    margin_h = (table.u_first_a + table.u_ha) - (table.u_first_h + table.u_hh)
    se_a = _margin_stderr(table, ("u_first_a", "u_aa", "u_first_h", "u_ah"))
    se_h = _margin_stderr(table, ("u_first_a", "u_ha", "u_first_h", "u_hh"))

    def strict(margin: float, se: float) -> bool:
        if se > 0:
            return margin > z_threshold * se
        return margin > tol

    def tie(margin: float, se: float) -> bool:
        if se > 0:
            return abs(margin) <= z_threshold * se
        return abs(margin) <= tol

    return DominanceReport(
        margin_vs_a=margin_a,
        margin_vs_h=margin_h,
        stderr_vs_a=se_a,
        stderr_vs_h=se_h,
        a_dominant_vs_a=strict(margin_a, se_a),
        a_dominant_vs_h=strict(margin_h, se_h),
        tie_vs_a=tie(margin_a, se_a),
        tie_vs_h=tie(margin_h, se_h),
    )


@dataclass(frozen=True)
class EquilibriumOutcome:
    """Symmetric equilibrium structure of one utility table.

    label is AA or HH when that pure profile is the stable one, and
    AH_asymmetric in the anti-coordination case, where the two asymmetric
    pure equilibria coexist with a symmetric mixed one; p then carries the
    mixed-equilibrium probability of playing A. boundary marks margins
    inside tolerance (or, for Monte Carlo tables, inside the z threshold).
    braess is set only when A is strictly dominant yet the all-A welfare
    falls strictly short of the all-H welfare, with the same gating.
    """

    label: str
    p: float | None
    welfare_aa: float
    welfare_hh: float
    braess: bool
    boundary: bool
    detail: dict = field(default_factory=dict)


def classify_equilibrium(
    table: UtilityTable,
    tol: float = STRICT_TOL,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
) -> EquilibriumOutcome:
    pm = PayoffMatrix.from_table(table)
    dom = check_dominance(table, tol=tol, z_threshold=z_threshold)
    alpha = pm.a_vs_a - pm.h_vs_a
    beta = pm.a_vs_h - pm.h_vs_h
    aa_stable = alpha >= -tol
    hh_stable = beta <= tol
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
    gap = welfare_hh - welfare_aa
    gap_se = _margin_stderr(table, ("u_first_h", "u_hh", "u_first_a", "u_aa"))
    if gap_se > 0:
        welfare_loss = gap > z_threshold * gap_se
    else:
        welfare_loss = gap > tol
    braess = dom.a_strictly_dominant and welfare_loss

    return EquilibriumOutcome(
        label=label,
        p=p,
        welfare_aa=welfare_aa,
        welfare_hh=welfare_hh,
        braess=braess,
        boundary=boundary,
        detail={
            "payoff_margin_vs_a": alpha,
            "payoff_margin_vs_h": beta,
            "dominance": dom,
        },
    )


@dataclass(frozen=True)
class ThetaStarResult:
    """Crossing accuracy where running the shared ranking becomes dominant.

    theta_star solves f(theta_a) = g(theta_a), where f is the all-A welfare
    (also firm A's stability margin numerator against an A rival) and g is
    the deviation payoff to H against an A rival, both doubled to drop the
    one-half weights. theta_prime is the first accuracy of the form
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
    tol: float = THETA_STAR_TOL,
    max_iterations: int = 200,
) -> ThetaStarResult:
    """Locate the dominance crossing and certify a welfare-loss window.

    Bisection on the margin f - g over theta_a, starting from the bracket
    [theta_h, 64 theta_h] and doubling the upper end as needed; no sign
    change by 1024 theta_h raises BracketError. The margin is a difference
    of exact expectations, so the exact engine backs every evaluation.
    """
    if theta_h <= 0:
        raise ValueError(f"need theta_h > 0, got {theta_h}")

    def tables(theta_a: float) -> UtilityTable:
        return exact_utility_table(theta_a, theta_h, family, pool_or_d)

    def margin(theta_a: float) -> float:
        t = tables(theta_a)
        return (t.u_first_a + t.u_aa) - (t.u_first_h + t.u_ah)

    lo = theta_h
    hi = BRACKET_START_FACTOR * theta_h
    m_lo = margin(lo)
    if not m_lo < -tol:
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

    theta_star = 0.5 * (lo + hi)
    residual = margin(theta_star)
    for _ in range(max_iterations):
        if abs(residual) < tol:
            break
        if residual < 0.0:
            lo = theta_star
        else:
            hi = theta_star
        nxt = 0.5 * (lo + hi)
        if nxt == theta_star:
            raise BracketError(
                f"bisection interval collapsed with residual {residual:.3e} >= tol"
            )
        theta_star = nxt
        residual = margin(theta_star)
    else:
        raise BracketError(f"no convergence in {max_iterations} bisection steps")

    theta_prime = None
    braess_found = False
    certificate: dict = {}
    for m in range(0, 64):
        candidate = theta_star * (1.0 + 2.0 ** (-m))
        if candidate == theta_star:
            break
        t = tables(candidate)
        dom = check_dominance(t)
        gap = exact_welfare(t, "HH") - exact_welfare(t, "AA")
        if dom.a_strictly_dominant and gap > STRICT_TOL:
            theta_prime = candidate
            braess_found = True
            certificate = {
                "margin_vs_a": dom.margin_vs_a,
                "margin_vs_h": dom.margin_vs_h,
                "welfare_gap": gap,
                "exponent": m,
            }
            break

    return ThetaStarResult(
        theta_h=theta_h,
        theta_star=theta_star,
        crossing_residual=residual,
        theta_prime=theta_prime,
        braess_found=braess_found,
        detail=certificate,
    )


@dataclass(frozen=True)
class StrategySequence:
    """An ordered profile of firm strategies over A and H."""

    choices: tuple[str, ...]
    utilities: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        choices = tuple(str(c).upper() for c in self.choices)
        object.__setattr__(self, "choices", choices)
        if not choices or any(c not in ("A", "H") for c in choices):
            raise ValueError(f"choices must be nonempty over A/H, got {self.choices!r}")
        if self.utilities is not None:
            utilities = tuple(float(u) for u in self.utilities)
            object.__setattr__(self, "utilities", utilities)
            if len(utilities) != len(choices):
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
    tie_tol: float = STRICT_TOL,
) -> StrategySequence:
    """Strategy choices of k firms hiring in order, each maximizing itself.

    A firm's utility depends on predecessors only, so choosing the better
    of A and H given the hiring history is dominant; ties go to H.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    seq_probe = exact_sequential_utilities("A" * k, phi_a, phi_h, pool_or_d)
    del seq_probe  # validates phi, n, and k bounds with the shared messages
    x = _resolve_exact_values(pool_or_d, value_independent=True)
    state = SequentialState(phi_a, phi_h, x)
    choices: list[str] = []
    utilities: list[float] = []
    for _ in range(k):
        u_a = state.utility_of_next("A")
        u_h = state.utility_of_next("H")
        choice = "A" if u_a > u_h + tie_tol else "H"
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
    grid = [float(p) for p in phi_a_values]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("phi_a grid must be strictly increasing")
    points = []
    for phi_a in grid:
        points.append(ScanPoint(phi_a, sequential_optimal_sequence(k, phi_a, phi_h, pool_or_d)))
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
    return ScanReport(
        phi_h=phi_h,
        points=tuple(points),
        monotone_nondecreasing=violation is None,
        first_violation=violation,
    )


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
    tol: float = STRICT_TOL,
) -> KFirmReport:
    if k < 2:
        raise ValueError(f"need k >= 2 firms, got {k}")
    cache: dict[str, list[float]] = {}

    def utilities(seq: str) -> list[float]:
        got = cache.get(seq)
        if got is None:
            got = exact_sequential_utilities(seq, phi_a, phi_h, pool_or_d)
            cache[seq] = got
        return got

    def positional_average(own: str, rivals: tuple[str, ...]) -> float:
        total = 0.0
        for position in range(k):
            seq = "".join(rivals[:position]) + own + "".join(rivals[position:])
            total += utilities(seq)[position]
        return total / k

    all_a = utilities("A" * k)
    all_h = utilities("H" * k)
    all_a_avg = sum(all_a) / k
    all_h_avg = sum(all_h) / k

    dominant = True
    profile_margins = {}
    for rivals in product("AH", repeat=k - 1):
        margin = positional_average("A", rivals) - positional_average("H", rivals)
        profile_margins["".join(rivals)] = margin
        if not margin > tol:
            dominant = False
    margin_all_a = profile_margins["A" * (k - 1)]
    margin_all_h = profile_margins["H" * (k - 1)]
    all_a_equilibrium = margin_all_a >= -tol
    all_h_equilibrium = margin_all_h <= tol

    best_seq = None
    best_avg = -math.inf
    for bits in range(2**k):
        seq = format(bits, f"0{k}b").replace("1", "A").replace("0", "H")
        avg = sum(utilities(seq)) / k
        if avg > best_avg + tol:
            best_avg = avg
            best_seq = seq

    braess = dominant and all_h_avg > all_a_avg + tol
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
        best_average_sequence=StrategySequence(tuple(best_seq), tuple(utilities(best_seq))),
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
    threads: int = 1,
) -> list[SweepCell]:
    """Classify every cell of an accuracy lattice, row-major in theta_h.

    Two-firm cells carry an EquilibriumOutcome; with k > 2 each cell holds
    the sequential strategy profile instead (distance-based family only,
    mapping theta to dispersion 1 + theta). Domain failures (ValueError and
    its subclasses, such as UnsupportedModelError and TieError) are recorded
    on the cell rather than aborting the sweep; any other exception is a bug
    and propagates. Cell seeds derive from (seed, row, column), so results
    do not depend on thread count.
    """
    if engine not in ("exact", "mc"):
        raise ValueError(f"engine must be exact or mc, got {engine!r}")
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if k > 2 and engine != "exact":
        raise ValueError("k-firm sweeps are exact-only")
    rows = [float(t) for t in theta_h_values]
    cols = [float(t) for t in theta_a_values]

    def run_cell(args) -> SweepCell:
        i, j = args
        theta_h, theta_a = rows[i], cols[j]
        try:
            if k > 2:
                if family.kind != "mallows":
                    raise ValueError("k-firm sweeps support the distance-based family only")
                seq = sequential_optimal_sequence(k, 1.0 + theta_a, 1.0 + theta_h, pool_or_d)
                return SweepCell(theta_h, theta_a, seq)
            if engine == "exact":
                table = exact_utility_table(theta_a, theta_h, family, pool_or_d)
            else:
                table = mc_utility_table(
                    theta_a, theta_h, family, pool_or_d, n_samples, _cell_seed(seed, i, j)
                )
            return SweepCell(theta_h, theta_a, classify_equilibrium(table))
        except ValueError as exc:
            return SweepCell(theta_h, theta_a, None, f"{type(exc).__name__}: {exc}")

    tasks = [(i, j) for i in range(len(rows)) for j in range(len(cols))]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run_cell, tasks))
    return [run_cell(t) for t in tasks]
