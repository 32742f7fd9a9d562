"""The benchmark's three workloads: seeded inputs, op lists and checks.

An op is one analysis result: one utility table (one sweep_plane cell), one
condition check, one crossing search, one sequential solve or scan, or one
k-firm check. A Call is one invocation of the package that yields `ops`
results; sweep_plane lattices yield one op per cell. Every input is drawn
from the seed, and the shapes copy the pinned `reproduce` targets:
figure2 and four-percent (mc-two-firm), figure3 and theta-star
(exact-plane), figure4 and kfirm-braess (survivors).
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles as ref

WORKLOADS = ("mc-two-firm", "exact-plane", "survivors")
THETA_STAR_TOL = 1e-6  # the crossing search's own stopping tolerance
STRICT = 1e-12
# Warm-up draws one 32768-row chunk per sampled op: enough to load every
# code path, while set-up stays dominated by import and table building.
WARM_SAMPLES = 1 << 15


@dataclass
class Call:
    cls: str  # op class: kind/model/n
    ops: int
    run: Callable[[], Any]
    check: Callable[[Any, list], list]  # (result, captured tables) -> reason or None per op
    warm: Callable[[], Any] | None = None  # one-op stand-in for warm-up
    trials: int = 0  # Monte Carlo trials per op, 0 for exact ops


@dataclass
class Workload:
    name: str
    calls: list[Call]
    inputs: list[dict]

    @property
    def digest(self) -> str:
        blob = json.dumps(self.inputs, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def ops_per_class(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.calls:
            out[c.cls] = out.get(c.cls, 0) + c.ops
        return out

    def trials_per_mc_op(self) -> dict[str, int]:
        return {c.cls: c.trials for c in self.calls if c.trials}


def build(name: str, seed: int, M, tiny: bool = False) -> Workload:
    """Draw the workload's inputs from the seed; M is the monoculture package."""
    builders = {"mc-two-firm": _mc_two_firm, "exact-plane": _exact_plane, "survivors": _survivors}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    wl = Workload(name, [], [])
    builders[name](wl, _Inputs(seed, wl), M, tiny)
    return wl


class _Inputs:
    """Seeded draws, each logged so the run record can digest them."""

    def __init__(self, seed: int, wl: Workload):
        self.rng = np.random.default_rng(seed)
        self.wl = wl

    def pool(self, n: int, lo: float = 0.0, hi: float = 1.0) -> tuple[float, ...]:
        return tuple(float(v) for v in np.sort(self.rng.uniform(lo, hi, n))[::-1])

    def uniform(self, lo: float, hi: float, size: int | None = None):
        if size is None:
            return float(self.rng.uniform(lo, hi))
        return [float(v) for v in np.sort(self.rng.uniform(lo, hi, size))]

    def seed(self) -> int:
        return int(self.rng.integers(0, 2**31))

    def add(self, call: Call, **inputs) -> None:
        self.wl.calls.append(call)
        self.wl.inputs.append({"class": call.cls, **inputs})


def _spec(M, model: tuple, theta: float = 1.0):
    RMS, NS = M.models.RankingModelSpec, M.models.NoiseSpec
    if model[0] == "mallows":
        return RMS.mallows(1.0 + theta)
    if model[0] == "plackett_luce":
        return RMS.plackett_luce(theta)
    if model[0] == "atoms":
        return RMS.rum(NS.discrete(model[1]), theta)
    return RMS.rum(NS(model[0]), theta)


def _model_name(model: tuple) -> str:
    return f"atoms{len(model[1])}" if model[0] == "atoms" else model[0]


# ---------------------------------------------------------------- checks

def _table_reason(table, model, theta_a, theta_h, x, sampled: bool) -> str | None:
    """None when every entry matches the reference; else why not."""
    for name in ref.ENTRIES:
        value = getattr(table, name)
        se = getattr(table, "stderr_" + name)
        if sampled and not se > 0:
            return f"{name}: sampled estimate with stderr {se!r}"
    if x is None:  # drawn pool, no exact reference: stderr and finiteness only
        bad = [n for n in ref.ENTRIES if not math.isfinite(getattr(table, n))]
        return f"non-finite entries {bad}" if bad else None
    expected = ref.utility_table(model, theta_a, theta_h, x)
    tol = ref.QUAD_TOL if model[0] == "gaussian" else ref.EXACT_TOL
    for name in ref.ENTRIES:
        value = getattr(table, name)
        if sampled:
            ok = ref.z_within(value, getattr(table, "stderr_" + name), expected[name])
        else:
            ok = ref.within(value, expected[name], tol)
        if not ok:
            return f"{name}={value!r}, reference {expected[name]!r}"
    return None


def check_cells(cells, tables, model, x, sampled: bool) -> list:
    """One verdict per sweep cell; tables are the ones the cells classified."""
    reasons = []
    pending = list(tables)
    for cell in cells:
        if cell.error is not None:
            reasons.append(f"error cell: {cell.error}")
            continue
        if not pending:
            reasons.append("no utility table was classified for this cell")
            continue
        table = pending.pop(0)
        if cell.outcome.welfare_aa != table.u_first_a + table.u_aa:
            reasons.append("classified table does not belong to this cell")
            continue
        reasons.append(_table_reason(table, model, cell.theta_a, cell.theta_h, x, sampled))
    return reasons


def _condition_reason(report, want_positive: bool) -> str | None:
    est = report.estimate
    if not (est.stderr > 0 and math.isfinite(est.mean)):
        return f"sampled estimate {est.mean!r} with stderr {est.stderr!r}"
    if want_positive and not est.mean > ref.Z_SIGN * est.stderr:
        return f"expected a positive estimand, got z={est.mean / est.stderr:.2f}"
    return None


def _theta_star_reason(res, model, theta_h, x) -> str | None:
    tol = ref.QUAD_TOL if model[0] == "gaussian" else ref.EXACT_TOL
    m_a, _ = ref.dominance_margins(ref.utility_table(model, res.theta_star, theta_h, x))
    if not ref.within(res.crossing_residual, m_a, tol):
        return f"crossing residual {res.crossing_residual!r}, reference margin {m_a!r}"
    if not abs(m_a) <= THETA_STAR_TOL:
        return f"margin {m_a!r} at theta_star is not a crossing"
    if res.braess_found:
        t = ref.utility_table(model, res.theta_prime, theta_h, x)
        gap = (t["u_first_h"] + t["u_hh"]) - (t["u_first_a"] + t["u_aa"])
        if not (min(ref.dominance_margins(t)) > STRICT and gap > STRICT):
            return f"no dominance with welfare loss at theta_prime={res.theta_prime!r}"
    return None


def _shared_prefix_reason(seq, phi_a: float, x, k: int) -> str | None:
    """Firms before the first H share one ranking; check their utilities."""
    if len(seq.choices) != k or seq.utilities is None or len(seq.utilities) != k:
        return f"expected {k} choices with utilities, got {seq!r}"
    prefix = 0
    while prefix < k and seq.choices[prefix] == "A":
        prefix += 1
    expected = ref.shared_ranking_utilities(phi_a, x, prefix)
    for j in range(prefix):
        if not ref.within(seq.utilities[j], expected[j], ref.EXACT_TOL):
            return f"firm {j + 1} of the shared prefix: {seq.utilities[j]!r}, reference {expected[j]!r}"
    return None


def _scan_reason(scan, grid, x, k: int) -> str | None:
    if [p.phi_a for p in scan.points] != list(grid):
        return "scan points do not follow the grid"
    values = [p.sequence.binary_value for p in scan.points]
    monotone = all(b >= a for a, b in zip(values, values[1:]))
    if scan.monotone_nondecreasing != monotone:
        return f"monotone flag {scan.monotone_nondecreasing} for values {values}"
    for p in scan.points:
        reason = _shared_prefix_reason(p.sequence, p.phi_a, x, k)
        if reason:
            return f"phi_a={p.phi_a}: {reason}"
    return None


def _kfirm_reason(rep, k: int, phi_a: float, x) -> str | None:
    expected = ref.shared_ranking_utilities(phi_a, x, k)
    got = list(rep.all_a_utilities)
    if len(got) != k or not all(ref.within(g, e, ref.EXACT_TOL) for g, e in zip(got, expected)):
        return f"all-A utilities {got}, reference {expected}"
    if not ref.within(rep.all_a_average, sum(expected) / k, ref.EXACT_TOL):
        return f"all-A average {rep.all_a_average!r}"
    return None


def _monotonicity_reason(rep, grid, removed0, x, mode: str) -> str | None:
    """mode: "exact" (enumerate n!), "closed" (contiguous survivors, sampled)
    or "sampled" (no reference mean, stderr only)."""
    detail = rep.detail
    if detail["exact"] != (mode == "exact") or len(detail["means"]) != len(grid):
        return f"unexpected engine path or grid: exact={detail['exact']}"
    for theta, mean, se in zip(grid, detail["means"], detail["stderrs"]):
        if mode == "exact":
            ok = ref.within(mean, ref.first_survivor_mean(1.0 + theta, x, removed0), ref.EXACT_TOL)
        elif mode == "closed":
            ok = ref.z_within(mean, se, ref.contiguous_survivor_mean(1.0 + theta, x, removed0))
        else:
            ok = se > 0 and math.isfinite(mean)
        if not ok:
            return f"theta={theta}: mean {mean!r} stderr {se!r} fails the {mode} reference"
    return None


def _single(reason_of: Callable[[Any], str | None]) -> Callable[[Any, list], list]:
    return lambda result, tables: [reason_of(result)]


# ------------------------------------------------------------- workloads

def _lattice(M, inp, model, n, pool, rows, cols, engine, samples=0, drawn=None):
    """One sweep_plane call; drawn is a CandidateDistribution or None."""
    spec = _spec(M, model)
    pool_arg = drawn if drawn is not None else M.core.CandidatePool(pool)
    kw = {"engine": engine, "seed": inp.seed()}
    warm_kw = dict(kw)
    if engine == "mc":
        kw["n_samples"], warm_kw["n_samples"] = samples, min(samples, WARM_SAMPLES)
    label = "mc_table" if engine == "mc" else "table"
    inp.add(
        Call(
            cls=f"{label}/{_model_name(model)}/n{n}",
            ops=len(rows) * len(cols),
            run=lambda: M.solver.sweep_plane(rows, cols, spec, pool_arg, **kw),
            warm=lambda: M.solver.sweep_plane(rows[:1], cols[:1], spec, pool_arg, **warm_kw),
            check=lambda cells, tables: check_cells(cells, tables, model, pool, engine == "mc"),
            trials=samples,
        ),
        model=repr(model), pool=pool, drawn=repr(drawn), rows=rows, cols=cols, **kw,
    )


def _mc_two_firm(wl, inp, M, tiny):
    """Sampled two-firm analyses: ranking sampling dominates, exact idles."""
    samples = 4_000 if tiny else M.estimators.DEFAULT_SWEEP_SAMPLES
    side = 1 if tiny else 2
    for model, n in ((("mallows",), 5), (("plackett_luce",), 7)):
        _lattice(M, inp, model, n, inp.pool(n), inp.uniform(0.5, 1.5, side),
                 inp.uniform(0.5, 2.0, side), "mc", samples)
    drawn = M.core.CandidateDistribution.uniform_centered_zero(inp.uniform(1.0, 2.0), 15)
    _lattice(M, inp, ("gaussian",), 15, None, inp.uniform(0.5, 1.5, side),
             inp.uniform(0.5, 2.0, side), "mc", samples, drawn)

    check_samples = 30_000 if tiny else 100_000
    est = M.estimators
    for noise in ("gaussian", "laplacian"):
        spec = _spec(M, (noise,))
        for n in (3, 15):
            dist = M.core.CandidateDistribution.uniform_centered_zero(inp.uniform(1.0, 2.0), n)
            theta, seed = inp.uniform(0.5, 1.5), inp.seed()

            def first_position(samples, spec=spec, theta=theta, dist=dist, seed=seed):
                return est.check_pref_first_position(spec, theta, dist, n_samples=samples, seed=seed)

            inp.add(
                Call(
                    cls=f"first_position/{noise}/n{n}", ops=1, trials=check_samples,
                    run=functools.partial(first_position, check_samples),
                    warm=functools.partial(first_position, min(check_samples, WARM_SAMPLES)),
                    # the paper predicts a positive estimand under gaussian noise
                    check=_single(lambda r, g=noise == "gaussian": _condition_reason(r, g)),
                ),
                dist=repr(dist), theta=theta, seed=seed,
            )
            weak, ratio, seed = inp.uniform(0.5, 1.5), inp.uniform(1.3, 2.0), inp.seed()

            def weaker(samples, spec=spec, weak=weak, ratio=ratio, dist=dist, seed=seed):
                return est.check_pref_weaker_competition(
                    spec, weak * ratio, weak, dist, n_samples=samples, seed=seed)

            inp.add(
                Call(
                    cls=f"weaker_competition/{noise}/n{n}", ops=1, trials=check_samples,
                    run=functools.partial(weaker, check_samples),
                    warm=functools.partial(weaker, min(check_samples, WARM_SAMPLES)),
                    check=_single(lambda r: _condition_reason(r, False)),
                ),
                dist=repr(dist), theta2=weak, ratio=ratio, seed=seed,
            )


def _figure3_lattice(inp, rows: int, cols: int) -> tuple[list[float], list[float]]:
    """Rows near figure3's theta_h values; columns in fine theta_a steps so
    that several fall inside the thin band theta_h < theta_a < ~1.14 theta_h."""
    theta_h = sorted(0.4 * (i + 1) + inp.uniform(-0.05, 0.05) for i in range(rows))
    lo, step = inp.uniform(0.4, 0.45), 2.8 / cols
    return theta_h, [lo + step * j for j in range(cols)]


def _exact_plane(wl, inp, M, tiny):
    """Exact two-firm analyses: many small enumeration calls, some quadrature."""
    rows, cols = (1, 3) if tiny else (5, 60)
    for n in range(3, 8):
        pool = inp.pool(n)
        _lattice(M, inp, ("mallows",), n, pool, *_figure3_lattice(inp, rows, cols), "exact")
        _theta_star(M, inp, ("mallows",), n, pool, inp.uniform(0.5, 1.5))
    _lattice(M, inp, ("plackett_luce",), 7, inp.pool(7), *_figure3_lattice(inp, rows, cols), "exact")
    atom_cols = 3 if tiny else 40
    for n in range(4, 7):
        d3, d4 = inp.uniform(0.05, 0.2), inp.uniform(0.05, 0.2)
        three = ("atoms", ((-1.0, d3 / 2), (0.0, 1.0 - d3), (1.0, d3 / 2)))
        four = ("atoms", ((-10.0, d4 / 2), (-1.0, (1 - d4) / 2), (1.0, (1 - d4) / 2), (10.0, d4 / 2)))
        for model in (three, four):
            _lattice(M, inp, model, n, inp.pool(n, 0.0, 3.0),
                     *_figure3_lattice(inp, rows, atom_cols), "exact")
    # quadrature: theta-star's pool (1, 0.5, 0) with a jittered middle value
    pool = (1.0, 0.5 + inp.uniform(-0.05, 0.05), 0.0)
    theta_h = inp.uniform(0.9, 1.1)
    gcols = [theta_h * (1.0 + 0.05 * j) + inp.uniform(0.0, 0.01) for j in range(1 if tiny else 4)]
    _lattice(M, inp, ("gaussian",), 3, pool, [theta_h], gcols, "exact")
    _theta_star(M, inp, ("gaussian",), 3, pool, theta_h)


def _theta_star(M, inp, model, n, pool, theta_h):
    spec, pool_arg = _spec(M, model), M.core.CandidatePool(pool)
    inp.add(
        Call(
            cls=f"theta_star/{_model_name(model)}/n{n}", ops=1,
            run=lambda: M.solver.find_theta_star(theta_h, spec, pool_arg),
            check=_single(lambda r: _theta_star_reason(r, model, theta_h, pool)),
        ),
        model=repr(model), pool=pool, theta_h=theta_h,
    )


def _survivors(wl, inp, M, tiny):
    """Hiring after removals: the sequential recursion dominates; the
    sampled removed-set checks read deep into full rankings."""
    k, sol = 5, M.solver
    points = 2 if tiny else 16
    slices = (1.2, 2.0, 5.0, 9.0, 14.0)[: 1 if tiny else 5]
    pools = [inp.pool(6) for _ in range(1 if tiny else 3)]
    for pool in pools:
        pool_arg = M.core.CandidatePool(pool)
        for phi_h in slices:
            # figure4-style vertical slice: phi_a from just above phi_h upward
            lo, width = phi_h * (1.0 + inp.uniform(0.0005, 0.002)), phi_h * inp.uniform(0.15, 0.25)
            for i in range(points):
                phi_a = lo + width * i / points
                inp.add(
                    Call(
                        cls="sequential/mallows/n6", ops=1,
                        run=lambda phi_a=phi_a, phi_h=phi_h, p=pool_arg:
                            sol.sequential_optimal_sequence(k, phi_a, phi_h, p),
                        check=_single(lambda r, phi_a=phi_a, x=pool: _shared_prefix_reason(r, phi_a, x, k)),
                    ),
                    pool=pool, phi_a=phi_a, phi_h=phi_h,
                )
    for pool, phi_h in zip(pools, (1.2, 2.0, 5.0)):
        start = phi_h + inp.uniform(0.005, 0.015)
        grid = [round(start + 0.01 * i, 10) for i in range(3 if tiny else 20)]
        inp.add(
            Call(
                cls="scan/mallows/n6", ops=1,
                run=lambda phi_h=phi_h, grid=grid, p=M.core.CandidatePool(pool):
                    sol.binary_counter_scan(phi_h, grid, k, p),
                check=_single(lambda r, grid=grid, x=pool: _scan_reason(r, grid, x, k)),
            ),
            pool=pool, phi_h=phi_h, grid=grid,
        )
        for firms in (3, 4, 5):
            phi_hk = inp.uniform(1.5, 2.5)
            phi_a = phi_hk * inp.uniform(1.02, 1.2)
            inp.add(
                Call(
                    cls=f"kfirm/mallows/k{firms}", ops=1,
                    run=lambda firms=firms, phi_a=phi_a, phi_h=phi_hk, p=M.core.CandidatePool(pool):
                        sol.kfirm_braess_check(firms, phi_a, phi_h, p),
                    check=_single(lambda r, firms=firms, phi_a=phi_a, x=pool: _kfirm_reason(r, firms, phi_a, x)),
                ),
                pool=pool, k=firms, phi_a=phi_a, phi_h=phi_hk,
            )

    samples = 3_000 if tiny else 50_000
    mono = []
    for _ in range(1 if tiny else 4):  # exact selection-pmf path, any removed set
        removed0 = sorted(int(c) for c in inp.rng.choice(8, int(inp.rng.integers(1, 4)), replace=False))
        mono.append((("mallows",), 8, removed0, "exact"))
    for _ in range(1 if tiny else 2):  # full-ranking Monte Carlo fallback
        top, bottom = int(inp.rng.integers(0, 3)), int(inp.rng.integers(1, 3))
        mono.append((("mallows",), 10, list(range(top)) + list(range(10 - bottom, 10)), "closed"))
        removed0 = sorted(int(c) for c in inp.rng.choice(10, 2, replace=False))
        mono.append((("gaussian",), 10, removed0, "sampled"))
    for model, n, removed0, mode in mono:
        pool, grid, seed = inp.pool(n), inp.uniform(0.3, 2.0, 3 if mode == "exact" else 2), inp.seed()
        spec, removed = _spec(M, model), frozenset(c + 1 for c in removed0)
        inp.add(
            Call(
                cls=f"monotonicity/{model[0]}/n{n}", ops=1, trials=0 if mode == "exact" else samples,
                run=lambda spec=spec, grid=grid, removed=removed, p=M.core.CandidatePool(pool), seed=seed:
                    M.estimators.check_monotonicity(spec, grid, removed, p, n_samples=samples, seed=seed),
                check=_single(lambda r, grid=grid, r0=removed0, x=pool, mode=mode:
                              _monotonicity_reason(r, grid, r0, x, mode)),
            ),
            model=repr(model), pool=pool, removed=removed0, grid=grid, seed=seed,
        )
