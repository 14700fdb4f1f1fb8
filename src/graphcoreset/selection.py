"""Cost-aware greedy selection of weighted vertex coresets.

The optimizer keeps a unit-norm iterate y = sum_i w_i q_i built from the
normalized walk-power columns q_i and pushes it toward the uniform target
t = 1/sqrt(n) along spherical geodesics. Each round scores every vertex by
how well its column's geodesic direction lines up with the direction toward
the target, forms the slack set of vertices within a kappa fraction of the
best score, and takes the cheapest member. kappa = 1 collapses the slack set
to the argmax, so costs cannot influence that path at all.

On exit the unit-sphere coefficients are rescaled: beta carries the uniform
vector's 1/sqrt(n) mass and each selected vertex gets the estimator weight
beta * w_i / column_norm_i, so sums of the raw walk-power columns weighted by
those estimates approximate the all-ones vector divided by n. Coreset is the
one weighted-vertex-set type of the package; the baselines return it too.
"""

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._util import dump_json, has_type
from .graphs import CostVector
from .spectral import NormalizedColumns

_TINY = 1e-14
# a residual J at or below this ends the run as converged
_RESIDUAL_TOL = 1e-12
# the type of each trajectory field, as has_type reads it
_RECORD_FIELDS = {"k": int, "vertex": int, "alignment": float, "delta": float, "J": float,
                  "slack_set_size": int}


@dataclass
class SelectionConfig:
    """The budget and slack of one selection run.

    budget caps the number of distinct selected vertices. Re-selecting an
    already-chosen vertex refines its weight without consuming budget, so a
    run interleaves support growth with free reweighting rounds and stops
    when the greedy step demands a vertex it has no budget left to place.
    Ties break to the lowest vertex index. The walk power is a property of
    the columns (NormalizedColumns.ell), not of the run.
    """

    budget: int
    kappa: float = 1.0

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if not (0.0 < self.kappa <= 1.0):
            raise ValueError("kappa must lie in (0, 1]")


@dataclass
class IterationRecord:
    """One greedy round: chosen vertex, its score, step, residual after."""

    k: int
    vertex: int
    alignment: float
    delta: float
    residual: float
    slack_set_size: int

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "vertex": self.vertex,
            "alignment": self.alignment,
            "delta": self.delta,
            "J": self.residual,
            "slack_set_size": self.slack_set_size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "IterationRecord":
        """Inverse of to_dict; raises ValueError on a missing or mistyped field."""
        if not isinstance(data, dict) or not all(
                has_type(data.get(key), kind) for key, kind in _RECORD_FIELDS.items()):
            raise ValueError("coreset trajectory entries need integer k, vertex and "
                             "slack_set_size and numeric alignment, delta and J")
        return cls(
            data["k"], data["vertex"], float(data["alignment"]),
            float(data["delta"]), float(data["J"]), data["slack_set_size"],
        )


@dataclass
class Coreset:
    """Selected vertices with estimator weights and the selection trace.

    indices are in first-selection order; weights align with indices and are
    the final estimator weights (beta already applied). coefficients is the
    full-length unit-sphere weight vector; it is not serialized. A baseline
    scheme leaves beta at 1 and the trajectory empty.
    """

    indices: list
    weights: np.ndarray
    beta: float = 1.0
    total_cost: float = 0.0
    trajectory: list = field(default_factory=list)
    coefficients: np.ndarray | None = None
    status: str = "ok"
    method: str = "scgiga"

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "indices": [int(i) for i in self.indices],
            "weights": [float(w) for w in self.weights],
            "beta": float(self.beta),
            "total_cost": float(self.total_cost),
            "trajectory": [r.to_dict() for r in self.trajectory],
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Coreset":
        """Inverse of to_dict; only indices and weights are required. Raises
        ValueError on any malformed field."""
        if not isinstance(data, dict):
            raise ValueError("coreset must be a JSON object")
        indices, weights = data.get("indices"), data.get("weights")
        if not isinstance(indices, list) or not all(has_type(i, int) for i in indices):
            raise ValueError("coreset needs a list of integer indices")
        if not isinstance(weights, list) or not all(has_type(w, float) for w in weights):
            raise ValueError("coreset needs a list of numeric weights")
        if len(indices) != len(weights):
            raise ValueError("coreset indices and weights differ in length")
        for key in ("beta", "total_cost"):
            if not has_type(data.get(key, 0.0), float):
                raise ValueError(f"coreset {key} must be a number")
        for key in ("status", "method"):
            if not isinstance(data.get(key, ""), str):
                raise ValueError(f"coreset {key} must be a string")
        trajectory = data.get("trajectory", [])
        if not isinstance(trajectory, list):
            raise ValueError("coreset trajectory must be a list")
        try:
            return cls(
                indices=list(indices),
                weights=np.array(weights, dtype=np.float64),
                beta=float(data.get("beta", 1.0)),
                total_cost=float(data.get("total_cost", 0.0)),
                trajectory=[IterationRecord.from_dict(r) for r in trajectory],
                status=data.get("status", "ok"),
                method=data.get("method", "scgiga"),
            )
        except OverflowError:
            raise ValueError("coreset holds a number too large for a float") from None

    def save_json(self, path: str) -> None:
        dump_json(self.to_dict(), path)

    @classmethod
    def load_json(cls, path: str) -> "Coreset":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def beta_star(p_w_norm: float, alignment: float, n: int) -> float:
    """Optimal non-negative scale onto the span of the iterate.

    Minimizes ||beta * P(w) - uniform|| over beta >= 0 for an iterate with
    norm p_w_norm and cosine `alignment` against the unit uniform direction.
    """
    if p_w_norm <= 0:
        raise ValueError("iterate norm must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    return (1.0 / math.sqrt(n)) / p_w_norm * max(0.0, alignment)


def residual(columns: NormalizedColumns, coefficients: np.ndarray) -> float:
    """Residual J = 1 - <P(w), target>^2 for a unit-norm combination."""
    combined = columns.combine(np.asarray(coefficients, dtype=np.float64))
    norm = float(np.linalg.norm(combined))
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"combination is not unit norm (got {norm})")
    alignment = float(combined @ columns.target)
    return max(0.0, 1.0 - alignment * alignment)


def cost_penalty_bound(costs: CostVector, k: int, kappa: float, min_column_norm: float, n: int) -> float:
    """Largest cost-penalty weight that keeps a kappa-optimal alignment.

    Equals (1 - kappa) / (C_max^k * min_column_norm * sqrt(n)) where C_max^k
    is the sum of the k largest costs. All-zero costs make the bound vacuous;
    returns +inf and warns in that case.
    """
    if not (0.0 < kappa <= 1.0):
        raise ValueError("kappa must lie in (0, 1]")
    if not (1 <= k <= costs.n):
        raise ValueError("k must be in 1..n")
    if min_column_norm <= 0:
        raise ValueError("min_column_norm must be positive")
    top = np.sort(costs.costs)[-k:]
    c_max = float(top.sum())
    if c_max == 0.0:
        warnings.warn("all costs are zero; cost penalty bound is unconstrained")
        return math.inf
    return (1.0 - kappa) / (c_max * min_column_norm * math.sqrt(n))


def select_coreset(
    columns: NormalizedColumns,
    costs: CostVector,
    config: SelectionConfig,
    observer=None,
) -> Coreset:
    """Run the greedy geodesic selection loop.

    Each round takes the best single geodesic step, which may re-select an
    already-chosen vertex; only new vertices consume budget. The run ends
    with status "ok" when the step demands a new vertex beyond the budget,
    "converged" when the residual reaches _RESIDUAL_TOL or stops moving at
    float resolution, and "stalled" when no vertex offers a positive
    direction. A hard iteration cap (unreachable in practice) guarantees
    termination with status "capped". observer, when given, is called after
    each round with that round's Coreset: the weights and cost of the
    support so far, coefficients and trajectory copied, status "converged"
    when the run stops on that round and "ok" otherwise.
    """
    n = columns.n
    if n == 0:
        raise ValueError("empty column set")
    cost = costs.costs
    if len(cost) != n:
        raise ValueError("cost vector length must match vertex count")

    target = columns.target
    base = columns.alignments(target)  # <q_v, t>, fixed all run
    coeffs = np.zeros(n)
    iterate = np.zeros(n)
    align = 0.0
    selected: list[int] = []
    seen = np.zeros(n, dtype=bool)
    trajectory: list[IterationRecord] = []
    status = "capped"
    res_after = 1.0

    for k in range(64 * config.budget + 64):
        if k == 0:
            proj = None
            scores = base.copy()
        else:
            proj = np.clip(columns.alignments(iterate), -1.0, 1.0)
            res = max(1.0 - align * align, 0.0)
            denom = math.sqrt(res) * np.sqrt(np.maximum(1.0 - proj * proj, 0.0))
            usable = denom > _TINY
            scores = np.full(n, -np.inf)
            scores[usable] = (base[usable] - align * proj[usable]) / denom[usable]

        v_best = int(np.argmax(scores))
        s_best = float(scores[v_best])
        if not np.isfinite(s_best) or s_best <= 0.0:
            status = "stalled"
            break
        slack = np.flatnonzero(scores >= config.kappa * s_best)
        if config.kappa >= 1.0:
            # the argmax is forced; costs cannot reroute this path
            v_k = v_best
        else:
            v_k = int(slack[np.argmin(cost[slack])])
        if not seen[v_k] and len(selected) >= config.budget:
            status = "ok"
            break
        score_k = float(scores[v_k])
        column = columns.column(v_k)

        if k == 0:
            delta = 1.0
            coeffs[v_k] = 1.0
            iterate = column
        else:
            b = float(base[v_k])
            c = float(proj[v_k])
            gain = b - align * c
            anchor = align - b * c
            span = gain + anchor
            if abs(span) < _TINY:
                status = "converged"
                break
            delta = min(max(gain / span, 0.0), 1.0)
            blended = (1.0 - delta) * iterate + delta * column
            norm = float(np.linalg.norm(blended))
            if norm < _TINY:
                status = "converged"
                break
            iterate = blended / norm
            coeffs *= 1.0 - delta
            coeffs[v_k] += delta
            coeffs /= norm

        align = float(np.clip(iterate @ target, -1.0, 1.0))
        if not seen[v_k]:
            seen[v_k] = True
            selected.append(v_k)
        res_before = res_after
        res_after = max(1.0 - align * align, 0.0)
        trajectory.append(IterationRecord(k, v_k, score_k, delta, res_after, len(slack)))
        # a residual within _RESIDUAL_TOL, or a best step that no longer moves it
        # at float resolution (later steps are no better), is convergence
        done = res_after <= _RESIDUAL_TOL or res_before - res_after <= 1e-12 * res_before
        if observer is not None:
            observer(_finish(columns, cost, selected, coeffs.copy(), align, trajectory,
                             "converged" if done else "ok"))
        if done:
            status = "converged"
            break

    return _finish(columns, cost, selected, coeffs, align, trajectory, status)


def _finish(columns: NormalizedColumns, cost: np.ndarray, selected: list, coeffs: np.ndarray,
            align: float, trajectory: list, status: str) -> Coreset:
    """Coreset of a greedy state: beta, estimator weights and placement cost."""
    if selected:
        beta = beta_star(1.0, align, columns.n)
        idx = np.array(selected, dtype=np.int64)
        weights = beta * coeffs[idx] / columns.column_norms[idx]
        total_cost = float(cost[idx].sum())
    else:
        beta = 0.0
        weights = np.empty(0)
        total_cost = 0.0
    return Coreset(
        indices=list(selected), weights=weights, beta=beta, total_cost=total_cost,
        trajectory=list(trajectory), coefficients=coeffs, status=status,
    )


def select_coreset_grid(columns: NormalizedColumns, costs: CostVector, kappa: float,
                        budgets) -> dict:
    """Coresets for several budgets from one run at slack kappa.

    The greedy choices do not depend on the budget until the budget blocks a
    placement, so one run at the largest budget reproduces every smaller
    budget's output exactly: a budget-b run ends in the state reached just
    before the (b+1)-th distinct vertex would be placed. Budgets past an
    early stop repeat the final state, which matches what independent runs
    would return.
    """
    budgets = sorted(set(int(b) for b in budgets))
    if budgets[0] < 1:
        raise ValueError("budgets must be positive")
    wanted = set(budgets)
    snapshots: dict[int, Coreset] = {}
    last = None  # the most recent round's snapshot

    def observe(snapshot: Coreset) -> None:
        nonlocal last
        if last is not None and len(snapshot.indices) > len(last.indices):
            # this round placed a new vertex; a run whose budget equals the
            # previous support would have stopped right before it
            if len(last.indices) in wanted:
                snapshots[len(last.indices)] = last
        last = snapshot

    final = select_coreset(columns, costs, SelectionConfig(budgets[-1], kappa), observer=observe)
    # a budget the support never outgrew ends where the full run ended
    # (budget edge, convergence, or stall), as a fresh run at it would
    return {budget: snapshots.get(budget, final) for budget in budgets}
