"""Cost-aware greedy selection of weighted vertex coresets.

The optimizer moves a unit-norm iterate y = sum_i w_i q_i built from the
normalized walk-power columns q_i and pushes it toward the uniform target
t = 1/sqrt(n) along spherical geodesics. Each round scores every vertex by
how well its column's geodesic direction lines up with the direction toward
the target, forms the slack set of vertices within a kappa fraction of the
best score, and takes the cheapest member. kappa = 1 collapses the slack set
to the argmax, so costs cannot influence that path at all.

The iterate is never formed: a round reads only the coefficients w, y's
alignment with the target, and every column's alignment with y. A geodesic
step blends y with one column, so each of these follows the same blend, and
the alignments with the columns advance by one Gram column per round.

On exit the unit-sphere coefficients are rescaled: beta carries the uniform
vector's 1/sqrt(n) mass and each selected vertex gets the estimator weight
beta * w_i / column_norm_i, so sums of the raw walk-power columns weighted by
those estimates approximate the all-ones vector divided by n. Coreset is the
one weighted-vertex-set type of the package; the baselines return it too.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import check_fields, dump_json, read_json
from .graphs import CostVector
from .spectral import NormalizedColumns

_TINY = 1e-14
# a residual J at or below this ends the run as converged
_RESIDUAL_TOL = 1e-12
# the type of each trajectory field, as has_type reads it
_RECORD_FIELDS = {"k": int, "vertex": int, "alignment": float, "delta": float, "J": float,
                  "slack_set_size": int}
# the type of each coreset field; a file needs only indices and weights
_CORESET_FIELDS = {"indices": list[int], "weights": list[float], "beta": float,
                   "total_cost": float, "trajectory": list, "status": str, "method": str}
_CORESET_OPTIONAL = ("beta", "total_cost", "trajectory", "status", "method")


@dataclass
class SelectionConfig:
    """The budget and slack of one selection run.

    budget caps the number of distinct selected vertices. Re-selecting an
    already-chosen vertex refines its weight without consuming budget, so a
    run interleaves support growth with free reweighting rounds and stops
    when the greedy step demands a vertex it has no budget left to place.
    Under kappa = 1 the pick is the argmax of the scores, and exactly equal
    floats go to the lowest vertex index. Under kappa < 1 the pick is the
    cheapest member of the slack set, and the lowest index among equal
    costs. Scores that are equal in exact arithmetic can differ by rounding,
    so such ties are not guaranteed to break by index: sorting the indices of
    P^32's sparse squares flips picks on 300-vertex trees at seeds 0 and 4.
    The walk power is a property of the columns (NormalizedColumns.ell), not
    of the run.
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
        check_fields(data, _RECORD_FIELDS, "coreset trajectory entry")
        return cls(
            data["k"], data["vertex"], float(data["alignment"]),
            float(data["delta"]), float(data["J"]), data["slack_set_size"],
        )


@dataclass
class Coreset:
    """Selected vertices with estimator weights and the selection trace.

    indices are in first-selection order; weights align with indices and are
    the final estimator weights (beta already applied). A baseline scheme
    leaves beta at 1 and the trajectory empty.
    """

    indices: list
    weights: np.ndarray
    beta: float = 1.0
    total_cost: float = 0.0
    trajectory: list = field(default_factory=list)
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
        check_fields(data, _CORESET_FIELDS, "coreset", optional=_CORESET_OPTIONAL)
        indices, weights = data["indices"], data["weights"]
        if len(indices) != len(weights):
            raise ValueError("coreset indices and weights differ in length")
        if len(set(indices)) != len(indices):
            raise ValueError("coreset indices must be distinct")
        try:
            indices = np.array(indices, dtype=np.int64).tolist()
        except OverflowError:
            raise ValueError("coreset indices must fit in int64") from None
        coreset = cls(
            indices=indices,
            weights=np.array(weights, dtype=np.float64),
            beta=float(data.get("beta", 1.0)),
            total_cost=float(data.get("total_cost", 0.0)),
            trajectory=[IterationRecord.from_dict(r) for r in data.get("trajectory", [])],
            status=data.get("status", "ok"),
            method=data.get("method", "scgiga"),
        )
        if not (np.isfinite(coreset.weights).all() and math.isfinite(coreset.beta)
                and math.isfinite(coreset.total_cost)):
            raise ValueError("coreset weights, beta and total_cost must be finite")
        return coreset

    def save_json(self, path: str) -> None:
        dump_json(self.to_dict(), path)

    @classmethod
    def load_json(cls, path: str) -> "Coreset":
        return cls.from_dict(read_json(path))


def select_coreset(columns: NormalizedColumns, costs: CostVector,
                   config: SelectionConfig) -> Coreset:
    """One greedy run at config's budget and slack (see select_coreset_grid)."""
    return select_coreset_grid(columns, costs, config.kappa, [config.budget])[config.budget]


def select_coreset_grid(columns: NormalizedColumns, costs: CostVector, kappa: float,
                        budgets) -> dict:
    """Run the greedy geodesic selection loop once; a coreset per budget.

    Each round scores every vertex with one geodesic formula, which from the
    zero start iterate reduces to plain alignment with the target, and takes
    the best single geodesic step, which may re-select an already-chosen
    vertex; only new vertices consume budget. A budget's run ends with status
    "ok" when the step demands a new vertex beyond that budget, "converged"
    when the residual reaches _RESIDUAL_TOL or stops moving at float
    resolution, and "stalled" when no vertex offers a positive direction. A
    hard cap of 64 * min(budget, n) + 64 rounds guarantees termination with
    status "capped"; every budget from n up runs alike.

    The greedy choices do not depend on the budget until the budget blocks a
    placement, so one run at the largest budget serves every budget exactly:
    a budget-b coreset is the state just before the (b+1)-th distinct vertex
    would be placed or at b's own round cap, whichever comes first; a budget
    that neither reached gets the final state. Steps are geodesic with no
    correction, so the trajectory's (vertex, delta) pairs are a complete
    record of the run.

    A round runs in coefficient space and never forms the iterate y. With c
    the carried <y, q_v> of the pick v, the step's norm is
    sqrt((1 - delta)^2 + 2 delta (1 - delta) c + delta^2), and <y, t> and every
    <q_i, y> advance as ((1 - delta) * old + delta * new) / norm, where new is
    <q_v, t> or the Gram column gram(v). Every round advances the alignments
    by one Gram column, on every storage form; round 0 is the step with
    delta = 1 and norm = 1 from the zero iterate, and the run's one matvec is
    the alignments with the target. The carried alignments follow a fresh
    matvec with y to rounding, so a pick can differ from such a loop's only
    where scores tie within rounding.
    """
    budgets = sorted(set(int(b) for b in budgets))
    if not budgets or budgets[0] < 1:
        raise ValueError("budgets must be a non-empty list of positive integers")
    config = SelectionConfig(budgets[-1], kappa)
    n = columns.n
    if n == 0:
        raise ValueError("empty column set")
    cost = costs.costs
    if len(cost) != n:
        raise ValueError("cost vector length must match vertex count")

    base = columns.alignments(columns.target)  # <q_v, t>, fixed all run
    coeffs = np.zeros(n)
    inner = np.zeros(n)  # <q_v, y>, carried from round to round
    align = 0.0  # <y, t>
    support = np.empty(n, dtype=np.int64)  # support[:placed]: distinct picks, in order
    placed = 0
    seen = np.zeros(n, dtype=bool)
    trajectory: list[IterationRecord] = []
    grid: dict[int, Coreset] = {}
    status = "capped"
    res_after = 1.0
    # budgets[pending] is the next budget to end: round caps and placements both
    # grow with the budget, so the budgets end in ascending order
    pending = 0

    for k in range(64 * min(config.budget, n) + 64):
        while k == 64 * min(budgets[pending], n) + 64:
            # a run at this budget ends here, on its round cap
            grid[budgets[pending]] = _finish(columns, cost, support[:placed], coeffs, align,
                                             trajectory, "capped")
            pending += 1
        # res_after is the current residual; from the zero iterate of round 0,
        # proj is 0 and denom 1, so the scores are base itself
        proj = np.clip(inner, -1.0, 1.0)
        denom = math.sqrt(res_after) * np.sqrt(np.maximum(1.0 - proj * proj, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.where(denom <= _TINY, -np.inf, (base - proj * align) / denom)

        v_best = int(np.argmax(scores))
        s_best = float(scores[v_best])
        if not np.isfinite(s_best) or s_best <= 0.0:
            status = "stalled"
            break
        slack = np.flatnonzero(scores >= config.kappa * s_best)
        # under kappa = 1 the argmax is forced; costs cannot reroute this path
        v_k = v_best if config.kappa >= 1.0 else int(slack[np.argmin(cost[slack])])
        if not seen[v_k] and placed == budgets[pending]:
            # a run at this budget stops here, before placing a new vertex
            grid[placed] = _finish(columns, cost, support[:placed], coeffs, align, trajectory, "ok")
            pending += 1
            if pending == len(budgets):
                return grid

        # the step y <- ((1 - delta) y + delta q_v) / norm, in scalars; round 0
        # (align and c both 0) gives delta = 1 and norm = 1 exactly
        b = float(base[v_k])
        c = float(proj[v_k])
        gain = b - align * c
        anchor = align - b * c
        span = gain + anchor
        if abs(span) < _TINY:
            status = "converged"
            break
        delta = min(max(gain / span, 0.0), 1.0)
        keep = 1.0 - delta
        norm = math.sqrt(keep * keep + 2.0 * delta * keep * c + delta * delta)
        if norm < _TINY:
            status = "converged"
            break
        align = min(max((keep * align + delta * b) / norm, -1.0), 1.0)
        if not seen[v_k]:
            seen[v_k] = True
            support[placed] = v_k
            placed += 1
        coeffs *= keep
        coeffs[v_k] += delta
        coeffs /= norm
        res_before = res_after
        res_after = max(1.0 - align * align, 0.0)
        trajectory.append(IterationRecord(k, v_k, float(scores[v_k]), delta, res_after, len(slack)))
        # a residual within _RESIDUAL_TOL, or a best step that no longer moves it
        # at float resolution (later steps are no better), is convergence
        if res_after <= _RESIDUAL_TOL or res_before - res_after <= 1e-12 * res_before:
            status = "converged"
            break
        inner = (keep * inner + delta * columns.gram(v_k)) / norm

    final = _finish(columns, cost, support[:placed], coeffs, align, trajectory, status)
    return {budget: grid.get(budget, final) for budget in budgets}


def _finish(columns: NormalizedColumns, cost: np.ndarray, selected: np.ndarray,
            coeffs: np.ndarray, align: float, trajectory: list, status: str) -> Coreset:
    """Coreset of a greedy state: beta, estimator weights and placement cost.

    selected holds the distinct selected vertices in first-selection order.

    beta = max(0, align) / sqrt(n) is the non-negative scale that brings the
    unit iterate closest to the uniform vector 1/n.
    """
    if len(selected):
        beta = (1.0 / math.sqrt(columns.n)) * max(0.0, align)
        weights = beta * coeffs[selected] / columns.column_norms[selected]
        total_cost = float(cost[selected].sum())
    else:
        beta = 0.0
        weights = np.empty(0)
        total_cost = 0.0
    return Coreset(indices=selected.tolist(), weights=weights, beta=beta, total_cost=total_cost,
                   trajectory=list(trajectory), status=status)
