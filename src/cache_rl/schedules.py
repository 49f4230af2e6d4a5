"""Exploration, step-size, and cost-weight schedules.

Slot indices passed to epsilon schedules are 1-based (the first decision is
slot 1); cost schedules are keyed on 0-based slot indices with left-closed
piecewise-constant segments.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from .caching_core import CostParams
from .popularity import as_int, as_number


class _EpsilonRule:
    """``epsilon_at`` for a schedule whose rule is its ``epsilon_array``."""

    def epsilon_at(self, t: int) -> float:
        return float(self.epsilon_array(np.array([t]))[0])


@dataclass(frozen=True)
class ConstantEpsilon(_EpsilonRule):
    value: float = 0.05

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", as_number(self.value, "value"))
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")

    def epsilon_array(self, ts: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(ts).shape, self.value, dtype=np.float64)


@dataclass(frozen=True)
class InverseTimeEpsilon(_EpsilonRule):
    """GLIE schedule: epsilon_t = min(1, 1/t), ``ExploreThenInverseDecay(0)``'s rule."""

    def epsilon_array(self, ts: np.ndarray) -> np.ndarray:
        return ExploreThenInverseDecay(0).epsilon_array(ts)


def _check_t_explore(schedule) -> None:
    object.__setattr__(schedule, "t_explore", as_int(schedule.t_explore, "t_explore", 0))


@dataclass(frozen=True)
class ExploreThenExploit(_EpsilonRule):
    """Pure exploration for the first ``t_explore`` slots, then pure greed."""

    t_explore: int

    def __post_init__(self) -> None:
        _check_t_explore(self)

    def epsilon_array(self, ts: np.ndarray) -> np.ndarray:
        return (np.asarray(ts) <= self.t_explore).astype(np.float64)


@dataclass(frozen=True)
class ExploreThenInverseDecay(_EpsilonRule):
    """Pure exploration for ``t_explore`` slots, then 1/(t - t_explore)."""

    t_explore: int

    def __post_init__(self) -> None:
        _check_t_explore(self)

    def epsilon_array(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=np.float64)
        out = np.ones(ts.shape, dtype=np.float64)
        late = ts > self.t_explore
        out[late] = np.minimum(1.0, 1.0 / (ts[late] - self.t_explore))
        return out


EpsilonSchedule = (
    ConstantEpsilon | InverseTimeEpsilon | ExploreThenExploit | ExploreThenInverseDecay
)


def as_epsilon_schedule(value) -> EpsilonSchedule:
    """An epsilon schedule as is; anything else must be a number, the constant epsilon."""
    if isinstance(value, EpsilonSchedule):
        return value
    return ConstantEpsilon(as_number(value, "epsilon"))


@dataclass(frozen=True)
class VisitCountBeta:
    """Per-pair Robbins-Monro step size beta = 1/(1 + visits(s, a))."""


def validate_beta(beta):
    """``beta`` checked: a :class:`VisitCountBeta`, or a number in (0, 1] as a float."""
    if isinstance(beta, VisitCountBeta):
        return beta
    beta = as_number(beta, "beta")
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    return beta


# JSON "kind" of every schedule class; a schedule's fields are the other keys.
_SCHEDULE_KINDS = {
    "constant": ConstantEpsilon,
    "inverse_time": InverseTimeEpsilon,
    "explore_then_exploit": ExploreThenExploit,
    "explore_then_inverse": ExploreThenInverseDecay,
    "visit_count": VisitCountBeta,
}
_KIND_OF = {cls: kind for kind, cls in _SCHEDULE_KINDS.items()}


def schedule_to_json(schedule) -> dict | float:
    """A constant epsilon or step size as a bare number, else {"kind", **fields}."""
    if isinstance(schedule, ConstantEpsilon):
        return schedule.value
    if isinstance(schedule, (int, float)):
        return float(schedule)
    if type(schedule) not in _KIND_OF:
        raise TypeError(f"not a schedule: {schedule!r}")
    return {"kind": _KIND_OF[type(schedule)], **asdict(schedule)}


def schedule_from_json(doc):
    """Inverse of :func:`schedule_to_json`; any value but a {"kind", ...} document
    is returned as is, for the constructor that takes it to check."""
    if not (isinstance(doc, dict) and "kind" in doc):
        return doc
    if doc["kind"] not in _SCHEDULE_KINDS:
        raise ValueError(f"unknown schedule kind {doc['kind']!r}")
    cls = _SCHEDULE_KINDS[doc["kind"]]
    return cls(**fields_from_json(cls, doc))


epsilon_schedule_to_json = beta_to_json = schedule_to_json


def epsilon_schedule_from_json(doc) -> EpsilonSchedule:
    return as_epsilon_schedule(schedule_from_json(doc))


def beta_from_json(doc):
    return validate_beta(schedule_from_json(doc))


def fields_to_json(obj, skip=()) -> dict:
    """JSON document of a dataclass: one key per field, schedules encoded."""
    values = {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in skip}
    return {k: schedule_to_json(v) if is_dataclass(v) else v for k, v in values.items()}


def fields_from_json(cls, doc: dict, skip=()) -> dict:
    """Constructor arguments of dataclass ``cls`` given in ``doc``.

    Fields missing from ``doc`` are left out, so they take the dataclass
    defaults. Schedule documents are decoded; every other value is passed on
    as is, and the constructor of ``cls`` checks it as it checks a value
    built in code.
    """
    return {
        f.name: schedule_from_json(doc[f.name]) for f in fields(cls)
        if f.name in doc and f.name not in skip
    }


@dataclass(frozen=True)
class PiecewiseCostSchedule:
    """Piecewise-constant cost weights over left-closed slot intervals.

    ``segments`` is a tuple of (start_slot, CostParams) pairs with strictly
    increasing starts, the first at slot 0, so any horizon is covered.
    """

    segments: tuple[tuple[int, CostParams], ...]

    def __post_init__(self) -> None:
        segments = tuple((as_int(s, "start"), p) for s, p in self.segments)
        if not segments:
            raise ValueError("schedule needs at least one segment")
        if segments[0][0] != 0:
            raise ValueError("first segment must start at slot 0")
        starts = [s for s, _ in segments]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment starts must be strictly increasing")
        if not all(isinstance(p, CostParams) for _, p in segments):
            raise TypeError("segment payloads must be CostParams")
        object.__setattr__(self, "segments", segments)

    @classmethod
    def constant(cls, params: CostParams) -> "PiecewiseCostSchedule":
        return cls(segments=((0, params),))

    @property
    def is_constant(self) -> bool:
        return len(self.segments) == 1

    def params_at(self, slot: int) -> CostParams:
        slot = as_int(slot, "slot", 0)
        starts = np.array([s for s, _ in self.segments])
        seg = int(np.searchsorted(starts, slot, side="right")) - 1
        return self.segments[seg][1]

    def lambda_arrays(self, start: int, stop: int) -> np.ndarray:
        """(3, stop-start) array of lambda1/2/3 values per slot."""
        starts = np.array([s for s, _ in self.segments])
        slots = np.arange(start, stop)
        seg_idx = np.searchsorted(starts, slots, side="right") - 1
        table = np.array(
            [[p.lambda1, p.lambda2, p.lambda3] for _, p in self.segments], dtype=np.float64
        )
        return table[seg_idx].T

    def to_json(self) -> list:
        return [{"start": s, **p.to_json_dict()} for s, p in self.segments]

    @classmethod
    def from_json(cls, doc: list) -> "PiecewiseCostSchedule":
        return cls(segments=tuple((item["start"], CostParams.from_json_dict(item)) for item in doc))


def as_cost_schedule(value) -> PiecewiseCostSchedule:
    if isinstance(value, PiecewiseCostSchedule):
        return value
    if isinstance(value, CostParams):
        return PiecewiseCostSchedule.constant(value)
    raise TypeError(f"not a cost schedule: {value!r}")
