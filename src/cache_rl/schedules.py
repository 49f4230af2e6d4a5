"""Exploration, step-size, and cost-weight schedules.

Slot indices passed to epsilon schedules are 1-based (the first decision is
slot 1); cost schedules are keyed on 0-based slot indices with left-closed
piecewise-constant segments.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, is_dataclass

import numpy as np

from .caching_core import CostParams


@dataclass(frozen=True)
class ConstantEpsilon:
    value: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")

    def epsilon_at(self, t: int) -> float:
        return self.value

    def epsilon_array(self, ts: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(ts).shape, self.value, dtype=np.float64)


@dataclass(frozen=True)
class InverseTimeEpsilon:
    """GLIE schedule: epsilon_t = min(1, 1/t)."""

    def epsilon_at(self, t: int) -> float:
        return min(1.0, 1.0 / max(t, 1))

    def epsilon_array(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=np.float64)
        return np.minimum(1.0, 1.0 / np.maximum(ts, 1.0))


def _check_t_explore(t_explore) -> None:
    if not (math.isfinite(t_explore) and t_explore >= 0):
        raise ValueError("t_explore must be finite and >= 0")


@dataclass(frozen=True)
class ExploreThenExploit:
    """Pure exploration for the first ``t_explore`` slots, then pure greed."""

    t_explore: int

    def __post_init__(self) -> None:
        _check_t_explore(self.t_explore)

    def epsilon_at(self, t: int) -> float:
        return 1.0 if t <= self.t_explore else 0.0

    def epsilon_array(self, ts: np.ndarray) -> np.ndarray:
        return (np.asarray(ts) <= self.t_explore).astype(np.float64)


@dataclass(frozen=True)
class ExploreThenInverseDecay:
    """Pure exploration for ``t_explore`` slots, then 1/(t - t_explore)."""

    t_explore: int

    def __post_init__(self) -> None:
        _check_t_explore(self.t_explore)

    def epsilon_at(self, t: int) -> float:
        if t <= self.t_explore:
            return 1.0
        return min(1.0, 1.0 / (t - self.t_explore))

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
    if isinstance(value, (int, float)):
        return ConstantEpsilon(float(value))
    if isinstance(
        value, (ConstantEpsilon, InverseTimeEpsilon, ExploreThenExploit, ExploreThenInverseDecay)
    ):
        return value
    raise TypeError(f"not an epsilon schedule: {value!r}")


@dataclass(frozen=True)
class VisitCountBeta:
    """Per-pair Robbins-Monro step size beta = 1/(1 + visits(s, a))."""


def validate_beta(beta) -> None:
    if isinstance(beta, VisitCountBeta):
        return
    if not 0.0 < float(beta) <= 1.0:
        raise ValueError("beta must lie in (0, 1]")


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
    """Inverse of :func:`schedule_to_json`; a bare number is returned as a float."""
    if isinstance(doc, (int, float)):
        return float(doc)
    if doc["kind"] not in _SCHEDULE_KINDS:
        raise ValueError(f"unknown schedule kind {doc['kind']!r}")
    cls = _SCHEDULE_KINDS[doc["kind"]]
    return cls(**fields_from_json(cls, doc))


epsilon_schedule_to_json = beta_to_json = schedule_to_json
beta_from_json = schedule_from_json


def epsilon_schedule_from_json(doc) -> EpsilonSchedule:
    return as_epsilon_schedule(schedule_from_json(doc))


def _json_int(value, name: str) -> int:
    """A JSON number as an int; a bool or a float with a fractional part is rejected."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


# Casts by field annotation; annotations are strings (postponed evaluation).
_CASTS = {"float": float, "str": str}


def fields_to_json(obj, skip=()) -> dict:
    """JSON document of a dataclass: one key per field, schedules encoded."""
    values = {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in skip}
    return {k: schedule_to_json(v) if is_dataclass(v) else v for k, v in values.items()}


def fields_from_json(cls, doc: dict, skip=()) -> dict:
    """Constructor arguments of dataclass ``cls`` given in ``doc``.

    Fields missing from ``doc`` are left out, so they take the dataclass
    defaults; int (see :func:`_json_int`), float and str fields are cast,
    schedule documents decoded.
    """
    kwargs = {}
    for f in fields(cls):
        if f.name in doc and f.name not in skip:
            value = doc[f.name]
            if isinstance(value, dict) and "kind" in value:
                value = schedule_from_json(value)
            elif f.type == "int":
                value = _json_int(value, f.name)
            elif f.type in _CASTS:
                value = _CASTS[f.type](value)
            kwargs[f.name] = value
    return kwargs


@dataclass(frozen=True)
class PiecewiseCostSchedule:
    """Piecewise-constant cost weights over left-closed slot intervals.

    ``segments`` is a tuple of (start_slot, CostParams) pairs with strictly
    increasing starts, the first at slot 0, so any horizon is covered.
    """

    segments: tuple[tuple[int, CostParams], ...]

    def __post_init__(self) -> None:
        segments = tuple((int(s), p) for s, p in self.segments)
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
        if slot < 0:
            raise ValueError("slot must be >= 0")
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
        segments = tuple(
            (_json_int(item["start"], "start"), CostParams.from_json_dict(item)) for item in doc
        )
        return cls(segments=segments)


def as_cost_schedule(value) -> PiecewiseCostSchedule:
    if isinstance(value, PiecewiseCostSchedule):
        return value
    if isinstance(value, CostParams):
        return PiecewiseCostSchedule.constant(value)
    raise TypeError(f"not a cost schedule: {value!r}")
