"""Content popularity profiles and their Markov dynamics.

This module provides:
- PopularityProfile: a probability vector over a catalog of F files.
- MarkovChain: a finite set of profiles plus a row-stochastic transition
  matrix, modelling how the popularity state evolves from slot to slot.
- Zipf profile construction with an arbitrary per-file rank ordering.
- Seeded sampling of chain transitions and of per-slot request batches.
- Empirical profile estimation from request counts, and quantization of an
  arbitrary profile back onto the chain's state set (nearest state in total
  variation, ties to the lowest index).

All types are immutable after construction; every randomized operation takes
an explicit caller-owned numpy Generator so parallel simulations can use
independent streams.

The package checks its inputs with the rules kept here, so a value from
code and one from a scenario file fail with one message: :func:`as_int` and
its array form :func:`as_ints`, the only definition of an integer (whole and
finite; a bool, a string or a fraction fails) and the only integer range
check (``as_int(value, name, lo, hi)`` keeps values in ``[lo, hi)``, a bound
left as None is open), :func:`as_number` (a real number, not a bool),
:func:`as_discount` (gamma in [0, 1)) and :func:`as_probabilities` (finite,
non-negative rows summing to 1 within ``PROB_TOL``).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

PROB_TOL = 1e-9


def as_int(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an int in ``[lo, hi)``, a bound left as None being open; an
    integral float converts, non-finite values fail. The comparison is on Python
    ints, so a bound such as C(F, M) may exceed int64."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            value = int(value)
            if (lo is not None and value < lo) or (hi is not None and value >= hi):
                bound = f"be >= {lo}" if hi is None else f"lie in [{lo}, {hi})"
                raise ValueError(f"{name} must {bound}, got {value}")
            return value
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_ints(values, name: str, lo: int | None = None, hi: int | None = None) -> np.ndarray:
    """``values`` as an int64 array with every entry in ``[lo, hi)``: an integer-dtype
    ndarray passes on its dtype, anything else goes through :func:`as_int` element
    by element (``True`` fails)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        values = values.astype(np.int64)
    else:
        objs = np.asarray(values, dtype=object)
        values = np.array([as_int(x, name) for x in objs.flat], dtype=np.int64).reshape(objs.shape)
    if values.size:
        as_int(int(values.min()), name, lo, hi)
        as_int(int(values.max()), name, lo, hi)
    return values


def as_number(value, name: str) -> float:
    """``value`` as a float; a bool or a non-number raises ``ValueError``."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must not be a boolean, got {value!r}")
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def as_discount(value) -> float:
    """``value`` as a discount factor gamma, a number in [0, 1)."""
    gamma = as_number(value, "gamma")
    if not 0.0 <= gamma < 1.0:  # NaN fails too
        raise ValueError("gamma must lie in [0, 1)")
    return gamma


def as_probabilities(values, name: str) -> np.ndarray:
    """``values`` as a float64 copy whose rows (last axis) are probability vectors.

    Only a non-ndarray is scanned element by element, as numpy reads
    ``[true, 0.0]`` as ``[1.0, 0.0]``; an ndarray is checked by its dtype.
    """
    if not isinstance(values, np.ndarray):
        bad = [x for x in np.asarray(values, dtype=object).flat if isinstance(x, (str, bool))]
        if bad:
            raise ValueError(f"{name} must hold numbers, got {bad[0]!r}")
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold numbers, got dtype {arr.dtype}")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all() or (arr < 0.0).any():
        raise ValueError(f"{name} entries must be finite and non-negative")
    totals = arr.sum(axis=-1)
    off = np.abs(totals - 1.0) > PROB_TOL
    if off.any():
        raise ValueError(f"every {name} row must sum to 1 (got {float(totals[off].flat[0])!r})")
    return arr


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PopularityProfile:
    """Probability mass per file over a catalog of ``len(probs)`` files."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.probs) != 1 or np.size(self.probs) < 1:
            raise ValueError("profile must be a non-empty 1-D vector")
        object.__setattr__(self, "probs", _readonly(as_probabilities(self.probs, "profile")))

    @property
    def catalog_size(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True, eq=False)
class MarkovChain:
    """Finite popularity-profile set with row-stochastic transitions.

    ``states`` may also be given as the rows of an (n_states, F) matrix.
    """

    states: tuple[PopularityProfile, ...]
    transition: np.ndarray

    def __post_init__(self) -> None:
        states = self.states
        if not all(isinstance(s, PopularityProfile) for s in states):
            states = map(PopularityProfile, as_probabilities(states, "states"))
        states = tuple(states)
        if not states:
            raise ValueError("chain needs at least one state")
        f = states[0].catalog_size
        if any(s.catalog_size != f for s in states):
            raise ValueError("all chain states must share one catalog size")
        trans = as_probabilities(self.transition, "transition")
        n = len(states)
        if trans.shape != (n, n):
            raise ValueError(f"transition matrix must be {n}x{n}, got {trans.shape}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transition", _readonly(trans))

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def catalog_size(self) -> int:
        return self.states[0].catalog_size

    def profile_matrix(self) -> np.ndarray:
        """All state profiles stacked as an (n_states, F) array."""
        return np.stack([s.probs for s in self.states])

    def to_json(self) -> str:
        return json.dumps(
            {
                "states": [s.probs.tolist() for s in self.states],
                "transition": self.transition.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "MarkovChain":
        return cls(**json.loads(text))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "MarkovChain":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


@dataclass(frozen=True, eq=False)
class RequestBatch:
    """Number of requests per file observed in one slot."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = as_ints(self.counts, "counts", 0)
        if counts.ndim != 1 or counts.size < 1:
            raise ValueError("counts must be a non-empty 1-D vector")
        object.__setattr__(self, "counts", _readonly(counts))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def zipf_profile(f: int, eta: float, ordering=None) -> PopularityProfile:
    """Zipf profile with skewness ``eta`` over ``f`` files.

    The file ranked r-th receives mass (1/r^eta) / sum_l (1/l^eta).
    ``ordering`` lists 1-based file ids from most to least popular; by
    default file 1 is rank 1, file 2 is rank 2, and so on. eta = 0 spreads
    mass uniformly; larger eta concentrates it on the top-ranked files.
    """
    f = as_int(f, "catalog size", 1)
    eta = as_number(eta, "zipf exponent")
    if not eta >= 0:  # NaN fails too
        raise ValueError("zipf exponent must be >= 0")
    ids = np.arange(1, f + 1)
    ordering = ids if ordering is None else as_ints(ordering, "ordering")
    if not np.array_equal(np.sort(ordering), ids):
        raise ValueError("ordering must be a permutation of 1..F")
    ranks = np.arange(1, f + 1, dtype=np.float64)
    weights = ranks ** -eta
    weights /= weights.sum()
    probs = np.empty(f, dtype=np.float64)
    probs[ordering - 1] = weights
    return PopularityProfile(probs)


def next_states(cum_rows: np.ndarray, u) -> np.ndarray:
    """Categorical step for each cumulative transition row in ``cum_rows``.

    The next state is the number of row entries <= the uniform draw ``u``,
    clamped to the last state (rounding can leave a row's total below u).
    """
    nxt = (cum_rows <= np.asarray(u)[..., None]).sum(axis=-1)
    return np.minimum(nxt, cum_rows.shape[-1] - 1)


def step_chain(chain: MarkovChain, current: int, rng: np.random.Generator) -> int:
    """Draw the next state index given the current one."""
    current = as_int(current, "state index", 0, chain.n_states)
    return int(next_states(np.cumsum(chain.transition[current]), rng.random()))


def sample_requests(profile: PopularityProfile, n: int, rng: np.random.Generator) -> RequestBatch:
    """Aggregate ``n`` i.i.d. categorical file requests into per-file counts."""
    n = as_int(n, "request count", 1)
    counts = rng.multinomial(n, profile.probs)
    return RequestBatch(counts)


def estimate_empirical(batch: RequestBatch) -> PopularityProfile:
    """Empirical popularity profile: per-file share of all requests."""
    total = batch.total
    if total < 1:
        raise ValueError("cannot estimate a profile from an all-zero batch")
    return PopularityProfile(batch.counts / total)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance between two mass vectors."""
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def nearest_states(profiles: np.ndarray, state_profiles: np.ndarray) -> np.ndarray:
    """Row of ``state_profiles`` closest in total variation to each profile.

    ``profiles`` has shape (..., F) and ``state_profiles`` (n_states, F);
    ties break toward the lowest state index.
    """
    dists = 0.5 * np.abs(profiles[..., None, :] - state_profiles).sum(axis=-1)
    return np.argmin(dists, axis=-1)


def quantize_to_state(profile: PopularityProfile, chain: MarkovChain) -> int:
    """Index of the chain state closest to ``profile`` in total variation.

    Ties break toward the lowest state index.
    """
    if profile.catalog_size != chain.catalog_size:
        raise ValueError("profile and chain catalog sizes differ")
    return int(nearest_states(profile.probs, chain.profile_matrix()))


def random_chain(
    n_states: int,
    f: int,
    rng: np.random.Generator,
    eta_range: tuple[float, float] = (2.0, 4.0),
) -> MarkovChain:
    """Random chain for large synthetic networks.

    Transition rows are drawn from a flat Dirichlet; each state is a Zipf
    profile with exponent uniform over ``eta_range`` and an independent
    random ordering of the files.
    """
    n_states, f = as_int(n_states, "n_states", 1), as_int(f, "catalog size", 1)
    transition = rng.dirichlet(np.ones(n_states), size=n_states)
    states = []
    for _ in range(n_states):
        eta = float(rng.uniform(*eta_range))
        ordering = rng.permutation(f) + 1
        states.append(zipf_profile(f, eta, ordering))
    return MarkovChain(states=tuple(states), transition=transition)
