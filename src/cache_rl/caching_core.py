"""Cache actions, the feasible action set, and slot cost functions.

A caching action is the size-M subset of the F-file catalog held in the
cache for one slot. The aggregate slot cost is the sum of three parts:
a per-file refresh charge for newly fetched files, and two mismatch
charges that penalize the popularity mass (local and global) left
uncached. All functions here are pure and operate on immutable inputs,
except :func:`write_table`, the one writer of every CSV table the package
exports: UTF-8, LF line endings, floats as 17 significant digits, and
cached files labelled by :func:`files_label`.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .popularity import MarkovChain, PopularityProfile, as_int, as_number

MATERIALIZE_LIMIT = 200_000


def files_mask(files: np.ndarray, f: int) -> np.ndarray:
    """0/1 masks of length F with ones at the 0-based ``files`` on the last axis."""
    mask = np.zeros(files.shape[:-1] + (f,))
    np.put_along_axis(mask, files, 1.0, axis=-1)
    return mask


def files_label(files) -> str:
    """Sorted 0-based file indices as the 1-based table label ``"1;2"``."""
    return ";".join(str(f + 1) for f in files)


def _cells(row) -> list:
    """One table row with its floats (``np.float64`` included) as 17 significant digits."""
    return [f"{v:.17g}" if isinstance(v, float) else v for v in row]


def write_table(path, header, rows, comments=None) -> None:
    """Write a CSV table with LF line endings, streaming ``rows``.

    ``comments`` (a mapping) come first as ``# key=value`` lines. Float cells
    and comment values are written with 17 significant digits, so they read
    back bit-exactly; other cells go through ``str``.
    """
    comments = comments or {}
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(f"# {k}={v}\n" for k, v in zip(comments, _cells(comments.values())))
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(map(_cells, rows))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


@dataclass(frozen=True)
class CacheAction:
    """A set of distinct 1-based file indices cached for one slot."""

    files: tuple[int, ...]
    catalog_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "catalog_size", as_int(self.catalog_size, "catalog_size"))
        files = tuple(sorted(as_int(x, "file index", 1, self.catalog_size + 1) for x in self.files))
        if not files:
            raise ValueError("a cache action must hold at least one file")
        if len(set(files)) != len(files):
            raise ValueError("cached files must be distinct")
        object.__setattr__(self, "files", files)

    @property
    def cache_size(self) -> int:
        return len(self.files)

    def as_mask(self) -> np.ndarray:
        """0/1 vector of length F with ones at cached files."""
        return files_mask(np.array(self.files) - 1, self.catalog_size)


class ActionSpace:
    """All C(F, M) cache actions in lexicographic order, lazily indexable.

    ``action(i)`` and ``index_of(a)`` form a bijection without ever
    materializing the enumeration, so the space stays usable even when
    C(F, M) is astronomically large. ``files_array``/``mask_matrix``
    materialize small spaces for table-based solvers.
    """

    def __init__(self, f: int, m: int):
        self.f = as_int(f, "catalog size")
        self.m = as_int(m, "cache capacity", 1, self.f + 1)
        # Unbounded Python int; use this instead of len() when C(F, M)
        # exceeds the machine index range.
        self.size = math.comb(self.f, self.m)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        for combo in itertools.combinations(range(1, self.f + 1), self.m):
            yield CacheAction(files=combo, catalog_size=self.f)

    def action(self, index: int) -> CacheAction:
        """Lexicographic unranking via the combinatorial number system."""
        rem = as_int(index, "action index", 0, self.size)
        files = []
        c = 0
        for i in range(self.m):
            while True:
                block = math.comb(self.f - c - 1, self.m - i - 1)
                if rem < block:
                    break
                rem -= block
                c += 1
            files.append(c + 1)
            c += 1
        return CacheAction(files=tuple(files), catalog_size=self.f)

    def index_of(self, action: CacheAction) -> int:
        """Lexicographic rank of an action (inverse of :meth:`action`)."""
        if action.catalog_size != self.f or action.cache_size != self.m:
            raise ValueError("action does not belong to this space")
        rank = 0
        prev = 0
        for i, file_id in enumerate(action.files):
            for skipped in range(prev + 1, file_id):
                rank += math.comb(self.f - skipped, self.m - i - 1)
            prev = file_id
        return rank

    def _check_materializable(self) -> None:
        if self.size > MATERIALIZE_LIMIT:
            raise ValueError(
                f"action space with {self.size} actions is too large to materialize; "
                "use the scalable learner instead"
            )

    def files_array(self) -> np.ndarray:
        """(|A|, M) array of 0-based file indices, one row per action."""
        self._check_materializable()
        combos = list(itertools.combinations(range(self.f), self.m))
        return np.array(combos, dtype=np.int64)

    def mask_matrix(self) -> np.ndarray:
        """(|A|, F) 0/1 matrix, one row per action."""
        return files_mask(self.files_array(), self.f)


def enumerate_actions(f: int, m: int) -> ActionSpace:
    return ActionSpace(f, m)


@dataclass(frozen=True)
class CostParams:
    """Weights of the three slot-cost components."""

    lambda1: float  # cache-refresh weight
    lambda2: float  # local-mismatch weight
    lambda3: float  # global-mismatch weight

    def __post_init__(self) -> None:
        for f in fields(self):
            value = as_number(getattr(self, f.name), f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{f.name} must be finite and >= 0")
            object.__setattr__(self, f.name, value)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CostParams":
        return cls(**{f.name: doc[f.name] for f in fields(cls)})


@dataclass(frozen=True)
class SystemState:
    """Global state index, local state index, and current cache contents."""

    g: int
    l: int
    action: CacheAction

    def __post_init__(self) -> None:
        object.__setattr__(self, "g", as_int(self.g, "g", 0))
        object.__setattr__(self, "l", as_int(self.l, "l", 0))


def refresh_cost(a_new: CacheAction, a_prev: CacheAction, lambda1: float) -> float:
    """lambda1 times the number of files in ``a_new`` not already cached."""
    if a_new.catalog_size != a_prev.catalog_size:
        raise ValueError("actions refer to different catalogs")
    fetched = len(set(a_new.files) - set(a_prev.files))
    return lambda1 * fetched


def mismatch_cost(action: CacheAction, profile: PopularityProfile, lam: float) -> float:
    """``lam`` times the popularity mass of the files left uncached."""
    if action.catalog_size != profile.catalog_size:
        raise ValueError("action and profile catalog sizes differ")
    cached = float(profile.probs[np.array(action.files) - 1].sum())
    return lam * (1.0 - cached)


def aggregate_cost(
    prev: SystemState,
    action: CacheAction,
    p_g_next: PopularityProfile,
    p_l_next: PopularityProfile,
    params: CostParams,
) -> float:
    """Realized slot cost given the revealed next-slot profiles."""
    return (
        refresh_cost(action, prev.action, params.lambda1)
        + mismatch_cost(action, p_l_next, params.lambda2)
        + mismatch_cost(action, p_g_next, params.lambda3)
    )


def expected_cost(
    prev: SystemState,
    action: CacheAction,
    g_chain: MarkovChain,
    l_chain: MarkovChain,
    params: CostParams,
) -> float:
    """Mean slot cost under the one-step-ahead profile distributions."""
    g = as_int(prev.g, "g", 0, g_chain.n_states)
    l = as_int(prev.l, "l", 0, l_chain.n_states)
    exp_g = g_chain.transition[g] @ g_chain.profile_matrix()
    exp_l = l_chain.transition[l] @ l_chain.profile_matrix()
    idx = np.array(action.files) - 1
    return (
        refresh_cost(action, prev.action, params.lambda1)
        + params.lambda2 * (1.0 - float(exp_l[idx].sum()))
        + params.lambda3 * (1.0 - float(exp_g[idx].sum()))
    )
