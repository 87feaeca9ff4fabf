"""Configuration-free subsets of the pair space, by exact and heuristic search.

r(p, n) is the size of the largest subset of Z_p^n x Z_p^n with no
configuration (x,y), (x,y+z), (x,y+2z), (x+z,y), z != 0.  The search
lists every configuration once as a row of point indices, and every
method returns a set that is counted again before it is reported.
"""

from __future__ import annotations

import numpy as np

from .field import ResourceLimitError, check_modulus, check_size, scale_map, translations
from .patterns import LSHAPE, lshape_average
from .tables import FunctionTable

__all__ = ["METHODS", "search_extremal_L_free"]

#: The search methods: one exact, three seeded heuristics.
METHODS = ("exhaustive", "greedy", "local", "random")

_EXHAUSTIVE_POINTS_CAP = 49
_HEURISTIC_POINTS_CAP = 16384


def _l_quads(p: int, n: int) -> np.ndarray:
    """All configurations of ``LSHAPE`` with z != 0, as an int32 array of
    pair indices: column c holds point c, one row per (z, x, y), y fastest."""
    size = p**n
    quads = np.empty((size - 1, size, size, len(LSHAPE)), dtype=np.int32)
    for c, (a, b) in enumerate(LSHAPE):
        xs = translations(p, n, scale_map(p, n, a)[1:]).astype(np.int32)  # [z - 1, x] is x + a z
        ys = translations(p, n, scale_map(p, n, b)[1:]).astype(np.int32)
        np.add(xs[:, :, None], size * ys[:, None, :], out=quads[..., c])
    return quads.reshape(-1, len(LSHAPE))


def _point_index(quads: np.ndarray, total: int) -> np.ndarray:
    """Per-point configuration table: row pt of the int32
    ``(total, width (p^n - 1))`` result holds the rows of ``quads``, each
    a configuration of ``width`` points, that contain pt.

    For each shift z, column c of ``quads`` maps the points one to one, so
    every point appears in it once per z; a stable argsort of each column
    lists, point by point, the p^n - 1 rows in which that point plays role
    c.  The points of a configuration are distinct, so a row of the table
    names each of its configurations once.
    """
    rows = np.empty((total, quads.shape[1], len(quads) // total), dtype=np.int32)
    key = np.min_scalar_type(total - 1)
    for c in range(quads.shape[1]):
        # a key of at most 16 bits sorts by radix
        rows[:, c] = np.argsort(quads[:, c].astype(key), kind="stable").reshape(total, -1)
    return rows.reshape(total, -1)


def _greedy_l_free(
    quads: np.ndarray,
    rows: np.ndarray,
    order: np.ndarray,
    start: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Take the points of ``order`` in turn, skipping any that would
    complete a configuration with those already taken.  Returns the bool
    mask of taken points and ``filled``, the int8 count of taken points in
    each row of ``quads``.

    ``start`` is a configuration-free mask taken before the walk, with its
    ``filled`` counts; the walk updates both arrays in place.  ``rows`` is
    the table of ``_point_index``.  A taken point adds one to the counts
    of its configurations, and one that reaches ``last``, all its points
    but one, marks its points seen (the one left is blocked), so a point
    is taken iff it is not yet seen.
    """
    if start is None:
        start = np.zeros(len(rows), dtype=bool), np.zeros(len(quads), dtype=np.int8)
    chosen, filled = start
    last = quads.shape[1] - 1
    seen = chosen.copy()
    seen[quads[filled == last]] = True
    taken = []
    for pt in order.tolist():
        if seen[pt]:
            continue
        taken.append(pt)
        seen[pt] = True
        mine = rows[pt]
        counts = filled[mine] + 1
        filled[mine] = counts
        seen[quads[mine[counts == last]]] = True
    chosen[taken] = True
    return chosen, filled


def _exhaustive_l_free(quads: np.ndarray, total: int) -> int:
    """Largest configuration-free set as a bitset: the first one of
    maximum size in include-first order over the points in index order.

    Depth-first search with two exact bounds.  Forward checking: points
    are decided in index order, so a configuration *head < q2 < q3 can
    only be completed by q3, and when q2 is taken with the head already
    chosen, q3 leaves the bitset ``free`` of points that can still be
    added.  Russian-doll suffix bounds: ``suffix[i]`` is the size of the
    largest free set inside points i..total-1, found for i = total-1 down
    to 0 by searching for one of size ``suffix[i+1] + 1``; a node at the
    first free point idx is cut when even ``min(|free|, suffix[idx])``
    more points cannot reach the target.  The answer is then the first
    set of size ``suffix[0]``.  Only subtrees without a set of the target
    size are cut, and ``free`` holds exactly the points that can be added
    without completing a configuration, so the search meets the sets in
    the order of the plain include-first search and returns its answer.
    """
    forward: list[list[tuple[int, int]]] = [[] for _ in range(total)]
    for *head, q2, q3 in np.sort(quads, axis=1).tolist():
        forward[q2].append((sum(1 << q for q in head), 1 << q3))
    suffix = [0] * (total + 1)

    def extend(chosen: int, size: int, free: int, target: int) -> int | None:
        """First set of ``target`` points that adds points of ``free`` to
        ``chosen``, in include-first order, or None."""
        if size >= target:
            return chosen
        while free:
            low = free & -free
            idx = low.bit_length() - 1
            if size + min(free.bit_count(), suffix[idx]) < target:
                return None
            blocked = low
            for pair, top in forward[idx]:
                if chosen & pair == pair:
                    blocked |= top
            found = extend(chosen | low, size + 1, free & ~blocked, target)
            if found is not None:
                return found
            free ^= low
        return None

    best = None
    for i in reversed(range(total)):
        suffix[i] = suffix[i + 1] + 1
        best = extend(0, 0, (1 << total) - (1 << i), suffix[i])
        if best is None:
            suffix[i] -= 1
    # a set of size suffix[1] + 1 must hold point 0, so it comes first
    return best if best is not None else extend(0, 0, (1 << total) - 1, suffix[0])


def search_extremal_L_free(
    p: int,
    n: int,
    method: str = "exhaustive",
    seed: int = 0,
    iterations: int = 200,
) -> dict:
    """Largest (or large) subsets of the pair space with no configuration
    (x,y), (x,y+z), (x,y+2z), (x+z,y) for z != 0.

    ``exhaustive`` runs branch-and-bound on bitsets with forward checking
    and Russian-doll suffix bounds, and is exact; it is capped at pair
    spaces of at most 49 points (p=7, n=1).  ``greedy``, ``local`` and
    ``random`` are seeded heuristics, capped at 16384 points (p=11, n=2
    and p=5, n=3 fit).  They share one greedy walk over an int32 table of
    the (p^n - 1) p^(2n) configurations of ``_l_quads`` and a table of
    the configurations through each point, and block a point as soon as
    all other points of one of its configurations are taken, so no
    configuration is tested point by point.  ``local`` drops two points
    and refills; it carries each result's per-configuration counts and
    subtracts the dropped points' rows, so no trial recounts the table.
    Every output is re-verified by counting configurations directly
    before returning.  The modulus is checked before any table is built.
    """
    check_modulus(p)
    size = check_size(p, n)
    total = size * size
    if method == "exhaustive" and total > _EXHAUSTIVE_POINTS_CAP:
        raise ResourceLimitError(f"exhaustive search capped at {_EXHAUSTIVE_POINTS_CAP} points, got {total}")
    if total > _HEURISTIC_POINTS_CAP:
        raise ResourceLimitError(f"search space has {total} points, capped at {_HEURISTIC_POINTS_CAP}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations}")
    if method == "random" and iterations == 0:
        raise ValueError("the random method needs at least one iteration")
    quads = _l_quads(p, n)

    if method == "exhaustive":
        best = _exhaustive_l_free(quads, total)
        result = np.array([best >> i & 1 for i in range(total)], dtype=bool)
    else:
        rows = _point_index(quads, total)
        rng = np.random.default_rng(seed)

        def greedy(start: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
            return _greedy_l_free(quads, rows, rng.permutation(total), start)

        if method == "greedy":
            result = greedy()[0]
        elif method == "local":
            result, filled = greedy()
            for _ in range(iterations):
                trial, counts = result.copy(), filled.copy()
                members = np.flatnonzero(trial)
                if members.size:
                    for pt in rng.choice(members, size=min(2, members.size), replace=False).tolist():
                        trial[pt] = False
                        counts[rows[pt]] -= 1
                # refill greedily in a fresh random order, keeping the survivors
                trial, counts = greedy(start=(trial, counts))
                if np.count_nonzero(trial) >= np.count_nonzero(result):
                    result, filled = trial, counts
        else:
            result = np.zeros(total, dtype=bool)
            for _ in range(iterations):
                cand = greedy()[0]
                if np.count_nonzero(cand) > np.count_nonzero(result):
                    result = cand

    indices = np.flatnonzero(result).tolist()
    found = FunctionTable(p, 2 * n, result)
    if lshape_average(found, found, found, found).nontrivial_count:
        raise AssertionError("search produced a set containing a configuration")
    out = {
        "p": p,
        "n": n,
        "method": method,
        "cardinality": len(indices),
        "density": len(indices) / total,
        "indices": indices,
        "verified_free": True,
        "optimal": method == "exhaustive",
    }
    if method != "exhaustive":
        out["seed"] = seed
    if method in ("local", "random"):
        out["iterations"] = iterations
    return out
