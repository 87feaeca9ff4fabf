"""Density and energy increment machinery on the pair space.

The engine works with product coset partitions: a subspace direction V
of Z_p^n (stored through the reduced normal rows R that cut it out)
splits the pair space into cells (a + V) x (b + V).  The partition owns
that geometry: a coset of V is labelled by the values of R on it, a
cell by the labels of its two cosets, and one member table lists every
coset in the order of V's parameters, for pseudorandomization and for
the renormalization to a selected cell alike.  Relative to a
structured product set T = B(y) C(x+y) D(2x+y) Phi(x,y), each cell
carries 4 + d conditional densities:

    beta  = density of B on the cell's y coset,
    gamma = density of C on the sum coset (a+b) + V,
    delta = density of D on the skew coset (2a+b) + V,
    phi_i = density of the level-i part of Phi inside the cell,
            one value for each i = 0 .. d.

The energy of a partition is the measure-weighted mean of the squares
of these statistics, divided by 4 + d so it always lies in [0, 1].
Refining the partition never decreases the energy (convexity), and a
cell statistic that correlates with a character gains energy at least
mu(cell) * correlation^2 when the partition is refined by it.  That is
the engine's budget: rounds of refinement stop once every heavy cell
looks uniform at scale eps, and the budget caps the number of rounds.

The increment moves themselves (fiber-mean split, skew-line split,
offset alignment) each take a set S inside a structured T and either
return a denser structured pair or an explicit no-gain report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .field import (
    AffineSubspace,
    ResourceLimitError,
    check_size,
    combine,
    digit_table,
    digits_of,
    index_of,
    modular_rref,
    subspace_from_normals,
    translations,
)
from .norms import RADICAND_FLOOR
from .patterns import lshape_average
from .spectral import dft_values, top_index
from .structured import FACTOR_SLOTS, FiberFamily, StructuredProductSet
from .tables import FunctionTable, line_counts, line_means, slot_index_array

__all__ = [
    "ProductCosetPartition",
    "partition_energy",
    "PseudorandomizeResult",
    "pseudorandomize_u2",
    "fiber_mean_increment",
    "skew_line_increment",
    "align_offset_increment",
    "search_extremal_L_free",
    "increment_driver",
    "planted_row_instance",
    "planted_skew_instance",
]


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class ProductCosetPartition:
    """All cells (a + V) x (b + V) for a fixed direction V.

    A coset of V is labelled by the values c in [0, p^codim) its normals
    take on it, and a cell by ca + p^codim * cb, for its x coset ca and its
    y coset cb.  The partition owns its coset geometry: the members of
    every coset, and the labels of the y, sum and skew cosets of every cell.
    """

    p: int
    n: int
    normals: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.normals:
            mat = np.array(self.normals, dtype=np.int64)
            red, piv = modular_rref(mat, self.p)
            if len(piv) != len(self.normals) or not np.array_equal(red % self.p, mat % self.p):
                raise ValueError("partition normals must be reduced independent rows")

    @property
    def codim(self) -> int:
        return len(self.normals)

    @property
    def direction_dim(self) -> int:
        return self.n - self.codim

    def label_index(self) -> np.ndarray:
        """Coset label of every point, as an integer in [0, p^codim)."""
        size = self.p**self.n
        if not self.normals:
            return np.zeros(size, dtype=np.int64)
        dt = digit_table(self.p, self.n)
        labs = (dt @ np.array(self.normals, dtype=np.int64).T) % self.p
        weights = self.p ** np.arange(self.codim, dtype=np.int64)
        return labs @ weights

    def refine(self, character: Sequence[int]) -> "ProductCosetPartition":
        """New partition with direction V intersected with the kernel of the
        character with these digits."""
        stacked = list(self.normals) + [tuple(int(v) % self.p for v in character)]
        red, piv = modular_rref(np.array(stacked, dtype=np.int64), self.p)
        if len(piv) != len(self.normals) + 1:
            raise ValueError("character lies in the span of the existing normals")
        return ProductCosetPartition(self.p, self.n, tuple(tuple(int(v) for v in r) for r in red))

    @cached_property
    def direction(self) -> AffineSubspace:
        """V itself, the coset of label 0."""
        return subspace_from_normals(self.p, self.n, self.normals, (0,) * self.codim)

    @cached_property
    def members(self) -> np.ndarray:
        """(p^codim, p^(n - codim)) int64 table: row c holds the points of
        coset c, ordered by the parameters of V.

        The normals are reduced, so coset c is V translated by the point
        whose pivot coordinates are the digits of c and whose free
        coordinates are 0.  The table is audited against the parity
        checks, not against the basis that built it: every point occurs
        exactly once, and row c lies on coset c.
        """
        p, n = self.p, self.n
        starts = np.zeros((p**self.codim, n), dtype=np.int64)
        starts[:, [row.index(1) for row in self.normals]] = digit_table(p, self.codim)
        out = combine(p, n, (1, 1), (index_of(p, starts)[:, None], self.direction.member_indices()[None, :]))
        if np.any(np.bincount(out.ravel(), minlength=p**n) != 1):
            raise AssertionError("the coset member table misses or repeats a point")
        if np.any(self.label_index()[out] != np.arange(len(out))[:, None]):
            raise AssertionError("a coset member table row leaves its coset")
        return out

    @cached_property
    def cell_labels(self) -> np.ndarray:
        """(3, p^(2 codim)) int64 table, by cell id: row k holds the label of
        the coset (k a + b) + V of every cell, on which the factor in slot
        ``FACTOR_SLOTS[k]`` is read: the y coset, the sum coset and the skew
        coset."""
        c = np.arange(self.p**self.codim)
        sums = translations(self.p, self.codim, c)  # ca + cb at [cb, ca], so cell ca + p^codim * cb when flat
        return np.stack([sums[:, combine(self.p, self.codim, (k,), (c,))].reshape(-1) for k in range(3)])


# ---------------------------------------------------------------------------
# energy


def _fiber_level_of_points(fam: FiberFamily, lab: np.ndarray, k: int) -> np.ndarray:
    """level(x) = rank(normals of V stacked with x's fiber normals) - codim V.

    ``lab`` is the coset label of every point for a direction V of
    codimension k.  Fiber x meets every coset of V that it touches in a
    coset of V ∩ V_x, p^(n - k - level) points, so the level is read off
    row x of Phi at the coset through the fiber's first point.  Off-base
    entries are set to -1.
    """
    p, n = fam.p, fam.n
    grid = fam.table.as_pair_grid()
    own = lab[grid.argmax(axis=1)]
    meet = np.count_nonzero(grid & (lab[None, :] == own[:, None]), axis=1)
    return np.where(fam.base.values, n - k - np.searchsorted(p ** np.arange(n + 1), meet), -1)


def _partition_tables(partition: ProductCosetPartition, t: StructuredProductSet) -> dict:
    """Per-cell conditional densities of T's factors, vectorized by label.

    ``dens[k][c]`` is the density of the factor in slot ``FACTOR_SLOTS[k]``
    on the coset of label c, so ``dens[k][cell_labels[k]]`` is its density
    on the matching coset of every cell.
    ``key[x, y]`` is the (fiber level of x, cell) key of the pair,
    level * p^(2 codim) + cell; only pairs of Phi, whose rows have a
    level, are ever keyed.  One bincount of the keys of Phi counts each
    level in each cell, and its running sum over the levels gives
    ``phi_dens[i]``, the density in each cell of Phi's pairs of level at
    most i.
    """
    p, n = t.p, t.n
    k = partition.codim
    big = p**k
    lab = partition.label_index()
    coset_size = p ** (n - k)
    dens = np.stack([np.bincount(lab[t.factor(slot).values], minlength=big) for slot in FACTOR_SLOTS]) / coset_size
    levels = _fiber_level_of_points(t.fibers, lab, k)
    key = (levels * (big * big) + lab)[:, None] + big * lab[None, :]
    counts = np.bincount(key[t.fibers.table.as_pair_grid()], minlength=(t.fibers.d + 1) * big * big)
    return {
        "big": big,
        "dens": dens,
        "phi_dens": np.cumsum(counts.reshape(-1, big * big), axis=0) / (coset_size * coset_size),
        "levels": levels,
        "key": key,
    }


def partition_energy(
    partition: ProductCosetPartition, t: StructuredProductSet, tables: dict | None = None
) -> dict:
    """Mean-square energy of T's factor densities over the partition.

    Every cell has equal measure, so the energy is the plain average
    over cells of beta^2 + gamma^2 + delta^2 + sum_i phi_i^2, divided
    by 4 + d.  The result lies in [0, 1].  ``tables`` are the
    partition's ``_partition_tables``, when the caller already holds them.
    """
    data = _partition_tables(partition, t) if tables is None else tables
    big = data["big"]
    d = t.fibers.d
    # a cell's statistics are squared and added one after another, in order
    val = sum(dens[labels] ** 2 for dens, labels in zip(data["dens"], partition.cell_labels))
    for phi in data["phi_dens"]:
        val += phi**2
    per_cell = val / (4 + d)
    # summed cell by cell, in order: np.sum would pair terms and round differently
    energy = float(np.cumsum(val)[-1]) / (big * big) / (4 + d)
    return {"energy": energy, "per_cell": per_cell, "cells": big * big, "codim": partition.codim}


# ---------------------------------------------------------------------------
# pseudorandomization


#: Complex entries per transform block of the batched U^2 search, which
#: keeps its spectrum temporaries near a MB; a longer row is one block.
_U2_BLOCK = 1 << 16


def _top_characters(rows: np.ndarray, p: int, dim: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Top character of each row of a (k, p^dim) stack, balanced to mean zero.

    Returns (index, correlation) per row: the canonical index of the
    largest Fourier coefficient (ties to the smallest index, as in
    inverse_u2) and its modulus, with index -1 where the row's U^2 norm
    is below eps.  Each block of rows is transformed once; the U^2
    fourth power sum |f_hat|^4 and the top coefficient are both read off
    that spectrum.  A row with entries in [0, 1] stays 1-bounded when
    balanced, so its correlation is at least its squared U^2 norm.
    """
    k, size = rows.shape
    index = np.full(k, -1, dtype=np.int64)
    corr = np.zeros(k)
    step = max(1, _U2_BLOCK // size)
    for start in range(0, k, step):
        block = rows[start : start + step].astype(np.complex128)
        block -= block.mean(axis=1, keepdims=True)
        mags = np.abs(dft_values(block, p, dim))
        del block  # one row can be the whole pair space
        best = top_index(mags)
        corr[start : start + step] = mags[np.arange(len(best)), best]
        mags *= mags
        mags *= mags
        fourth = mags.sum(axis=1)
        del mags  # freed before the next block's transform
        if np.any(fourth < RADICAND_FLOOR):
            raise ValueError(f"U^2 radicand {fourth.min()} is negative beyond tolerance; likely a bug")
        index[start : start + step] = np.where(np.maximum(fourth, 0.0) ** 0.25 >= eps, best, -1)
    return index, corr


def _pull_back(xi: np.ndarray, free: np.ndarray, basis: np.ndarray, p: int) -> np.ndarray:
    """Ambient characters of a (k, dim) stack of coset characters, checked
    to satisfy basis @ nu = xi (mod p).

    The basis has the identity on the ``free`` columns, so nu = xi on them
    and 0 elsewhere pulls xi back; any two pull-backs differ by an element
    of the kernel of the basis, the span of the partition's normals.
    """
    nu = np.zeros((len(xi), basis.shape[1]), dtype=np.int64)
    nu[:, free] = xi
    if not np.array_equal(nu @ basis.T % p, xi % p):
        raise AssertionError("a pulled-back character fails basis . nu = xi (mod p)")
    return nu


def _triggered_characters(
    rows: np.ndarray, p: int, halves: int, eps: float, basis: np.ndarray, free: np.ndarray
) -> dict[int, tuple[float, list[tuple[int, ...]]]]:
    """{row: (correlation, [ambient character])} for the rows of a stack
    whose U^2 norm reaches eps.

    A row is a table on ``halves`` (1 or 2) copies of the coset direction
    spanned by ``basis``, as on a coset or on a product cell; each half of
    the top character is pulled back through the basis's ``free`` columns
    on its own, and a zero half gives no character.
    """
    dim = len(basis)
    index, corr = _top_characters(rows, p, halves * dim, eps)
    hits = np.flatnonzero(index >= 0)
    xi = digits_of(p, halves * dim, index[hits]).reshape(-1, dim)
    nu = _pull_back(xi, free, basis, p).tolist()
    nonzero = xi.any(axis=1).tolist()
    return {
        row: (float(corr[row]), [tuple(nu[h]) for h in range(j * halves, (j + 1) * halves) if nonzero[h]])
        for j, row in enumerate(hits.tolist())
    }


def _check_scales(eps: float, tau: float) -> None:
    """Every threshold scales with eps and tau, so both must be finite and positive."""
    for name, value in (("eps", eps), ("tau", tau)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass
class PseudorandomizeResult:
    """``cell`` is the id ca + p^codim * cb of the selected cell on
    ``partition``, and ``level`` its fiber level; both are None when no
    cell was selected."""

    report: dict
    partition: ProductCosetPartition
    cell: int | None
    level: int | None
    met_threshold: bool


def pseudorandomize_u2(
    s_set: FunctionTable,
    t: StructuredProductSet,
    eps: float,
    tau: float,
) -> PseudorandomizeResult:
    """Refine a product coset partition until T's factors look uniform
    on every cell that still matters, then pick a dense cell for S.

    Uniformity is measured at the second Gowers scale throughout: a
    cell triggers when the balanced restriction of one of B, C, D (on
    its own coset pencil) or of a fiber level set (on the product cell)
    has U^2 norm at least eps.  Each round refines by the characters
    the triggering cells expose; the certified energy gain is

        sum over triggers of measure(cell) * correlation^2 / (4 + d)

    and the realized gain is asserted to be at least that (the energy
    is convex under refinement, and each pulled-back character is
    independent of the current normals, so the direction dimension
    strictly drops; at most n rounds can happen).  Cells whose factor
    densities have fallen below tau * mu(T) / 4 are expired and no
    longer refined on their account.

    Each round searches for characters in two batched U^2 steps: the
    coset rows of each factor set, one per coset label, are stacked and
    transformed together, and so are the fiber-level rows of every cell
    that has not expired (expired cells are never transformed).  The
    norm and the top character of a row come from one spectrum, and each
    character is pulled back to Z_p^n by placing it on the free
    coordinates of the direction.

    Afterwards the densest surviving (cell, fiber level) pair for S is
    selected; meeting the margin sigma + tau / 4 is reported, with the
    best ratio returned either way.
    """
    _check_scales(eps, tau)
    p, n = t.p, t.n
    sigma = _density_inside(s_set, t.table)
    mu_t = t.table.density
    expiry_floor = tau * mu_t / 4
    d = t.fibers.d
    budget_cap = (4 + d) / eps**4

    # each partition's tables are built once and serve its energy, its
    # round of the search and, for the last partition, the selection
    partition = ProductCosetPartition(p, n, ())
    data = _partition_tables(partition, t)
    rounds: list[dict] = []
    energy_prev = partition_energy(partition, t, data)["energy"]
    energy_trace = [energy_prev]
    stopped_because = ""

    while True:
        if partition.direction_dim == 0:
            stopped_because = "direction dimension exhausted"
            break
        big = data["big"]

        members = partition.members
        x_basis = partition.direction.basis()
        free = np.delete(np.arange(n), [row.index(1) for row in partition.normals])

        # per-label deviations of the y, sum and skew factor sets
        factor_devs = []
        for slot in FACTOR_SLOTS:
            devs = _triggered_characters(t.factor(slot).values[members], p, 1, eps, x_basis, free)
            # a top character of 0 pulls back to nothing to refine by
            factor_devs.append({lab: dev for lab, dev in devs.items() if dev[1]})

        # a cell expires when one of its factor densities falls below the floor
        lowest = np.minimum.reduce([*(dens[labels] for dens, labels in zip(data["dens"], partition.cell_labels)),
                                    data["phi_dens"][d]])
        live = np.flatnonzero(lowest >= expiry_floor)

        # fiber level i of every live cell, rows ordered by cell then level;
        # row entry ix + |V| iy is the pair at coset parameters (ix, iy), so
        # the x half of a character comes first
        phi_grid = t.fibers.table.as_pair_grid()
        xs, ys = members[live % big], members[live // big]
        lev = data["levels"][xs][:, None, None, :]
        on_level = (lev >= 0) & (lev <= np.arange(d + 1)[None, :, None, None])
        cell_phi = phi_grid[xs[:, None, :], ys[:, :, None]]
        level_rows = (cell_phi[:, None] & on_level).reshape(-1, members.shape[1] ** 2)
        level_devs = _triggered_characters(level_rows, p, 2, eps, x_basis, free)

        # trigger bookkeeping, cell by cell
        cell_measure = 1.0 / (big * big)
        triggered_cells = 0
        certified = 0.0
        chosen_chars: list[tuple[int, ...]] = []
        trigger_count = 0
        for j, labels in enumerate(partition.cell_labels[:, live].T.tolist()):
            cell_triggers = [devs[lab] for devs, lab in zip(factor_devs, labels) if lab in devs]
            rows = range(j * (d + 1), (j + 1) * (d + 1))  # the cell's levels 0..d
            cell_triggers += [level_devs[row] for row in rows if row in level_devs]
            if cell_triggers:
                triggered_cells += 1
                for corr, chars in cell_triggers:
                    certified += cell_measure * corr * corr / (4 + d)
                    trigger_count += 1
                    chosen_chars.extend(chars)

        nonuniform_mass = triggered_cells * cell_measure
        if nonuniform_mass < tau * mu_t / 2 or not chosen_chars:
            stopped_because = stopped_because or "non-uniform mass below tau * mu(T) / 2"
            break

        refined = partition
        added = 0
        # a repeated character already lies in the span, so try each once
        for nu in dict.fromkeys(chosen_chars):
            try:
                refined = refined.refine(nu)
                added += 1
            except ValueError:
                continue  # already captured by earlier characters this round
        if added == 0:
            stopped_because = "no independent character available"
            break
        refined_data = _partition_tables(refined, t)
        energy_now = partition_energy(refined, t, refined_data)["energy"]
        gain = energy_now - energy_prev
        if gain < certified - 1e-9:
            raise AssertionError(
                f"energy gain {gain} fell below the certified {certified}"
            )
        if gain <= 0:
            raise AssertionError("refinement produced no energy gain")
        rounds.append(
            {
                "round": len(rounds),
                "triggers": trigger_count,
                "characters_added": added,
                "certified_gain": certified,
                "energy_gain": gain,
                "nonuniform_mass": nonuniform_mass,
                "expired_cells": big * big - len(live),
                "floor_met": bool(certified >= eps**4 / (4 + d) - 1e-9),
            }
        )
        partition, data = refined, refined_data
        energy_prev = energy_now
        energy_trace.append(energy_now)
        if len(rounds) > budget_cap:
            raise AssertionError("round budget exceeded")

    # selection: densest surviving (cell, level) for S, the first one in
    # (level, cell) order on ties; T and S sit inside Phi, so each of their
    # pairs has a key
    big = data["big"]
    t_counts, s_counts = (np.bincount(data["key"][g.as_pair_grid()], minlength=(d + 1) * big * big)
                          for g in (t.table, s_set))
    pick = _densest(range(t_counts.size), s_counts, t_counts)
    # the first densest entry meets the margin whenever any entry does
    met = bool(pick is not None and pick[0] >= sigma + tau / 4)
    cell = level_pick = None
    if pick is not None:
        level_pick, cell = divmod(pick[1], big * big)
    report = {
        "uniformity_scale": "u2",
        "eps": eps,
        "tau": tau,
        "sigma": sigma,
        "t_density": mu_t,
        "rounds": rounds,
        "round_count": len(rounds),
        "energy_trace": energy_trace,
        "stopped_because": stopped_because,
        "final_codim": partition.codim,
        "selected": None
        if pick is None
        else {
            "cell_a_rhs": digits_of(p, partition.codim, cell % big).tolist(),
            "cell_b_rhs": digits_of(p, partition.codim, cell // big).tolist(),
            "level": level_pick,
            "ratio": pick[0],
            "s_count": str(pick[2]),
            "t_count": str(pick[3]),
            "met_threshold": met,
            "threshold": sigma + tau / 4,
        },
    }
    return PseudorandomizeResult(report, partition, cell, level_pick, met)


# ---------------------------------------------------------------------------
# increment moves


def _density_inside(s_set: FunctionTable, t_set: FunctionTable) -> float:
    """sigma = |S| / |T|, after checking that S sits inside a nonempty T."""
    if np.any(s_set.values & ~t_set.values):
        raise ValueError("the candidate set must sit inside the structured set")
    if t_set.cardinality == 0:
        raise ValueError("empty structured set")
    return s_set.cardinality / t_set.cardinality


def _densest(keys, inter: np.ndarray, mass: np.ndarray) -> tuple | None:
    """(ratio, key, |S ∩ T'|, |T'|) for the first candidate T' on which S
    is densest, skipping an empty T'; None when every T' is empty.

    The candidates come as scores, not as sets: ``inter[i]`` = |S ∩ T'|
    and ``mass[i]`` = |T'| of the candidate ``keys[i]``.
    """
    nonempty = np.flatnonzero(mass)
    if not nonempty.size:
        return None
    # argmax picks the first maximum, so ties go to the earliest candidate
    i = int(nonempty[np.argmax(inter[nonempty] / mass[nonempty])])
    s_count, t_count = int(inter[i]), int(mass[i])
    return s_count / t_count, keys[i], s_count, t_count


def _line_scores(
    s_set: FunctionTable, t: StructuredProductSet, slot: str, masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(|S ∩ T'|, |T'|) as int64 arrays, one entry per row of the 0/1
    matrix ``masks``, for T' = T ∩ {slot(x, y) in mask}.

    Both are the mask's sums of per-line counts along the slot: of T, and
    of S, which must sit inside T, so that its counts are those of S ∩ T.
    """
    counts = np.stack([line_counts(g.as_pair_grid(), t.p, t.n, slot) for g in (s_set, t.table)], axis=1)
    inter, mass = (masks.astype(np.int64) @ counts).T
    return inter, mass


def _recount_pairs(s_mask: np.ndarray, t_new: StructuredProductSet) -> int:
    """Independent recount of |S ∩ T| by a gather at T's members."""
    return int(np.count_nonzero(s_mask[t_new.table.member_indices()]))


def _check_winner(s_set: FunctionTable, t_new: StructuredProductSet, inter: int, mass: int) -> None:
    """Check the built (and so pointwise audited) winner T' against the
    scores it won with: its cardinality, and |S ∩ T'| counted twice, by
    an AND over the pair space and by a gather at T's members."""
    if t_new.table.cardinality != mass:
        raise AssertionError(f"scored |T'| = {mass}, built {t_new.table.cardinality}")
    if int(np.count_nonzero(s_set.values & t_new.table.values)) != inter:
        raise AssertionError("scored |S ∩ T'| disagrees with the built set")
    if _recount_pairs(s_set.values, t_new) != inter:
        raise AssertionError("density recount disagrees")


def _best_row_split(
    base_mask: np.ndarray, means: np.ndarray, threshold: float
) -> list[tuple[str, np.ndarray]]:
    """Candidate sub-bases from the signed fiber means."""
    pos_all = base_mask & (means > 0)
    pos_thr = base_mask & (means >= threshold)
    drop_neg = base_mask & (means > -threshold)
    cands = []
    for name, mask in (
        ("positive-rows", pos_all),
        ("above-threshold", pos_thr),
        ("drop-negative", drop_neg),
        ("complement-positive", base_mask & ~pos_all),
        ("complement-threshold", base_mask & ~pos_thr),
    ):
        if mask.any() and not np.array_equal(mask, base_mask):
            cands.append((name, mask))
    return cands


def _split_increment(
    report: dict,
    s_set: FunctionTable,
    t: StructuredProductSet,
    sigma: float,
    slot: str,
    means: np.ndarray,
    threshold: float,
) -> dict:
    """Split the factor of T that lives in ``slot`` by signed means and
    keep the denser side; slot "x" splits the base of the fibers.

    Every candidate sub-factor lies inside the factor, so the candidate
    is T' = T ∩ {slot(x, y) in mask}: |S ∩ T'| and |T'| are the mask's
    sums of the line counts of S (which sits inside T) and of T.  The
    candidates are scored from those counts, and only the winner is
    built as a structured set.
    """
    factor = t.factor(slot)
    cands = _best_row_split(factor.values, means, threshold)
    masks = np.array([mask for _, mask in cands]).reshape(len(cands), factor.size)
    best = _densest(range(len(cands)), *_line_scores(s_set, t, slot, masks))
    if best is None or best[0] <= sigma:
        report.update({"gained": False, "reason": "no split beat the current density"})
        return report
    ratio, i, inter, mass = best
    cand_name, mask = cands[i]
    t_new = t.with_factor(slot, FunctionTable(factor.p, factor.m, mask))
    _check_winner(s_set, t_new, inter, mass)
    report.update(
        {
            "gained": True,
            "split": cand_name,
            "new_sigma": ratio,
            "gain": ratio - sigma,
            "s_count": str(inter),
            "t_count": str(mass),
        }
    )
    report["_new_t"] = t_new
    report["_new_s"] = s_set.times(t_new.table)
    return report


#: The pencils of lines that the fiber-mean move scans, in order, by name,
#: with the slot that is constant on each line.
_PENCILS = {"x-rows": "x", "y-columns": "y", "anti-diagonals": "x+y"}


def fiber_mean_increment(s_set: FunctionTable, t: StructuredProductSet, tau: float) -> dict:
    """Degree-one density increment from a biased pencil of fiber means.

    Scans the x-row, y-column and anti-diagonal pencils of
    g = S - sigma * T in that order.  A pencil triggers when its mean
    square bias beats tau times (own factor density) times (product of
    the other densities)^2; the triggering factor set is then split by
    the signed means and the denser side is returned as a new
    structured set, with the densities recounted independently.  If no
    pencil triggers, or the split cannot beat sigma, the report says so
    and nothing is replaced.
    """
    sigma = _density_inside(s_set, t.table)
    g = s_set.as_pair_grid() - sigma * t.table.as_pair_grid()
    report: dict = {"sigma": sigma, "tau": tau, "pencils": {}}
    chosen = None
    for name, slot in _PENCILS.items():
        means = line_means(g, t.p, t.n, slot)
        others = t.others_density(slot)
        stat = float(np.mean(np.abs(means) ** 2))
        trigger = tau * t.factor(slot).density * others**2
        report["pencils"][name] = {"stat": stat, "trigger": trigger, "fires": stat >= trigger}
        if chosen is None and stat >= trigger:
            chosen = (name, slot, means, others)
    if chosen is None:
        report.update({"gained": False, "reason": "no pencil fired"})
        return report

    name, slot, means, others = chosen
    threshold = (tau**0.5 / 4) * others
    report["chosen_pencil"] = name
    report["fiber_threshold"] = threshold
    return _split_increment(report, s_set, t, sigma, slot, means, threshold)


def skew_line_increment(s_set: FunctionTable, t: StructuredProductSet, tau: float) -> dict:
    """Density increment from biased skew lines 2x + y = w.

    The line means m(w) = E_x g(x, w - 2x) are thresholded at
    tau * alpha beta gamma rho / 4; if any line is biased, the skew
    factor D is split by the signed means and the denser side kept.
    """
    sigma = _density_inside(s_set, t.table)
    g = s_set.as_pair_grid() - sigma * t.table.as_pair_grid()
    means = line_means(g, t.p, t.n, "2x+y")
    threshold = t.others_density("2x+y", tau) / 4
    fired = bool(np.any(np.abs(means) >= threshold))
    report = {
        "sigma": sigma,
        "tau": tau,
        "line_threshold": threshold,
        "max_line_bias": float(np.abs(means).max()),
        "fires": fired,
    }
    if not fired:
        report.update({"gained": False, "reason": "no line is biased"})
        return report
    return _split_increment(report, s_set, t, sigma, "2x+y", means, threshold)


def align_offset_increment(s_set: FunctionTable, t: StructuredProductSet, tau: float) -> dict:
    """Recover a shared fiber offset for a family whose fibers need not
    share one, as after renormalization to a cell.

    Every u in Z_p^n keeps the sub-base A_u of points whose fiber
    passes through u, and u is an offset of every fiber over A_u.
    Counting each base point once per point of its fiber gives the
    exact integer identity

        sum_u |A_u| = |A| * p^(n - d),

    which is asserted.  Candidates are the offsets whose sub-base holds
    at least tau * alpha * rho / 2 of the space; the one giving the
    densest S inside the structured set T_u over A_u wins.  T_u is T
    with the rows off A_u cleared, so |S ∩ T_u| and |T_u| for every u at
    once are the row counts of S and of T times Phi; only the winner is
    built.
    Offsets breaking the mass upper bound (4 / tau times alpha * rho)
    are reported, not refused; if no candidate clears the floor the
    best offset overall is used and flagged.
    """
    fam = t.fibers
    p, n, d = fam.p, fam.n, fam.d
    size = p**n
    sigma = _density_inside(s_set, t.table)
    alpha = fam.base.density
    rho = fam.rho

    counts = fam.table.as_pair_grid().sum(axis=0)  # counts[u] = |A_u|
    lhs_total = int(counts.sum())
    rhs_total = fam.base.cardinality * p ** (n - d)
    if lhs_total != rhs_total:
        raise AssertionError(f"offset count identity failed: {lhs_total} != {rhs_total}")

    floor = tau * alpha * rho / 2 * size  # cardinality scale
    ceiling = (4 / tau) * alpha * rho * size
    candidates = np.flatnonzero((counts >= floor) & (counts > 0))
    violations = np.flatnonzero(counts > ceiling)
    used_fallback = False
    if not candidates.size:
        candidates = np.flatnonzero(counts > 0)
        used_fallback = True

    # T_u keeps the rows of T over A_u, column u of Phi
    best = _densest(candidates.tolist(), *_line_scores(s_set, t, "x", fam.table.as_pair_grid().T[candidates]))
    if best is None:
        return {
            "gained": False,
            "reason": "no viable offset",
            "identity_lhs": str(lhs_total),
            "identity_rhs": str(rhs_total),
        }
    ratio, u, inter, mass = best
    t_u = t.with_factor("x", fam.aligned_base_at(u))
    _check_winner(s_set, t_u, inter, mass)
    s_new = s_set.times(t_u.table)
    report = {
        "sigma_mixed": sigma,
        "new_sigma": ratio,
        "gain": ratio - sigma,
        "gained": ratio >= sigma,
        "chosen_offset": digits_of(p, n, u).tolist(),
        "candidates": len(candidates),
        "mass_floor": floor / size,
        "mass_ceiling_violations": digits_of(p, n, violations).tolist(),
        "used_fallback": used_fallback,
        "identity_lhs": str(lhs_total),
        "identity_rhs": str(rhs_total),
        "s_count": str(inter),
        "t_count": str(mass),
    }
    report["_new_t"] = t_u
    report["_new_s"] = s_new
    return report


# ---------------------------------------------------------------------------
# extremal configuration-free sets

_EXHAUSTIVE_POINTS_CAP = 49
_HEURISTIC_POINTS_CAP = 16384


def _l_quads(p: int, n: int) -> np.ndarray:
    """All configurations ((x,y),(x,y+z),(x,y+2z),(x+z,y)) with z != 0, as
    an int32 (Q, 4) array of pair indices, one row per (z, x, y), y fastest."""
    size = p**n
    z = np.arange(1, size)[:, None, None]
    x = np.arange(size, dtype=np.int32)[None, :, None]
    y = np.arange(size, dtype=np.int32)[None, None, :]
    quads = np.empty((size - 1, size, size, 4), dtype=np.int32)
    quads[..., 0] = x + size * y
    quads[..., 1] = x + size * combine(p, n, (1, 1), (y, z)).astype(np.int32)
    quads[..., 2] = x + size * combine(p, n, (1, 2), (y, z)).astype(np.int32)
    quads[..., 3] = combine(p, n, (1, 1), (x, z)).astype(np.int32) + size * y
    return quads.reshape(-1, 4)


def _point_index(quads: np.ndarray, total: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR index from points to configurations: ``ids[ptr[pt]:ptr[pt + 1]]``
    are the rows of ``quads`` that contain pt, in row order."""
    flat = quads.ravel()
    # a key of at most 16 bits sorts by radix
    ids = np.argsort(flat.astype(np.min_scalar_type(total - 1)), kind="stable")
    ids //= 4
    ptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=total), out=ptr[1:])
    return ptr, ids.astype(np.int32)


def _verify_l_free(s: FunctionTable) -> bool:
    return lshape_average(s, s, s, s).nontrivial_count == 0


def _greedy_l_free(
    quads: np.ndarray, ptr: np.ndarray, ids: np.ndarray, order: np.ndarray, start: np.ndarray | None = None
) -> np.ndarray:
    """Take the points of ``order`` in turn, skipping any that would
    complete a configuration with those already taken; ``start`` (a bool
    mask) is taken before the walk.  Returns the bool mask of taken points.

    Blocking is incremental: ``filled`` counts the taken points of every
    configuration, and one that reaches three blocks its untaken point, so
    a point is taken iff it is neither taken nor blocked.
    """
    chosen = np.zeros(len(ptr) - 1, dtype=bool) if start is None else start.copy()
    filled = chosen[quads].sum(axis=1, dtype=np.int8)
    blocked = np.zeros_like(chosen)
    full = quads[filled == 3]
    blocked[full[~chosen[full]]] = True
    for pt in order.tolist():
        if chosen[pt] or blocked[pt]:
            continue
        chosen[pt] = True
        mine = ids[ptr[pt] : ptr[pt + 1]]
        filled[mine] += 1
        full = quads[mine[filled[mine] == 3]]
        blocked[full[~chosen[full]]] = True
    return chosen


def _exhaustive_l_free(quads: np.ndarray, total: int) -> int:
    """Largest configuration-free set as a bitset: the first one of
    maximum size in include-first order over the points in index order.

    Depth-first search with two exact bounds.  Forward checking: points
    are decided in index order, so a configuration q0 < q1 < q2 < q3 can
    only be completed by q3, and when q2 is taken with q0 and q1 already
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
    for q0, q1, q2, q3 in np.sort(quads, axis=1).tolist():
        forward[q2].append((1 << q0 | 1 << q1, 1 << q3))
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
    the (p^n - 1) p^(2n) configurations and a CSR index from points to
    configurations, and block a point as soon as three points of one of
    its configurations are taken, so no configuration is tested point by
    point.  Every output is re-verified by counting configurations
    directly before returning.
    """
    size = check_size(p, n)
    total = size * size
    if method == "exhaustive" and total > _EXHAUSTIVE_POINTS_CAP:
        raise ResourceLimitError(f"exhaustive search capped at {_EXHAUSTIVE_POINTS_CAP} points, got {total}")
    if total > _HEURISTIC_POINTS_CAP:
        raise ResourceLimitError(f"search space has {total} points, capped at {_HEURISTIC_POINTS_CAP}")
    if method not in ("exhaustive", "greedy", "local", "random"):
        raise ValueError(f"unknown method {method!r}")
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations}")
    if method == "random" and iterations == 0:
        raise ValueError("the random method needs at least one iteration")
    quads = _l_quads(p, n)

    if method == "exhaustive":
        best = _exhaustive_l_free(quads, total)
        result = np.array([best >> i & 1 for i in range(total)], dtype=bool)
        extra = {"optimal": True}
    else:
        ptr, ids = _point_index(quads, total)
        rng = np.random.default_rng(seed)

        def greedy(start: np.ndarray | None = None) -> np.ndarray:
            return _greedy_l_free(quads, ptr, ids, rng.permutation(total), start)

        if method == "greedy":
            result = greedy()
            extra = {"optimal": False}
        elif method == "local":
            result = greedy()
            for _ in range(iterations):
                trial = result.copy()
                members = np.flatnonzero(trial)
                if members.size:
                    trial[rng.choice(members, size=min(2, members.size), replace=False)] = False
                # refill greedily in a fresh random order, keeping the survivors
                trial = greedy(start=trial)
                if np.count_nonzero(trial) >= np.count_nonzero(result):
                    result = trial
            extra = {"optimal": False, "iterations": iterations}
        else:
            result = np.zeros(total, dtype=bool)
            for _ in range(iterations):
                cand = greedy()
                if np.count_nonzero(cand) > np.count_nonzero(result):
                    result = cand
            extra = {"optimal": False, "iterations": iterations}

    indices = np.flatnonzero(result).tolist()
    if not _verify_l_free(FunctionTable(p, 2 * n, result)):
        raise AssertionError("search produced a set containing a configuration")
    out = {
        "p": p,
        "n": n,
        "method": method,
        "cardinality": len(indices),
        "density": len(indices) / total,
        "indices": indices,
        "verified_free": True,
    }
    out.update(extra)
    if method != "exhaustive":
        out["seed"] = seed
    return out


# ---------------------------------------------------------------------------
# planted instances with a known one-step gain


def planted_row_instance(p: int, n: int) -> tuple[FunctionTable, StructuredProductSet]:
    """S fills half the x rows of a full structured set.

    The row-pencil bias of S - sigma * T is sigma * (1 - sigma) on every
    row, so the fiber-mean move must fire and reach density one.
    """
    full = FunctionTable(p, n, np.ones(p**n, dtype=bool))
    t = StructuredProductSet(full, full, full, FiberFamily.full(full))
    size = p**n
    half = size // 2
    mask = np.zeros(size * size, dtype=bool)
    for y in range(size):
        mask[size * y : size * y + half] = True
    return FunctionTable(p, 2 * n, mask), t


def planted_skew_instance(p: int, n: int) -> tuple[FunctionTable, StructuredProductSet]:
    """S fills the skew lines 2x + y = w for half the w values.

    Row, column and anti-diagonal means of S - sigma * T all vanish, so
    only the skew-line move can fire; it must reach density one.
    """
    full = FunctionTable(p, n, np.ones(p**n, dtype=bool))
    t = StructuredProductSet(full, full, full, FiberFamily.full(full))
    return FunctionTable(p, 2 * n, slot_index_array(p, n, "2x+y") < p**n // 2), t


# ---------------------------------------------------------------------------
# the driver


def _renormalize_to_cell(
    s_set: FunctionTable,
    t: StructuredProductSet,
    partition: ProductCosetPartition,
    cell: int,
    level: int,
) -> tuple[FunctionTable, StructuredProductSet] | None:
    """Restrict (S, T) to cell ∩ level and rewrite in coset coordinates.

    The cell (a + V) x (b + V) has id ``cell`` on ``partition``; its x, y,
    sum and skew cosets are rows of the partition's member table, so
    points are re-parametrized by the parameters of V, the new ambient
    dimension is dim V and the new Phi is the old one on the cell's grid
    of points.  A fiber meets the y coset in 0 or p^(dim V - l) points,
    where l is its codimension inside the coset, so the fibers of level
    ``level`` are the cell rows with p^(dim V - level) points; the
    rewritten family keeps those rows.  Its fibers need not share an
    offset, which alignment recovers.  Returns the restricted S and the
    structured set of the cell, or None when no base point survives on
    the cell.
    """
    p = t.p
    new_n = partition.direction_dim
    if new_n == 0:
        return None
    xs = partition.members[cell % p**partition.codim]
    cosets = partition.members[partition.cell_labels[:, cell]]  # the cosets of the factor slots
    ys = cosets[0]
    cell_phi = t.fibers.table.as_pair_grid()[np.ix_(xs, ys)]
    keep = np.count_nonzero(cell_phi, axis=1) == p ** (new_n - level)
    if not keep.any():
        return None
    fam_new = FiberFamily(p, new_n, level, FunctionTable.from_pair_grid(p, new_n, cell_phi & keep[:, None]))
    factors = (FunctionTable(p, new_n, t.factor(slot).values[pts]) for slot, pts in zip(FACTOR_SLOTS, cosets))
    t_cell = StructuredProductSet(*factors, fam_new)
    s_cell = s_set.as_pair_grid()[np.ix_(xs, ys)] & fam_new.table.as_pair_grid()
    return FunctionTable.from_pair_grid(p, new_n, s_cell), t_cell


def increment_driver(
    s_set: FunctionTable,
    t: StructuredProductSet,
    eps: float,
    tau: float,
    max_steps: int = 24,
    require_l_free: bool = True,
) -> dict:
    """Iterate density increments on a configuration-free S inside T.

    S must sit inside a nonempty T; that is checked once, up front, and
    every move keeps it so.  Each step tries, in order: the fiber-mean
    split, the skew-line split, and finally pseudorandomization followed
    by restriction to the selected cell and fiber level, renormalization
    to the cell's coordinates, and offset alignment.  The trajectory records every
    step; the loop stops when S is empty or fills T, when the ambient
    dimension is exhausted, when no move gains density, or at the step
    cap.  With ``require_l_free``, an S that holds configurations on
    entry is bad input (ValueError), and S is re-counted after every
    coordinate change (affine renormalization maps configurations to
    configurations, so this is an audit, not a hope).  A split move
    keeps the coordinates and returns S ∩ T', which is checked to lie
    inside S and so cannot gain a configuration.
    """
    _check_scales(eps, tau)
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    _density_inside(s_set, t.table)

    if require_l_free and not _verify_l_free(s_set):
        found = lshape_average(s_set, s_set, s_set, s_set).nontrivial_count
        raise ValueError(f"the candidate set holds {found} nontrivial configurations")
    trajectory: list[dict] = []
    current_s, current_t = s_set, t
    halted = ""
    for step in range(max_steps):
        t_mass = current_t.table.cardinality
        s_mass = current_s.cardinality
        sigma = s_mass / t_mass
        if s_mass == 0:
            halted = "candidate set is empty"
            break
        record = {
            "step": step,
            "p": current_t.p,
            "ambient_dim": current_t.n,
            "sigma": sigma,
            "s_count": str(s_mass),
            "t_count": str(t_mass),
        }
        if s_mass == t_mass:
            record["action"] = "halt"
            trajectory.append(record)
            halted = "candidate set fills the structured set"
            break

        for action, move in (("fiber-mean", fiber_mean_increment), ("skew-line", skew_line_increment)):
            split = move(current_s, current_t, tau)
            if split.get("gained"):
                break
        if split.get("gained"):
            record["action"] = action
            record["detail"] = {k: v for k, v in split.items() if not k.startswith("_")}
            trajectory.append(record)
            if np.any(split["_new_s"].values & ~current_s.values):
                raise AssertionError(f"the {action} move left the candidate set")
            current_s, current_t = split["_new_s"], split["_new_t"]
            continue

        pr = pseudorandomize_u2(current_s, current_t, eps, tau)
        record["action"] = "pseudorandomize"
        record["detail"] = pr.report
        if pr.cell is None:
            trajectory.append(record)
            halted = "no cell to select"
            break
        if pr.partition.direction_dim == 0:
            trajectory.append(record)
            halted = "dimension exhausted"
            break
        renorm = _renormalize_to_cell(current_s, current_t, pr.partition, pr.cell, pr.level)
        if renorm is None:
            trajectory.append(record)
            halted = "selected cell has no surviving base"
            break
        s_cell, t_cell = renorm
        align = align_offset_increment(s_cell, t_cell, tau)
        record["alignment"] = {k: v for k, v in align.items() if not k.startswith("_")}
        trajectory.append(record)
        if "_new_t" not in align:
            halted = "alignment found no offset"
            break
        new_sigma = align["new_sigma"]
        if new_sigma <= sigma:
            halted = "no density gain from restriction"
            break
        current_s, current_t = align["_new_s"], align["_new_t"]
        if require_l_free and not _verify_l_free(current_s):
            raise AssertionError("the candidate set acquired a configuration")

    else:
        halted = "step cap reached"
    return {
        "halted_because": halted,
        "steps": len(trajectory),
        "trajectory": trajectory,
        "final_sigma": current_s.cardinality / current_t.table.cardinality,
        "final_ambient_dim": current_t.n,
    }
