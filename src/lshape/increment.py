"""Density and energy increment machinery on the pair space.

The engine works with product coset partitions: a subspace direction V
of Z_p^n (stored through the reduced normal rows R that cut it out)
splits the pair space into cells (a + V) x (b + V).  Relative to a
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

import itertools
from dataclasses import dataclass

import numpy as np

from .field import (
    AffineSubspace,
    GroupVector,
    ResourceLimitError,
    combine,
    digit_table,
    index_of,
    line_means,
    modular_rref,
    rank_mod,
    solve_mod,
    subspace_from_normals,
)
from .norms import gowers_norm
from .patterns import lshape_average
from .spectral import inverse_u2
from .structured import FiberFamily, MixedFiberFamily, StructuredProductSet
from .tables import FunctionTable, IndicatorSet, product_lift

__all__ = [
    "Cell",
    "ProductCosetPartition",
    "refine_on_character",
    "partition_energy",
    "energy_monotone_check",
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
class Cell:
    """One cell (a + V) x (b + V) of a product coset partition.

    ``normals`` are the reduced rows cutting out V; ``a_rhs`` and
    ``b_rhs`` are the values those rows take on the x and y cosets.
    """

    p: int
    n: int
    normals: tuple[tuple[int, ...], ...]
    a_rhs: tuple[int, ...]
    b_rhs: tuple[int, ...]

    @property
    def x_coset(self) -> AffineSubspace:
        return subspace_from_normals(self.p, self.n, self.normals, self.a_rhs)

    @property
    def y_coset(self) -> AffineSubspace:
        return subspace_from_normals(self.p, self.n, self.normals, self.b_rhs)

    @property
    def direction_dim(self) -> int:
        return self.n - len(self.normals)

    @property
    def measure(self) -> float:
        return float(self.p ** (2 * self.direction_dim)) / float(self.p ** (2 * self.n))

    def pair_member_mask(self) -> np.ndarray:
        size = self.p**self.n
        xm = np.zeros(size, dtype=bool)
        ym = np.zeros(size, dtype=bool)
        xm[self.x_coset.member_indices()] = True
        ym[self.y_coset.member_indices()] = True
        return (xm[:, None] & ym[None, :]).reshape(-1, order="F")


@dataclass(frozen=True)
class ProductCosetPartition:
    """All cells (a + V) x (b + V) for a fixed direction V."""

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

    def cells(self) -> list[Cell]:
        out = []
        for b in itertools.product(range(self.p), repeat=self.codim):
            for a in itertools.product(range(self.p), repeat=self.codim):
                out.append(Cell(self.p, self.n, self.normals, a, b))
        return out

    def refine(self, character: tuple[int, ...] | GroupVector) -> "ProductCosetPartition":
        """New partition with direction V intersected with the character's kernel."""
        row = character.digits if isinstance(character, GroupVector) else tuple(int(v) % self.p for v in character)
        stacked = list(self.normals) + [row]
        red, piv = modular_rref(np.array(stacked, dtype=np.int64), self.p)
        if len(piv) != len(self.normals) + 1:
            raise ValueError("character lies in the span of the existing normals")
        return ProductCosetPartition(self.p, self.n, tuple(tuple(int(v) for v in r) for r in red))

    def cover_check(self) -> dict:
        """Audit: the cells tile the pair space exactly once."""
        size = self.p**self.n
        lab = self.label_index()
        counts = np.bincount(lab, minlength=self.p**self.codim)
        ok = bool(np.all(counts == self.p**self.direction_dim))
        return {"cells": (self.p**self.codim) ** 2, "point_cover_ok": ok,
                "pair_count": size * size}


def refine_on_character(cell: Cell, character: tuple[int, ...] | GroupVector) -> list[Cell]:
    """Split one cell into the p^2 subcells cut out by a new character.

    The character must be independent of the cell's normals (otherwise
    it is constant on the cell and splits nothing).  Every recipe that
    refines on a single character produces this same grid: the subcell
    of a pair is determined by the character's value on x and on y.
    """
    p = cell.p
    new_normals = ProductCosetPartition(p, cell.n, cell.normals).refine(character).normals
    row = character.digits if isinstance(character, GroupVector) else tuple(int(v) % p for v in character)
    mat = np.array(new_normals, dtype=np.int64)
    # enumerate subcells by the character's value on each side; read the
    # reduced rhs off a concrete point of each subcell
    out = []
    xs = cell.x_coset.member_indices()
    ys = cell.y_coset.member_indices()
    dt = digit_table(p, cell.n)
    rvec = np.array(row, dtype=np.int64)
    xvals = (dt[xs] @ rvec) % p
    yvals = (dt[ys] @ rvec) % p
    for va in range(p):
        for vb in range(p):
            x_pt = xs[int(np.flatnonzero(xvals == va)[0])]
            y_pt = ys[int(np.flatnonzero(yvals == vb)[0])]
            a_rhs = tuple(int(v) for v in (mat @ dt[x_pt]) % p)
            b_rhs = tuple(int(v) for v in (mat @ dt[y_pt]) % p)
            out.append(Cell(p, cell.n, new_normals, a_rhs, b_rhs))
    return out


# ---------------------------------------------------------------------------
# energy


def _fiber_level_of_points(fam: FiberFamily, normals: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """level(x) = rank(normals of V stacked with x's fiber normals) - codim V.

    Defined for base points; off-base entries are set to -1.
    """
    p, n = fam.p, fam.n
    size = p**n
    k = len(normals)
    out = np.full(size, -1, dtype=np.int64)
    r_rows = np.array(normals, dtype=np.int64).reshape(k, n)
    for x in fam.base.member_indices():
        out[x] = rank_mod(np.vstack([r_rows, fam.normals[x]]), p) - k if fam.d else 0
    return out


def _partition_tables(partition: ProductCosetPartition, t: StructuredProductSet) -> dict:
    """Per-cell conditional densities of T's factors, vectorized by label."""
    p, n = t.p, t.n
    size = p**n
    k = partition.codim
    big = p**k
    lab = partition.label_index()
    coset_size = p ** (n - k)

    def set_density_by_label(s: IndicatorSet) -> np.ndarray:
        return np.bincount(lab[s.mask], minlength=big) / coset_size

    dens_b = set_density_by_label(t.y_set)
    dens_c = set_density_by_label(t.sum_set)
    dens_d = set_density_by_label(t.skew_set)

    levels = _fiber_level_of_points(t.fibers, partition.normals)
    phi_mask = t.fibers.table.mask
    pair_x = np.tile(np.arange(size), size)  # pair index = x + size * y
    pair_y = np.repeat(np.arange(size), size)
    cid = lab[pair_x] + big * lab[pair_y]
    d = t.fibers.d
    phi_dens = np.zeros((d + 1, big * big))
    for i in range(d + 1):
        mask_i = phi_mask & (levels[pair_x] >= 0) & (levels[pair_x] <= i)
        phi_dens[i] = np.bincount(cid[mask_i], minlength=big * big) / (coset_size * coset_size)

    # labels of the sum coset (a+b) + V and the skew coset (2a+b) + V of
    # every cell, indexed like cid
    ca, cb = np.arange(big)[None, :], np.arange(big)[:, None]
    return {
        "lab": lab,
        "big": big,
        "coset_size": coset_size,
        "dens_b": dens_b,
        "dens_c": dens_c,
        "dens_d": dens_d,
        "phi_dens": phi_dens,
        "levels": levels,
        "lab_digits": digit_table(p, k),
        "sum_lab": combine(p, k, (1, 1), (ca, cb)).reshape(-1),
        "skew_lab": combine(p, k, (2, 1), (ca, cb)).reshape(-1),
        "cid": cid,
        "pair_x": pair_x,
        "pair_y": pair_y,
    }


def partition_energy(partition: ProductCosetPartition, t: StructuredProductSet) -> dict:
    """Mean-square energy of T's factor densities over the partition.

    Every cell has equal measure, so the energy is the plain average
    over cells of beta^2 + gamma^2 + delta^2 + sum_i phi_i^2, divided
    by 4 + d.  The result lies in [0, 1].
    """
    data = _partition_tables(partition, t)
    big = data["big"]
    d = t.fibers.d
    val = (
        np.repeat(data["dens_b"], big) ** 2
        + data["dens_c"][data["sum_lab"]] ** 2
        + data["dens_d"][data["skew_lab"]] ** 2
    )
    for i in range(d + 1):
        val += data["phi_dens"][i] ** 2
    per_cell = val / (4 + d)
    # summed cell by cell, in order: np.sum would pair terms and round differently
    energy = float(np.cumsum(val)[-1]) / (big * big) / (4 + d)
    return {"energy": energy, "per_cell": per_cell, "cells": big * big, "codim": partition.codim}


def energy_monotone_check(
    coarse: ProductCosetPartition,
    fine: ProductCosetPartition,
    t: StructuredProductSet,
    slack: float = 1e-9,
) -> dict:
    """Energy never drops under refinement; also verifies the refinement."""
    if (coarse.p, coarse.n) != (fine.p, fine.n):
        raise ValueError("partitions live in different spaces")
    if coarse.normals:
        stacked = np.array(list(fine.normals) + list(coarse.normals), dtype=np.int64)
        if rank_mod(stacked, coarse.p) != len(fine.normals):
            raise ValueError("fine partition does not refine the coarse one")
    e0 = partition_energy(coarse, t)["energy"]
    e1 = partition_energy(fine, t)["energy"]
    return {"coarse_energy": e0, "fine_energy": e1, "holds": e1 >= e0 - slack}


# ---------------------------------------------------------------------------
# pseudorandomization


def _pull_back_character(basis_rows: np.ndarray, xi_digits: np.ndarray, p: int) -> tuple[int, ...] | None:
    """Ambient character nu with basis_rows @ nu = xi (mod p), or None for xi = 0."""
    if not np.any(xi_digits % p):
        return None
    sol = solve_mod(basis_rows % p, xi_digits % p, p)
    if sol is None:
        raise AssertionError("character pull-back must be solvable for independent basis rows")
    return tuple(int(v) for v in sol)


def _coset_balanced_deviation(values: np.ndarray, members: np.ndarray, p: int, dim: int):
    """U^2 norm and top character of a set restricted to a coset, balanced."""
    sub = values[members].astype(np.complex128)
    mean = sub.mean()
    table = FunctionTable(p, dim, sub - mean)
    norm = gowers_norm(table, 2).value
    return table, norm


@dataclass
class PseudorandomizeResult:
    report: dict
    partition: ProductCosetPartition
    cell: Cell | None
    level: int | None
    met_threshold: bool


def pseudorandomize_u2(
    s_set: IndicatorSet,
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

    Afterwards the densest surviving (cell, fiber level) pair for S is
    selected; meeting the margin sigma + tau / 4 is reported, with the
    best ratio returned either way.
    """
    p, n = t.p, t.n
    size = p**n
    sigma = _density_inside(s_set, t.table)
    mu_t = t.table.density
    expiry_floor = tau * mu_t / 4
    d = t.fibers.d
    budget_cap = (4 + d) / eps**4

    partition = ProductCosetPartition(p, n, ())
    rounds: list[dict] = []
    energy_prev = partition_energy(partition, t)["energy"]
    energy_trace = [energy_prev]
    stopped_because = ""

    while True:
        if partition.direction_dim == 0:
            stopped_because = "direction dimension exhausted"
            break
        data = _partition_tables(partition, t)
        big = data["big"]
        coset_dim = partition.direction_dim

        # coset bases shared by every cell of the current direction
        sample = subspace_from_normals(p, n, partition.normals, (0,) * partition.codim)
        basis_vecs = sample.basis()
        x_basis = np.array([v.digits for v in basis_vecs], dtype=np.int64).reshape(coset_dim, n)

        # members per label, ordered by coset parameters
        members_by_label = [subspace_from_normals(p, n, partition.normals, labels).member_indices()
                            for labels in data["lab_digits"]]

        # per-label deviations of the three factor sets
        factor_devs: dict[str, dict[int, tuple[float, tuple[int, ...], float]]] = {}
        for name, s in (("y", t.y_set), ("sum", t.sum_set), ("skew", t.skew_set)):
            found: dict[int, tuple[float, tuple[int, ...], float]] = {}
            for lab_id, members in enumerate(members_by_label):
                table, norm = _coset_balanced_deviation(s.mask, members, p, coset_dim)
                if norm >= eps:
                    freq, corr = inverse_u2(table)
                    nu = _pull_back_character(x_basis, np.array(freq.digits, dtype=np.int64), p)
                    if nu is not None:
                        found[lab_id] = (norm, nu, corr)
            factor_devs[name] = found

        # per-cell fiber level deviations on the product coset
        phi_devs: dict[tuple[int, int, int], tuple[float, tuple, float]] = {}
        pair_basis = np.zeros((2 * coset_dim, 2 * n), dtype=np.int64)
        pair_basis[:coset_dim, :n] = x_basis
        pair_basis[coset_dim:, n:] = x_basis
        levels = data["levels"]
        phi_grid = t.fibers.table.mask.reshape((size, size), order="F")
        # level i of the family on the pair grid, shared by every cell
        level_grids = [phi_grid & ((levels >= 0) & (levels <= i))[:, None] for i in range(d + 1)]
        for cb in range(big):
            for ca in range(big):
                ys = members_by_label[cb]
                xs = members_by_label[ca]
                for i in range(d + 1):
                    sub = level_grids[i][np.ix_(xs, ys)]
                    flat = sub.reshape(-1, order="F").astype(np.complex128)
                    mean = flat.mean()
                    table = FunctionTable(p, 2 * coset_dim, flat - mean)
                    norm = gowers_norm(table, 2).value
                    if norm >= eps:
                        freq, corr = inverse_u2(table)
                        fd = np.array(freq.digits, dtype=np.int64)
                        nu_x = _pull_back_character(x_basis, fd[:coset_dim], p)
                        nu_y = _pull_back_character(x_basis, fd[coset_dim:], p)
                        phi_devs[(ca, cb, i)] = (norm, (nu_x, nu_y), corr)

        # expiry and trigger bookkeeping, cell by cell
        cell_measure = 1.0 / (big * big)
        triggered_cells = set()
        expired_cells = set()
        certified = 0.0
        chosen_chars: list[tuple[int, ...]] = []
        trigger_count = 0
        for cb in range(big):
            for ca in range(big):
                cell_id = ca + big * cb
                sum_lab = int(data["sum_lab"][cell_id])
                skew_lab = int(data["skew_lab"][cell_id])
                beta = data["dens_b"][cb]
                gamma = data["dens_c"][sum_lab]
                delta = data["dens_d"][skew_lab]
                phi_full = data["phi_dens"][d][cell_id]
                if min(beta, gamma, delta, phi_full) < expiry_floor:
                    expired_cells.add(cell_id)
                    continue
                cell_triggers: list[tuple[float, list[tuple[int, ...]]]] = []
                if cb in factor_devs["y"]:
                    norm, nu, corr = factor_devs["y"][cb]
                    cell_triggers.append((corr, [nu]))
                if sum_lab in factor_devs["sum"]:
                    norm, nu, corr = factor_devs["sum"][sum_lab]
                    cell_triggers.append((corr, [nu]))
                if skew_lab in factor_devs["skew"]:
                    norm, nu, corr = factor_devs["skew"][skew_lab]
                    cell_triggers.append((corr, [nu]))
                for i in range(d + 1):
                    key = (ca, cb, i)
                    if key in phi_devs:
                        norm, (nu_x, nu_y), corr = phi_devs[key]
                        chars = [c for c in (nu_x, nu_y) if c is not None]
                        cell_triggers.append((corr, chars))
                if cell_triggers:
                    triggered_cells.add(cell_id)
                    for corr, chars in cell_triggers:
                        certified += cell_measure * corr * corr / (4 + d)
                        trigger_count += 1
                        chosen_chars.extend(chars)

        nonuniform_mass = len(triggered_cells) * cell_measure
        if nonuniform_mass < tau * mu_t / 2 or not chosen_chars:
            stopped_because = stopped_because or "non-uniform mass below tau * mu(T) / 2"
            break

        refined = partition
        added = 0
        for nu in chosen_chars:
            try:
                refined = refined.refine(nu)
                added += 1
            except ValueError:
                continue  # already captured by earlier characters this round
        if added == 0:
            stopped_because = "no independent character available"
            break
        energy_now = partition_energy(refined, t)["energy"]
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
                "expired_cells": len(expired_cells),
                "floor_met": bool(certified >= eps**4 / (4 + d) - 1e-9),
            }
        )
        partition = refined
        energy_prev = energy_now
        energy_trace.append(energy_now)
        if len(rounds) > budget_cap:
            raise AssertionError("round budget exceeded")

    # selection: densest surviving (cell, level) for S
    data = _partition_tables(partition, t)
    big = data["big"]
    lab_digits = data["lab_digits"]
    cid = data["cid"]
    levels = data["levels"]
    pair_x = data["pair_x"]
    s_mask = s_set.mask
    t_mask = t.table.mask
    best = None
    best_meeting = None
    for i in range(d + 1):
        lev_ok = levels[pair_x] == i
        t_counts = np.bincount(cid[t_mask & lev_ok], minlength=big * big)
        s_counts = np.bincount(cid[s_mask & lev_ok], minlength=big * big)
        for cell_id in range(big * big):
            if t_counts[cell_id] == 0:
                continue
            ratio = s_counts[cell_id] / t_counts[cell_id]
            entry = (ratio, cell_id, i, int(s_counts[cell_id]), int(t_counts[cell_id]))
            if best is None or ratio > best[0]:
                best = entry
            if ratio >= sigma + tau / 4 and (best_meeting is None or ratio > best_meeting[0]):
                best_meeting = entry
    met = best_meeting is not None
    pick = best_meeting if met else best
    cell_obj = None
    level_pick = None
    if pick is not None:
        ratio, cell_id, level_pick, s_count, t_count = pick
        ca, cb = cell_id % big, cell_id // big
        a_rhs = tuple(int(v) for v in lab_digits[ca])
        b_rhs = tuple(int(v) for v in lab_digits[cb])
        cell_obj = Cell(p, n, partition.normals, a_rhs, b_rhs)
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
            "cell_a_rhs": list(cell_obj.a_rhs),
            "cell_b_rhs": list(cell_obj.b_rhs),
            "level": level_pick,
            "ratio": pick[0],
            "s_count": str(pick[3]),
            "t_count": str(pick[4]),
            "met_threshold": met,
            "threshold": sigma + tau / 4,
        },
    }
    return PseudorandomizeResult(report, partition, cell_obj, level_pick, met)


# ---------------------------------------------------------------------------
# increment moves


def _density_inside(s_set: IndicatorSet, t_set: IndicatorSet) -> float:
    """sigma = |S| / |T|, after checking that S sits inside a nonempty T."""
    if np.any(s_set.mask & ~t_set.mask):
        raise ValueError("the candidate set must sit inside the structured set")
    if t_set.cardinality == 0:
        raise ValueError("empty structured set")
    return s_set.cardinality / t_set.cardinality


def _structured_density(s_mask: np.ndarray, t_new: StructuredProductSet) -> tuple[int, int]:
    inter = int(np.count_nonzero(s_mask & t_new.table.mask))
    return inter, t_new.table.cardinality


def _recount_pairs(s_mask: np.ndarray, t_new: StructuredProductSet) -> int:
    """Independent recount of |S ∩ T| by walking T's members."""
    total = 0
    for idx in t_new.table.member_indices():
        if s_mask[int(idx)]:
            total += 1
    return total


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
    s_set: IndicatorSet,
    sigma: float,
    factor: IndicatorSet,
    means: np.ndarray,
    threshold: float,
    rebuild,
) -> dict:
    """Split a factor set of T by signed means and keep the denser side.

    ``rebuild`` turns a candidate sub-factor into the new structured set,
    or None when that candidate is not viable.  The winner's |S ∩ T| is
    recounted independently before ``report`` is completed with it.
    """
    best = None
    for cand_name, mask in _best_row_split(factor.mask, means, threshold):
        t_new = rebuild(IndicatorSet.from_mask(factor.p, factor.m, mask))
        if t_new is None:
            continue
        inter, mass = _structured_density(s_set.mask, t_new)
        if mass == 0:
            continue
        ratio = inter / mass
        if best is None or ratio > best[0]:
            best = (ratio, cand_name, t_new, inter, mass)
    if best is None or best[0] <= sigma:
        report.update({"gained": False, "reason": "no split beat the current density"})
        return report
    ratio, cand_name, t_new, inter, mass = best
    recount = _recount_pairs(s_set.mask, t_new)
    if recount != inter:
        raise AssertionError("density recount disagrees")
    if abs(inter / mass - ratio) > 1e-12:
        raise AssertionError("density bookkeeping drifted")
    s_new = IndicatorSet.from_table(s_set.table.times(t_new.table.table))
    report.update(
        {
            "gained": True,
            "split": cand_name,
            "new_sigma": ratio,
            "gain": ratio - sigma,
            "s_count": str(recount),
            "t_count": str(mass),
        }
    )
    report["_new_t"] = t_new
    report["_new_s"] = s_new
    return report


def fiber_mean_increment(s_set: IndicatorSet, t: StructuredProductSet, tau: float) -> dict:
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
    p, n = t.p, t.n
    size = p**n
    sigma = _density_inside(s_set, t.table)
    g = (s_set.mask - sigma * t.table.mask).reshape((size, size), order="F")
    alpha = t.fibers.base.density
    beta = t.y_set.density
    gamma = t.sum_set.density
    delta = t.skew_set.density
    rho = t.fibers.rho

    # (name, means, the factor set the pencil splits, product of the other densities)
    pencils = [
        ("x-rows", g.mean(axis=1), t.fibers.base, beta * gamma * delta * rho),
        ("y-columns", g.mean(axis=0), t.y_set, alpha * gamma * delta * rho),
        ("anti-diagonals", line_means(g, p, n, 1), t.sum_set, alpha * beta * delta * rho),
    ]
    report: dict = {"sigma": sigma, "tau": tau, "pencils": {}}
    chosen = None
    for name, means, factor, others in pencils:
        stat = float(np.mean(np.abs(means) ** 2))
        trigger = tau * factor.density * others**2
        report["pencils"][name] = {"stat": stat, "trigger": trigger, "fires": stat >= trigger}
        if chosen is None and stat >= trigger:
            chosen = (name, means, factor, others)
    if chosen is None:
        report.update({"gained": False, "reason": "no pencil fired"})
        return report

    name, means, factor, others = chosen
    threshold = (tau**0.5 / 4) * others
    report["chosen_pencil"] = name
    report["fiber_threshold"] = threshold

    def rebuild(new_set: IndicatorSet) -> StructuredProductSet | None:
        if name == "x-rows":
            try:
                fam = FiberFamily(p, n, new_set, t.fibers.offset, t.fibers.d, t.fibers.normals)
            except (ValueError, AssertionError):
                return None
            return StructuredProductSet(t.y_set, t.sum_set, t.skew_set, fam)
        if name == "y-columns":
            return StructuredProductSet(new_set, t.sum_set, t.skew_set, t.fibers)
        return StructuredProductSet(t.y_set, new_set, t.skew_set, t.fibers)

    return _split_increment(report, s_set, sigma, factor, means, threshold, rebuild)


def skew_line_increment(s_set: IndicatorSet, t: StructuredProductSet, tau: float) -> dict:
    """Density increment from biased skew lines 2x + y = w.

    The line means m(w) = E_x g(x, w - 2x) are thresholded at
    tau * alpha beta gamma rho / 4; if any line is biased, the skew
    factor D is split by the signed means and the denser side kept.
    """
    p, n = t.p, t.n
    size = p**n
    sigma = _density_inside(s_set, t.table)
    g = (s_set.mask - sigma * t.table.mask).reshape((size, size), order="F")
    alpha = t.fibers.base.density
    beta = t.y_set.density
    gamma = t.sum_set.density
    rho = t.fibers.rho
    means = line_means(g, p, n, 2)
    threshold = tau * alpha * beta * gamma * rho / 4
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
    return _split_increment(
        report, s_set, sigma, t.skew_set, means, threshold,
        lambda new_d: StructuredProductSet(t.y_set, t.sum_set, new_d, t.fibers),
    )


def align_offset_increment(
    s_set: IndicatorSet,
    mixed: MixedFiberFamily,
    y_set: IndicatorSet,
    sum_set: IndicatorSet,
    skew_set: IndicatorSet,
    tau: float,
) -> dict:
    """Recover a common fiber offset from a mixed-offset family.

    Every u in Z_p^n keeps the sub-base A_u of points whose fiber
    passes through u.  Counting each base point once per point of its
    fiber gives the exact integer identity

        sum_u |A_u| = |A| * p^(n - d),

    which is asserted.  Candidates are the offsets whose sub-base holds
    at least tau * alpha * rho / 2 of the space; the one giving the
    densest S inside the re-built common-offset structured set wins.
    Offsets breaking the mass upper bound (4 / tau times alpha * rho)
    are reported, not refused; if no candidate clears the floor the
    best offset overall is used and flagged.
    """
    p, n, d = mixed.p, mixed.n, mixed.d
    size = p**n
    lifted = (
        product_lift(y_set.table, "y")
        .times(product_lift(sum_set.table, "x+y"))
        .times(product_lift(skew_set.table, "2x+y"))
        .times(mixed.table.table)
    )
    sigma = _density_inside(s_set, IndicatorSet.from_table(lifted))
    alpha = mixed.base.density
    rho = mixed.rho

    counts = np.zeros(size, dtype=np.int64)
    base_members = [int(x) for x in mixed.base.member_indices()]
    fiber_members: dict[int, np.ndarray] = {}
    for x in base_members:
        rows = [tuple(int(v) for v in r) for r in mixed.normals[x]]
        rhs = [int(v) for v in (mixed.normals[x] @ mixed.offsets[x]) % p]
        coset = subspace_from_normals(p, n, rows, rhs)
        mem = coset.member_indices()
        fiber_members[x] = mem
        counts[mem] += 1
    lhs_total = int(counts.sum())
    rhs_total = len(base_members) * p ** (n - d)
    if lhs_total != rhs_total:
        raise AssertionError(f"offset count identity failed: {lhs_total} != {rhs_total}")

    floor = tau * alpha * rho / 2 * size  # cardinality scale
    ceiling = (4 / tau) * alpha * rho * size
    candidates = [u for u in range(size) if counts[u] >= floor and counts[u] > 0]
    violations = [u for u in range(size) if counts[u] > ceiling]
    used_fallback = False
    if not candidates:
        candidates = [u for u in range(size) if counts[u] > 0]
        used_fallback = True

    best = None
    for u in candidates:
        u_vec = GroupVector.from_index(p, n, u)
        sub_base = mixed.aligned_base_at(u_vec)
        if sub_base.cardinality == 0:
            continue
        fam = FiberFamily(p, n, sub_base, u_vec, d, mixed.normals)
        t_u = StructuredProductSet(y_set, sum_set, skew_set, fam)
        inter, mass = _structured_density(s_set.mask, t_u)
        if mass == 0:
            continue
        ratio = inter / mass
        if best is None or ratio > best[0]:
            best = (ratio, u, t_u, fam, inter)
    if best is None:
        return {
            "gained": False,
            "reason": "no viable offset",
            "identity_lhs": str(lhs_total),
            "identity_rhs": str(rhs_total),
        }
    ratio, u, t_u, fam, inter = best
    s_new = IndicatorSet.from_table(s_set.table.times(t_u.table.table))
    report = {
        "sigma_mixed": sigma,
        "new_sigma": ratio,
        "gain": ratio - sigma,
        "gained": ratio >= sigma,
        "chosen_offset": list(GroupVector.from_index(p, n, u).digits),
        "candidates": len(candidates),
        "mass_floor": floor / size,
        "mass_ceiling_violations": [list(GroupVector.from_index(p, n, v).digits) for v in violations],
        "used_fallback": used_fallback,
        "identity_lhs": str(lhs_total),
        "identity_rhs": str(rhs_total),
        "s_count": str(inter),
        "t_count": str(t_u.table.cardinality),
    }
    report["_new_t"] = t_u
    report["_new_s"] = s_new
    report["_family"] = fam
    return report


# ---------------------------------------------------------------------------
# extremal configuration-free sets


def _l_quads(p: int, n: int) -> list[tuple[int, int, int, int]]:
    """All configurations ((x,y),(x,y+z),(x,y+2z),(x+z,y)) with z != 0,
    as 4-tuples of pair indices."""
    size = p**n
    z = np.arange(1, size)[:, None, None]
    x = np.arange(size)[None, :, None]
    y = np.arange(size)[None, None, :]
    corners = np.broadcast_arrays(
        x + size * y,
        x + size * combine(p, n, (1, 1), (y, z)),
        x + size * combine(p, n, (1, 2), (y, z)),
        combine(p, n, (1, 1), (x, z)) + size * y,
    )
    # one quad per (z, x, y), y fastest
    return list(zip(*(c.ravel().tolist() for c in corners)))


def _verify_l_free(p: int, n: int, indices) -> bool:
    ind = IndicatorSet.from_indices(p, 2 * n, [int(i) for i in indices])
    res = lshape_average(ind.table, ind.table, ind.table, ind.table)
    return res.nontrivial_count == 0


def _greedy_l_free(p: int, n: int, order, quads_at) -> set[int]:
    chosen: set[int] = set()
    for pt in order:
        ok = True
        for quad in quads_at[pt]:
            if all(q in chosen or q == pt for q in quad):
                ok = False
                break
        if ok:
            chosen.add(int(pt))
    return chosen


def search_extremal_L_free(
    p: int,
    n: int,
    method: str = "exhaustive",
    seed: int = 0,
    iterations: int = 200,
) -> dict:
    """Largest (or large) subsets of the pair space with no configuration
    (x,y), (x,y+z), (x,y+2z), (x+z,y) for z != 0.

    ``exhaustive`` runs branch-and-bound and is exact; it is capped at
    pair spaces of at most 25 points.  ``greedy``, ``local`` and
    ``random`` are seeded heuristics, capped at 10000 points because
    they enumerate every configuration up front.  Every output is
    re-verified by counting configurations directly before returning.
    """
    size = p**n
    total = size * size
    if method == "exhaustive" and total > 25:
        raise ResourceLimitError(f"exhaustive search capped at 25 points, got {total}")
    if total > 10000:
        raise ResourceLimitError(f"search space has {total} points, capped at 10000")
    quads = _l_quads(p, n)
    quads_at: list[list[tuple[int, int, int, int]]] = [[] for _ in range(total)]
    for quad in quads:
        for pt in set(quad):
            quads_at[pt].append(quad)

    if method == "exhaustive":
        best: set[int] = set()
        chosen: set[int] = set()

        def dfs(idx: int) -> None:
            nonlocal best
            if len(chosen) + (total - idx) <= len(best):
                return
            if idx == total:
                if len(chosen) > len(best):
                    best = set(chosen)
                return
            ok = True
            for quad in quads_at[idx]:
                if all(q == idx or q in chosen for q in quad):
                    ok = False
                    break
            if ok:
                chosen.add(idx)
                dfs(idx + 1)
                chosen.remove(idx)
            dfs(idx + 1)

        dfs(0)
        result = best
        extra = {"optimal": True}
    elif method == "greedy":
        rng = np.random.default_rng(seed)
        order = rng.permutation(total)
        result = _greedy_l_free(p, n, order, quads_at)
        extra = {"optimal": False}
    elif method == "local":
        rng = np.random.default_rng(seed)
        result = _greedy_l_free(p, n, rng.permutation(total), quads_at)
        for _ in range(iterations):
            trial = set(result)
            if trial:
                drop = rng.choice(sorted(trial), size=min(2, len(trial)), replace=False)
                for pt in drop:
                    trial.discard(int(pt))
            # refill greedily in a fresh random order, keeping the survivors
            for pt in rng.permutation(total):
                pt = int(pt)
                if pt in trial:
                    continue
                if all(not all(q == pt or q in trial for q in quad) for quad in quads_at[pt]):
                    trial.add(pt)
            if len(trial) >= len(result):
                result = trial
        extra = {"optimal": False, "iterations": iterations}
    elif method == "random":
        rng = np.random.default_rng(seed)
        result = set()
        for _ in range(iterations):
            cand = _greedy_l_free(p, n, rng.permutation(total), quads_at)
            if len(cand) > len(result):
                result = cand
        extra = {"optimal": False, "iterations": iterations}
    else:
        raise ValueError(f"unknown method {method!r}")

    if not _verify_l_free(p, n, result):
        raise AssertionError("search produced a set containing a configuration")
    out = {
        "p": p,
        "n": n,
        "method": method,
        "cardinality": len(result),
        "density": len(result) / total,
        "indices": sorted(int(i) for i in result),
        "verified_free": True,
    }
    out.update(extra)
    if method != "exhaustive":
        out["seed"] = seed
    return out


# ---------------------------------------------------------------------------
# planted instances with a known one-step gain


def planted_row_instance(p: int, n: int) -> tuple[IndicatorSet, StructuredProductSet]:
    """S fills half the x rows of a full structured set.

    The row-pencil bias of S - sigma * T is sigma * (1 - sigma) on every
    row, so the fiber-mean move must fire and reach density one.
    """
    full = IndicatorSet.full(p, n)
    t = StructuredProductSet(full, full, full, FiberFamily.full(full))
    size = p**n
    half = size // 2
    mask = np.zeros(size * size, dtype=bool)
    for y in range(size):
        mask[size * y : size * y + half] = True
    return IndicatorSet.from_mask(p, 2 * n, mask), t


def planted_skew_instance(p: int, n: int) -> tuple[IndicatorSet, StructuredProductSet]:
    """S fills the skew lines 2x + y = w for half the w values.

    Row, column and anti-diagonal means of S - sigma * T all vanish, so
    only the skew-line move can fire; it must reach density one.
    """
    full = IndicatorSet.full(p, n)
    t = StructuredProductSet(full, full, full, FiberFamily.full(full))
    size = p**n
    half = size // 2
    points = np.arange(size)
    w = combine(p, n, (2, 1), (points[None, :], points[:, None]))  # w[y, x] = 2x + y
    return IndicatorSet.from_mask(p, 2 * n, (w < half).reshape(-1)), t


# ---------------------------------------------------------------------------
# the driver


def _renormalize_to_cell(
    s_set: IndicatorSet,
    t: StructuredProductSet,
    cell: Cell,
    level: int,
) -> tuple[IndicatorSet, MixedFiberFamily, IndicatorSet, IndicatorSet, IndicatorSet] | None:
    """Restrict (S, T) to cell ∩ level and rewrite in coset coordinates.

    The cell is (a + V) x (b + V); points are re-parametrized through a
    basis M of V, so the new ambient dimension is dim V.  On fiber
    level ``level`` the fibers meet the y coset in codimension exactly
    ``level``, so the rewritten family has common codimension ``level``
    with per-x offsets: a MixedFiberFamily, ready for alignment.
    Returns None when no base point survives on the cell.
    """
    p, n = t.p, t.n
    size = p**n
    new_n = cell.direction_dim
    if new_n == 0:
        return None
    x_coset = cell.x_coset
    y_coset = cell.y_coset
    xs = x_coset.member_indices()
    ys = y_coset.member_indices()
    basis = np.array([v.digits for v in x_coset.basis()], dtype=np.int64).reshape(new_n, n)
    dt_new = digit_table(p, new_n)
    x0 = np.array(x_coset.offset_point().digits, dtype=np.int64)
    y0 = np.array(y_coset.offset_point().digits, dtype=np.int64)
    # audit the parametrization: member ordering must match offset + params @ basis
    rebuilt = np.asarray(index_of(p, (x0[None, :] + dt_new @ basis) % p), dtype=np.int64)
    if not np.array_equal(np.sort(rebuilt), np.sort(np.asarray(xs, dtype=np.int64))):
        raise AssertionError("coset parametrization lost members")
    xs = rebuilt
    ys = np.asarray(index_of(p, (y0[None, :] + dt_new @ basis) % p), dtype=np.int64)

    new_size = p**new_n
    base_mask_old = t.fibers.base.mask
    fam = t.fibers
    u_old = fam.offset.as_array()
    keep = np.zeros(new_size, dtype=bool)
    new_normals = np.zeros((new_size, level, new_n), dtype=np.int64)
    new_offsets = np.zeros((new_size, new_n), dtype=np.int64)
    for jt in range(new_size):
        x = int(xs[jt])
        if not base_mask_old[x]:
            continue
        rows = (fam.normals[x] @ basis.T) % p if fam.d else np.zeros((0, new_n), dtype=np.int64)
        rhs = (fam.normals[x] @ ((u_old - y0) % p)) % p if fam.d else np.zeros(0, dtype=np.int64)
        sol = solve_mod(rows, rhs, p) if fam.d else np.zeros(new_n, dtype=np.int64)
        if sol is None:
            continue  # fiber misses the y coset entirely
        red, piv = modular_rref(rows, p) if fam.d else (np.zeros((0, new_n), dtype=np.int64), ())
        if len(piv) != level:
            continue  # wrong level
        keep[jt] = True
        if level:
            new_normals[jt] = red[:level]
        new_offsets[jt] = np.asarray(sol, dtype=np.int64)
    if not keep.any():
        return None
    new_base = IndicatorSet.from_mask(p, new_n, keep)
    mixed = MixedFiberFamily(p, new_n, new_base, new_offsets, level, new_normals)

    def reindex_set(s: IndicatorSet, points: np.ndarray) -> IndicatorSet:
        return IndicatorSet.from_mask(p, new_n, s.mask[points])

    b_new = reindex_set(t.y_set, ys)
    sum_points = np.asarray(index_of(p, ((x0 + y0)[None, :] + dt_new @ basis) % p), dtype=np.int64)
    skew_points = np.asarray(index_of(p, (((2 * x0 + y0) % p)[None, :] + dt_new @ basis) % p), dtype=np.int64)
    c_new = reindex_set(t.sum_set, sum_points)
    d_new = reindex_set(t.skew_set, skew_points)

    s_grid = s_set.mask.reshape((size, size), order="F")[np.ix_(xs, ys)]
    new_mask = s_grid & mixed.table.mask.reshape((new_size, new_size), order="F")
    s_new = IndicatorSet.from_mask(p, 2 * new_n, new_mask.reshape(-1, order="F"))
    return s_new, mixed, b_new, c_new, d_new


def increment_driver(
    s_set: IndicatorSet,
    t: StructuredProductSet,
    eps: float,
    tau: float,
    max_steps: int = 24,
    require_l_free: bool = True,
) -> dict:
    """Iterate density increments on a configuration-free S inside T.

    Each step tries, in order: the fiber-mean split, the skew-line
    split, and finally pseudorandomization followed by restriction to
    the selected cell and fiber level, renormalization to the cell's
    coordinates, and offset alignment.  The trajectory records every
    step; the loop stops when S is empty or fills T, when the ambient
    dimension is exhausted, when no move gains density, or at the step
    cap.  Configuration-freeness is re-checked after every coordinate
    change (affine renormalization maps configurations to
    configurations, so this is an audit, not a hope).
    """
    trajectory: list[dict] = []
    current_s, current_t = s_set, t
    halted = ""
    for step in range(max_steps):
        size = current_t.p**current_t.n
        t_mass = current_t.table.cardinality
        s_mass = current_s.cardinality
        if t_mass == 0:
            halted = "structured set emptied"
            break
        sigma = s_mass / t_mass
        if require_l_free and not _verify_l_free(current_t.p, current_t.n, current_s.member_indices()):
            raise AssertionError("the candidate set acquired a configuration")
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

        deg1 = fiber_mean_increment(current_s, current_t, tau)
        if deg1.get("gained"):
            record["action"] = "fiber-mean"
            record["detail"] = {k: v for k, v in deg1.items() if not k.startswith("_")}
            trajectory.append(record)
            current_s, current_t = deg1["_new_s"], deg1["_new_t"]
            continue
        skew = skew_line_increment(current_s, current_t, tau)
        if skew.get("gained"):
            record["action"] = "skew-line"
            record["detail"] = {k: v for k, v in skew.items() if not k.startswith("_")}
            trajectory.append(record)
            current_s, current_t = skew["_new_s"], skew["_new_t"]
            continue

        pr = pseudorandomize_u2(current_s, current_t, eps, tau)
        record["action"] = "pseudorandomize"
        record["detail"] = pr.report
        if pr.cell is None:
            trajectory.append(record)
            halted = "no cell to select"
            break
        if pr.cell.direction_dim == 0:
            trajectory.append(record)
            halted = "dimension exhausted"
            break
        renorm = _renormalize_to_cell(current_s, current_t, pr.cell, pr.level)
        if renorm is None:
            trajectory.append(record)
            halted = "selected cell has no surviving base"
            break
        s_new, mixed, b_new, c_new, d_new = renorm
        align = align_offset_increment(s_new, mixed, b_new, c_new, d_new, tau)
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

    else:
        halted = "step cap reached"
    final_mass = current_t.table.cardinality
    return {
        "halted_because": halted,
        "steps": len(trajectory),
        "trajectory": trajectory,
        "final_sigma": (current_s.cardinality / final_mass) if final_mass else None,
        "final_ambient_dim": current_t.n,
    }
