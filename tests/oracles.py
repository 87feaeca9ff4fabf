"""Slow reference implementations used to compute expected values.

Everything in this file is deliberately written from the defining
formulas with plain Python loops: no numpy, and nothing imported from
the package under test.  A bug in the library therefore cannot hide
behind a shared helper.  The conventions match the package contract:
indices are little-endian base p, and a pair (x, y) sits at index
x + N * y with N = p**n.
"""

import cmath
import functools
import itertools
import math


# ---------------------------------------------------------------------------
# digit arithmetic

def digits_le(index, p, m):
    out = []
    for _ in range(m):
        out.append(index % p)
        index //= p
    return tuple(out)


def index_le(digs, p):
    val = 0
    for i, d in enumerate(digs):
        val += (d % p) * p**i
    return val


def add_indices(a, b, p, m):
    da, db = digits_le(a, p, m), digits_le(b, p, m)
    return index_le([x + y for x, y in zip(da, db)], p)


def scale_index(c, a, p, m):
    return index_le([c * d for d in digits_le(a, p, m)], p)


def combine_oracle(p, m, coeffs, indices):
    """Index of sum_j coeffs[j] * (element indices[j]) in Z_p^m."""
    digs = [digits_le(i, p, m) for i in indices]
    return index_le([sum(c * d[k] for c, d in zip(coeffs, digs)) for k in range(m)], p)


def line_means_oracle(grid, p, n, c):
    """m[w] = E_x grid[x][w - c x] for a pair grid given as a list of rows."""
    size = p**n
    out = []
    for w in range(size):
        acc = 0
        for x in range(size):
            acc += grid[x][combine_oracle(p, n, (1, -c), (w, x))]
        out.append(acc / size)
    return out


def unit_root(p, k):
    return cmath.exp(2j * math.pi * (k % p) / p)


# ---------------------------------------------------------------------------
# Fourier

def dft_oracle(values, p, m):
    """f_hat(xi) = p^-m sum_x f(x) e_p(-xi . x), the double loop."""
    size = p**m
    digs = [digits_le(i, p, m) for i in range(size)]
    out = []
    for xi in range(size):
        acc = 0j
        for x in range(size):
            dot = sum(a * b for a, b in zip(digs[xi], digs[x]))
            acc += values[x] * unit_root(p, -dot)
        out.append(acc / size)
    return out


def inverse_u2_oracle(values, p, m):
    """Best character correlation |E f(x) e_p(-xi . x)|, smallest index wins."""
    spectrum = dft_oracle(values, p, m)
    best_xi, best = 0, abs(spectrum[0])
    for xi in range(1, len(spectrum)):
        if abs(spectrum[xi]) > best:
            best_xi, best = xi, abs(spectrum[xi])
    return best_xi, best


# ---------------------------------------------------------------------------
# uniformity norms, literal nested sums

def cube_raw_oracle(corners, p, m, s):
    """E_{x, h_1..h_s} prod_w C^|w| corners[w](x + w . h).

    ``corners`` lists 2^s value lists; position w holds the corner whose
    coordinate i is bit i of w, and C conjugates the corners of odd
    weight.  Returns the raw average as a complex number.
    """
    size = p**m
    total = 0j
    for x in range(size):
        for hs in itertools.product(range(size), repeat=s):
            prod = 1 + 0j
            for w, values in enumerate(corners):
                pt = x
                for i in range(s):
                    if w >> i & 1:
                        pt = add_indices(pt, hs[i], p, m)
                val = complex(values[pt])
                if bin(w).count("1") % 2:
                    val = val.conjugate()
                prod *= val
            total += prod
    return total / size ** (s + 1)


def gowers_raw_oracle(values, p, m, s):
    """E_{x, h_1..h_s} prod over cube vertices, conjugating odd vertices.

    Returns the raw 2^s-power average as a complex number.
    """
    return cube_raw_oracle([values] * 2**s, p, m, s)


def _pair_at(values, x, y, size):
    return values[x + size * y]


def box_raw_oracle(values, p, n):
    """E_{x,x',y,y'} g(x,y) conj g(x',y) conj g(x,y') g(x',y')."""
    size = p**n
    total = 0j
    for x, xp, y, yp in itertools.product(range(size), repeat=4):
        total += (
            _pair_at(values, x, y, size)
            * _pair_at(values, xp, y, size).conjugate()
            * _pair_at(values, x, yp, size).conjugate()
            * _pair_at(values, xp, yp, size)
        )
    return total / size**4


def stack_raw_oracle(values, p, n, displacements):
    """Average of the alternating product over the cube spanned by the
    given pair-space displacements (a_i, b_i) scaled by h_i."""
    size = p**n
    k = len(displacements)
    # addition and the scaled steps as lookup tables, so that n = 2 runs
    # in seconds
    add = [[add_indices(u, v, p, n) for v in range(size)] for u in range(size)]
    steps = [[(scale_index(a, h, p, n), scale_index(b, h, p, n)) for h in range(size)]
             for a, b in displacements]
    total = 0j
    for x, y in itertools.product(range(size), repeat=2):
        for hs in itertools.product(range(size), repeat=k):
            prod = 1 + 0j
            for bits in itertools.product((0, 1), repeat=k):
                px, py = x, y
                for i, bit in enumerate(bits):
                    if bit:
                        dx, dy = steps[i][hs[i]]
                        px, py = add[px][dx], add[py][dy]
                val = complex(_pair_at(values, px, py, size))
                if sum(bits) % 2:
                    val = val.conjugate()
                prod *= val
            total += prod
    return total / size ** (k + 2)


def slot0_raw_oracle(values, p, n):
    """Eighth power: directions (0, h1), (0, h2), (h3, 0)."""
    return stack_raw_oracle(values, p, n, ((0, 1), (0, 1), (1, 0)))


def slot1_raw_oracle(values, p, n):
    """Fourth power: directions (0, h1), (-h2, h2)."""
    return stack_raw_oracle(values, p, n, ((0, 1), (-1, 1)))


def slot2_raw_oracle(values, p, n):
    """Square: E_z |E_x g(x, z - 2x)|^2 over the lines 2x + y = z."""
    size = p**n
    total = 0.0
    for z in range(size):
        acc = 0j
        for x in range(size):
            y = add_indices(z, scale_index(-2, x, p, n), p, n)
            acc += _pair_at(values, x, y, size)
        total += abs(acc / size) ** 2
    return total / size


# ---------------------------------------------------------------------------
# configuration counting

def lshape_average_oracle(v0, v1, v2, v3, p, n):
    """E_{x,y,z} v0(x,y) v1(x,y+z) v2(x,y+2z) v3(x+z,y)."""
    size = p**n
    total = 0j
    for x, y, z in itertools.product(range(size), repeat=3):
        yz = add_indices(y, z, p, n)
        y2z = add_indices(yz, z, p, n)
        xz = add_indices(x, z, p, n)
        total += (
            _pair_at(v0, x, y, size)
            * _pair_at(v1, x, yz, size)
            * _pair_at(v2, x, y2z, size)
            * _pair_at(v3, xz, y, size)
        )
    return total / size**3


def lshape_count_oracle(mask, p, n):
    """(total, nontrivial) integer counts of the four-point pattern in a set."""
    size = p**n
    total = 0
    trivial = 0
    for x, y, z in itertools.product(range(size), repeat=3):
        yz = add_indices(y, z, p, n)
        y2z = add_indices(yz, z, p, n)
        xz = add_indices(x, z, p, n)
        hit = (
            mask[x + size * y]
            and mask[x + size * yz]
            and mask[x + size * y2z]
            and mask[xz + size * y]
        )
        if hit:
            total += 1
            if z == 0:
                trivial += 1
    return total, total - trivial


def corner_count_oracle(mask, p, n):
    size = p**n
    total = 0
    trivial = 0
    for x, y, z in itertools.product(range(size), repeat=3):
        yz = add_indices(y, z, p, n)
        xz = add_indices(x, z, p, n)
        hit = mask[x + size * y] and mask[x + size * yz] and mask[xz + size * y]
        if hit:
            total += 1
            if z == 0:
                trivial += 1
    return total, total - trivial


# ---------------------------------------------------------------------------
# linear-form systems

def _span_contains(target, members, p):
    """Membership by enumerating every linear combination of the members."""
    k = len(target)
    for coeffs in itertools.product(range(p), repeat=len(members)):
        combo = [0] * k
        for c, row in zip(coeffs, members):
            for i in range(k):
                combo[i] = (combo[i] + c * row[i]) % p
        if tuple(combo) == tuple(t % p for t in target):
            return True
    return False


def cs_complexity_oracle(p, rows, cap=4):
    """Least s such that every form avoids the span of each class of some
    partition of the others into s + 1 classes; None when no s works."""
    rows = [tuple(c % p for c in row) for row in rows]
    worst = 0
    for i, target in enumerate(rows):
        others = [r for j, r in enumerate(rows) if j != i]
        found = None
        for s in range(0, cap + 1):
            for assign in itertools.product(range(s + 1), repeat=len(others)):
                ok = True
                for cls in range(s + 1):
                    members = [r for r, a in zip(others, assign) if a == cls]
                    if _span_contains(target, members, p):
                        ok = False
                        break
                if ok:
                    found = s
                    break
            if found is not None:
                break
        if found is None:
            return None
        worst = max(worst, found)
    return worst


# ---------------------------------------------------------------------------
# subspaces

def subspace_members_oracle(p, m, normals, offsets):
    """All indices x with normal . x = offset for every row, by scanning."""
    members = []
    for x in range(p**m):
        xd = digits_le(x, p, m)
        if all(
            sum(a * b for a, b in zip(row, xd)) % p == off % p
            for row, off in zip(normals, offsets)
        ):
            members.append(x)
    return members


# ---------------------------------------------------------------------------
# extremal scan

def extremal_scan_oracle(p, n):
    """Largest pattern-free subset of the pair space by full enumeration.

    Only sensible for p**(2n) around a dozen points; the (3, 1) case
    scans 2^9 subsets.
    """
    size = p**n
    points = size * size
    best = 0
    for bitmask in range(1 << points):
        mask = [(bitmask >> i) & 1 for i in range(points)]
        card = sum(mask)
        if card <= best:
            continue
        _, nontrivial = lshape_count_oracle(mask, p, n)
        if nontrivial == 0:
            best = card
    return best


@functools.lru_cache(maxsize=None)
def _configurations_through(p, n):
    """For every pair index, the configurations (as 4-tuples of pair
    indices) that pass through it, found by running over every (x, y, z)
    with z != 0."""
    size = p**n
    through = {pt: [] for pt in range(size * size)}
    for x, y, z in itertools.product(range(size), repeat=3):
        if z == 0:
            continue
        yz = add_indices(y, z, p, n)
        y2z = add_indices(yz, z, p, n)
        xz = add_indices(x, z, p, n)
        quad = (x + size * y, x + size * yz, x + size * y2z, xz + size * y)
        for pt in quad:
            through[pt].append(quad)
    return through


def greedy_l_free_oracle(p, n, order, start=()):
    """Greedy walk: keep the points of ``start``, then take each point of
    ``order`` in turn unless some configuration through it already has
    its other three points kept.  Returns the kept set of pair indices."""
    through = _configurations_through(p, n)
    kept = set(start)
    for pt in order:
        if pt in kept:
            continue
        if all(any(q != pt and q not in kept for q in quad) for quad in through[pt]):
            kept.add(pt)
    return kept
