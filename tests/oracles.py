"""Reference computations used to pin expected values in the tests.

Everything here is written with plain Python loops, sets, and tuples,
deliberately independent of the vectorized implementations under test.
The only shared input is the ring's add/mul tables themselves, read as
nested lists by `read_tables`, which fills no table of the ring and
leaves its caches as they were.  Every oracle takes a ring or its
`read_tables`, so one oracle call reads each table once, and a caller
that asks many questions of one ring can read it once for all of them.  `mutate_mul_entry` is the one
table builder here: it makes the corrupted rings that the mutation
tests feed to both sides.
"""

from __future__ import annotations

import functools
import itertools

from deltaring.constructions import Provenance, spelling
from deltaring.kernel import FiniteRing


class Tables:
    """A ring's add and mul tables as nested lists, each read on first
    use by one `FiniteRing.block` call, with the scalar accessors the
    oracles use.  -x is the first y in the row of x with x + y = 0."""

    def __init__(self, ring):
        self.ring, self.size, self.zero, self.one = ring, ring.size, ring.zero, ring.one

    @functools.cached_property
    def add_rows(self):
        return self.ring.block("add").tolist()

    @functools.cached_property
    def mul_rows(self):
        return self.ring.block("mul").tolist()

    @functools.cached_property
    def neg_list(self):
        return [row.index(self.zero) for row in self.add_rows]

    def add(self, x, y):
        return self.add_rows[x][y]

    def mul(self, x, y):
        return self.mul_rows[x][y]

    def neg(self, x):
        return self.neg_list[x]

    def sub(self, x, y):
        return self.add_rows[x][self.neg_list[y]]


def read_tables(ring):
    """The ring's `Tables`; a `Tables` is returned as it is."""
    return ring if isinstance(ring, Tables) else Tables(ring)


def mutate_mul_entry(ring, x, y, value):
    """A copy of the ring with one multiplication entry overwritten.

    The result is structurally well-formed but (generically) violates an
    axiom, which C00 must catch.
    """
    ring._check_index(x)
    ring._check_index(y)
    ring._check_index(value)
    mul = ring.fill().mul_table.copy()
    mul[x, y] = value
    names = list(ring.element_names) if ring.element_names is not None else None
    return FiniteRing(
        ring.size,
        ring.add_table,
        mul,
        zero=ring.zero,
        one=ring.one,
        provenance=Provenance("table", spelling("table:", f"mutated:{ring.spell()}")),
        element_names=names,
    )


def axioms_hold(ring):
    """Every unital-ring axiom, checked on every pair and triple in turn."""
    ring = read_tables(ring)
    add, mul, zero, one = ring.add, ring.mul, ring.zero, ring.one
    elements = range(ring.size)
    for x in elements:
        if add(zero, x) != x or add(x, zero) != x:
            return False
        if mul(one, x) != x or mul(x, one) != x:
            return False
        if all(add(x, y) != zero for y in elements):
            return False
        for y in elements:
            if add(x, y) != add(y, x):
                return False
            for z in elements:
                if add(add(x, y), z) != add(x, add(y, z)):
                    return False
                if mul(mul(x, y), z) != mul(x, mul(y, z)):
                    return False
                if mul(x, add(y, z)) != add(mul(x, y), mul(x, z)):
                    return False
                if mul(add(x, y), z) != add(mul(x, z), mul(y, z)):
                    return False
    return True


def inverse_of(ring, x):
    """Two-sided inverse of x found by scanning, or None."""
    ring = read_tables(ring)
    for y in range(ring.size):
        if ring.mul(x, y) == ring.one and ring.mul(y, x) == ring.one:
            return y
    return None


def units_of(ring):
    ring = read_tables(ring)
    return {x for x in range(ring.size) if inverse_of(ring, x) is not None}


def idempotents_of(ring):
    ring = read_tables(ring)
    return {x for x in range(ring.size) if ring.mul(x, x) == x}


def nilpotents_of(ring):
    ring = read_tables(ring)
    out = set()
    for x in range(ring.size):
        power = x
        for _ in range(ring.size):
            if power == ring.zero:
                out.add(x)
                break
            power = ring.mul(power, x)
    return out


def strongly_pi_regular_of(ring):
    """(verdict, first failing element) of a search for a^s = a^(s+1) * b
    with 1 <= s <= n and b commuting with a.

    Power sequences enter a cycle within n steps, so the bound is
    exhaustive.  Rows of the multiplication table are compared whole
    (numpy) so that the search stays fast on rings of 1024 elements.
    """
    mul = ring.block("mul")
    for a in range(ring.size):
        commuters = (mul[a] == mul[:, a]).nonzero()[0]
        power = a
        for _ in range(ring.size):
            next_power = int(mul[power, a])
            if (mul[next_power, commuters] == power).any():
                break
            power = next_power
        else:
            return False, a
    return True, None


def center_of(ring):
    ring = read_tables(ring)
    return {
        x
        for x in range(ring.size)
        if all(ring.mul(x, y) == ring.mul(y, x) for y in range(ring.size))
    }


def delta_sum_form(ring, units=None):
    """{x : x + u is a unit for every unit u}."""
    ring = read_tables(ring)
    units = units_of(ring) if units is None else units
    return {
        x for x in range(ring.size) if all(ring.add(x, u) in units for u in units)
    }


def delta_one_minus_form(ring, units=None):
    """{x : 1 - xu is a unit for every unit u}."""
    ring = read_tables(ring)
    units = units_of(ring) if units is None else units
    return {
        x
        for x in range(ring.size)
        if all(ring.sub(ring.one, ring.mul(x, u)) in units for u in units)
    }


def delta_right_form(ring, units=None):
    """{x : xu + 1 is a unit for every unit u}."""
    ring = read_tables(ring)
    units = units_of(ring) if units is None else units
    return {
        x
        for x in range(ring.size)
        if all(ring.add(ring.mul(x, u), ring.one) in units for u in units)
    }


def delta_left_form(ring, units=None):
    """{x : ux + 1 is a unit for every unit u}."""
    ring = read_tables(ring)
    units = units_of(ring) if units is None else units
    return {
        x
        for x in range(ring.size)
        if all(ring.add(ring.mul(u, x), ring.one) in units for u in units)
    }


def delta_of(ring):
    """All four characterizations, asserted to agree."""
    ring = read_tables(ring)
    units = units_of(ring)
    forms = [
        delta_sum_form(ring, units),
        delta_one_minus_form(ring, units),
        delta_right_form(ring, units),
        delta_left_form(ring, units),
    ]
    assert forms[0] == forms[1] == forms[2] == forms[3]
    return forms[0]


def jacobson_of(ring):
    """{x : 1 - rx is a unit for every r}, cross-checked left/right."""
    ring = read_tables(ring)
    units = units_of(ring)
    left = {
        x
        for x in range(ring.size)
        if all(ring.sub(ring.one, ring.mul(r, x)) in units for r in range(ring.size))
    }
    right = {
        x
        for x in range(ring.size)
        if all(ring.sub(ring.one, ring.mul(x, r)) in units for r in range(ring.size))
    }
    assert left == right
    return left


def qnil_of(ring):
    """{a : 1 + ax is a unit for every x commuting with a}."""
    ring = read_tables(ring)
    units = units_of(ring)
    out = set()
    for a in range(ring.size):
        ok = True
        for x in range(ring.size):
            if ring.mul(a, x) != ring.mul(x, a):
                continue
            if ring.add(ring.one, ring.mul(a, x)) not in units:
                ok = False
                break
        if ok:
            out.add(a)
    return out


def comm_of(ring, a):
    ring = read_tables(ring)
    return {x for x in range(ring.size) if ring.mul(a, x) == ring.mul(x, a)}


def comm2_of(ring, a):
    ring = read_tables(ring)
    inner = comm_of(ring, a)
    return {
        x
        for x in range(ring.size)
        if all(ring.mul(x, y) == ring.mul(y, x) for y in inner)
    }


def ann_left_of(ring, a):
    ring = read_tables(ring)
    return {x for x in range(ring.size) if ring.mul(x, a) == ring.zero}


def ann_right_of(ring, a):
    ring = read_tables(ring)
    return {x for x in range(ring.size) if ring.mul(a, x) == ring.zero}


def spectral_of(ring, a, flavor="delta"):
    """Idempotents p in the double commutant of a with a + p in the target set."""
    ring = read_tables(ring)
    units = units_of(ring)
    if flavor == "delta":
        target = delta_sum_form(ring, units)
    elif flavor == "jacobson":
        target = jacobson_of(ring)
    elif flavor in ("unit", "quasipolar"):
        target = units
    else:
        raise ValueError(flavor)
    quasi = qnil_of(ring) if flavor == "quasipolar" else None
    out = set()
    for p in idempotents_of(ring):
        if p not in comm2_of(ring, a):
            continue
        if ring.add(a, p) not in target:
            continue
        if quasi is not None and ring.mul(a, p) not in quasi:
            continue
        out.add(p)
    return out


def first_non_quasipolar(ring, flavor="delta"):
    """(verdict, lowest element with empty spectral set or None)."""
    ring = read_tables(ring)
    for a in range(ring.size):
        if not spectral_of(ring, a, flavor):
            return False, a
    return True, None


def clean_decomps_of(ring, a, target, commuting=False):
    """All (e, w) with e idempotent, w = a - e in target, optionally ew == we."""
    ring = read_tables(ring)
    out = []
    for e in sorted(idempotents_of(ring)):
        w = ring.sub(a, e)
        if w not in target:
            continue
        if commuting and ring.mul(e, w) != ring.mul(w, e):
            continue
        out.append((e, w))
    return out


def is_ideal_of(ring, subset):
    """Two-sided ideal test: additive subgroup absorbing products."""
    ring = read_tables(ring)
    if ring.zero not in subset:
        return False
    for x in subset:
        if ring.neg(x) not in subset:
            return False
        for y in subset:
            if ring.add(x, y) not in subset:
                return False
        for r in range(ring.size):
            if ring.mul(r, x) not in subset or ring.mul(x, r) not in subset:
                return False
    return True


def matmul_of(base, a_grid, b_grid):
    """Plain k x k matrix product over the base ring, grids of base indices."""
    base = read_tables(base)
    k = len(a_grid)
    out = []
    for i in range(k):
        row = []
        for j in range(k):
            acc = base.zero
            for l in range(k):
                acc = base.add(acc, base.mul(a_grid[i][l], b_grid[l][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def matadd_of(base, a_grid, b_grid):
    base = read_tables(base)
    k = len(a_grid)
    return tuple(
        tuple(base.add(a_grid[i][j], b_grid[i][j]) for j in range(k)) for i in range(k)
    )


def not_dqp_witnesses_of(ring):
    """{a : no idempotent p of comm2(a) puts a + p in the 1 - xu form of
    delta}: the elements that C31's re-verifier accepts, on any table."""
    ring = read_tables(ring)
    units = units_of(ring)
    delta = delta_one_minus_form(ring, units)
    idempotents = idempotents_of(ring)
    return {
        a
        for a in range(ring.size)
        if not any(ring.add(a, p) in delta for p in idempotents & comm2_of(ring, a))
    }


def action_law_failures(base, action):
    """[(law, witness)] for each bimodule law the action breaks, in the
    order validate_bimodule_action checks them.  A law's variables are
    the letters r, s (base) and v, w (V) in its name, and its witness is
    the first failing assignment in r, s, v, w order."""
    ring_v = action.v
    left = [[int(e) for e in row] for row in action.left]
    right = [[int(e) for e in row] for row in action.right]
    v_add, v_mul = ring_v.add_table.tolist(), ring_v.mul_table.tolist()

    def vadd(a, b):
        return v_add[a][b]

    def vmul(a, b):
        return v_mul[a][b]

    base = read_tables(base)
    badd, bmul, one = base.add, base.mul, base.one
    laws = {
        "1.v == v": lambda r, s, v, w: left[one][v] == v,
        "v.1 == v": lambda r, s, v, w: right[v][one] == v,
        "r.(v+w) == r.v + r.w": lambda r, s, v, w: left[r][vadd(v, w)]
        == vadd(left[r][v], left[r][w]),
        "(r+s).v == r.v + s.v": lambda r, s, v, w: left[badd(r, s)][v]
        == vadd(left[r][v], left[s][v]),
        "(v+w).r == v.r + w.r": lambda r, s, v, w: right[vadd(v, w)][r]
        == vadd(right[v][r], right[w][r]),
        "v.(r+s) == v.r + v.s": lambda r, s, v, w: right[v][badd(r, s)]
        == vadd(right[v][r], right[v][s]),
        "(r*s).v == r.(s.v)": lambda r, s, v, w: left[bmul(r, s)][v] == left[r][left[s][v]],
        "v.(r*s) == (v.r).s": lambda r, s, v, w: right[v][bmul(r, s)] == right[right[v][r]][s],
        "(r.v).s == r.(v.s)": lambda r, s, v, w: right[left[r][v]][s] == left[r][right[v][s]],
        "(v*w).r == v*(w.r)": lambda r, s, v, w: right[vmul(v, w)][r] == vmul(v, right[w][r]),
        "(v.r)*w == v*(r.w)": lambda r, s, v, w: vmul(right[v][r], w) == vmul(v, left[r][w]),
        "(r.v)*w == r.(v*w)": lambda r, s, v, w: vmul(left[r][v], w) == left[r][vmul(v, w)],
    }
    sizes = {"r": base.size, "s": base.size, "v": ring_v.size, "w": ring_v.size}
    out = []
    for law, holds in laws.items():
        names = [name for name in "rsvw" if name in law]
        for values in itertools.product(*(range(sizes[name]) for name in names)):
            assignment = dict(zip(names, values))
            if not holds(**{**dict.fromkeys("rsvw", 0), **assignment}):
                out.append((law, assignment))
                break
    return out
