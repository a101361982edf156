"""Finite groups as validated Cayley tables with 0-based element indices.

Element identity is by index; labels are cosmetic.  Every constructor funnels
through the same exhaustive axiom checks, so a :class:`FiniteGroup` in hand is
always a genuine group.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from operator import itemgetter

from .errors import (
    BadParameter,
    MissingInverse,
    NoIdentity,
    NotAssociative,
    NotClosed,
    OrderLimitExceeded,
    Record,
    UnknownPreset,
    _json_int,
    _json_strings,
)

DEFAULT_ORDER_CAP = 10000

PRESET_NAMES = (
    "cyclic",
    "dihedral",
    "symmetric",
    "quaternion8",
    "heisenberg_p",
    "elementary_abelian_p2",
)


class FiniteGroup(Record, eq=True):
    """Immutable finite group: multiplication table plus derived maps."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def label(self, a: int) -> str:
        if self.labels is None:
            return str(a)
        return self.labels[a]

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))


def from_cayley_table(table: Sequence[Sequence[int]],
                      labels: Sequence[str] | None = None) -> FiniteGroup:
    """Validate a multiplication table and derive identity and inverses.

    Entries must be ``int`` (a float, bool or string is a ``TypeError``,
    never truncated or coerced) in [0, n); some element must be a two-sided
    identity, and every element needs a two-sided inverse.  These checks read
    a row at a time and scan single entries only for a witness: the first
    out-of-range (i, j, v), the first identity, the first two-sided inverse.

    Associativity is certified by Light's test (Clifford & Preston, *The
    Algebraic Theory of Semigroups*, vol. 1, 1961) in O(n^2 |S|).  The
    elements a with (x a) y = x (a y) for all x, y form a submagma that
    holds the identity, so if every s of a set S that generates the table
    with the identity passes, every element passes.
    :func:`_magma_generators` picks S greedily without assuming
    associativity; for a group |S| <= log2 n, since each new generator at
    least doubles the subgroup reached.  Each s is checked a whole row at a
    time: row (x s) must equal x (s y) over all y, for every x.  When the
    test fails, the witness is the lexicographically first failing
    (i, j, k), as the O(n^3) triple loop would find it: rows (i j) k and
    i (j k) are compared in (i, j) order, and single k are read only in the
    first pair of rows that differ.
    """
    n = len(table)
    if n == 0:
        raise BadParameter("empty multiplication table")
    rows = []
    for i, row in enumerate(table):
        if len(row) != n:
            raise BadParameter(f"row {i} has length {len(row)}, expected {n}",
                               witness=[i])
        if set(map(type, row)) - {int}:
            j, x = next((j, x) for j, x in enumerate(row) if type(x) is not int)
            raise TypeError(f"table[{i}][{j}] = {x!r} is not an integer")
        rows.append(tuple(row))
    for i, row in enumerate(rows):
        if min(row) < 0 or max(row) >= n:
            j, v = next((j, v) for j, v in enumerate(row) if not 0 <= v < n)
            raise NotClosed(f"table[{i}][{j}] = {v} is outside [0, {n})",
                            witness=[i, j, v])
    # the identity row is 0..n-1; only such rows need their column read
    natural = tuple(range(n))
    identity = next((e for e, row in enumerate(rows) if row == natural
                     and all(rows[j][e] == j for j in natural)), None)
    if identity is None:
        raise NoIdentity("no two-sided identity element")
    inverse = [_two_sided_inverse(rows, i, identity) for i in range(n)]
    if not all(_associates_through(rows, s)
               for s in _magma_generators(rows, identity)):
        i, j, k = _first_nonassociative(rows)
        raise NotAssociative(f"({i}*{j})*{k} != {i}*({j}*{k})", witness=[i, j, k])
    lab = tuple(str(s) for s in labels) if labels is not None else None
    if lab is not None and len(lab) != n:
        raise BadParameter(f"{len(lab)} labels for {n} elements")
    return FiniteGroup(order=n, table=tuple(rows), identity=identity,
                       inverse=tuple(inverse), labels=lab)


def _two_sided_inverse(rows: list[tuple[int, ...]], i: int, identity: int) -> int:
    """The first j with i j = j i = identity; only the j where row i holds the
    identity are read."""
    row = rows[i]
    j = -1
    while True:
        try:
            j = row.index(identity, j + 1)
        except ValueError:
            raise MissingInverse(f"element {i} has no two-sided inverse",
                                 witness=[i]) from None
        if rows[j][i] == identity:
            return j


def _magma_generators(rows: list[tuple[int, ...]], identity: int) -> list[int]:
    """Greedy set S that, with the identity, generates the table as a magma.

    The identity passes Light's test outright, so the closure starts from
    it.  Walk the elements in index order; each one outside the closure so
    far joins S, and the closure grows breadth-first: every newly reached
    element is multiplied on both sides by every element reached up to it,
    itself included, so each pair is multiplied once and the walk costs
    O(n^2).  It ends early once every element is reached.
    """
    n = len(rows)
    inside = [False] * n
    inside[identity] = True
    reached = [identity]
    generators = []
    done = 0
    for g in range(n):
        if inside[g]:
            continue
        generators.append(g)
        inside[g] = True
        reached.append(g)
        while done < len(reached) < n:
            x = reached[done]
            done += 1
            row_x = rows[x]
            for y in reached[:done]:
                for z in (row_x[y], rows[y][x]):
                    if not inside[z]:
                        inside[z] = True
                        reached.append(z)
    return generators


def _associates_through(rows: list[tuple[int, ...]], s: int) -> bool:
    """(x s) y == x (s y) for all x, y, a whole row y at a time.  Needs
    n >= 2 (an itemgetter of one index returns a bare item), which holds
    because S never contains the identity."""
    s_then = itemgetter(*rows[s])
    return all(rows[row_x[s]] == s_then(row_x) for row_x in rows)


def _first_nonassociative(rows: list[tuple[int, ...]]) -> tuple[int, int, int] | None:
    """Lexicographically first (i, j, k) with (i j) k != i (j k), if any."""
    for i, row_i in enumerate(rows):
        for j, row_j in enumerate(rows):
            left = rows[row_i[j]]
            right = tuple(map(row_i.__getitem__, row_j))
            if left != right:
                return i, j, next(k for k, a in enumerate(left) if a != right[k])
    return None


def _closure(generators: list, mul, identity, label_of) -> FiniteGroup:
    """Deterministic breadth-first closure; element 0 is the identity.

    The table goes through :func:`from_cayley_table` like any other: its
    associativity check costs O(n^2 log n) for a group, cheap enough that
    no table skips it.
    """
    elems = [identity]
    index = {identity: 0}
    queue = [identity]
    while queue:
        nxt = []
        for cur in queue:
            for gen in generators:
                prod = mul(cur, gen)
                if prod not in index:
                    index[prod] = len(elems)
                    elems.append(prod)
                    nxt.append(prod)
                    if len(elems) > DEFAULT_ORDER_CAP:
                        raise OrderLimitExceeded(
                            f"closure exceeded cap of {DEFAULT_ORDER_CAP} elements",
                            witness=DEFAULT_ORDER_CAP)
        queue = nxt
    n = len(elems)
    table = [[index[mul(elems[i], elems[j])] for j in range(n)] for i in range(n)]
    labels = [label_of(e) for e in elems]
    return from_cayley_table(table, labels)


def from_permutation_generators(generators: Sequence[Sequence[int]]) -> FiniteGroup:
    """Group generated by permutations of {0..m-1} under composition.

    Enumeration is BFS from the identity, applying generators in the given
    order (right multiplication), first-seen order; this is the determinism
    contract, not a speed choice.
    """
    if not generators:
        raise BadParameter("at least one generator required")
    m = len(generators[0])
    gens = []
    for g in generators:
        perm = tuple(int(x) for x in g)
        if len(perm) != m or sorted(perm) != list(range(m)):
            raise BadParameter(f"not a permutation of 0..{m - 1}: {g}",
                               witness=list(g))
        gens.append(perm)

    def mul(p: tuple, q: tuple) -> tuple:
        return tuple(p[q[x]] for x in range(m))

    ident = tuple(range(m))
    return _closure(gens, mul, ident, _cycle_notation)


def _cycle_notation(perm: tuple) -> str:
    m = len(perm)
    seen = [False] * m
    parts = []
    for start in range(m):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = perm[x]
        parts.append("(" + " ".join(str(c) for c in cyc) + ")")
    return "".join(parts) if parts else "e"


def preset(name: str, parameter: int = 0) -> FiniteGroup:
    """Named families: cyclic, dihedral, symmetric, quaternion8,
    heisenberg_p, elementary_abelian_p2.  A group of more than
    :data:`DEFAULT_ORDER_CAP` elements is refused from its parameter alone,
    before any primality test or table is made."""
    if name not in PRESET_NAMES:
        raise UnknownPreset(f"unknown preset {name!r}", witness=name)
    if _order(name, parameter) > DEFAULT_ORDER_CAP:
        raise OrderLimitExceeded(
            f"{name} with parameter {parameter} has more than "
            f"{DEFAULT_ORDER_CAP} elements", witness=DEFAULT_ORDER_CAP)
    if name == "cyclic":
        return _cyclic(parameter)
    if name == "dihedral":
        return _dihedral(parameter)
    if name == "symmetric":
        return _symmetric(parameter)
    if name == "quaternion8":
        return _quaternion8()
    if name == "heisenberg_p":
        return _heisenberg(parameter)
    return _elementary_abelian_p2(parameter)


def _order(name: str, n: int) -> int:
    """The order of the preset group with parameter n, or 0 when n < 1,
    which the family's own function then refuses.  The factorial of
    symmetric stops growing once it passes the cap."""
    if name == "quaternion8":
        return 8
    if n < 1:
        return 0
    if name == "symmetric":
        order = 1
        for k in range(2, n + 1):
            order *= k
            if order > DEFAULT_ORDER_CAP:
                break
        return order
    return {"cyclic": n, "dihedral": 2 * n, "heisenberg_p": n ** 3,
            "elementary_abelian_p2": n * n}[name]


def _power_label(base: str, k: int) -> str:
    if k == 0:
        return "e"
    if k == 1:
        return base
    return f"{base}^{k}"


def _cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise BadParameter(f"cyclic order must be positive, got {n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = [_power_label("a", i) for i in range(n)]
    return from_cayley_table(table, labels)


def _dihedral(n: int) -> FiniteGroup:
    # order 2n with presentation a^n = b^2 = e, b a b = a^-1
    if n < 1:
        raise BadParameter(f"dihedral parameter must be positive, got {n}")
    order = 2 * n

    def encode(i: int, j: int) -> int:
        return i + n * j

    table = []
    for x in range(order):
        i1, j1 = x % n, x // n
        row = []
        for y in range(order):
            i2, j2 = y % n, y // n
            if j1 == 0:
                row.append(encode((i1 + i2) % n, j2))
            else:
                row.append(encode((i1 - i2) % n, 1 - j2))
        table.append(row)
    labels = [_power_label("a", i) for i in range(n)]
    labels += ["b" if i == 0 else _power_label("a", i) + "b" for i in range(n)]
    return from_cayley_table(table, labels)


def _symmetric(m: int) -> FiniteGroup:
    if m < 1:
        raise BadParameter(f"symmetric degree must be positive, got {m}")
    perms = sorted(itertools.permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    # (p s) q = p (s q), so row(p s) is row(p) picked at row(s): only the
    # identity and the adjacent transpositions are composed cell by cell, and
    # a breadth-first walk from the identity picks every other row
    table: list = [None] * n
    table[0] = list(range(n))
    pickers = []
    for k in range(m - 1):
        swap = list(range(m))
        swap[k], swap[k + 1] = k + 1, k
        s = index[tuple(swap)]
        table[s] = [index[tuple(map(swap.__getitem__, q))] for q in perms]
        pickers.append((s, itemgetter(*table[s])))
    reached = [0] + [s for s, _ in pickers]
    for p in reached:
        row = table[p]
        for s, pick in pickers:
            ps = row[s]
            if table[ps] is None:
                table[ps] = list(pick(row))
                reached.append(ps)
    labels = [_cycle_notation(p) for p in perms]
    return from_cayley_table(table, labels)


def _quaternion8() -> FiniteGroup:
    # elements 1, -1, i, -i, j, -j, k, -k as integer quaternions
    units = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
             (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]
    index = {q: i for i, q in enumerate(units)}

    def qmul(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    table = [[index[qmul(x, y)] for y in units] for x in units]
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return from_cayley_table(table, labels)


def _check_prime(p: int) -> None:
    if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
        raise BadParameter(f"parameter must be prime, got {p}")


def _heisenberg(p: int) -> FiniteGroup:
    # upper unitriangular 3x3 matrices over Z/pZ, encoded as (a, b, c) with
    # entries (1,2)=a, (1,3)=b, (2,3)=c; order p^3
    _check_prime(p)
    # (a, b, c) has index a p^2 + b p + c, and (a, b, c)(a', b', c') is
    # (a + a', b + b' + a c', c + c'): a row is p blocks, block a' picking
    # the same (b', c') positions from the indices with first entry a + a'
    q = p * p
    blocks = [list(range(a * q, (a + 1) * q)) for a in range(p)]
    elems = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    table = []
    for a, b, c in elems:
        pick = itemgetter(*[(b + b2 + a * c2) % p * p + (c + c2) % p
                            for b2 in range(p) for c2 in range(p)])
        row = []
        for a2 in range(p):
            row.extend(pick(blocks[(a + a2) % p]))
        table.append(row)
    labels = [f"({a},{b},{c})" for (a, b, c) in elems]
    return from_cayley_table(table, labels)


def _elementary_abelian_p2(p: int) -> FiniteGroup:
    _check_prime(p)
    elems = [(a, b) for a in range(p) for b in range(p)]
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[((x[0] + y[0]) % p, (x[1] + y[1]) % p)] for y in elems]
             for x in elems]
    labels = [f"({a},{b})" for (a, b) in elems]
    return from_cayley_table(table, labels)


def self_inverse_count(group: FiniteGroup) -> int:
    """Number of elements with g*g = identity, counting the identity."""
    return sum(1 for g in group.elements() if group.inverse[g] == g)


def group_to_json(group: FiniteGroup) -> dict:
    doc = {
        "order": group.order,
        "identity": group.identity,
        "table": [list(row) for row in group.table],
    }
    if group.labels is not None:
        doc["labels"] = list(group.labels)
    return doc


def group_from_json(doc: dict) -> FiniteGroup:
    """Read a group document; table entries, ``order`` and ``identity`` must
    be JSON integers (not floats, bools or strings), else ``TypeError``."""
    for key in ("order", "identity"):
        if key in doc:
            _json_int(doc, key)
    labels = doc.get("labels")
    if labels is not None:
        _json_strings(labels, "labels")
    group = from_cayley_table(doc["table"], labels)
    if "identity" in doc and doc["identity"] != group.identity:
        raise BadParameter(
            f"declared identity {doc['identity']} but table forces {group.identity}")
    if "order" in doc and doc["order"] != group.order:
        raise BadParameter(
            f"declared order {doc['order']} but table has {group.order} rows")
    return group
