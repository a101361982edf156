"""Finite groups as validated Cayley tables with 0-based element indices.

Element identity is by index; labels are cosmetic.  Every constructor funnels
through the same exhaustive axiom checks, so a :class:`FiniteGroup` in hand is
always a genuine group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    BadParameter,
    MissingInverse,
    NoIdentity,
    NotAssociative,
    NotClosed,
    NotInvertibleModP,
    OrderLimitExceeded,
    UnknownPreset,
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


@dataclass(frozen=True)
class FiniteGroup:
    """Immutable finite group: multiplication table plus derived maps."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    labels: Optional[tuple[str, ...]] = None

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

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
                      labels: Optional[Sequence[str]] = None) -> FiniteGroup:
    """Validate a multiplication table and derive identity and inverses."""
    n = len(table)
    if n == 0:
        raise BadParameter("empty multiplication table")
    rows = []
    for i, row in enumerate(table):
        if len(row) != n:
            raise BadParameter(f"row {i} has length {len(row)}, expected {n}",
                               witness=[i])
        rows.append(tuple(int(x) for x in row))
    for i in range(n):
        for j in range(n):
            v = rows[i][j]
            if not 0 <= v < n:
                raise NotClosed(f"table[{i}][{j}] = {v} is outside [0, {n})",
                                witness=[i, j, v])
    identity = None
    for e in range(n):
        if all(rows[e][j] == j and rows[j][e] == j for j in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity("no two-sided identity element")
    inverse = [-1] * n
    for i in range(n):
        for j in range(n):
            if rows[i][j] == identity and rows[j][i] == identity:
                inverse[i] = j
                break
        if inverse[i] < 0:
            raise MissingInverse(f"element {i} has no two-sided inverse",
                                 witness=[i])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[rows[i][j]][k] != rows[i][rows[j][k]]:
                    raise NotAssociative(
                        f"({i}*{j})*{k} != {i}*({j}*{k})", witness=[i, j, k])
    lab = tuple(str(s) for s in labels) if labels is not None else None
    if lab is not None and len(lab) != n:
        raise BadParameter(f"{len(lab)} labels for {n} elements")
    return FiniteGroup(order=n, table=tuple(rows), identity=identity,
                       inverse=tuple(inverse), labels=lab)


def _closure(generators: list, mul, identity, label_of,
             order_cap: int) -> FiniteGroup:
    """Deterministic breadth-first closure; element 0 is the identity."""
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
                    if len(elems) > order_cap:
                        raise OrderLimitExceeded(
                            f"closure exceeded cap of {order_cap} elements",
                            witness=order_cap)
        queue = nxt
    n = len(elems)
    table = [[index[mul(elems[i], elems[j])] for j in range(n)] for i in range(n)]
    labels = [label_of(e) for e in elems]
    return from_cayley_table(table, labels)


def from_permutation_generators(generators: Sequence[Sequence[int]],
                                order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
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
    return _closure(gens, mul, ident, _cycle_notation, order_cap)


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


def from_matrix_generators_mod_p(generators: Sequence[Sequence[Sequence[int]]],
                                 p: int,
                                 order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Multiplicative closure of k x k integer matrices mod p."""
    if p < 2:
        raise BadParameter(f"modulus must be at least 2, got {p}")
    if not generators:
        raise BadParameter("at least one generator required")
    k = len(generators[0])
    gens = []
    for g in generators:
        mat = tuple(tuple(int(x) % p for x in row) for row in g)
        if len(mat) != k or any(len(row) != k for row in mat):
            raise BadParameter("generators must be square matrices of equal size")
        if math.gcd(_det_int(mat) % p, p) != 1:
            raise NotInvertibleModP(
                f"generator is singular mod {p}", witness=[list(r) for r in mat])
        gens.append(mat)

    def mul(a: tuple, b: tuple) -> tuple:
        return tuple(
            tuple(sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(k))
            for i in range(k))

    ident = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))

    def label_of(mat: tuple) -> str:
        return "[" + ",".join("[" + ",".join(str(x) for x in row) + "]"
                              for row in mat) + "]"

    return _closure(gens, mul, ident, label_of, order_cap)


def _det_int(mat: tuple) -> int:
    # cofactor expansion; generator matrices are tiny
    k = len(mat)
    if k == 1:
        return mat[0][0]
    total = 0
    for j in range(k):
        minor = tuple(row[:j] + row[j + 1:] for row in mat[1:])
        term = mat[0][j] * _det_int(minor)
        total += term if j % 2 == 0 else -term
    return total


def preset(name: str, parameter: int = 0) -> FiniteGroup:
    """Named families: cyclic, dihedral, symmetric, quaternion8,
    heisenberg_p, elementary_abelian_p2."""
    if name not in PRESET_NAMES:
        raise UnknownPreset(f"unknown preset {name!r}", witness=name)
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
    if math.factorial(m) > DEFAULT_ORDER_CAP:
        raise BadParameter(f"symmetric group of degree {m} exceeds the order cap")
    perms = sorted(itertools.permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = [[index[tuple(p[q[x]] for x in range(m))] for q in perms] for p in perms]
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
    if p ** 3 > DEFAULT_ORDER_CAP:
        raise BadParameter(f"heisenberg group of order {p ** 3} exceeds the order cap")
    elems = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(x, y):
        return ((x[0] + y[0]) % p, (x[1] + y[1] + x[0] * y[2]) % p,
                (x[2] + y[2]) % p)

    table = [[index[mul(x, y)] for y in elems] for x in elems]
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
    group = from_cayley_table(doc["table"], doc.get("labels"))
    if "identity" in doc and int(doc["identity"]) != group.identity:
        raise BadParameter(
            f"declared identity {doc['identity']} but table forces {group.identity}")
    if "order" in doc and int(doc["order"]) != group.order:
        raise BadParameter(
            f"declared order {doc['order']} but table has {group.order} rows")
    return group
