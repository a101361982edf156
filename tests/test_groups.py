from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from plesken import errors, groups
from plesken.groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    _cycle_notation,
    _magma_generators,
    _two_sided_inverse,
    from_cayley_table,
    from_permutation_generators,
    group_from_json,
    group_to_json,
    preset,
    self_inverse_count,
)


def check_axioms(group: FiniteGroup) -> None:
    n = group.order
    t = group.table
    e = group.identity
    for i in range(n):
        assert t[e][i] == i and t[i][e] == i
        assert t[i][group.inverse[i]] == e
        assert t[group.inverse[i]][i] == e
        for j in range(n):
            assert 0 <= t[i][j] < n
            for k in range(n):
                assert t[t[i][j]][k] == t[i][t[j][k]]


def test_trivial_group():
    g = from_cayley_table([[0]])
    assert g.order == 1 and g.identity == 0 and g.inverse == (0,)


def test_z2_table():
    g = from_cayley_table([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.inverse == (0, 1)


def test_bad_table_missing_inverse():
    with pytest.raises((errors.MissingInverse, errors.NotAssociative)) as exc:
        from_cayley_table([[0, 1], [1, 1]])
    assert exc.value.witness is not None


def test_bad_table_not_closed():
    with pytest.raises(errors.NotClosed) as exc:
        from_cayley_table([[0, 1], [1, 2]])
    assert exc.value.witness == [1, 1, 2]


def test_bad_table_no_identity():
    with pytest.raises(errors.NoIdentity):
        from_cayley_table([[1, 1], [1, 1]])


def test_bad_table_not_associative():
    # identity and inverses fine, associativity broken
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(errors.NotAssociative) as exc:
        from_cayley_table(table)
    i, j, k = exc.value.witness
    t = table
    assert t[t[i][j]][k] != t[i][t[j][k]]
    assert exc.value.witness == [1, 1, 2]


def test_permutation_cyclic4():
    g = from_permutation_generators([(1, 2, 3, 0)])
    assert g.order == 4
    check_axioms(g)


def test_permutation_dihedral8():
    rot = (1, 2, 3, 0)
    refl = (0, 3, 2, 1)
    g = from_permutation_generators([rot, refl])
    assert g.order == 8
    check_axioms(g)
    assert self_inverse_count(g) == 6


def test_permutation_s3():
    g = from_permutation_generators([(1, 0, 2), (1, 2, 0)])
    assert g.order == 6
    check_axioms(g)


def test_permutation_determinism():
    gens = [(1, 2, 3, 0), (0, 3, 2, 1)]
    g1 = from_permutation_generators(gens)
    g2 = from_permutation_generators(gens)
    assert g1 == g2


def test_permutation_order_cap():
    # S8 has order 40320; the breadth-first closure stops at element 10001
    with pytest.raises(errors.OrderLimitExceeded) as exc:
        from_permutation_generators([(1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)])
    assert exc.value.witness == DEFAULT_ORDER_CAP == 10000


@pytest.mark.parametrize("name,param,order,selfinv", [
    ("cyclic", 5, 5, 1),
    ("cyclic", 4, 4, 2),
    ("dihedral", 4, 8, 6),
    ("symmetric", 3, 6, 4),
    ("quaternion8", 0, 8, 2),
    ("heisenberg_p", 3, 27, 1),
    ("elementary_abelian_p2", 3, 9, 1),
    ("elementary_abelian_p2", 2, 4, 4),
])
def test_presets(name, param, order, selfinv):
    g = preset(name, param)
    assert g.order == order
    assert g.is_abelian() == (name in ("cyclic", "elementary_abelian_p2"))
    check_axioms(g)
    # oracle: enumerate elements with g*g = identity
    brute = sum(1 for i in range(g.order) if g.table[i][i] == g.identity)
    assert self_inverse_count(g) == brute == selfinv


def test_preset_errors():
    with pytest.raises(errors.UnknownPreset):
        preset("nosuch", 3)
    with pytest.raises(errors.BadParameter):
        preset("cyclic", 0)
    with pytest.raises(errors.BadParameter):
        preset("heisenberg_p", 4)


# a parameter of each preset, and the order of the group it gives
PRESET_ORDERS = {"cyclic": (11, 11), "dihedral": (6, 12), "symmetric": (4, 24),
            "quaternion8": (0, 8), "heisenberg_p": (3, 27),
            "elementary_abelian_p2": (5, 25)}


@pytest.mark.parametrize("name", sorted(PRESET_ORDERS))
def test_every_preset_obeys_the_order_cap(monkeypatch, name):
    def refuse(*args):
        raise AssertionError("no primality test or table past the cap")

    parameter, order = PRESET_ORDERS[name]
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", order)
    assert preset(name, parameter).order == order
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", order - 1)
    monkeypatch.setattr(groups, "_check_prime", refuse)
    monkeypatch.setattr(groups, "from_cayley_table", refuse)
    with pytest.raises(errors.OrderLimitExceeded) as exc:
        preset(name, parameter)
    assert exc.value.witness == order - 1


def test_order_cap_is_read_from_the_parameter_alone():
    # 2^61 - 1 is prime: a trial-division test would not finish, nor would
    # (10^18)! or any of the tables
    for name, parameter in (("heisenberg_p", 2 ** 61 - 1), ("elementary_abelian_p2", 2 ** 61 - 1),
                            ("symmetric", 10 ** 18), ("cyclic", 10 ** 40)):
        with pytest.raises(errors.OrderLimitExceeded) as exc:
            preset(name, parameter)
        assert exc.value.witness == DEFAULT_ORDER_CAP


def test_self_inverse_trivial():
    assert self_inverse_count(from_cayley_table([[0]])) == 1


@given(st.sampled_from([("cyclic", 6), ("dihedral", 3), ("symmetric", 3),
                        ("quaternion8", 0), ("elementary_abelian_p2", 2)]))
def test_inverse_is_involution(params):
    g = preset(*params)
    for i in range(g.order):
        assert g.inverse[g.inverse[i]] == i


def test_json_roundtrip_bit_exact():
    g = preset("dihedral", 4)
    doc = group_to_json(g)
    text = json.dumps(doc, sort_keys=True)
    doc_back = json.loads(text)
    g2 = group_from_json(doc_back)
    assert g == g2
    assert json.dumps(group_to_json(g2), sort_keys=True) == text


def test_json_rejects_inconsistent_identity():
    doc = group_to_json(preset("cyclic", 3))
    doc["identity"] = 1
    with pytest.raises(errors.BadParameter):
        group_from_json(doc)


def test_json_rejects_non_integer_entries():
    for table in ([[0.0, 1.9], [1.2, 0.4]], [[False, True], [True, False]],
                  [["0", "1"], ["1", "0"]]):
        with pytest.raises(TypeError, match=r"table\[0\]\[0\]"):
            group_from_json({"table": table})
    for key, value in (("order", 2.0), ("identity", True)):
        with pytest.raises(TypeError, match=key):
            group_from_json({"table": [[0, 1], [1, 0]], key: value})


# -- range, identity and inverses: row scans against the cell-by-cell loops ------


def cell_validation(table):
    """Oracle: the cell-by-cell range, identity and inverse loops; the code
    and witness of the first failure, or (identity, inverses)."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            v = table[i][j]
            if not 0 <= v < n:
                return "NotClosed", [i, j, v]
    identity = next((e for e in range(n) if all(table[e][j] == j and table[j][e] == j
                                                for j in range(n))), None)
    if identity is None:
        return "NoIdentity", None
    inverse = []
    for i in range(n):
        j = next((j for j in range(n)
                  if table[i][j] == identity and table[j][i] == identity), None)
        if j is None:
            return "MissingInverse", [i]
        inverse.append(j)
    return identity, tuple(inverse)


def broken_tables(rng):
    """Relabelled group tables with cells out of range, the identity's row or
    column changed, or identity entries whose mirror cell is not the identity."""
    for name, param in [("cyclic", 6), ("dihedral", 4), ("symmetric", 3),
                        ("quaternion8", 0), ("heisenberg_p", 3)]:
        for kind in ("range", "identity", "one-sided", "extra") * 3:
            table = relabel(preset(name, param).table, rng)
            n = len(table)
            e = table.index(list(range(n)))
            others = [x for x in range(n) if x != e]
            if kind == "range":
                for r in rng.sample(range(n), rng.randint(1, 2)):
                    for c in rng.sample(range(n), rng.randint(1, 3)):
                        table[r][c] = rng.choice([-1, -7, n, n + 4])
            elif kind == "identity":
                c = rng.choice(others)
                cell = (e, c) if rng.random() < 0.5 else (c, e)
                table[cell[0]][cell[1]] = rng.choice([x for x in range(n) if x != c])
            else:
                # i j = e with j i != e: a one-sided inverse; "extra" keeps the
                # two-sided one further along row i
                i = rng.choice(others)
                j = table[i].index(e)
                if kind == "one-sided":
                    table[j][i] = rng.choice(others)
                else:
                    k = rng.choice([x for x in range(n) if table[x][i] != e])
                    table[i][k] = e
            yield kind, table


def test_row_scans_match_cell_loops():
    kinds = set()
    for kind, table in broken_tables(random.Random(2197)):
        expected = cell_validation(table)
        try:
            group = from_cayley_table(table)
            outcome = group.identity, group.inverse
        except (errors.NotClosed, errors.NoIdentity, errors.MissingInverse) as err:
            outcome = err.code, err.witness
        except errors.NotAssociative:
            # identity and inverses passed; read them as the validator does
            identity = expected[0]
            rows = [tuple(row) for row in table]
            outcome = identity, tuple(_two_sided_inverse(rows, i, identity)
                                      for i in range(len(rows)))
        assert outcome == expected, kind
        if isinstance(expected[0], str):
            kinds.add((kind, expected[0]))
        else:
            # "skip": some row's first identity entry is only a one-sided inverse
            identity, inverse = expected
            skip = any(table[i].index(identity) != j for i, j in enumerate(inverse))
            kinds.add((kind, "skip" if skip else "ok"))
    assert {("range", "NotClosed"), ("identity", "NoIdentity"),
            ("one-sided", "MissingInverse"), ("extra", "skip")} <= kinds


# -- associativity: Light's test against the brute-force triple loop -----------


def first_nonassociative(table):
    """Oracle: the O(n^3) loop, lexicographically first failing (i, j, k)."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return [i, j, k]
    return None


def relabel(table, rng):
    """The same multiplication under a seeded permutation of the elements."""
    n = len(table)
    new = list(range(n))
    rng.shuffle(new)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[new[a]][new[b]] = new[table[a][b]]
    return out


def test_relabelled_presets_are_accepted():
    rng = random.Random(60)
    presets = ([("cyclic", n) for n in range(1, 61)]
               + [("dihedral", n) for n in range(1, 31)]
               + [("symmetric", n) for n in range(1, 5)]
               + [("quaternion8", 0), ("heisenberg_p", 3)]
               + [("elementary_abelian_p2", p) for p in (2, 3, 5, 7)])
    for name, param in presets:
        group = preset(name, param)
        assert group.order <= 60
        for _ in range(2):
            table = relabel(group.table, rng)
            assert from_cayley_table(table).table == tuple(map(tuple, table))


def swapped(group, rng):
    """A group table (order >= 4) with two non-identity entries of one row
    swapped: the identity row and column and every two-sided inverse stay."""
    n, e = group.order, group.identity
    table = [list(row) for row in group.table]
    r = rng.choice([x for x in range(n) if x != e])
    c1, c2 = rng.sample([c for c in range(n) if c != e and table[r][c] != e], 2)
    table[r][c1], table[r][c2] = table[r][c2], table[r][c1]
    return table


def random_loop(n, rng):
    """A seeded Latin square of order n with identity 0 and two-sided
    inverses (an IP-free loop), filled cell by cell with backtracking."""
    table = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == n * n:
            return True
        i, j = divmod(cell, n)
        if table[i][j] is not None:
            return fill(cell + 1)
        options = [v for v in range(n) if v not in table[i]
                   and all(table[r][j] != v for r in range(i))
                   and (j >= i or (v == 0) == (table[j][i] == 0))]
        rng.shuffle(options)
        for v in options:
            table[i][j] = v
            if fill(cell + 1):
                return True
        table[i][j] = None
        return False

    assert fill(0)
    return table


LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def loop_product(m, loop):
    """C_m x M with (a, b) at index a + m*b.  Element 1 is (1, e), in the
    nucleus: it passes Light's test although the table fails."""
    n = m * len(loop)
    return [[(x + y) % m + m * loop[x // m][y // m] for y in range(n)]
            for x in range(n)]


def non_associative_tables():
    rng = random.Random(20260418)
    tables = []
    for name, param in [("cyclic", 6), ("cyclic", 12), ("cyclic", 60),
                        ("dihedral", 2), ("dihedral", 3), ("dihedral", 5),
                        ("dihedral", 12), ("dihedral", 30), ("symmetric", 3),
                        ("symmetric", 4), ("quaternion8", 0), ("heisenberg_p", 3),
                        ("elementary_abelian_p2", 2), ("elementary_abelian_p2", 3),
                        ("elementary_abelian_p2", 5), ("elementary_abelian_p2", 7)]:
        for _ in range(2):
            tables.append(swapped(preset(name, param), rng))
    for n in (5, 6) * 4:
        table = random_loop(n, rng)
        if first_nonassociative(table) is not None:
            tables.append(table)
    tables.append(loop_product(2, LOOP5))
    tables.append(loop_product(3, LOOP5))
    return tables


def test_not_associative_witness_matches_oracle():
    seen_many_generators = seen_failure_off_generator = False
    tables = non_associative_tables()
    for table in tables:
        witness = first_nonassociative(table)
        assert witness is not None
        with pytest.raises(errors.NotAssociative) as exc:
            from_cayley_table(table)
        assert exc.value.witness == witness
        generators = _magma_generators(tuple(map(tuple, table)), 0)
        seen_many_generators |= len(generators) > 1
        seen_failure_off_generator |= witness[1] not in generators
    assert len(tables) >= 30
    assert seen_many_generators and seen_failure_off_generator


def test_first_generator_alone_does_not_certify():
    # element 1 of C2 x M is in the nucleus: Light's test passes on it, and
    # only a later generator exposes the failure
    table = loop_product(2, LOOP5)
    generators = _magma_generators(tuple(map(tuple, table)), 0)
    assert generators[0] == 1 and len(generators) > 1
    t = table
    assert all(t[t[x][1]][y] == t[x][t[1][y]] for x in range(10) for y in range(10))
    with pytest.raises(errors.NotAssociative) as exc:
        from_cayley_table(table)
    assert exc.value.witness == first_nonassociative(table)


def test_symmetric6_validates():
    # a regression guard for the cost: about 1 s with Light's test, about
    # 38 s with the O(n^3) triple loop
    group = preset("symmetric", 6)
    assert group.order == 720
    assert self_inverse_count(group) == 76


def heisenberg_by_lookup(p):
    """The table of the upper unitriangular group mod p, one tuple product and
    dict lookup per cell."""
    elems = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    index = {e: i for i, e in enumerate(elems)}

    def mul(x, y):
        return ((x[0] + y[0]) % p, (x[1] + y[1] + x[0] * y[2]) % p, (x[2] + y[2]) % p)

    return [[index[mul(x, y)] for y in elems] for x in elems]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_heisenberg_table_matches_lookup_builder(p):
    group = preset("heisenberg_p", p)
    assert [list(row) for row in group.table] == heisenberg_by_lookup(p)
    assert group.labels[p * p + p] == "(1,1,0)"


def symmetric_by_lookup(m):
    """The table of S_m on sorted permutations, one composed tuple and dict
    lookup per cell, with its cycle-notation labels."""
    perms = sorted(itertools.permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(map(p.__getitem__, q))] for q in perms] for p in perms]
    return table, [_cycle_notation(p) for p in perms]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_symmetric_table_matches_lookup_builder(m):
    group = preset("symmetric", m)
    table, labels = symmetric_by_lookup(m)
    assert [list(row) for row in group.table] == table
    assert list(group.labels) == labels
    assert group.identity == 0
