"""Exact Lie algebra core.

A :class:`LieAlgebra` is a dimension plus structure constants over Q(i): for
each basis pair i < j with a nonzero bracket, the terms (k, c(i,j)_k) with
[x_i, x_j] = sum_k c(i,j)_k x_k, nonzero c only, in increasing k.
Antisymmetry is built into the representation; the Jacobi identity is checked
on construction (or on demand via :func:`verify_lie_axioms`).  Those terms
are the one stored form, and :meth:`LieAlgebra.structure` the one dense view
of them; every sum over the bracket (the bracket itself, the center, the
derived series, Jacobi, the Killing form, the cocycle condition) reads the one
table derived from them, :attr:`LieAlgebra.integer_terms`: the same terms
cleared once by :func:`~plesken.scalars.clear` to Gaussian integers.  The
structural probes eliminate Gaussian-integer rows from it directly, and
Cartan's criterion is one test, :func:`_killing_full_rank`, on L
(:func:`is_semisimple`) or on a term of the derived series (:func:`_split_ideal`).
Jacobi and the cocycle condition are cyclic sums over basis triples: both walk
triples that can give a nonzero sum, :func:`_linked_triples`, through the one
rotation rule :func:`_rotations`, and both are :func:`_cyclic_sums` over a
table f(x_m, x_t) with a row only for each m in the image of a bracket.  For
Jacobi an entry of that table is a bracket packed into one integer with w-bit
slots, so a triple costs about nine products and one exact zero test (see
:func:`_jacobiators` for the width bound).  Like Light's test in
:mod:`~plesken.groups`, both are certified on a generating set: from dim
:data:`_CLOSURE_MIN_DIM` on, a greedy S whose ad_S-closure is L
(:func:`_ad_generators`) makes Jacobi on the linked triples holding one of S
the whole check (:attr:`LieAlgebra.lie_generators`), and on an algebra so
certified the same triples carry the cocycle condition.  Every linked triple
is walked only below that dimension, when 3 |S| reaches n, and to name the
first failure once a check on the generators has failed.

The Plesken algebra of a finite group G is the span of the elements
g_hat = g - g^-1 inside the group algebra, closed under the commutator.  Its
structure constants are obtained by evaluating the group-algebra commutator
and re-expressing the result in the hat basis; no closed bracket formula is
hard-coded.  A commutator of two hat elements has at most eight nonzero
coefficients, so :func:`_hat_terms` reads only those, through the
element -> basis index map :attr:`PleskenBasis.members`
made once per basis, never a scan of all n pairs.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property

from . import linalg
from .errors import (BadParameter, DimensionMismatch, JacobiViolation, Record, _json_array,
                     _json_int, _json_strings)
from .linalg import Subspace, Vector
from .scalars import ONE, ZERO, Scalar, clear

TYPE_CHECKING = False  # true to a type checker; ``typing`` is never imported
if TYPE_CHECKING:
    from .groups import FiniteGroup


class PleskenBasis(Record, eq=True):
    """Inverse pairs (g, g^-1), one per basis vector g_hat, g the smaller index."""

    pairs: tuple[tuple[int, int], ...]

    @cached_property
    def members(self) -> dict[int, int]:
        """Each member of a pair -> its basis index."""
        return {g: k for k, pair in enumerate(self.pairs) for g in pair}


class GroupAlgebraElement(Record, eq=True, hashable=False):
    """Sparse group-algebra element: element index -> nonzero coefficient."""

    coefficients: dict[int, Scalar]

    def is_zero(self) -> bool:
        return not self.coefficients


class IntegerTerms(namedtuple("IntegerTerms", "den real terms")):
    """The nonzero structure constants as Gaussian integers: ``terms[(a, b)]``
    holds (k, E Re c, E Im c) for each nonzero c = c(a,b)_k, in increasing k,
    E the common denominator ``den`` of all structure constants; ``real`` is
    true when no structure constant has an imaginary part."""

    __slots__ = ()


Terms = tuple[tuple[int, Scalar], ...]


class LieAlgebra(Record, eq=True, hashable=False):
    """Finite-dimensional Lie algebra with exact structure constants:
    ``brackets[(i, j)]``, i < j, holds the nonzero terms (k, c) of
    [x_i, x_j] in increasing k; a pair with a zero bracket has no entry."""

    dim: int
    brackets: dict[tuple[int, int], Terms]
    basis_labels: tuple[str, ...]
    provenance: tuple[FiniteGroup, PleskenBasis] | None = None

    def structure(self, i: int, j: int) -> tuple[Scalar, ...]:
        """Bracket [x_i, x_j] as a dense coordinate vector, any index order:
        the one dense view of :attr:`brackets`."""
        vec = [ZERO] * self.dim
        for k, c in self.brackets.get((min(i, j), max(i, j)), ()):
            vec[k] = c if i < j else -c
        return tuple(vec)

    @cached_property
    def integer_terms(self) -> IntegerTerms:
        """The stored terms over one common denominator, derived once from
        :attr:`brackets`."""
        den, re, im = clear([c for ts in self.brackets.values() for _, c in ts])
        parts = iter(zip(re, im))
        terms = {}
        for (i, j), ts in self.brackets.items():
            forward = tuple([(k, *next(parts)) for k, _ in ts])
            terms[(i, j)] = forward
            terms[(j, i)] = tuple([(k, -a, -b) for k, a, b in forward])
        return IntegerTerms(den, not any(im), terms)

    @cached_property
    def lie_generators(self) -> frozenset[int] | None:
        """The set S of :func:`_ad_generators` when Jacobi holds on every
        linked triple that holds one of S, which certifies the algebra Lie;
        None when no S is built or Jacobi fails there.

        Why that is exact: J, the Jacobiator of the antisymmetric bracket, is
        alternating and trilinear, and zero on a triple that is not linked,
        so the walk puts S inside D = {a : J(a, y, z) = 0 for all y, z}.  D
        is a subspace, and a subalgebra: for a in D, ad a is a derivation, so
        ad [a, b] = [ad a, ad b] is one whenever ad b is.  So D holds every
        iterated bracket of S, which span the ad_S-closure, all of L, and
        J = 0.  For a Lie L and a form alpha, S and the central z generate
        L + C z with [x, y] + alpha(x, y) z the same way, so the cocycle
        condition on these triples is the whole condition too (see
        :func:`~plesken.cohomology.is_cocycle`).  Computed once per algebra."""
        generators = _ad_generators(self)
        if generators is None or next(_jacobiators(self, _linked_triples(self, generators)),
                                      None) is not None:
            return None
        return generators

    def _key(self) -> tuple:
        # an algebra read back from JSON equals the one built from its group
        return self.dim, self.brackets, self.basis_labels


def _default_labels(dim: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(dim))


def _check_dim(dim: int) -> None:
    if dim < 0:
        raise BadParameter(f"dimension must be non-negative, got {dim}")


def _check_pair(dim: int, i: int, j: int, length: int) -> None:
    """Refuse a bracket key outside 0 <= i < j < dim, then a vector whose
    length is not ``dim``."""
    if not (0 <= i < j < dim):
        raise BadParameter(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
    if length != dim:
        raise BadParameter(f"bracket vector for ({i},{j}) has length {length}")


def _normalize_table(dim: int, table) -> dict[tuple[int, int], Terms]:
    """The stored terms of a table of length-``dim`` vectors; a zero vector
    gives no entry."""
    brackets: dict[tuple[int, int], Terms] = {}
    for (i, j), vec in table.items():
        _check_pair(dim, i, j, len(vec))
        terms = []
        for k, x in enumerate(vec):
            if x is not ZERO:
                c = x if isinstance(x, Scalar) else Scalar(x)
                if c:
                    terms.append((k, c))
        if terms:
            brackets[(i, j)] = tuple(terms)
    return brackets


def from_structure_constants(dim: int, table,
                             labels: Sequence[str] | None = None) -> LieAlgebra:
    """Build an algebra from a bracket table, refusing non-Jacobi data.

    ``table`` maps (i, j) with i < j to length-``dim`` coefficient vectors;
    missing pairs mean zero bracket.
    """
    _check_dim(dim)
    return _checked(dim, _normalize_table(dim, table), labels)


def _checked(dim: int, brackets: dict[tuple[int, int], Terms],
             labels: Sequence[str] | None) -> LieAlgebra:
    """The algebra of checked stored terms, refusing a label count other
    than ``dim``, then non-Jacobi data with its first failing triple."""
    lab = tuple(labels) if labels is not None else _default_labels(dim)
    if len(lab) != dim:
        raise BadParameter(f"{len(lab)} labels for dimension {dim}")
    algebra = LieAlgebra(dim=dim, brackets=brackets, basis_labels=lab)
    failure = next(_jacobi_failures(algebra), None)
    if failure is not None:
        i, j, k, residual = failure
        raise JacobiViolation(
            f"Jacobi identity fails on basis triple ({i},{j},{k})",
            witness=[i, j, k, [str(x) for x in residual]])
    return algebra


def bracket(algebra: LieAlgebra, u: Vector, v: Vector) -> list[Scalar]:
    """Bilinear extension of the structure constants to coordinate vectors,
    summed in Gaussian integers over the cleared u and v."""
    n = algebra.dim
    if len(u) != n or len(v) != n:
        raise DimensionMismatch(
            f"expected vectors of length {n}, got {len(u)} and {len(v)}")
    den, _, terms = algebra.integer_terms
    us, vs = [i for i, x in enumerate(u) if x], [j for j, y in enumerate(v) if y]
    du, ure, uim = clear([u[i] for i in us])
    dv, vre, vim = clear([v[j] for j in vs])
    sums = linalg._combine(_bracket_pairs(terms, zip(us, ure, uim), [*zip(vs, vre, vim)]))
    return [Scalar._make(*sums[k], du * dv * den) if k in sums else ZERO for k in range(n)]


def _bracket_pairs(terms, u, v):
    """(Re, Im, terms[i, j]) per product of a term (i, a, b) of u and (j, c, d)
    of v with [x_i, x_j] in ``terms``, the table of :attr:`LieAlgebra.integer_terms`
    over E: :func:`linalg._combine` sums them into E [u, v]."""
    return [(a * c - b * d, a * d + b * c, terms[i, j])
            for i, a, b in u for j, c, d in v if (i, j) in terms]


def _linked_triples(algebra: LieAlgebra, generators: frozenset[int] | None = None):
    """Basis triples i < j < k in lexicographic order with a nonzero pair
    bracket: all k > j when [x_i, x_j] is nonzero, else the k > j linked to i
    or j by one.  Any other triple has a zero cyclic sum, for Jacobi and the
    cocycle condition alike.  With ``generators`` (see
    :func:`_ad_generators`), only the triples that hold one of them."""
    terms = algebra.integer_terms.terms
    n = algebra.dim
    linked: list[set[int]] = [set() for _ in range(n)]
    for a, b in terms:
        linked[a].add(b)
    hubs = [j for j in range(n) if linked[j]]
    ordered = sorted(generators) if generators is not None else None
    for i in range(n):
        # with i unlinked only a linked j can link the triple
        for j in range(i + 1, n) if linked[i] else hubs[bisect_right(hubs, i):]:
            if ordered is None or i in generators or j in generators:
                if (i, j) in terms:
                    third = range(j + 1, n)
                elif linked[i] or linked[j]:
                    third = sorted(k for k in linked[i] | linked[j] if k > j)
                else:
                    continue
            elif (i, j) in terms:
                third = ordered[bisect_right(ordered, j):]
            else:
                # linked is symmetric: k is linked to i or j when i or j is to k
                third = [k for k in ordered[bisect_right(ordered, j):]
                         if i in linked[k] or j in linked[k]]
            for k in third:
                yield i, j, k


def _rotations(terms, i: int, j: int, k: int):
    """(terms of [x_a, x_b], t) for the rotations (a, b, t) = (i, j, k),
    (j, k, i), (k, i, j).  Jacobi and the cocycle condition on (i, j, k) are
    both the sum over them of c f(x_m, x_t) over the terms (m, c) of
    [x_a, x_b], f the bracket or alpha."""
    get = terms.get
    return (get((i, j), ()), k), (get((j, k), ()), i), (get((k, i), ()), j)


def _read_rows(algebra: LieAlgebra) -> list:
    """A zero row [0] * n at each m in the image of some basis bracket, None
    elsewhere: the rows f(x_m, .) that a cyclic sum can read, never n x n."""
    n = algebra.dim
    terms = algebra.integer_terms.terms
    rows: list = [None] * n
    for pair in algebra.brackets:
        for m, _, _ in terms[pair]:
            if rows[m] is None:
                rows[m] = [0] * n
    return rows


def _cyclic_sums(algebra: LieAlgebra, triples, re_rows: list, im_rows: list | None):
    """(i, j, k, re, im) for each of ``triples``, in order, whose cyclic sum of
    c f(x_m, x_t) (see :func:`_rotations`) is nonzero, over the Gaussian-integer
    terms c of :attr:`LieAlgebra.integer_terms` and f(x_m, x_t) =
    re_rows[m][t] + i im_rows[m][t], integers or packed integer vectors.
    ``im_rows`` is None when f and the algebra are real: then no imaginary
    product is formed."""
    terms = algebra.integer_terms.terms
    if im_rows is None:
        for i, j, k in triples:
            re = 0
            for ts, t in _rotations(terms, i, j, k):
                for m, c, _ in ts:
                    re += c * re_rows[m][t]
            if re:
                yield i, j, k, re, 0
        return
    for i, j, k in triples:
        re = im = 0
        for ts, t in _rotations(terms, i, j, k):
            for m, cr, ci in ts:
                x, y = re_rows[m][t], im_rows[m][t]
                re += cr * x - ci * y
                im += cr * y + ci * x
        if re or im:
            yield i, j, k, re, im


def _jacobiators(algebra: LieAlgebra, triples):
    """(i, j, k, residual) for each of ``triples``, in order, whose Jacobiator
    [[x_i,x_j],x_k] + [[x_j,x_k],x_i] + [[x_k,x_i],x_j] is nonzero.

    Each bracket [x_m, x_t] read is packed, per part, into one integer with
    its E-scaled coordinate s in the w-bit slot s (Kronecker substitution), so
    a triple's Jacobiator, E^2 times its true value, is about nine products
    of a term c with a packed bracket.  Every coordinate of it is at most
    3 C M in absolute value, C the largest sum |Re c| + |Im c| over the terms
    of one bracket and M the largest |Re c| or |Im c|; with
    w = bit_length(3 C M) + 1 each lies strictly inside +-2^(w-1), where
    balanced base-2^w digits are unique, so the packed sum is zero exactly
    when the Jacobiator is.  Only a failing triple is unpacked to scalars."""
    den, real, terms = algebra.integer_terms
    n = algebra.dim
    c = m = 0
    for pair in algebra.brackets:
        parts = [abs(x) for _, a, b in terms[pair] for x in (a, b)]
        c, m = max(c, sum(parts)), max([m, *parts])
    w = linalg._width(3 * c * m)
    re_rows = _read_rows(algebra)
    im_rows = None if real else _read_rows(algebra)
    tables = [(re_rows, 1)] if real else [(re_rows, 1), (im_rows, 2)]
    for a, b in algebra.brackets:
        for table, part in tables:
            v = sum([term[part] << w * term[0] for term in terms[a, b]])
            if table[a] is not None:
                table[a][b] = v
            if table[b] is not None:
                table[b][a] = -v
    e2 = den * den
    for i, j, k, re, im in _cyclic_sums(algebra, triples, re_rows, im_rows):
        yield i, j, k, tuple(Scalar._make(x, y, e2) if x or y else ZERO
                             for x, y in zip(linalg._digits(re, n, w), linalg._digits(im, n, w)))


# Below this dimension :func:`_ad_generators` builds no closure.  On relabelled
# L(A5) and sums of Plesken algebras, the closure plus the Jacobi walk of the
# triples holding a generator took 0.8-1.1 times the full walk at dim 22-29,
# 0.8 at dim 33 and 0.3-0.55 at dim 44-47: below 30 the gain is a fraction of a
# millisecond and may be a loss, on the algebras of dim <= 24 that h2 and the
# extension verbs read most.
_CLOSURE_MIN_DIM = 30


def _ad_generators(algebra: LieAlgebra) -> frozenset[int] | None:
    """A greedy set S of basis indices whose ad_S-closure, the least subspace
    that holds every x_s and is mapped into itself by every ad x_s, is all
    of L; None below :data:`_CLOSURE_MIN_DIM`, or once 3 |S| reaches n, where
    the linked triples holding a generator, about |S| n^2 / 2, stop being
    fewer than the n^3 / 6 of the full walk.  An index outside the image of
    every bracket is in S, so those are counted before any bracket is taken.

    Like :func:`~plesken.groups._magma_generators`: walk the basis in index
    order; each x_g outside the closure so far joins S, first bracketed with
    the vectors already reached, and the closure grows breadth-first: each
    vector reached is bracketed with every x_s.  The closure is its RREF,
    grown by :func:`linalg._keep` (reduced, as the skip of x_g needs); a
    bracket it keeps is reached as itself, content divided out, never as
    the residue, whose coefficients grow with each reduction.  The walk ends
    as soon as the RREF has n rows."""
    n = algebra.dim
    if n < _CLOSURE_MIN_DIM:
        return None
    terms = algebra.integer_terms.terms
    image = {k for pair in algebra.brackets for k, _, _ in terms[pair]}
    if 3 * (n - len(image)) >= n:
        return None
    kept: dict[int, linalg.Row] = {}  # the closure so far, as its RREF
    holders: dict[int, set[int]] = {}
    reached: list[list[tuple[int, int, int]]] = []
    generators: list[int] = []

    def reach(re: dict[int, int], im: dict[int, int]) -> None:
        if linalg._keep(kept, holders, dict(re), dict(im)) is not None:
            re, im = linalg._primitive(re, im)
            reached.append([(k, re.get(k, 0), im.get(k, 0)) for k in linalg._columns(re, im)])

    def ad(s: int, w: list[tuple[int, int, int]]) -> None:
        sums = linalg._combine(_bracket_pairs(terms, ((s, 1, 0),), w))
        if sums:
            reach(*linalg._sums_row(sums))

    done = 0
    for g in range(n):
        if len(kept) == n:
            break
        if g in kept and len(linalg._columns(*kept[g])) == 1:
            continue  # the RREF row at g is x_g itself
        generators.append(g)
        if 3 * len(generators) >= n:
            return None
        for w in reached[:done]:
            ad(g, w)
        reach({g: 1}, {})
        while done < len(reached) and len(kept) < n:
            w = reached[done]
            done += 1
            for s in generators:
                ad(s, w)
    return frozenset(generators)


def verify_lie_axioms(algebra: LieAlgebra) -> list[tuple[int, int, int, tuple[Scalar, ...]]]:
    """All basis triples violating Jacobi, in lexicographic order, each with
    its residual [[x_i,x_j],x_k] + [[x_j,x_k],x_i] + [[x_k,x_i],x_j];
    empty means the data is a Lie algebra.

    An algebra certified Lie by :attr:`LieAlgebra.lie_generators` has none.
    Otherwise every linked triple is walked (:func:`_jacobiators`), which
    also gives the full list of an algebra that fails on a generator."""
    return list(_jacobi_failures(algebra))


def _jacobi_failures(algebra: LieAlgebra):
    """:func:`verify_lie_axioms` lazily: a residual is unpacked when taken."""
    if not algebra.integer_terms.terms or algebra.lie_generators is not None:
        return iter(())
    return _jacobiators(algebra, _linked_triples(algebra))


# -- group algebra ------------------------------------------------------------


def hat_element(group: FiniteGroup, g: int) -> GroupAlgebraElement:
    """g_hat = g - g^-1; the zero element when g is self-inverse."""
    gi = group.inverse[g]
    if gi == g:
        return GroupAlgebraElement({})
    return GroupAlgebraElement({g: ONE, gi: -ONE})


def group_algebra_commutator(group: FiniteGroup, u: GroupAlgebraElement,
                             v: GroupAlgebraElement) -> GroupAlgebraElement:
    """u v - v u by convolution over the Cayley table.

    This is the definition the Plesken construction is checked against.
    """
    table = group.table
    out: dict[int, Scalar] = {}
    for a, ca in u.coefficients.items():
        for b, cb in v.coefficients.items():
            coeff = ca * cb
            k = table[a][b]
            out[k] = out.get(k, ZERO) + coeff
            k = table[b][a]
            out[k] = out.get(k, ZERO) - coeff
    return GroupAlgebraElement({g: c for g, c in out.items() if c})


def plesken_pairs(group: FiniteGroup) -> tuple[tuple[int, int], ...]:
    pairs = []
    seen = set()
    for g in group.elements():
        gi = group.inverse[g]
        if gi == g or g in seen:
            continue
        seen.add(g)
        seen.add(gi)
        pairs.append((g, gi))
    return tuple(pairs)


def _hat_terms(element: GroupAlgebraElement, basis: PleskenBasis) -> Terms:
    """The nonzero hat coordinates (k, c) of ``element``, in increasing k,
    read from its nonzero coefficients only.  Raises ValueError when the
    element is outside the span: pair weights that are not opposite (the
    first such pair in basis order), else nonzero weight on a self-inverse
    element (the first in the element's order)."""
    coeffs, members = element.coefficients, basis.members
    loose = next((g for g in coeffs if g not in members), None)
    terms = []
    for k in sorted({members[g] for g in coeffs if g in members}):
        g, gi = basis.pairs[k]
        c = coeffs.get(g, ZERO)
        if coeffs.get(gi, ZERO) != -c:
            raise ValueError(
                f"element is not in the hat span: pair ({g},{gi}) weights differ")
        if c:
            terms.append((k, c))
    if loose is not None:
        raise ValueError(
            f"element is not in the hat span: weight on self-inverse element {loose}")
    return tuple(terms)


def plesken_algebra(group: FiniteGroup) -> tuple[LieAlgebra, PleskenBasis]:
    """Plesken Lie algebra of a finite group, with its hat basis.

    Structure constants come from evaluating the group-algebra commutator of
    hat elements and re-expressing it in the hat basis; every commutator of
    hat elements lies in their span, so the coordinates always exist.
    """
    pairs = plesken_pairs(group)
    basis = PleskenBasis(pairs)
    n = len(pairs)
    hats = [hat_element(group, g) for g, _ in pairs]
    brackets: dict[tuple[int, int], Terms] = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = group_algebra_commutator(group, hats[i], hats[j])
            if not w.is_zero():
                brackets[(i, j)] = _hat_terms(w, basis)
    labels = tuple(f"hat({group.label(g)})" for g, _ in pairs)
    algebra = LieAlgebra(dim=n, brackets=brackets, basis_labels=labels,
                         provenance=(group, basis))
    return algebra, basis


# -- structural probes ---------------------------------------------------------


def center(algebra: LieAlgebra) -> Subspace:
    """{v : [v, x_j] = 0 for all j}: the kernel of one Gaussian-integer row
    per (j, k), whose column i holds E c(i,j)_k."""
    n = algebra.dim
    rows: dict[tuple[int, int], linalg.Row] = {}
    for (i, j), ts in algebra.integer_terms.terms.items():
        for k, a, b in ts:
            re, im = rows.setdefault((j, k), ({}, {}))
            if a:
                re[i] = a
            if b:
                im[i] = b
    if not rows:
        return Subspace.full(n)
    return Subspace.from_reduced(n, linalg._kernel(list(rows.values()), n))


def _derived_rows(algebra: LieAlgebra,
                  basis: list[linalg.Row] | None = None) -> dict[int, linalg.Row]:
    """[V, V] as its RREF, the kept rows {pivot: row} of a leftmost-pivot
    elimination, V the span of ``basis`` (Gaussian-integer rows) or all of L
    when it is None.  The rows eliminated are the brackets [u, v] of the pairs
    of ``basis``, summed in Gaussian integers over
    :attr:`LieAlgebra.integer_terms`, or those terms themselves."""
    terms = algebra.integer_terms.terms
    if basis is None:
        rows = [({k: a for k, a, _ in ts if a}, {k: b for k, _, b in ts if b})
                for ts in map(terms.__getitem__, algebra.brackets) if ts]
    else:
        vectors = [[(i, re.get(i, 0), im.get(i, 0)) for i in linalg._columns(re, im)]
                   for re, im in basis]
        rows = []
        for s, u in enumerate(vectors):
            for v in vectors[s + 1:]:
                sums = linalg._combine(_bracket_pairs(terms, u, v))
                if sums:
                    rows.append(linalg._sums_row(sums))
    return linalg._eliminate(rows, algebra.dim)


def derived_subalgebra(algebra: LieAlgebra) -> Subspace:
    """Span of all basis brackets [x_i, x_j], i < j, eliminated from the rows
    of :attr:`LieAlgebra.integer_terms` with no dense vector."""
    return Subspace.from_reduced(algebra.dim, _derived_rows(algebra))


def ad_matrix(algebra: LieAlgebra, i: int) -> list[list[Scalar]]:
    """Matrix of ad x_i: column j is :meth:`LieAlgebra.structure` (i, j)."""
    columns = [algebra.structure(i, j) for j in range(algebra.dim)]
    return [list(row) for row in zip(*columns)]


def _killing_columns(algebra: LieAlgebra) -> dict[int, list[tuple[int, int, int]]]:
    """E^2 K as its nonzero columns {j: [(i, Re, Im)]}, K(i, j) = trace(ad x_i
    ad x_j): the sum of c d over the entries c = (ad x_i)_km and
    d = (ad x_j)_mk, summed in Gaussian integers over
    :attr:`LieAlgebra.integer_terms` by matching each position (k, m) of an
    ad entry with (m, k)."""
    real, terms = algebra.integer_terms.real, algebra.integer_terms.terms
    at: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for (i, m), ts in terms.items():
        for k, a, b in ts:
            at.setdefault((k, m), []).append((i, a, b))
    re: dict[tuple[int, int], int] = {}
    im: dict[tuple[int, int], int] = {}
    for (k, m), xs in at.items():
        ys = at.get((m, k))
        if ys:
            for i, a, b in xs:
                for j, c, d in ys:
                    re[i, j] = re.get((i, j), 0) + a * c
                    if not real:
                        re[i, j] -= b * d
                        im[i, j] = im.get((i, j), 0) + a * d + b * c
    columns: dict[int, list[tuple[int, int, int]]] = {}
    for (i, j), x in re.items():
        y = im.get((i, j), 0)
        if x or y:
            columns.setdefault(j, []).append((i, x, y))
    return columns


def killing_form(algebra: LieAlgebra) -> list[list[Scalar]]:
    """K(i,j) = trace(ad x_i composed with ad x_j); always symmetric.

    Summed in Gaussian integers by :func:`_killing_columns`; only the entries
    become scalars."""
    n = algebra.dim
    e2 = algebra.integer_terms.den ** 2
    out = linalg.zero_matrix(n, n)
    for j, column in _killing_columns(algebra).items():
        for i, x, y in column:
            out[i][j] = Scalar._make(x, y, e2)
    return out


def _killing_full_rank(columns: dict, basis: list[linalg.Row]) -> bool:
    """Cartan's test: whether the Killing form of L, given by its
    :func:`_killing_columns`, restricted to the span of ``basis``
    (independent Gaussian-integer rows) has full rank.  The restriction
    U K U^T is summed and its rank taken in Gaussian integers, with no
    ``Scalar``.  On an ideal P it is P's own Killing form, so full rank means
    P is semisimple."""
    at: dict[int, list[tuple[int, int, int]]] = {}
    for a, (re, im) in enumerate(basis):
        for i in linalg._columns(re, im):
            at.setdefault(i, []).append((a, re.get(i, 0), im.get(i, 0)))
    form = []
    for re, im in basis:
        ku = linalg._combine((re.get(j, 0), im.get(j, 0), columns[j])
                             for j in linalg._columns(re, im) if j in columns)
        row = linalg._sums_row(linalg._combine((x, y, at[i]) for i, (x, y) in ku.items()
                                           if i in at))
        if row[0] or row[1]:
            form.append(row)
    return len(linalg._eliminate(form, len(basis), free=True)) == len(basis)


def is_semisimple(algebra: LieAlgebra) -> bool:
    """Cartan's criterion: the Killing form is nondegenerate, i.e. of full rank."""
    return _killing_full_rank(_killing_columns(algebra),
                              [({i: 1}, {}) for i in range(algebra.dim)])


def _split_ideal(algebra: LieAlgebra) -> tuple[dict[int, linalg.Row], bool]:
    """(P, True) for the first term P of the derived series, from [L, L]
    down, on which the Killing form of L has full rank: P is then a
    semisimple ideal and L = P + C_L(P).  Otherwise (P, False) for the term
    where the series stops: P = 0, or a perfect P whose Killing form is
    degenerate.  P is given as its RREF kept rows (see :func:`_derived_rows`).

    A semisimple ideal is perfect, so for a reductive L (every L(G)) the
    series stops at [L, L] at once."""
    ideal = _derived_rows(algebra)
    columns = _killing_columns(algebra)
    while ideal:
        basis = list(ideal.values())
        if _killing_full_rank(columns, basis):
            return ideal, True
        deeper = _derived_rows(algebra, basis)
        if len(deeper) == len(ideal):
            break
        ideal = deeper
    return ideal, False


# -- serialization --------------------------------------------------------------


def algebra_to_json(algebra: LieAlgebra) -> dict:
    entries = []
    for (i, j), ts in sorted(algebra.brackets.items()):
        text = ["0"] * algebra.dim
        for k, c in ts:
            text[k] = str(c)
        entries.append({"i": i, "j": j, "c": text})
    return {"dim": algebra.dim, "labels": list(algebra.basis_labels),
            "brackets": entries}


def _json_scalars(value, name: str) -> list[Scalar]:
    """The scalars of a JSON array of scalar strings."""
    return [Scalar.parse(s) for s in _json_array(value, name)]


def _json_matrix(value, name: str) -> list[list[Scalar]]:
    """The rows of a JSON array of arrays of scalar strings."""
    return [_json_scalars(row, f"{name} row") for row in _json_array(value, name)]


def algebra_from_json(doc: dict) -> LieAlgebra:
    """Read an algebra document; a pair given twice is a
    :class:`~plesken.errors.BadParameter` naming it, never last-one-wins.

    Each bracket's texts are read once, straight into its stored terms: a
    text ``"0"`` is skipped unparsed, and a zero in any other spelling is
    parsed and dropped.  Every entry is parsed before any key or length is
    checked, as :func:`from_structure_constants` checks them."""
    dim = _json_int(doc, "dim")
    read: dict[tuple[int, int], tuple[int, Terms]] = {}
    for entry in doc.get("brackets", []):
        i, j = _json_int(entry, "i"), _json_int(entry, "j")
        if (i, j) in read:
            raise BadParameter(f"bracket ({i},{j}) is given twice", witness=[i, j])
        texts = _json_array(entry["c"], "c")
        # a non-string is not "0", so the parse refuses it
        parsed = [(k, Scalar.parse(text)) for k, text in enumerate(texts) if text != "0"]
        read[(i, j)] = len(texts), tuple([(k, c) for k, c in parsed if c])
    labels = doc.get("labels")
    if labels is not None:
        _json_strings(labels, "labels")
    _check_dim(dim)
    brackets = {}
    for (i, j), (length, terms) in read.items():
        _check_pair(dim, i, j, length)
        if terms:
            brackets[(i, j)] = terms
    return _checked(dim, brackets, labels)
