"""Seeded inputs and job lists for the three benchmark workloads.

Everything here is independent of the ``plesken`` package: groups are built as
Cayley tables from their defining actions, Plesken algebras from the
group-algebra commutator, and cocycles, representations and witnesses with
exact integer and Fraction arithmetic.  The program under test only ever sees
the files written by :func:`generate`, so a change to the library cannot
change its own inputs.

Every group is relabelled by a seeded permutation of its elements before
anything is derived from it.  That changes the basis order of L(G), and so
the elimination order, but no dimension, which is why the expected invariants
below do not depend on the seed.  The elimination order changes the work a
lot (one relabelling of L(C3 x| C16) takes twice as long as another), so a
run draws a fresh relabelling for every pass.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
from fractions import Fraction

WORKLOADS = ("h2_ladder", "construct", "verbs")


# -- exact scalars in the program's canonical text form ------------------------


def _frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def fmt(re, im=0) -> str:
    """A Gaussian rational as the CLI prints it, e.g. ``"3/2-1/2*I"``."""
    re, im = Fraction(re), Fraction(im)
    if im == 0:
        return _frac(re)
    if re == 0:
        return _frac(im) + "*I"
    return _frac(re) + ("+" if im > 0 else "-") + _frac(abs(im)) + "*I"


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


# -- groups ----------------------------------------------------------------------


def _table(elements: list, mul) -> list[list[int]]:
    index = {e: i for i, e in enumerate(elements)}
    return [[index[mul(x, y)] for y in elements] for x in elements]


def heis(p: int) -> list[list[int]]:
    """Upper unitriangular 3x3 matrices over Z/p, order p^3."""
    elements = list(itertools.product(range(p), repeat=3))
    return _table(elements, lambda x, y: ((x[0] + y[0]) % p,
                                          (x[1] + y[1] + x[0] * y[2]) % p,
                                          (x[2] + y[2]) % p))


def sl2_3() -> list[list[int]]:
    """SL(2,3), order 24."""
    elements = [m for m in itertools.product(range(3), repeat=4)
                if (m[0] * m[3] - m[1] * m[2]) % 3 == 1]
    return _table(elements, lambda x, y: ((x[0] * y[0] + x[1] * y[2]) % 3,
                                          (x[0] * y[1] + x[1] * y[3]) % 3,
                                          (x[2] * y[0] + x[3] * y[2]) % 3,
                                          (x[2] * y[1] + x[3] * y[3]) % 3))


def frobenius42() -> list[list[int]]:
    """C7 x| C6 as the affine maps t -> a t + b of Z/7."""
    elements = [(a, b) for a in range(1, 7) for b in range(7)]
    return _table(elements, lambda x, y: (x[0] * y[0] % 7, (x[0] * y[1] + x[1]) % 7))


def c3_by_c16() -> list[list[int]]:
    """C3 x| C16, the C16 generator inverting C3; order 48."""
    elements = [(x, y) for x in range(3) for y in range(16)]
    return _table(elements, lambda u, v: ((u[0] + (-1) ** u[1] * v[0]) % 3,
                                          (u[1] + v[1]) % 16))


def e49() -> list[list[int]]:
    """Elementary abelian group of order 49."""
    elements = list(itertools.product(range(7), repeat=2))
    return _table(elements, lambda x, y: ((x[0] + y[0]) % 7, (x[1] + y[1]) % 7))


def _sign(perm: tuple) -> int:
    inversions = sum(1 for i in range(len(perm)) for j in range(i)
                     if perm[j] > perm[i])
    return -1 if inversions % 2 else 1


def symmetric(m: int, even_only: bool = False) -> list[list[int]]:
    elements = [p for p in itertools.permutations(range(m))
                if not even_only or _sign(p) == 1]
    return _table(elements, lambda p, q: tuple(p[q[x]] for x in range(m)))


def relabel(table: list[list[int]], rng: random.Random) -> list[list[int]]:
    """The same group with element indices permuted by a seeded permutation."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def _identity(table: list[list[int]]) -> int:
    return next(e for e, row in enumerate(table) if row == list(range(len(table))))


def group_doc(table: list[list[int]]) -> dict:
    return {"order": len(table), "identity": _identity(table), "table": table}


# -- Plesken algebras --------------------------------------------------------------


class Algebra:
    """Integer-or-rational structure constants {(i, j): {k: c}}, i < j."""

    def __init__(self, dim: int, brackets: dict) -> None:
        self.dim = dim
        self.brackets = brackets

    def bracket(self, i: int, j: int) -> dict:
        if i < j:
            return self.brackets.get((i, j), {})
        if i > j:
            return {k: -c for k, c in self.brackets.get((j, i), {}).items()}
        return {}

    def doc(self) -> dict:
        return {"dim": self.dim, "brackets": [
            {"i": i, "j": j,
             "c": [fmt(self.brackets[(i, j)].get(k, 0)) for k in range(self.dim)]}
            for (i, j) in sorted(self.brackets)]}


def plesken(table: list[list[int]]) -> tuple[Algebra, list[tuple[int, int]]]:
    """L(G) in the basis g - g^-1, g the smaller index of each inverse pair."""
    n = len(table)
    e = _identity(table)
    inverse = [row.index(e) for row in table]
    pairs = [(g, inverse[g]) for g in range(n) if g < inverse[g]]
    position = {g: k for k, (g, _) in enumerate(pairs)}
    brackets = {}
    for i, (a, ai) in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            b, bi = pairs[j]
            out: dict[int, int] = {}
            for x, cx in ((a, 1), (ai, -1)):
                for y, cy in ((b, 1), (bi, -1)):
                    out[table[x][y]] = out.get(table[x][y], 0) + cx * cy
                    out[table[y][x]] = out.get(table[y][x], 0) - cx * cy
            vec = {position[g]: c for g, c in out.items() if c and g in position}
            if vec:
                brackets[(i, j)] = vec
    return Algebra(len(pairs), brackets), pairs


def class_functionals(table: list[list[int]], pairs: list[tuple[int, int]]) -> list[list[int]]:
    """phi_C(g_hat) = [g in C] - [g^-1 in C], one per non-real class pair {C, C^-1}.

    A class function kills every group-algebra commutator, so these vanish on
    [L, L]; for the reductive algebras used here they span (L/[L, L])*.
    """
    n = len(table)
    e = _identity(table)
    inverse = [row.index(e) for row in table]
    seen, out = set(), []
    for g in range(n):
        if g in seen:
            continue
        cls = {table[table[h][g]][inverse[h]] for h in range(n)}
        seen |= cls
        inv_cls = {inverse[x] for x in cls}
        if inv_cls == cls:
            continue
        seen |= inv_cls
        out.append([(1 if a in cls else 0) - (1 if ai in cls else 0) for a, ai in pairs])
    return out


# -- forms, functionals, extensions, representations --------------------------------


def _combo(rng: random.Random, basis: list[list[int]]) -> list[Fraction]:
    coeffs = [_rational(rng) or Fraction(1) for _ in basis]
    return [sum((c * v[k] for c, v in zip(coeffs, basis)), Fraction(0))
            for k in range(len(basis[0]))]


def wedge(phi: list, psi: list) -> dict:
    n = len(phi)
    return {(i, j): phi[i] * psi[j] - phi[j] * psi[i]
            for i in range(n) for j in range(i + 1, n)}


def coboundary(algebra: Algebra, sigma: list) -> dict:
    """(x, y) -> -sigma([x, y]), the program's sign convention."""
    return {(i, j): -sum((sigma[k] * c for k, c in vec.items()), Fraction(0))
            for (i, j), vec in algebra.brackets.items()}


def form_add(*forms: dict) -> dict:
    out: dict = {}
    for form in forms:
        for key, v in form.items():
            out[key] = out.get(key, 0) + v
    return out


def form_doc(n: int, form: dict) -> dict:
    return {"dim": n, "upper": [[fmt(form.get((i, j), 0)) for j in range(i + 1, n)]
                                for i in range(n - 1)]}


def is_cocycle(algebra: Algebra, form: dict) -> bool:
    def entry(i, j):
        return form.get((i, j), 0) if i < j else -form.get((j, i), 0) if i > j else 0
    n = algebra.dim
    for i, j, k in itertools.combinations(range(n), 3):
        total = 0
        for a, b, t in ((i, j, k), (j, k, i), (k, i, j)):
            total += sum(c * entry(m, t) for m, c in algebra.bracket(a, b).items())
        if total:
            return False
    return True


def extension_total(algebra: Algebra, form: dict) -> Algebra:
    """Base + central line z (last index), [x, y] = ([x, y]_base, form(x, y))."""
    n = algebra.dim
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            vec = dict(algebra.brackets.get((i, j), {}))
            if form.get((i, j), 0):
                vec[n] = form[(i, j)]
            if vec:
                brackets[(i, j)] = vec
    return Algebra(n + 1, brackets)


def extension_doc(algebra: Algebra, form: dict) -> dict:
    n = algebra.dim
    return {
        "base": algebra.doc(),
        "total": extension_total(algebra, form).doc(),
        "f": ["0"] * n + ["1"],
        "g": [["1" if r == c else "0" for c in range(n + 1)] for r in range(n)],
        "s": [["1" if r == c else "0" for c in range(n)] for r in range(n + 1)],
    }


def _gmul(x: tuple, y: tuple) -> tuple:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gmatmul(a: list, b: list) -> list:
    n = len(a)
    out = []
    for r in range(n):
        row = []
        for c in range(n):
            re = im = 0
            for t in range(n):
                if a[r][t] != (0, 0) and b[t][c] != (0, 0):
                    p = _gmul(a[r][t], b[t][c])
                    re += p[0]
                    im += p[1]
            row.append((re, im))
        out.append(row)
    return out


def invertible_pair(rng: random.Random, n: int) -> tuple[list, list]:
    """(F, F^-1) over Z[i]: a seeded product of elementary row operations."""
    f = [[(1, 0) if r == c else (0, 0) for c in range(n)] for r in range(n)]
    finv = [row[:] for row in f]
    coeffs = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(coeffs)
        # F <- (I + c e_ij) F ; F^-1 <- F^-1 (I - c e_ij)
        f[i] = [(x[0] + y[0], x[1] + y[1]) for x, y in
                zip(f[i], (_gmul(c, v) for v in f[j]))]
        for r in range(n):
            p = _gmul(c, finv[r][i])
            finv[r][j] = (finv[r][j][0] - p[0], finv[r][j][1] - p[1])
    return f, finv


def ad_matrices(algebra: Algebra) -> list[list[list[tuple]]]:
    """ad x_i with column j the coordinates of [x_i, x_j], as Gaussian pairs."""
    n = algebra.dim
    mats = []
    for i in range(n):
        m = [[(0, 0)] * n for _ in range(n)]
        for j in range(n):
            for k, c in algebra.bracket(i, j).items():
                m[k][j] = (c, 0)
        mats.append(m)
    return mats


def shift_diagonal(mats: list, shifts: list) -> list:
    """Phi_i + shifts[i] I, entries as (Fraction re, Fraction im)."""
    out = []
    for m, s in zip(mats, shifts):
        out.append([[(Fraction(x[0]) + (s if r == c else 0), Fraction(x[1]))
                     for c, x in enumerate(row)] for r, row in enumerate(m)])
    return out


def matrices_doc(mats: list) -> list:
    return [[[fmt(*x) for x in row] for row in m] for m in mats]


def sigma_bracket(algebra: Algebra, sigma: list) -> dict:
    """(x, y) -> sigma([x, y]), the defect of Phi - sigma I for a linear Phi."""
    return {key: -v for key, v in coboundary(algebra, sigma).items()}


# -- workloads ------------------------------------------------------------------------


def _write(workdir: str, name: str, doc) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, separators=(",", ":"))
    return path


def _job(jid: str, argv: list, exit_code: int = 0, **checks) -> dict:
    return {"id": jid, "argv": argv, "exit": exit_code, "checks": checks}


# Invariants (dim; Z2/B2/H2) of every h2 job.  L(G) is reductive here,
# L = S + Z with c = dim Z.  The extension totals are L + (central line along
# phi ^ psi), phi and psi independent functionals on L/[L, L] = Z, so the
# total is S + heis3 + C^(c-2) whichever pair the seed picks: by Kunneth
# H2 = 2 + 2(c-2) + C(c-2, 2), and B2 = dim [T, T] = dim S + 1.
H2_LADDER = (
    # name, group, (dim, z2, b2, h2), extend
    ("heis27", lambda: heis(3), (13, 18, 8, 10), False),
    ("sl2_3", sl2_3, (11, 10, 9, 1), False),
    ("frobenius42", frobenius42, (17, 16, 15, 1), False),
    ("c3_c16", c3_by_c16, (23, 67, 12, 55), False),
    ("e49", e49, (24, 276, 0, 276), False),
    ("heis27_ext", lambda: heis(3), (14, 20, 9, 11), True),
    ("sl2_3_ext", sl2_3, (12, 12, 10, 2), True),
)

CONSTRUCT_GROUPS = (
    # name, group, (dim, center, derived, semisimple)
    ("s5", lambda: symmetric(5), (47, 0, 47, True)),
    ("a5", lambda: symmetric(5, even_only=True), (22, 0, 22, True)),
)


def _h2_ladder(workdir: str, seed: int, key: str) -> list[dict]:
    jobs = []
    for name, build, (dim, z2, b2, h2), extend in H2_LADDER:
        rng = random.Random(f"{key}:h2_ladder:{name}")
        table = relabel(build(), rng)
        algebra, pairs = plesken(table)
        if extend:
            funcs = class_functionals(table, pairs)
            phi, psi = _independent_pair(rng, funcs)
            algebra = extension_total(algebra, wedge(phi, psi))
        assert algebra.dim == dim, (name, algebra.dim)
        path = _write(workdir, f"L_{name}.json", algebra.doc())
        jobs.append(_job(f"h2:{name}", ["cohomology", "h2", "--json", "-L", path],
                         equal={"z2": z2, "b2": b2, "h2": h2},
                         count={"representatives": h2}))
    return jobs


def _independent_pair(rng: random.Random, funcs: list) -> tuple[list, list]:
    while True:
        phi, psi = _combo(rng, funcs), _combo(rng, funcs)
        if any(phi[i] * psi[j] != phi[j] * psi[i]
               for i in range(len(phi)) for j in range(i + 1, len(phi))):
            return phi, psi


def _construct(workdir: str, seed: int, key: str) -> list[dict]:
    jobs = [_job("group:heis343", ["group", "make", "--preset", "heisenberg_p", "--n", "7"],
                 lines=["order        343", "identity     0", "self-inverse 1",
                        "abelian      false"])]
    for name, build, (dim, center, derived, semisimple) in CONSTRUCT_GROUPS:
        rng = random.Random(f"{key}:construct:{name}")
        table = relabel(build(), rng)
        path = _write(workdir, f"G_{name}.json", group_doc(table))
        jobs.append(_job(f"algebra:{name}", ["algebra", "plesken", "--json", "-g", path],
                         equal={"dim": dim, "center_dim": center,
                                "derived_dim": derived, "semisimple": semisimple}))
    for name, build, _ in CONSTRUCT_GROUPS:
        rng = random.Random(f"{key}:construct:{name}:alpha")
        algebra, _ = plesken(relabel(build(), rng))
        sigma = [_rational(rng) for _ in range(algebra.dim)]
        alpha = coboundary(algebra, sigma)
        lpath = _write(workdir, f"L_{name}.json", algebra.doc())
        apath = _write(workdir, f"alpha_{name}.json", form_doc(algebra.dim, alpha))
        jobs.append(_job(f"extension-build:{name}",
                         ["extension", "build", "--json", "-L", lpath, "--alpha", apath],
                         extension=_total_check(algebra, alpha)))
    return jobs


def _total_check(algebra: Algebra, form: dict) -> dict:
    return {"dim": algebra.dim + 1,
            "brackets": extension_total(algebra, form).doc()["brackets"]}


def _verbs(workdir: str, seed: int, key: str) -> list[dict]:
    rng = random.Random(f"{key}:verbs")
    table = relabel(heis(3), rng)
    algebra, pairs = plesken(table)
    n = algebra.dim
    funcs = class_functionals(table, pairs)

    def rand_functional():
        return [_rational(rng) for _ in range(n)]

    alpha = form_add(wedge(*_independent_pair(rng, funcs)),
                     coboundary(algebra, rand_functional()))
    beta = form_add(alpha, coboundary(algebra, rand_functional()))
    gamma = form_add(alpha, wedge(*_independent_pair(rng, funcs)))
    trivial = coboundary(algebra, rand_functional())
    while True:
        broken = {(i, j): Fraction(rng.randint(-3, 3))
                  for i in range(n) for j in range(i + 1, n)}
        if not is_cocycle(algebra, broken):
            break

    w = functools.partial(_write, workdir)
    lpath = w("L.json", algebra.doc())
    jobs = []
    ext_paths = {}
    for name, form in (("alpha", alpha), ("beta", beta), ("gamma", gamma),
                       ("coboundary", trivial)):
        apath = w(f"{name}.json", form_doc(n, form))
        ext_paths[name] = w(f"ext_{name}.json", extension_doc(algebra, form))
        jobs.append(_job(f"extension-build:{name}",
                         ["extension", "build", "--json", "-L", lpath, "--alpha", apath],
                         extension=_total_check(algebra, form)))
    bpath = w("broken.json", form_doc(n, broken))
    jobs.append(_job("extension-build:not-a-cocycle",
                     ["extension", "build", "--json", "-L", lpath, "--alpha", bpath],
                     exit_code=1, equal={"error": "NotACocycle"}))
    jobs.append(_job("extension-cocycle:alpha",
                     ["extension", "cocycle", "--json", "-e", ext_paths["alpha"]],
                     equal={"alpha": form_doc(n, alpha)}))
    jobs.append(_job("extension-equiv:alpha-beta",
                     ["extension", "equiv", "--json", "-e1", ext_paths["alpha"],
                      "-e2", ext_paths["beta"]],
                     equal={"equivalent": True, "verified": True}))
    jobs.append(_job("extension-equiv:alpha-gamma",
                     ["extension", "equiv", "--json", "-e1", ext_paths["alpha"],
                      "-e2", ext_paths["gamma"]],
                     equal={"equivalent": False}))
    jobs.append(_job("extension-split:alpha",
                     ["extension", "split", "--json", "-e", ext_paths["alpha"]],
                     equal={"split": False}))
    jobs.append(_job("extension-split:coboundary",
                     ["extension", "split", "--json", "-e", ext_paths["coboundary"]],
                     equal={"split": True}))

    # sigma-twisted adjoint representation and its conjugate by F, shifted by delta
    sigma, delta, tau = rand_functional(), rand_functional(), rand_functional()
    ad = ad_matrices(algebra)
    f, finv = invertible_pair(rng, n)
    conj = [_gmatmul(_gmatmul(f, m), finv) for m in ad]
    reps = {
        "adjoint": (shift_diagonal(ad, [-s for s in sigma]), sigma_bracket(algebra, sigma)),
        "conjugate": (shift_diagonal(conj, [d - s for s, d in zip(sigma, delta)]),
                      sigma_bracket(algebra, [s - d for s, d in zip(sigma, delta)])),
    }
    rep_paths = {}
    tpath = w("tau.json", {"v": [fmt(x) for x in tau]})
    for name, (mats, cocycle) in reps.items():
        rep_paths[name] = w(f"rep_{name}.json", {
            "dim": n, "degree": n, "matrices": matrices_doc(mats),
            "alpha": form_doc(n, cocycle)})
        jobs.append(_job(f"rep-cocycle:{name}",
                         ["rep", "cocycle", "--json", "-L", lpath, "-r", rep_paths[name]],
                         equal={"alpha": form_doc(n, cocycle)}))
        twisted = shift_diagonal(mats, [-t for t in tau])
        jobs.append(_job(f"rep-twist:{name}",
                         ["rep", "twist", "--json", "-L", lpath, "-r", rep_paths[name],
                          "--sigma", tpath],
                         equal={"rep": {
                             "dim": n, "degree": n, "matrices": matrices_doc(twisted),
                             "alpha": form_doc(n, form_add(
                                 cocycle, sigma_bracket(algebra, tau)))}}))
    # both directions: Phi_2 = F Phi_1 F^-1 + delta I, Phi_1 = F^-1 Phi_2 F - delta I
    for (r1, r2), mat, shift in ((("adjoint", "conjugate"), f, delta),
                                 (("conjugate", "adjoint"), finv, [-d for d in delta])):
        fpath = w(f"f_{r1}.json", {"matrix": [[fmt(*x) for x in row] for row in mat]})
        dpath = w(f"delta_{r1}.json", {"v": [fmt(x) for x in shift]})
        jobs.append(_job(f"rep-verify-equiv:{r1}-{r2}",
                         ["rep", "verify-equiv", "--json", "-L", lpath,
                          "-r1", rep_paths[r1], "-r2", rep_paths[r2],
                          "--f", fpath, "--delta", dpath],
                         equal={"ok": True, "linearly_equivalent": not any(delta),
                                "failures": []}))
    jobs.append(_job("verify-all",
                     ["verify", "all", "--json", "--max-group-order", "24",
                      "--seed", str(seed)],
                     equal={"all_passed": True}))
    return jobs


_WORKLOAD_JOBS = {"h2_ladder": _h2_ladder, "construct": _construct, "verbs": _verbs}


def generate(workload: str, seed: int, variant: int, workdir: str) -> list[dict]:
    """Write one set of the workload's input files into ``workdir``; return its jobs.

    ``variant`` picks one of the seed's input sets: each pass of a run gets
    its own relabelling and coefficients, so that a run averages over several
    elimination orders.  The same seed and variant always give the same
    files.  A job is ``{"id", "argv", "exit", "checks"}``; see
    :func:`check_job` for the check kinds.
    """
    os.makedirs(workdir, exist_ok=True)
    return _WORKLOAD_JOBS[workload](workdir, seed, f"{seed}:{variant}")


# -- output checks ----------------------------------------------------------------------


def check_job(job: dict, exit_code, stdout: str) -> list[str]:
    """Reasons the job's result is wrong; empty when it is right."""
    if exit_code != job["exit"]:
        return [f"exit code {exit_code!r}, expected {job['exit']}"]
    checks = job["checks"]
    if "lines" in checks:
        return [] if stdout.splitlines() == checks["lines"] else ["text output differs"]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON document"]
    problems = []
    for key, want in checks.get("equal", {}).items():
        if doc.get(key) != want:
            problems.append(f"{key} = {str(doc.get(key))[:80]}, expected {str(want)[:80]}")
    for key, want in checks.get("count", {}).items():
        if len(doc.get(key, ())) != want:
            problems.append(f"{len(doc.get(key, ()))} {key}, expected {want}")
    if "extension" in checks:
        total = doc.get("extension", {}).get("total", {})
        if total.get("dim") != checks["extension"]["dim"]:
            problems.append(f"total dim {total.get('dim')}")
        elif total.get("brackets") != checks["extension"]["brackets"]:
            problems.append("total brackets differ from base + cocycle")
    return problems
