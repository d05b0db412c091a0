"""The Z[sqrt d] kernel of linalg.int_nullspace, and the stabilizer paths on it.

A system over Z[sqrt d] is solved realified: A + B sqrt(d) becomes the int
block [[A, d B], [B, A]] of multiplication by it in the basis (1, sqrt d).
Its kernel vectors are checked against the dense oracle ``dense_nullspace``
of test_elimination_oracles on the same matrix by value.  ``old_stab`` and
``old_fixed_space`` are copies of the Q(sqrt d) branches that
``stab_lie_algebra`` and ``fixed_space`` had before (dense rows, a dense
nullspace and RREF, here the oracle's); the JSON of both commands must match
them byte for byte, types included.
"""

import random
from fractions import Fraction

import pytest

from altforms import linalg, stabilizers
from altforms.multilinear import AlternatingForm, all_keys, gl_action
from altforms.representatives import g_alpha, make_rep
from altforms.scalars import QuadExt, scalar_to_json
from altforms.serialize import form_to_dict
from altforms.stabilizers import LieSubalgebra, fixed_space, stab_lie_algebra
from test_elimination_oracles import dense_nullspace, dense_rref

DS = (2, -3, 5, -1, 3, -7, 13)


# ------------------------------------------------------ the kernel ----

def zd(rng, d, span=4):
    """0, an int, a QuadExt with B = 0, or A + B sqrt(d), all over Z[sqrt d]."""
    kind = rng.choice(("zero", "int", "b0", "quad", "quad"))
    if kind == "zero":
        return 0
    A, B = rng.randint(-span, span), rng.randint(-span, span) or 1
    return {"int": A, "b0": QuadExt(A, 0, d), "quad": QuadExt(A, B, d)}[kind]


def zd_matrices(rng, d):
    """Full-rank, rank-deficient (a Z[sqrt d] combination of two rows), zero-row and
    zero-column (a unit vector in the kernel) matrices."""
    for trial in range(24):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        A = [[zd(rng, d) for _ in range(n)] for _ in range(m)]
        if trial % 4 == 1 and m >= 3:
            a, b = QuadExt(rng.randint(-2, 2), rng.randint(-2, 2), d), rng.randint(-2, 2)
            A[0] = [a * u + b * v for u, v in zip(A[1], A[2])]
        if trial % 4 == 2:
            A.insert(rng.randrange(m + 1), [0] * n)
        if trial % 4 == 3:
            c = rng.randrange(n)
            for row in A:
                row[c] = 0
        yield A
    yield [[QuadExt(1, 1, d), QuadExt(1, -1, d)], [QuadExt(1 - d, 0, d), 0]]  # rank 1
    yield [[0, 0, 0]]


def as_fractions(A):
    """A with its int entries as Fractions: the dense oracle divides them."""
    return [[Fraction(v) if type(v) is int else v for v in row] for row in A]


def as_rows(A):
    """Sparse rows {column: value} with QuadExts of D = 1 as they are."""
    return [{j: v for j, v in enumerate(row) if v} for row in A]


@pytest.mark.parametrize("d", DS)
def test_realified_kernel_matches_nullspace(d):
    rng = random.Random(f"zd:{d}")
    units = 0
    for A in zd_matrices(rng, d):
        n = len(A[0])
        want = dense_nullspace(as_fractions(A), n)
        got = linalg.int_nullspace(as_rows(A), n)
        assert [fc for fc, _ in got] == sorted(set(range(n)) - set(dense_rref(as_fractions(A))[1]))
        assert len(got) == len(want)
        for (fc, v), w in zip(got, want):
            assert type(v[fc]) is int and v[fc] > 0
            assert all(type(c) is QuadExt and c._D == 1 for b, c in v.items() if b != fc)
            assert [linalg._over(v.get(b, 0), v[fc]) for b in range(n)] == w
            units += len(v) == 1
    assert units  # kernels holding unit vectors were covered


@pytest.mark.parametrize("d", (2, -3))
def test_int_rows_with_a_quadext_row_realify_too(d):
    # one QuadExt anywhere makes the system Z[sqrt d]: its int rows are blocks [[A, 0], [0, A]]
    A = [[2, 1, 0], [QuadExt(0, 1, d), 1, 3]]
    got = linalg.int_nullspace(as_rows(A), 3)
    want = dense_nullspace(as_fractions(A), 3)
    assert [[linalg._over(v.get(b, 0), v[fc]) for b in range(3)] for fc, v in got] == want
    with pytest.raises(ValueError, match="mixing"):
        linalg.int_nullspace([{0: QuadExt(0, 1, d), 1: QuadExt(0, 1, 7)}], 2)


# ----------------------------------------- stab and fixed, old branch ----

def old_sl_entries(coeffs, n):
    """The entries of sum c_b * sl_basis(n)[b] over the (b, c_b) pairs in basis
    order: an off-diagonal c_b is its unit's entry; E_11 - E_ii adds c_b at (0,
    0) and puts -c_b at (i, i).  Entries take the type of zero = 0 + 0 * c, c
    the first nonzero one not a Fraction (if any); another c is added to zero.
    (the helper stabilizers had before _entries_from, on divided coefficients.)"""
    coeffs = [(b, c) for b, c in coeffs if c != 0]
    zero = Fraction(0) + 0 * next((c for _, c in coeffs if type(c) is not Fraction), 0)
    kind, off, corner, out = type(zero), n * (n - 1), zero, {}
    for b, c in coeffs:
        c = c if type(c) is kind else zero + c
        if b < off:
            i, j = divmod(b, n - 1)
            out[i * n + j + (j >= i)] = c
        else:
            corner = corner + c
            out[(b - off + 1) * (n + 1)] = -c
    out[0] = corner
    return {e: v for e, v in sorted(out.items()) if v}


def old_stab(x):
    """stab_lie_algebra's Q(sqrt d) branch as it was: dense rows, a dense nullspace."""
    n, m = x.dim, x.dim * x.dim - 1
    dense = [[row.get(b, Fraction(0)) for b in range(m)] for row in stabilizers.stab_system(x)]
    null = [enumerate(c) for c in dense_nullspace(dense, m)]
    return LieSubalgebra(n, [old_sl_entries(c, n) for c in null])


def typed(entries):
    """Entries with each value's type, so that equal values of two types differ."""
    return [(e, type(v), v) for e, v in entries.items()]


def old_entries_from(v, n, m=1):
    """stabilizers._entries_from as it was, dividing each entry by m once: the
    matrix a kernel vector v with free entry m made before the algebra kept
    the pair (m, integral entries)."""
    off, out, corner = n * (n - 1), {}, 0
    for b, c in v.items():
        if b < off:
            i, j = divmod(b, n - 1)
            out[i * n + j + (j >= i)] = c
        else:
            corner += c
            out[(b - off + 1) * (n + 1)] = -c
    out[0] = corner
    d = next((c.d for c in v.values() if type(c) is QuadExt), None)
    if d is not None:
        return {e: QuadExt(c, 0, d) / m if type(c) is int else c / m
                for e, c in sorted(out.items()) if c}
    return {e: c if type(c) is float else Fraction(c, m) for e, c in sorted(out.items()) if c}


def held(v, n, m=1):
    """The entries of the basis matrix held as (m, _entries_from(v, n))."""
    return LieSubalgebra.integral(n, [(m, stabilizers._entries_from(v, n))]).entries[0]


@pytest.mark.parametrize("d", [None, *DS])
def test_sl_entries_divide_the_kernel_vector_as_the_old_per_coefficient_path(d):
    rng = random.Random(f"sl:{d}")
    for _ in range(60):
        n = rng.randint(2, 7)
        m, size = rng.choice((1, 2, 6, 35, 240)), n * n - 1
        v = {}
        for b in sorted(rng.sample(range(size), rng.randint(1, size))):
            a, c = rng.randint(-40, 40) or 1, rng.choice((0, rng.randint(-40, 40)))
            v[b] = a if d is None or rng.random() < 0.2 else QuadExt(a, c, d)  # B = 0 too
        over = [(b, linalg._over(c, m)) for b, c in v.items()]
        want = typed(old_sl_entries(over, n))
        assert typed(old_entries_from(v, n, m)) == want
        assert typed(held(v, n, m)) == want
        # nothing is divided: the integral entries are v's, re-indexed
        integral = stabilizers._entries_from(v, n)
        assert all(type(c) in (int, QuadExt) and getattr(c, "_D", 1) == 1
                   for c in integral.values())
        assert integral == old_entries_from(v, n)


def test_sl_entries_of_floats_and_of_the_units_match_the_old_path():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 7)
        v = dict(enumerate(rng.choice((0.0, -0.0, 1e-300, rng.uniform(-3, 3)))
                           for _ in range(n * n - 1)))
        assert typed(stabilizers._entries_from(v, n)) == typed(old_sl_entries(v.items(), n))
        assert typed(held(v, n)) == typed(old_entries_from(v, n))
    for n in (2, 3, 6):
        assert [typed(held({b: 1}, n)) for b in range(n * n - 1)] \
            == [typed(old_sl_entries([(b, Fraction(1))], n)) for b in range(n * n - 1)]


def form_sum(terms):
    """The sum of c * f over the (c, f) pairs, forms as {key: value}, without zeros."""
    out = {}
    for c, f in terms:
        if c != 0:
            for k, v in f.items():
                out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v != 0}


def old_fixed_space(L, shape):
    """fixed_space's Q(sqrt d) branch as it was: each kernel cut by a dense
    nullspace of the dense images, the entries as they are, then the canonical
    RREF."""
    dim, degree = shape
    keys = all_keys(dim, degree)
    kernel = [{k: 1} for k in keys]
    for nz in L.entries:
        images = stabilizers._images(nz, kernel, dim, degree)
        hit = sorted({k for img in images for k in img})
        if not hit:
            continue
        rows = [[img.get(k, Fraction(0)) for img in images] for k in hit]
        kernel = [form_sum(zip(c, kernel)) for c in dense_nullspace(rows, len(kernel))]
        if not kernel:
            return []
    flipped = as_fractions([[f.get(k, Fraction(0)) for k in reversed(keys)] for f in kernel])
    rows, _ = dense_rref(flipped)
    return [AlternatingForm(dim, degree, dict(zip(reversed(keys), r))) for r in reversed(rows)]


def quad_forms():
    rng = random.Random(15)

    def q(d, a=True, b=True):
        A = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) if a else 0
        B = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5))) if b else 0
        return QuadExt(A, B, d)

    for i, (dim, degree) in enumerate(((4, 2), (6, 3), (6, 3), (8, 2), (4, 2), (6, 3))):
        d = DS[i % len(DS)]
        keys = all_keys(dim, degree)
        yield f"dense {dim}", AlternatingForm(dim, degree, {k: q(d) for k in keys})
        yield f"sparse {dim}", AlternatingForm(dim, degree, {k: q(d) for k in keys
                                                              if rng.random() < 0.3})
        yield f"b = 0 {dim}", AlternatingForm(dim, degree, {k: q(d, b=False) for k in keys})
        yield f"a = 0 {dim}", AlternatingForm(dim, degree, {k: q(d, a=False) for k in keys
                                                             if rng.random() < 0.6})
    for d in (2, -3, 5):
        x = AlternatingForm(6, 3, {k: Fraction(rng.randint(-5, 5)) for k in all_keys(6, 3)})
        yield f"g_alpha({d}) pushed", gl_action(g_alpha(d), x)
    yield "case1_walpha(5)", make_rep("case1_walpha", d=5)


QUAD_FORMS = list(quad_forms())


def test_stab_and_fixed_json_match_the_old_quadext_branch():
    mixed = 0
    for name, x in QUAD_FORMS:
        shape = (x.dim, x.degree)
        L, L0 = stab_lie_algebra(x), old_stab(x)
        assert scalar_to_json(L.basis) == scalar_to_json(L0.basis), name
        kinds = {type(v) for nz in L.entries for v in nz.values()}
        mixed += kinds == {Fraction, QuadExt}
        got = [form_to_dict(f) for f in fixed_space(L, shape)]
        assert got == [form_to_dict(f) for f in old_fixed_space(L0, shape)], name
    # a unit kernel vector stays a Fraction matrix beside QuadExt ones
    assert mixed


def test_stab_of_a_quadext_form_reduces_only_ints(monkeypatch):
    sparse_rref, seen = linalg.sparse_rref, []

    def checked(rows, ncols):
        seen.append(all(type(v) is int for row in rows for v in row.values()))
        return sparse_rref(rows, ncols)

    monkeypatch.setattr(linalg, "sparse_rref", checked)
    for name, x in QUAD_FORMS[:8]:
        stab_lie_algebra(x)
    assert len(seen) == 8 and all(seen)
