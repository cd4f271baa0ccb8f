import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import stringbricks
import stringbricks.endo as endo
from stringbricks.endo import (DEFAULT_PRIME, SECOND_PRIME, band_module,
                               end_dim, end_dim_band, end_dim_string,
                               string_module)
from stringbricks.presets import lambda_n_text
from stringbricks.strings import CapExceeded
from stringbricks.sturmian import DirectiveSequence, characteristic_prefix


def _rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Dense row echelon form over F_p, eliminating below each pivot."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        below = r + 1 + np.flatnonzero(a[r + 1:, c])
        a[below] = (a[below] - np.outer(a[below, c], a[r])) % p
        r += 1
        if r == rows:
            break
    return r


def dense_end_dim(ctx, rep) -> int:
    """Reference dim End(M): every equation of phi_t M_a = M_a phi_s as a
    dense row over all unknowns, ranked by dense elimination."""
    p = rep.prime
    verts = [v for v in ctx.presentation.vertices if rep.dims[v] > 0]
    offs = {}
    n_unknowns = 0
    for v in verts:
        offs[v] = n_unknowns
        n_unknowns += rep.dims[v] * rep.dims[v]
    if n_unknowns == 0:
        return 0
    rows = []
    for a, s, t in ctx.presentation.arrows:
        M = rep.mats[a] % p
        if not np.any(M):
            continue
        dt, ds = rep.dims[t], rep.dims[s]
        # equation (i,j): sum_k phi_t[i,k] M[k,j] - sum_k M[i,k] phi_s[k,j] = 0
        for i in range(dt):
            for j in range(ds):
                row = np.zeros(n_unknowns, dtype=np.int64)
                row[offs[t] + i * dt: offs[t] + i * dt + dt] += M[:, j]
                for k in range(ds):
                    row[offs[s] + k * ds + j] -= M[i, k]
                rows.append(row % p)
    if not rows:
        return n_unknowns
    return n_unknowns - _rank_mod_p(np.array(rows, dtype=np.int64), p)


def fibonacci_string(l3, n_letters):
    """The Lambda_3 string of the first n_letters of the Fibonacci word under
    a -> b1 a1', b -> a2' b2 (two syllables per letter)."""
    w = characteristic_prefix(DirectiveSequence.parse("1,(1)"), n_letters)
    blocks = {"a": "b1 a1'", "b": "a2' b2"}
    return l3.parse_literal(" ".join(blocks[l.sym] for l in w.letters))


def test_simple_module(l3):
    for v in ("v1", "v2", "v3"):
        for i in (1, -1):
            rep = string_module(l3, l3.zero(v, i))
            assert rep.total_dim() == 1
            assert end_dim(l3, rep) == 1


def test_string_module_a(l3):
    a = l3.parse_literal("b1 a1'")
    rep = string_module(l3, a)
    assert rep.dims == {"v1": 1, "v2": 2, "v3": 0}
    # both b1 and a1 hit the single v1 basis vector
    assert rep.mats["b1"].shape == (1, 2)
    assert rep.mats["b1"].sum() == 1 and rep.mats["a1"].sum() == 1
    assert end_dim(l3, rep) == 1


def test_end_dims_hand_checked(l3):
    assert end_dim_string(l3, l3.parse_literal("b1 a1'")) == 1
    assert end_dim_string(l3, l3.parse_literal("b1 a1' a2' b2")) == 2


def relation_defects(ctx, rep) -> list[str]:
    """Relations whose composed matrix is nonzero (must be empty)."""
    bad = []
    for r in ctx.presentation.relations:
        m = rep.mats[r[0]] % rep.prime
        for a in r[1:]:
            m = (rep.mats[a] @ m) % rep.prime
        if np.any(m):
            bad.append(" ".join(r))
    return bad


def test_relation_matrices_vanish(gam, l3, corpus):
    for ctx in (gam, l3, *corpus[:5]):
        for x in ctx.enumerate_strings(5):
            assert relation_defects(ctx, string_module(ctx, x)) == []
        for b in ctx.enumerate_bands(6):
            for l in (1, 2):
                assert relation_defects(ctx, band_module(ctx, b, l, 2)) == []


def test_band_module_dims(l3):
    b, _ = l3.is_band(l3.parse_literal("a2' b2"))
    rep = band_module(l3, b, 1, 5)
    assert rep.dims == {"v1": 0, "v2": 1, "v3": 1}
    assert rep.mats["a2"][0, 0] == 1
    assert rep.mats["b2"][0, 0] == 5
    rep2 = band_module(l3, b, 2, 5)
    assert rep2.dims == {"v1": 0, "v2": 2, "v3": 2}
    # b2 acts by the Jordan block J_2(5)
    assert np.array_equal(rep2.mats["b2"], np.array([[5, 1], [0, 5]]))
    assert end_dim(l3, rep2) >= 2


def test_band_entries_are_residues_mod_p(l3):
    b, _ = l3.is_band(l3.parse_literal("a2' b2"))
    p = DEFAULT_PRIME
    with pytest.raises(ValueError):
        band_module(l3, b, 2, p)
    for l in (1, 2, 3):
        rep, ref = band_module(l3, b, l, p + 2), band_module(l3, b, l, 2)
        assert rep.entries == ref.entries
        assert all(0 < m < p for e in rep.entries.values() for m in e.values())
        for a, s, t in l3.presentation.arrows:
            assert rep.mats[a].dtype == np.int64
            assert rep.mats[a].shape == (rep.dims[t], rep.dims[s])
            assert np.array_equal(rep.mats[a], ref.mats[a])
        assert end_dim(l3, rep) == end_dim(l3, ref)


def test_end_dim_builds_no_dense_matrix(l3):
    b, _ = l3.is_band(l3.parse_literal("a2' b2"))
    for rep in (string_module(l3, l3.parse_literal("b1 a1' a2' b2")),
                band_module(l3, b, 3, 2)):
        end_dim(l3, rep)
        assert "mats" not in rep.__dict__
        assert rep.mats is rep.mats  # the view is built once, then cached


def test_no_numpy_on_the_checking_routes(tmp_path):
    # this module imports numpy, so a fresh interpreter runs every route and
    # reports whether any of them imported it
    alg = tmp_path / "lambda3.alg"
    alg.write_text(lambda_n_text(3))
    script = f"""
import contextlib, io, sys
from stringbricks import bricks, cli
from stringbricks.presets import lambda3
from stringbricks.strings import Context

ctx = Context(lambda3())
x = ctx.parse_literal("b1 a1'")
b, _ = ctx.is_band(ctx.parse_literal("a2' b2"))
verdicts = [bricks.string_brick_direct(ctx, x).verdict,
            bricks.string_brick_automaton(ctx, x).verdict,
            bricks.string_brick_endo(ctx, x).verdict,
            bricks.band_brick_direct(ctx, b, 2).verdict,
            bricks.band_brick_automaton(ctx, b, 2).verdict,
            bricks.band_brick_endo(ctx, b, 2).verdict]
assert verdicts == [True] * 3 + [False] * 3, verdicts
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["check-string-brick", {str(alg)!r}, "b1 a1'",
                       "--method", "all", "--json"]),
             cli.main(["check-band-brick", {str(alg)!r}, "a2' b2", "--l", "2",
                       "--method", "all", "--json"]),
             cli.main(["sturmian", "--directive", "1,(1)", "--prefix", "120",
                       "--check", "--bridge"])]
assert codes == [0, 1, 0], codes
print("numpy" in sys.modules)
"""
    src = str(Path(stringbricks.__file__).parent.parent)
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_band_lambda_zero_rejected(l3):
    b, _ = l3.is_band(l3.parse_literal("a2' b2"))
    with pytest.raises(ValueError):
        band_module(l3, b, 1, 0)


def test_end_dim_at_least_one(l3, gam):
    for ctx in (l3, gam):
        for x in ctx.enumerate_strings(5):
            assert end_dim_string(ctx, x) >= 1


def test_end_dim_inversion_invariant(l3, gam):
    for ctx in (l3, gam):
        for x in ctx.enumerate_strings(5):
            if x.is_zero():
                continue
            assert end_dim_string(ctx, x) == end_dim_string(ctx, x.inverse())


def test_band_value_rotation_inversion_invariant(l3):
    from stringbricks.strings import Band
    b, _ = l3.is_band(l3.parse_literal("a1' a2' b2 b1"))
    letters = b.string.letters
    base = end_dim_band(l3, b, 1, 2)
    for r in range(1, len(letters)):
        rot = l3.try_string(letters[r:] + letters[:r])
        assert rot is not None  # all rotations of a band are strings
        cand, _ = l3.is_band(rot)
        if cand is not None:
            assert end_dim_band(l3, cand, 1, 2) == base
    # the canonical form ranges over rotations of b and of its inverse
    canon = Band(l3.band_canonical(b))
    assert end_dim_band(l3, canon, 1, 2) == base


def test_two_primes_agree(l3, gam):
    for ctx in (l3, gam):
        for x in ctx.enumerate_strings(6):
            assert end_dim_string(ctx, x, DEFAULT_PRIME) == \
                end_dim_string(ctx, x, SECOND_PRIME)
        for b in ctx.enumerate_bands(6):
            for l in (1, 2):
                assert end_dim_band(ctx, b, l, 2, DEFAULT_PRIME) == \
                    end_dim_band(ctx, b, l, 2, SECOND_PRIME)


def test_dimension_cap(l3, monkeypatch):
    x = l3.parse_literal("b1 a1' a2' b2")
    rep = string_module(l3, x)
    with pytest.raises(CapExceeded):
        end_dim(l3, rep, cap=3)
    b, _ = l3.is_band(l3.parse_literal("a2' b2"))
    assert end_dim_string(l3, x, cap=5) == 2
    assert end_dim_band(l3, b, 2, 1, cap=4) == 2

    def unbuilt(*args, **kwargs):
        raise AssertionError("module built past the cap")

    # both entry points refuse before allocating the module's matrices
    monkeypatch.setattr(endo, "string_module", unbuilt)
    monkeypatch.setattr(endo, "band_module", unbuilt)
    with pytest.raises(CapExceeded):
        end_dim_string(l3, x, cap=4)
    with pytest.raises(CapExceeded):
        end_dim_band(l3, b, 2, 1, cap=3)
    with pytest.raises(CapExceeded):
        end_dim_band(l3, b, 10**6, 1)


def test_end_dim_matches_dense_reference(l3, gam, corpus):
    checked = 0
    for ctx in (l3, gam, *corpus[:5]):
        strings = ctx.enumerate_strings(6)
        bands = ctx.enumerate_bands(6)
        for prime in (DEFAULT_PRIME, SECOND_PRIME):
            reps = [string_module(ctx, x, prime) for x in strings]
            reps += [band_module(ctx, b, l, lam, prime) for b in bands
                     for l in (1, 2, 3) for lam in (1, 2)]
            for rep in reps:
                assert end_dim(ctx, rep) == dense_end_dim(ctx, rep)
            checked += len(reps)
    assert checked == 1304  # 574 strings and 78 band cases per prime


def test_long_fibonacci_string(l3):
    x = fibonacci_string(l3, 40)
    assert len(x) == 80
    t0 = time.perf_counter()
    dim = end_dim_string(l3, x)
    elapsed = time.perf_counter() - t0
    # 2 is the value dense_end_dim gives for this string (pinned, since the
    # dense build and elimination take ~50x the sparse solve)
    assert dim == 2
    assert elapsed < 0.25


def test_long_band_matches_dense_reference(l3):
    b = next(b for b in l3.enumerate_bands(10) if len(b.string) == 10)
    rep = band_module(l3, b, 3, 2)
    assert rep.total_dim() == 30
    assert end_dim(l3, rep) == dense_end_dim(l3, rep)


def _dense_rank(rows, n, p):
    mat = np.zeros((len(rows), n), dtype=np.int64)
    for i, row in enumerate(rows):
        for c, v in row.items():
            mat[i, c] = v
    return _rank_mod_p(mat, p)


def synthetic_system(rng, p):
    """Sparse rows over a few columns, built from the shapes the union-find
    phase tells apart and shuffled, so flags, unions and longer rows arrive
    in any order: one- and two-term rows, weighted cycles closed with
    product 1 or not, rescaled repeats, 3-4-term combinations of earlier
    two-term rows plus extra terms (which shrink or vanish once earlier
    rows are substituted), and zero coefficients, which end_dim passes on."""
    n = rng.randint(2, 8)
    cols = range(n)

    def unit():
        return rng.randrange(1, p)

    rows = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.randrange(6)
        if kind == 0:
            rows.append({rng.randrange(n): unit()})
        elif kind == 1:
            x, y = rng.sample(cols, 2)
            rows.append({x: unit(), y: unit()})
        elif kind == 2:  # x_0 = w_0 x_1, ..., so x_0 = prod * x_k
            cycle = rng.sample(cols, rng.randint(2, n))
            prod = 1
            for x, y in zip(cycle, cycle[1:]):
                w = unit()
                prod = prod * w % p
                rows.append({x: 1, y: -w % p})
            # closed by x_k = v x_0: consistent exactly when prod * v = 1
            v = pow(prod, -1, p) if rng.random() < 0.5 else unit()
            rows.append({cycle[-1]: 1, cycle[0]: -v % p})
        elif kind == 3 and rows:
            s = unit()
            rows.append({c: v * s % p for c, v in rng.choice(rows).items()})
        elif kind == 4:
            pairs = [r for r in rows if len(r) == 2]
            row: dict[int, int] = {}
            for r in rng.sample(pairs, min(len(pairs), rng.randint(1, 2))):
                s = unit()
                for c, v in r.items():
                    row[c] = (row.get(c, 0) + s * v) % p
            for c in rng.sample(cols, rng.randint(0, 2)):
                row[c] = (row.get(c, 0) + unit()) % p
            rows.append(row)
        else:
            x, y = rng.sample(cols, 2)
            rows.append({x: 0, y: unit()} if rng.random() < 0.5 else {x: 0})
    rng.shuffle(rows)
    return rows, n


# (rows, rank): each shape of the union-find phase on its own
RANK_CASES = [
    ([{0: 1, 1: -2}, {1: 1, 2: -3}, {2: 6, 0: -1}], 2),  # x0 = 2 x1 = 6 x2, closed consistently
    ([{0: 1, 1: -2}, {1: 1, 2: -3}, {2: 5, 0: -1}], 3),  # ... and by x0 = 5 x2
    ([{0: 1, 1: 1}, {1: 1, 0: 1}], 1),  # a cycle of length two, consistent
    ([{0: 3}, {0: 1, 1: 4}, {1: 1}], 2),  # a flagged root joins a free one
    ([{1: 3}, {0: 1, 1: 4}, {0: 1}], 2),  # ... as the parent
    ([{0: 1, 1: 4}, {1: 1, 2: 1}, {3: 2}, {3: 1, 0: 1}, {1: 1}], 4),  # ... by size
    ([{0: 3}, {1: 2}, {0: 1, 1: 4}], 2),  # two flagged roots join
    ([{0: 1, 1: 4}, {0: 2, 1: 8}, {1: 4, 0: 1}], 1),  # repeated rows
    ([{0: 1, 1: -1}, {1: 2, 2: 1}, {2: 5}, {0: 7}, {1: 1}], 3),  # one-term rows on merged columns
    ([{0: 1, 1: -1}, {0: 1, 1: 1, 2: 1}], 2),  # 3 terms shrink to 2
    ([{0: 1, 1: -1}, {0: 1, 1: -1, 2: 1}], 2),  # ... and to 1
    ([{0: 1, 1: -1}, {2: 1, 3: -1}, {0: 1, 1: -1, 2: 2, 3: -2}], 2),  # 4 terms vanish
    ([{1: 1}, {0: 1, 1: 1, 2: 1}, {0: 1, 2: 1}], 2),  # ... on a flagged root
    ([{0: 0, 1: 3}, {0: 0}, {0: 2, 1: 0, 2: 1}], 2),  # zero coefficients are skipped
    ([{}, {0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 1}], 1),  # an empty row, a repeated long one
]


@pytest.mark.parametrize("p", (DEFAULT_PRIME, SECOND_PRIME))
@pytest.mark.parametrize("rows, rank", RANK_CASES)
def test_rank_sparse_cases(rows, rank, p):
    rows = [{c: v % p for c, v in r.items()} for r in rows]
    n = 1 + max(c for r in rows for c in r)
    assert _dense_rank(rows, n, p) == rank
    assert endo._rank_sparse(rows, p) == rank


@pytest.mark.parametrize("p", (DEFAULT_PRIME, SECOND_PRIME))
def test_rank_sparse_matches_dense_on_synthetic_systems(p):
    rng = random.Random(2026)
    for _ in range(400):
        rows, n = synthetic_system(rng, p)
        assert endo._rank_sparse(rows, p) == _dense_rank(rows, n, p), rows
