"""The integer-key sort helpers equal NumPy bit for bit.

``stable_argsort``, ``stable_lexsort`` and ``unique`` replace
``np.argsort(kind="stable")``, ``np.lexsort`` and ``np.unique`` on the
inspector's integer keys. A stable sort's permutation is unique, so every
result must equal NumPy's in values, dtype and shape, on the radix paths
and on every fallback: negative keys (which a counting table would index
from the end without an error), keys at and past the 16- and 32-bit
digit limits, non-integer keys and sizes on both sides of each cutoff.

The guard at the end keeps new integer-sort call sites on the helpers.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import DAG
from repro.sparse import CSRMatrix, apply_ordering, laplacian_2d, random_lower_triangular
from repro.utils import intsort
from repro.utils.intsort import stable_argsort, stable_lexsort, unique

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: sizes below, at and above the cutoffs (one pass 1024, two passes
#: 1280, counting unique 64)
SIZES = [0, 1, 2, 63, 64, 65, 1023, 1024, 1279, 1280, 3000]
#: largest key: one digit, two digits, past the radix range
HIGHS = [0, 1, 7, 2**16 - 2, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**40]
INT_DTYPES = [np.int64, np.int32, np.uint32, np.uint64, np.int16, np.uint16, np.int8]


def _same(got, want):
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_same, got, want))
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


@st.composite
def int_keys(draw):
    """1-D integer keys: a size and a maximum around the cutoffs, a dtype,
    negative values sometimes, and a layout (random, sorted, reversed,
    all equal, sorted runs)."""
    n = draw(st.sampled_from(SIZES))
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    info = np.iinfo(dtype)
    hi = min(draw(st.sampled_from(HIGHS)), int(info.max))
    lo = -min(draw(st.sampled_from([0, 0, 1, 5, 2**20])), -int(info.min))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(lo, hi, n, endpoint=True).astype(dtype)
    if n:
        x[rng.integers(n)] = hi  # the maximum is present
    layout = draw(st.sampled_from(["random", "sorted", "reversed", "equal", "runs"]))
    if layout == "sorted":
        x = np.sort(x)
    elif layout == "reversed":
        x = np.sort(x)[::-1].copy()
    elif layout == "equal":
        x[:] = hi
    elif layout == "runs" and n:
        x = np.concatenate([np.sort(p) for p in np.array_split(x, 4)])
    return x


@SETTINGS
@given(int_keys())
def test_stable_argsort_equals_numpy(x):
    assert _same(stable_argsort(x), np.argsort(x, kind="stable"))


@SETTINGS
@given(int_keys())
def test_unique_equals_numpy(x):
    assert _same(unique(x), np.unique(x))
    assert _same(unique(x, return_inverse=True), np.unique(x, return_inverse=True))


@SETTINGS
@given(st.lists(int_keys(), min_size=1, max_size=5), st.booleans())
def test_stable_lexsort_equals_numpy(keys, as_array):
    n = min(k.shape[0] for k in keys)
    keys = [k[:n] for k in keys]
    if as_array and len({k.dtype for k in keys}) == 1:
        keys = np.stack(keys)  # a 2-D array holds one key per row
        assert _same(stable_lexsort(keys), np.lexsort(keys))
    else:
        assert _same(stable_lexsort(tuple(keys)), np.lexsort(tuple(keys)))


@pytest.mark.parametrize("n", [10, 2000])
def test_non_integer_keys_fall_back(n):
    rng = np.random.default_rng(3)
    for x in (rng.random(n), rng.random(n) < 0.5, rng.integers(0, 9, (2, n))):
        assert _same(stable_argsort(x), np.argsort(x, kind="stable"))
        assert _same(unique(x), np.unique(x))
        assert _same(unique(x, return_inverse=True), np.unique(x, return_inverse=True))
    keys = (rng.random(n), rng.integers(0, 9, n))
    assert _same(stable_lexsort(keys), np.lexsort(keys))


def test_negative_keys_never_index_the_counting_table():
    # -1 would mark the table's last flag and merge with the maximum
    x = np.array([5, -1, 3, 5, 0, -1] * 20, dtype=np.int64)
    assert x.shape[0] >= intsort._MIN_COUNT
    assert _same(unique(x), np.unique(x))
    assert _same(unique(x, return_inverse=True), np.unique(x, return_inverse=True))


@pytest.mark.parametrize("hi", [2**16 - 1, 2**16, 2**32 - 1, 2**32])
def test_digit_limits(hi):
    rng = np.random.default_rng(hi % 97)
    x = rng.integers(0, hi, 4000, endpoint=True)
    x[:2] = [hi, hi - 1]
    assert _same(stable_argsort(x), np.argsort(x, kind="stable"))
    keys = (x, rng.integers(0, 3, x.shape[0]))
    assert _same(stable_lexsort(keys), np.lexsort(keys))


@pytest.mark.parametrize("dtypes", [(np.uint64, np.int64), (np.int64, np.uint64), (np.uint32, np.int8)])
def test_lexsort_packs_mixed_dtypes(dtypes):
    # one composite of span 1000 * 100: the packed key must stay integer
    rng = np.random.default_rng(6)
    keys = tuple(
        rng.integers(0, s, 3000).astype(dt) for s, dt in zip((1000, 100), dtypes)
    )
    assert _same(stable_lexsort(keys), np.lexsort(keys))


def test_lexsort_packs_and_splits_key_groups():
    # spans 1000 * 1000 * 5000 pass 2**32 only with the last key: two
    # groups, sorted one after the other
    rng = np.random.default_rng(4)
    keys = tuple(rng.integers(0, s, 5000) for s in (1000, 1000, 5000))
    assert _same(stable_lexsort(keys), np.lexsort(keys))


# -- DAG.from_lower_triangular seeds the predecessor arrays ----------------
def _transposed_predecessors(dag):
    bare = DAG(dag.n, dag.indptr, dag.indices, check=False)
    return bare.predecessor_arrays()


@pytest.mark.parametrize(
    "low",
    [
        CSRMatrix(0, 0, np.zeros(1, dtype=np.int64), [], []),
        # rows 0 and 2 have no strictly-lower entry
        CSRMatrix(3, 3, [0, 1, 3, 4], [0, 0, 1, 2], [1.0, 2.0, 3.0, 4.0]),
        apply_ordering(laplacian_2d(9), "nd")[0].lower_triangle(),
        random_lower_triangular(300, 4.0, seed=5),
    ],
    ids=["0x0", "empty-rows", "lap2d-nd", "random"],
)
def test_csr_input_seeds_the_transposed_predecessors(low):
    dag = DAG.from_lower_triangular(low)
    assert dag._pred_indptr is not None
    want = _transposed_predecessors(dag)
    for got, ref in zip(dag.predecessor_arrays(), want):
        assert _same(got, ref)
    # the successors are the CSC input's, which seeds nothing
    csc = DAG.from_lower_triangular(low.to_csc(), weights=dag.weights)
    assert csc._pred_indptr is None
    assert csc.same_structure(dag)
    assert np.array_equal(csc.weights, dag.weights)
    for got, ref in zip(csc.predecessor_arrays(), want):
        assert _same(got, ref)


# -- guard: integer sorts go through the helpers ---------------------------
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
SORT_CALL = re.compile(r'np\.lexsort\(|kind="stable"|np\.unique\(')

#: (path under src/repro, stripped source line) -> why it stays on NumPy.
#: ``None`` as the line allows the whole file.
ALLOWED = {
    ("schedule/reference.py", None): "the frozen seed oracle the tests compare against",
    (
        "fusion/inspector.py",
        'order = np.argsort(lelems, kind="stable")',
    ): "access maps list elements in sorted runs, which timsort merges faster",
    (
        "graph/interdep.py",
        "order = np.lexsort((j, i))",
    ): "the join emits edges consumer-major and mostly in order",
    (
        "graph/interdep.py",
        'order = np.argsort(self.row_indices, kind="stable")',
    ): "each consumer's producers ascend and sit near the consumer",
    (
        "runtime/cache.py",
        'src = np.argsort((pos >> (k + 1)) * n + vals, kind="stable")',
    ): "each merge pass sorts two sorted runs per block, timsort's best case",
    (
        "schedule/ico.py",
        'order = np.argsort(loads, kind="stable")',
    ): "float loads of the r w-partitions",
    (
        "schedule/ico.py",
        'order = np.argsort(src, kind="stable")',
    ): "the global edge sources are one ascending run per edge set",
    (
        "schedule/ico.py",
        'order = np.argsort(es, kind="stable")',
    ): "a subset of the global edge sources, still in ascending runs",
    (
        "schedule/ico.py",
        "order = np.lexsort((pool, hi[pool]))",
    ): "the pool ascends and its deadlines arrive nearly sorted",
}


def _sort_sites():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "utils/intsort.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0]
            if SORT_CALL.search(code):
                yield rel, lineno, code.strip()


def test_integer_sorts_use_the_helpers():
    unlisted = [
        f"{rel}:{lineno}: {code}"
        for rel, lineno, code in _sort_sites()
        if (rel, None) not in ALLOWED and (rel, code) not in ALLOWED
    ]
    assert not unlisted, (
        "sort through repro.utils.intsort, or add the site to ALLOWED with "
        "its reason:\n" + "\n".join(unlisted)
    )


def test_every_allowed_site_exists():
    found = {(rel, code) for rel, _, code in _sort_sites()}
    files = {rel for rel, _ in found}
    stale = [
        key for key in ALLOWED if (key[1] is None and key[0] not in files)
        or (key[1] is not None and key not in found)
    ]
    assert not stale, f"allow-list entries with no matching site: {stale}"
