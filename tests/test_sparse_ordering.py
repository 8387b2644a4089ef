"""Tests for RCM and nested-dissection orderings (METIS stand-in)."""

import hashlib
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli import parse_matrix_spec
from repro.graph import DAG
from repro.sparse import (
    CSRMatrix,
    apply_ordering,
    laplacian_2d,
    laplacian_3d,
    nested_dissection,
    permute_symmetric,
    reverse_cuthill_mckee,
    tridiagonal_spd,
)
from repro.sparse.base import INDEX_DTYPE
from repro.sparse.ordering import _adjacency_lists


def test_nested_dissection_is_permutation(lap2d_small):
    perm = nested_dissection(lap2d_small)
    assert sorted(perm.tolist()) == list(range(lap2d_small.n_rows))


def test_rcm_is_permutation(lap2d_small):
    perm = reverse_cuthill_mckee(lap2d_small)
    assert sorted(perm.tolist()) == list(range(lap2d_small.n_rows))


def test_permute_symmetric_preserves_spectrum(lap2d_small):
    b, perm = apply_ordering(lap2d_small, "nd")
    ev_a = np.sort(np.linalg.eigvalsh(lap2d_small.to_dense()))
    ev_b = np.sort(np.linalg.eigvalsh(b.to_dense()))
    assert np.allclose(ev_a, ev_b)


def test_permute_symmetric_entry_map(lap2d_small):
    perm = nested_dissection(lap2d_small)
    b = permute_symmetric(lap2d_small, perm)
    d_a = lap2d_small.to_dense()
    d_b = b.to_dense()
    assert np.allclose(d_b, d_a[np.ix_(perm, perm)])


def test_identity_ordering(lap2d_small):
    b, perm = apply_ordering(lap2d_small, "natural")
    assert np.array_equal(perm, np.arange(lap2d_small.n_rows))
    assert b.allclose(lap2d_small)


def test_unknown_method_raises(lap2d_small):
    with pytest.raises(ValueError, match="unknown ordering"):
        apply_ordering(lap2d_small, "metis")


def test_permute_rejects_rectangular():
    from repro.sparse import CSRMatrix

    a = CSRMatrix.from_dense(np.ones((2, 3)))
    with pytest.raises(ValueError):
        permute_symmetric(a, np.array([0, 1]))


def test_nd_increases_wavefront_parallelism():
    """The reason the paper reorders: ND makes elimination DAGs bushy."""
    a = laplacian_2d(16)
    nd, _ = apply_ordering(a, "nd")
    g_nat = DAG.from_lower_triangular(a.lower_triangle())
    g_nd = DAG.from_lower_triangular(nd.lower_triangle())
    # fewer wavefronts => more parallelism per wavefront on average
    assert g_nd.n_wavefronts <= g_nat.n_wavefronts


def test_rcm_reduces_bandwidth():
    rng = np.random.default_rng(3)
    from repro.sparse import random_spd

    a = random_spd(120, 5.0, seed=3)
    b, _ = apply_ordering(a, "rcm")

    def bandwidth(m):
        rows = np.repeat(np.arange(m.n_rows), m.row_nnz())
        return int(np.abs(rows - m.indices).max())

    assert bandwidth(b) <= bandwidth(a)


def test_nd_handles_disconnected_graph():
    """Block-diagonal matrix: ND must order every component."""
    import scipy.sparse as sp

    from repro.sparse import CSRMatrix, tridiagonal_spd

    a1 = tridiagonal_spd(30).to_scipy()
    a2 = tridiagonal_spd(20).to_scipy()
    blk = CSRMatrix.from_scipy(sp.block_diag([a1, a2]))
    perm = nested_dissection(blk)
    assert sorted(perm.tolist()) == list(range(50))


def test_nd_leaf_size_respected():
    a = laplacian_2d(10)
    # giant leaf => identity-like BFS ordering, still a permutation
    perm = nested_dissection(a, leaf_size=10_000)
    assert sorted(perm.tolist()) == list(range(100))


# --- bit-identity of nested dissection -----------------------------------
#
# ``reference_nested_dissection`` is the NumPy-scalar implementation that
# the list-based one replaced, frozen as an oracle: the BFS, separator
# scan and component split index NumPy arrays one scalar at a time, and
# every component is swept twice for its pseudo-peripheral start. Do not
# optimise it; its value is being the old behaviour.


def _reference_bfs_levels(indptr, indices, start, active_mask):
    """BFS level structure from *start* over active vertices.

    Returns (order, levels) arrays for reached vertices.
    """
    n = indptr.shape[0] - 1
    level = np.full(n, -1, dtype=INDEX_DTYPE)
    order = []
    frontier = [start]
    level[start] = 0
    depth = 0
    while frontier:
        order.extend(frontier)
        nxt = []
        for u in frontier:
            for v in indices[indptr[u] : indptr[u + 1]]:
                if active_mask[v] and level[v] < 0:
                    level[v] = depth + 1
                    nxt.append(int(v))
        frontier = nxt
        depth += 1
    return np.asarray(order, dtype=INDEX_DTYPE), level


def reference_nested_dissection(a: CSRMatrix, *, leaf_size: int = 64) -> np.ndarray:
    """Recursive nested-dissection ordering (METIS substitute).

    At each level the active subgraph is split by a BFS level structure
    from a pseudo-peripheral vertex: vertices in the first half of the
    levels form part 0, the rest part 1, and the boundary vertices of
    part 0 adjacent to part 1 become the separator, ordered *after* both
    parts. Components smaller than ``leaf_size`` are ordered locally by
    BFS. The result is a permutation ``perm`` (new position -> old index)
    whose elimination tree branches at every separator.
    """
    n = a.n_rows
    if n == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    indptr, indices = _adjacency_lists(a)
    out = np.empty(n, dtype=INDEX_DTYPE)
    out_pos = 0

    active = np.ones(n, dtype=bool)

    def order_component(comp: np.ndarray) -> np.ndarray:
        """Return a nested-dissection ordering of one connected component."""
        if comp.shape[0] <= leaf_size:
            return comp
        mask = np.zeros(n, dtype=bool)
        mask[comp] = True
        # Pseudo-peripheral start: BFS twice.
        start = int(comp[0])
        order1, _ = _reference_bfs_levels(indptr, indices, start, mask)
        start = int(order1[-1])
        order2, level = _reference_bfs_levels(indptr, indices, start, mask)
        if order2.shape[0] != comp.shape[0]:
            # Disconnected inside `comp` (should not happen; comp is a
            # component) — fall back to BFS order.
            return comp
        max_level = int(level[order2].max())
        if max_level == 0:
            return comp  # complete graph on comp; nothing to dissect
        half = max_level // 2
        in_a = np.zeros(n, dtype=bool)
        sel = order2[level[order2] <= half]
        in_a[sel] = True
        # Separator: vertices of part A adjacent to part B.
        sep_mask = np.zeros(n, dtype=bool)
        for u in sel:
            for v in indices[indptr[u] : indptr[u + 1]]:
                if mask[v] and not in_a[v]:
                    sep_mask[u] = True
                    break
        part_a = comp[in_a[comp] & ~sep_mask[comp]]
        part_b = comp[~in_a[comp]]
        sep = comp[sep_mask[comp]]
        if part_a.shape[0] == 0 or part_b.shape[0] == 0:
            return comp  # degenerate split; stop recursing
        ordered = [
            _order_subgraph(part_a),
            _order_subgraph(part_b),
            sep,
        ]
        return np.concatenate(ordered)

    def _order_subgraph(verts: np.ndarray) -> np.ndarray:
        """Order a vertex set: split into connected components, recurse."""
        if verts.shape[0] == 0:
            return verts
        mask = np.zeros(n, dtype=bool)
        mask[verts] = True
        seen = np.zeros(n, dtype=bool)
        pieces = []
        for v in verts:
            if not seen[v]:
                comp_order, _ = _reference_bfs_levels(indptr, indices, int(v), mask & ~seen)
                seen[comp_order] = True
                pieces.append(order_component(comp_order))
        return np.concatenate(pieces)

    all_verts = np.arange(n, dtype=INDEX_DTYPE)
    result = _order_subgraph(all_verts)
    out[: result.shape[0]] = result
    out_pos = result.shape[0]
    assert out_pos == n, "nested dissection dropped vertices"
    return out


def _digest(perm: np.ndarray) -> str:
    data = np.ascontiguousarray(perm, dtype="<i8").tobytes()
    return hashlib.sha256(data).hexdigest()


def _block_diagonal() -> CSRMatrix:
    """Three disconnected components of different shapes."""
    blocks = [laplacian_2d(10), laplacian_3d(5), tridiagonal_spd(200)]
    return CSRMatrix.from_scipy(sp.block_diag([b.to_scipy() for b in blocks]).tocsr())


def _with_isolated_vertices() -> CSRMatrix:
    """A 12x12 grid plus seven diagonal-only rows, scattered by a permutation."""
    b = sp.block_diag([laplacian_2d(12).to_scipy(), sp.identity(7)]).tocsr()
    b = CSRMatrix.from_scipy(b)
    return permute_symmetric(b, np.random.default_rng(0).permutation(b.n_rows))


#: (matrix spec or builder name, leaf_size) -> SHA-256 of the ``<i8`` bytes
#: of the permutation the NumPy-scalar implementation returned.
PINNED_ND = {
    ("lap3d:8", 64): "186d182ebd247f70758a882515217840cbd0f81ab7214018345acafe5931c597",
    ("lap3d:12", 64): "27e4629cffb3b92d4bd79e08b31a0439600ee893bbc6245b72f48572313fc8cc",
    ("lap3d:16", 64): "377401305f3129df0b066a56e60895f43e48a082a6602d8a5517b5a0d1190724",
    ("lap3d:20", 64): "964114395b1a9b06114301e79104526548585e4f64c64e4ccb06c99173061983",
    ("fe3d:9", 64): "eeaf40c02d4ce91da22fb08537c5f4137f5cffd69dc98ab9c262f8db485d2289",
    ("lap2d:60", 64): "0852322c385e1a41418952836802a4c9a2a995a3f1ea5bad998d93021f020eb4",
    ("band:2000,8", 64): "2e91f454f65c8930bbf8d186b76e5752c7fac16ac07c3c1abe2bc58f3e407187",
    ("pow:2000", 64): "ea08d7e9962013ab957a40d291c1b322d6ebacc5d650277c182e4bc5ce40a00a",
    ("rand:2000", 64): "f5d7d5e7a0160e662b2d2fb6898e120c483f1aa021772df3ee2b7b96b01973b3",
    ("arrow:500", 64): "c67e72f4f94cd4bc3828ca33b503cc4bae8e723f0be4a0b5da02511bae042441",
    ("chained:8,60", 64): "bbdc99b360a1eb651a45f435def8aac65ee69d8109e4499f434a7fd2655d5d0d",
    ("block-diagonal", 64): "954cc5b4ac96ed3dda04b777a6a8ae0f960be9e7fc2c77f520f1b2ee360c151f",
    ("isolated-vertices", 64): "c60bd66bf97c771d23c921d458223a37cb34a6dab80846b2e701c1c2787a27bd",
    ("lap3d:8", 1): "e520905dad6b5373121eb84aa5066a55d5e1c2e3739867984e59c8ec95e5af42",
    ("lap3d:8", 16): "b18f46c3b0e534a711d06fe454544045e93f0ad69ea8f655ec0befc60359e50b",
    ("lap3d:8", 10_000): "82e54e73edff918d5bd9bd42d20f461ff26cc2eff4a13e8ed65de8b9fa5a6979",
}
_BUILDERS = {"block-diagonal": _block_diagonal, "isolated-vertices": _with_isolated_vertices}


def _matrix(case: str) -> CSRMatrix:
    return _BUILDERS[case]() if case in _BUILDERS else parse_matrix_spec(case)


@pytest.mark.parametrize(
    "case, leaf_size", sorted(PINNED_ND), ids=[f"{c}-leaf{k}" for c, k in sorted(PINNED_ND)]
)
def test_nested_dissection_pinned_digest(case, leaf_size):
    a = _matrix(case)
    perm = nested_dissection(a, leaf_size=leaf_size)
    assert perm.dtype == INDEX_DTYPE
    assert sorted(perm.tolist()) == list(range(a.n_rows))
    assert _digest(perm) == PINNED_ND[(case, leaf_size)]


@pytest.mark.parametrize("case", ["lap3d:8", "arrow:500", "block-diagonal", "isolated-vertices"])
def test_scalar_oracle_gives_the_pinned_digest(case):
    a = _matrix(case)
    assert _digest(reference_nested_dissection(a)) == PINNED_ND[(case, 64)]


def test_nested_dissection_long_path_stays_shallow():
    """A 20,000-vertex path bisects about log2(n / leaf) deep, far below
    the recursion limit, and orders as the scalar implementation did."""
    a = parse_matrix_spec("band:20000,1")
    assert a.n_rows > sys.getrecursionlimit()
    perm = nested_dissection(a)
    assert _digest(perm) == "23a134cf72738a639b4b185aa5a88e5c387ea85826d1dbcca08984a22dfa3ade"


@st.composite
def symmetric_patterns(draw, max_n=60):
    """Random symmetric patterns with a full diagonal; sparse draws leave
    isolated vertices and several components, dense ones a single one."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    m = draw(st.integers(min_value=0, max_value=4 * n))
    i = rng.integers(0, max(n, 1), size=m)
    j = rng.integers(0, max(n, 1), size=m)
    rows = np.concatenate([i, j, np.arange(n)])
    cols = np.concatenate([j, i, np.arange(n)])
    pattern = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    pattern.sum_duplicates()
    return CSRMatrix.from_scipy(pattern)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=symmetric_patterns(), leaf_size=st.sampled_from([0, 1, 2, 3, 5, 8, 64]))
def test_nested_dissection_matches_scalar_oracle(a, leaf_size):
    perm = nested_dissection(a, leaf_size=leaf_size)
    expected = reference_nested_dissection(a, leaf_size=leaf_size)
    assert perm.dtype == expected.dtype
    assert np.array_equal(perm, expected)


@pytest.mark.parametrize("method", ["nd", "rcm", "natural"])
def test_apply_ordering_opens_a_span(lap2d_small, method):
    rec = obs.Recorder()
    with obs.recording(rec):
        apply_ordering(lap2d_small, method)
    assert [(s.name, s.attrs) for s in rec.spans] == [
        ("ordering", {"method": method, "rows": lap2d_small.n_rows})
    ]
