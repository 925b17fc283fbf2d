import numpy as np
import pytest
import sympy
from scipy import sparse

import bandtopo as bt
from bandtopo import cohomology
from bandtopo.exceptions import ComplexError
from bandtopo.smith import rank_field, smith_normal_form

from conftest import reference_decomposition_cells, reference_torus_boundaries


@pytest.fixture(scope="module")
def t3_8():
    return bt.torus_complex(8)


@pytest.fixture(scope="module")
def loop_decomposition():
    return bt.complement_complex(
        8, [bt.voxel_rect_loop(8, lo=2, hi=6, plane_z=4)], tube_voxels=1
    )


@pytest.fixture(scope="module")
def point_decomposition():
    return bt.complement_complex(8, [bt.voxel_point((4, 4, 4))], tube_voxels=1)


@pytest.fixture(scope="module")
def link_decomposition():
    return bt.complement_complex(16, bt.voxel_hopf_link(16), tube_voxels=1)


def betti(cx, coeff="Q"):
    return bt.cohomology_groups(cx, coeff).ranks


def rank_gf2(mat):
    """Oracle: rank over GF(2) by column reduction on bitmask integers,
    independent of the Smith factorization."""
    m = sparse.csc_matrix(mat)
    pivots = {}
    for j in range(m.shape[1]):
        col = 0
        for t in range(m.indptr[j], m.indptr[j + 1]):
            if int(m.data[t]) % 2:
                col |= 1 << int(m.indices[t])
        while col:
            lead = col.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = col
                break
            col ^= pivots[lead]
    return len(pivots)


class TestTorusComplex:
    def test_cell_counts(self, t3_8):
        assert t3_8.n_cells == (512, 1536, 1536, 512)

    def test_boundary_squares_to_zero(self, t3_8):
        for d in (1, 2):
            prod = t3_8.boundaries[d] @ t3_8.boundaries[d + 1]
            prod.eliminate_zeros()
            assert prod.nnz == 0

    def test_betti_q(self, t3_8):
        assert betti(t3_8, "Q") == (1, 3, 3, 1)

    def test_z2_equals_q(self, t3_8):
        assert betti(t3_8, "Z2") == betti(t3_8, "Q")

    def test_integral_no_torsion(self, t3_8):
        g = bt.cohomology_groups(t3_8, "Z")
        assert g.ranks == (1, 3, 3, 1)
        assert all(len(t) == 0 for t in g.torsion)

    def test_resolution_independence(self):
        assert betti(bt.torus_complex(12), "Q") == (1, 3, 3, 1)

    def test_euler_characteristic_consistency(self, t3_8):
        b = betti(t3_8, "Q")
        chi = sum((-1) ** q * b[q] for q in range(4))
        assert chi == t3_8.euler_characteristic() == 0

    def test_resolution_floor(self):
        with pytest.raises(ComplexError):
            bt.torus_complex(3)


class TestSmithNormalForm:
    def test_diag_2_3(self):
        assert bt.smith_normal_form([[2, 0], [0, 3]]).factors == (1, 6)

    def test_zero_matrix(self):
        assert bt.smith_normal_form([[0, 0], [0, 0]]).factors == ()

    @pytest.mark.parametrize("seed", range(8))
    def test_determinant_oracle(self, seed):
        rng = np.random.default_rng(seed)
        while True:
            a = rng.integers(-4, 5, size=(6, 6))
            det = int(round(np.linalg.det(a.astype(float))))
            if det != 0:
                break
        snf = bt.smith_normal_form(a)
        prod = 1
        for d in snf.factors:
            prod *= d
        assert prod == abs(det)

    def test_divisibility_chain(self):
        rng = np.random.default_rng(42)
        a = rng.integers(-6, 7, size=(7, 5))
        snf = bt.smith_normal_form(a)
        for x, y in zip(snf.factors, snf.factors[1:]):
            assert y % x == 0

    def test_large_entry_exactness(self):
        # arbitrary-precision arithmetic by construction: no overflow
        a = [[2**40, 1], [1, 2**40]]
        snf = bt.smith_normal_form(a)
        prod = 1
        for d in snf.factors:
            prod *= d
        assert prod == abs(2**80 - 1)

    @pytest.mark.parametrize("case", [*range(8), "diag2"])
    def test_field_ranks_match_oracles(self, case):
        """Random matrices with rows and columns scaled by 2, so invariant
        factors 2, 4 and beyond occur (odd seeds are rank deficient), and
        diag(2, 2), of rank 2 over Q and 0 over Z2."""
        if case == "diag2":
            a = np.array([[2, 0], [0, 2]])
        else:
            rng = np.random.default_rng(case)
            if case % 2:
                a = rng.integers(-2, 3, size=(7, 5)) @ rng.integers(-2, 3, size=(5, 9))
            else:
                a = rng.integers(-3, 4, size=(7, 9))
            a[:2] *= 2
            a[:, :3] *= 2
        m = sparse.csc_matrix(a)
        assert rank_field(m, "Q") == sympy.Matrix(a.tolist()).rank()
        assert rank_field(m, "Z2") == rank_gf2(m)


class TestComplementComplex:
    def test_point_boundary_is_sphere(self, point_decomposition):
        assert betti(point_decomposition.boundary) == (1, 0, 1, 0)

    def test_loop_boundary_is_torus(self, loop_decomposition):
        assert betti(loop_decomposition.boundary) == (1, 2, 1, 0)

    def test_link_boundary_two_tori(self, link_decomposition):
        assert betti(link_decomposition.boundary) == (2, 4, 2, 0)

    def test_tube_retracts_to_loop(self, loop_decomposition):
        assert betti(loop_decomposition.tube) == (1, 1, 0, 0)

    def test_complement_betti(self, loop_decomposition):
        # hand Mayer-Vietoris with chi = 0: one extra generator from the loop
        assert betti(loop_decomposition.complement) == (1, 4, 3, 0)

    def test_all_pieces_satisfy_dd_zero(self, loop_decomposition):
        for cx in (
            loop_decomposition.complement,
            loop_decomposition.tube,
            loop_decomposition.boundary,
        ):
            cx.check_boundary()

    def test_euler_consistency_every_piece(self, link_decomposition):
        for cx in (
            link_decomposition.total,
            link_decomposition.complement,
            link_decomposition.tube,
            link_decomposition.boundary,
        ):
            b = betti(cx, "Q")
            assert sum((-1) ** q * b[q] for q in range(4)) == cx.euler_characteristic()

    def test_self_touching_tube_rejected(self):
        # radius 2 around an 8-grid rectangle loop pinches the hole shut
        with pytest.raises(ComplexError):
            bt.complement_complex(
                8, [bt.voxel_rect_loop(8, lo=2, hi=5, plane_z=4)], tube_voxels=2
            )

    def test_invalid_loop_rejected(self):
        with pytest.raises(ComplexError):
            bt.complement_complex(
                8, [{"type": "loop", "vertices": [(0, 0, 0), (2, 0, 0), (2, 2, 0)]}]
            )

    def test_voxelize_polyline(self, nodal_loop2_locus):
        comp = bt.voxelize_polyline(nodal_loop2_locus.loops[0].vertices, 12)
        assert comp["type"] == "loop"
        dec = bt.complement_complex(12, [comp], tube_voxels=1)
        assert betti(dec.boundary) == (1, 2, 1, 0)
        assert betti(dec.tube) == (1, 1, 0, 0)


class TestMVDimensionCheck:
    @pytest.mark.parametrize("coeff", ["Q", "Z2"])
    def test_point_fixture(self, point_decomposition, coeff):
        dec = point_decomposition
        rep = bt.mv_dimension_check(
            dec.total, dec.complement, dec.tube, dec.boundary, coeff,
            n_components=dec.n_components,
        )
        assert rep.passed, rep.detail
        assert rep.table["kernel_dim"] == 0

    @pytest.mark.parametrize("coeff", ["Q", "Z2"])
    def test_loop_fixture(self, loop_decomposition, coeff):
        dec = loop_decomposition
        rep = bt.mv_dimension_check(
            dec.total, dec.complement, dec.tube, dec.boundary, coeff,
            n_components=dec.n_components,
        )
        assert rep.passed, rep.detail

    @pytest.mark.parametrize("coeff", ["Q", "Z2"])
    def test_link_fixture(self, link_decomposition, coeff):
        dec = link_decomposition
        rep = bt.mv_dimension_check(
            dec.total, dec.complement, dec.tube, dec.boundary, coeff,
            n_components=dec.n_components,
        )
        assert rep.passed, rep.detail
        assert rep.table["kernel_dim"] == 1

    def test_dimension_table_identical_over_fields(self, loop_decomposition):
        dec = loop_decomposition
        q = bt.mv_dimension_check(
            dec.total, dec.complement, dec.tube, dec.boundary, "Q",
            n_components=1,
        )
        z2 = bt.mv_dimension_check(
            dec.total, dec.complement, dec.tube, dec.boundary, "Z2",
            n_components=1,
        )
        assert q.table["betti"] == z2.table["betti"]

    def test_corrupted_betti_fails(self, loop_decomposition):
        dec = loop_decomposition
        rep = bt.mv_dimension_check(
            dec.total, dec.complement, dec.tube, dec.boundary, "Q",
            n_components=1,
            betti_override={"complement": (1, 5, 3, 0)},
        )
        assert not rep.passed


class TestUctCheck:
    def test_torus_passes(self, t3_8):
        assert bt.uct_check(t3_8).passed

    def test_complement_passes(self, loop_decomposition):
        assert bt.uct_check(loop_decomposition.complement).passed
        assert bt.uct_check(loop_decomposition.boundary).passed
        assert bt.uct_check(loop_decomposition.tube).passed

    def test_torsion_fixture_fails(self):
        rep = bt.uct_check(bt.klein_complex(8))
        assert not rep.passed
        assert any(t for t in rep.table["integral_torsion"])

    def test_klein_has_z2_torsion_in_degree_two(self):
        g = bt.cohomology_groups(bt.klein_complex(8), "Z")
        assert g.ranks == (1, 1, 0, 0)
        assert g.torsion[2] == (2,)
        g2 = bt.cohomology_groups(bt.klein_complex(8), "Z2")
        assert g2.ranks == (1, 2, 1, 0)


def unreduced_groups(cx):
    """Reference: Z and Q cohomology from ``smith_normal_form`` of the full
    boundary matrices, and Z2 from the independent ``rank_gf2``."""
    n = cx.n_cells

    def groups(r):
        r = [0] + r + [0]
        return tuple(n[q] - r[q] - r[q + 1] for q in range(4))

    snfs = {d: smith_normal_form(cx.boundaries[d]) for d in (1, 2, 3)}
    return {
        "Q": groups([snfs[d].rank for d in (1, 2, 3)]),
        "Z2": groups([rank_gf2(cx.boundaries[d]) for d in (1, 2, 3)]),
        "Z": (
            groups([snfs[d].rank for d in (1, 2, 3)]),
            ((),) + tuple(snfs[d].torsion for d in (1, 2, 3)),
        ),
    }


def reduced_groups(cx):
    out = {coeff: bt.cohomology_groups(cx, coeff).ranks for coeff in ("Q", "Z2")}
    z = bt.cohomology_groups(cx, "Z")
    out["Z"] = (z.ranks, z.torsion)
    return out


def random_cube_complex(seed, n=6):
    """Closure of a random cube subset of T^3; the fill fraction grows with
    the seed, from several components to one with cavities."""
    t3 = bt.torus_complex(n)
    rng = np.random.default_rng(seed)
    cubes = np.flatnonzero(rng.random(n**3) < 0.25 + 0.05 * seed)
    return cohomology._subcomplex(
        t3, cohomology._closure(t3, 3, cubes), f"random(n={n},seed={seed})"
    )


def decomposition_spaces(dec):
    return {"total": dec.total, "complement": dec.complement,
            "tube": dec.tube, "boundary": dec.boundary}


class TestReduction:
    """The reduced complex keeps Z, Q and Z2 cohomology (unreduced oracle)."""

    def check(self, cx, shrinks=True):
        expected = unreduced_groups(cx)
        # the Z reference agrees with the independent field ranks by the UCT:
        # H^q(Z2) = H^q (x) Z2 + Tor(H^{q+1}, Z2)
        ranks, torsion = expected["Z"]
        even = [sum(t % 2 == 0 for t in row) for row in torsion] + [0]
        assert ranks == expected["Q"]
        assert expected["Z2"] == tuple(ranks[q] + even[q] + even[q + 1] for q in range(4))
        assert reduced_groups(cx) == expected
        assert sum(cx.reduced.n_cells) < sum(cx.n_cells) or not shrinks
        return expected

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_torus(self, n):
        cx = bt.torus_complex(n)
        assert self.check(cx)["Z"] == ((1, 3, 3, 1), ((), (), (), ()))
        assert cx.reduced.n_cells == (1, 3, 3, 1)

    @pytest.mark.parametrize("name", ["point", "loop", "link"])
    def test_decompositions(self, request, name):
        dec = request.getfixturevalue(f"{name}_decomposition")
        for cx in decomposition_spaces(dec).values():
            self.check(cx)

    def test_klein(self):
        cx = bt.klein_complex(8)
        assert self.check(cx) == {
            "Q": (1, 1, 0, 0), "Z2": (1, 2, 1, 0), "Z": ((1, 1, 0, 0), ((), (), (2,), ())),
        }

    def test_klein_times_circle(self, klein_s1):
        assert self.check(klein_s1) == {
            "Q": (1, 2, 1, 0),
            "Z2": (1, 3, 3, 1),
            "Z": ((1, 2, 1, 0), ((), (), (2,), (2,))),
        }
        # the kept cube bounds twice a face: the one non-zero root-cube column
        top = klein_s1.reduced.boundaries[3]
        assert top.shape[1] == 1 and sorted(abs(top.data[top.data != 0])) == [2]

    @pytest.mark.parametrize("seed", range(10))
    def test_random_cube_subsets(self, seed):
        self.check(random_cube_complex(seed))

    @pytest.mark.parametrize("n_cells, d1, d2, d3, expected_z", [
        # edges v + w and v - w: only the second may pair, H^1 has torsion 2
        ((2, 2, 0, 0), [[1, 1], [1, -1]], None, None, ((0, 0, 0, 0), ((), (2,), (), ()))),
        # a cube bounding twice a face: no pair, H^3 has torsion 2
        ((1, 0, 1, 1), None, None, [[2]], ((1, 0, 0, 0), ((), (), (), (2,)))),
        # a face on one edge with coefficient 3 beside a unit face
        ((1, 1, 2, 0), [[0]], [[3, 1]], None, ((1, 0, 1, 0), ((), (), (), ()))),
    ])
    def test_small_chain_complexes(self, n_cells, d1, d2, d3, expected_z):
        mats = {
            d: sparse.csc_matrix(
                np.zeros((n_cells[d - 1], n_cells[d]), dtype=np.int64) if m is None
                else np.array(m, dtype=np.int64)
            )
            for d, m in ((1, d1), (2, d2), (3, d3))
        }
        assert self.check(bt.CellComplex("chain", n_cells, mats), shrinks=False)["Z"] == expected_z

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("space", ["torus", "klein_s1"])
    def test_reoriented_cells(self, request, space, seed):
        """Reversing the orientation of random cells, d_k -> D d_k D' with
        diagonal +-1 matrices, changes no cohomology group."""
        cx = bt.torus_complex(6) if space == "torus" else request.getfixturevalue(space)
        rng = np.random.default_rng(seed)
        flips = [sparse.diags(rng.choice([-1, 1], size=n), dtype=np.int64) for n in cx.n_cells]
        flipped = bt.CellComplex(
            f"{cx.name}/flipped", cx.n_cells,
            {d: (flips[d - 1] @ cx.boundaries[d] @ flips[d]).tocsc() for d in (1, 2, 3)},
        )
        assert self.check(flipped) == unreduced_groups(cx)

    def test_reduction_cached(self, t3_8):
        assert t3_8.reduced is t3_8.reduced

    def test_ranks_run_on_few_columns(self, monkeypatch, link_decomposition):
        widths = []

        def recording(fn):
            def wrapper(mat, *args, **kwargs):
                widths.append(mat.shape[1])
                return fn(mat, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(cohomology, "rank_field", recording(rank_field))
        monkeypatch.setattr(cohomology, "smith_normal_form", recording(smith_normal_form))
        dec = link_decomposition
        for coeff in ("Q", "Z2"):
            assert bt.mv_dimension_check(
                *decomposition_spaces(dec).values(), coeff, n_components=2
            ).passed
        for cx in decomposition_spaces(dec).values():
            assert bt.uct_check(cx).passed
        assert len(widths) == 2 * 4 * 3 + 4 * 6
        assert max(widths) <= 16


class TestArrayBuilders:
    """The array-op builders match the per-voxel loop references."""

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_torus_boundaries(self, n):
        cx = bt.torus_complex(n)
        for d, ref in reference_torus_boundaries(n).items():
            assert cx.boundaries[d].shape == ref.shape
            assert (cx.boundaries[d] != ref).nnz == 0

    @pytest.mark.parametrize("name, r", [("point", 1), ("loop", 1), ("point", 2), ("link", 1)])
    def test_decomposition_cells(self, request, name, r):
        dec = request.getfixturevalue(f"{name}_decomposition")
        n = dec.resolution
        locus = {
            "point": [bt.voxel_point((4, 4, 4))],
            "loop": [bt.voxel_rect_loop(8, lo=2, hi=6, plane_z=4)],
            "link": bt.voxel_hopf_link(16),
        }[name]
        if r != dec.tube_voxels:
            dec = bt.complement_complex(n, locus, tube_voxels=r)
        ref = reference_decomposition_cells(dec.total, n, locus, r)
        for key, cells in ref.items():
            cx = getattr(dec, key)
            assert cx.n_cells == tuple(len(c) for c in cells)
            for d in (1, 2, 3):
                expect = dec.total.boundaries[d][:, cells[d]][cells[d - 1], :]
                assert (cx.boundaries[d] != expect).nnz == 0
