import numpy as np
import pytest

from hj_strata.grids import _BLOCK, GridSpec, ValueField


def test_box_factory_counts_and_coords():
    g = GridSpec.box(2.0, 0.25)
    assert (g.n1, g.n2) == (17, 17)
    assert g.coords1()[0] == -2.0 and g.coords1()[-1] == 2.0
    assert not g.periodic1 and not g.periodic2
    assert g.size == 17 * 17


def test_box_rejects_incommensurate_h():
    with pytest.raises(ValueError):
        GridSpec.box(1.0, 0.3)


def test_strip_factory_periodic_axis():
    g = GridSpec.strip(1.0, 2.0, 0.25)
    assert g.periodic1 and not g.periodic2
    assert g.n1 == 4  # period nodes, right endpoint excluded
    assert g.coords2()[0] == -2.0 and g.coords2()[-1] == 2.0


def test_torus_factory():
    g = GridSpec.torus((1.0, 0.5), 0.125)
    assert g.periodic1 and g.periodic2
    assert (g.n1, g.n2) == (8, 4)


@pytest.mark.parametrize("h", [0.0, -0.25])
@pytest.mark.parametrize(
    "build",
    [lambda h: GridSpec.box(1.0, h), lambda h: GridSpec.strip(1.0, 1.0, h), lambda h: GridSpec.torus(1.0, h)],
    ids=["box", "strip", "torus"],
)
def test_constructors_refuse_a_non_positive_spacing(build, h):
    with pytest.raises(ValueError, match=f"grid h must be positive, got {h}"):
        build(h)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: GridSpec.strip(0.0, 1.0, 0.25), "period"),
        (lambda: GridSpec.strip(-1.0, 1.0, 0.25), "period"),
        (lambda: GridSpec.torus(0.0, 0.25), "T1"),
        (lambda: GridSpec.torus((1.0, -0.5), 0.25), "T2"),
    ],
)
def test_periodic_constructors_refuse_a_non_positive_period(build, name):
    with pytest.raises(ValueError, match=f"grid {name} must be positive"):
        build()


def test_value_field_refuses_values_of_another_shape():
    g = GridSpec.box(1.0, 0.5)
    with pytest.raises(ValueError, match=r"values shape \(5, 4\) does not match grid \(5, 5\)"):
        ValueField(g, np.zeros((5, 4)))


def test_anchor_and_flat_index():
    g = GridSpec.box(1.0, 0.5)
    a = g.anchor_index()
    pts = g.nodes()
    assert np.allclose(pts[a], [0.0, 0.0])
    i, j = divmod(a, g.n2)
    assert g.coords1()[i] == 0.0 and g.coords2()[j] == 0.0


def test_index_of_matches_nodes():
    g = GridSpec.box(1.0, 0.25)
    pts = g.nodes()
    rng = np.random.default_rng(3)
    for k in rng.integers(0, g.size, 25):
        assert g.index_of(tuple(pts[k])) == k
    # an array of points gives one index each; constrained axes clamp and
    # periodic axes wrap
    assert np.array_equal(g.index_of(pts), np.arange(g.size))
    assert g.index_of((3.0, -3.0)) == g.index_of((1.0, -1.0))
    s = GridSpec.strip(1.0, 1.0, 0.25)
    wrapped = s.index_of([(2.25, 0.5), (-0.75, 9.0)])
    assert wrapped.tolist() == [s.index_of((0.25, 0.5)), s.index_of((0.25, 1.0))]


def test_interp_exact_on_affine():
    """Bilinear interpolation reproduces affine functions to rounding error."""
    for g in (GridSpec.box(1.5, 0.25), GridSpec.strip(1.0, 1.5, 0.25)):
        pts = g.nodes()
        vals = (0.7 * pts[:, 0] - 1.3 * pts[:, 1] + 0.2).reshape(g.n1, g.n2)
        f = ValueField(g, vals)
        rng = np.random.default_rng(11)
        q = np.column_stack(
            [
                rng.uniform(pts[:, 0].min(), pts[:, 0].max(), 200),
                rng.uniform(-1.4, 1.4, 200),
            ]
        )
        got = f(q)
        want = 0.7 * q[:, 0] - 1.3 * q[:, 1] + 0.2
        assert np.allclose(got, want, atol=1e-12)


def test_interp_periodic_wraps():
    g = GridSpec.torus(1.0, 0.25)
    pts = g.nodes()
    vals = np.cos(2 * np.pi * pts[:, 0]).reshape(g.n1, g.n2)
    f = ValueField(g, vals)
    q = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.5], [2.0, -0.5]])
    v = f(q)
    assert v[0] == pytest.approx(v[1])
    assert v[0] == pytest.approx(f(np.array([[3.0, 0.25]]))[0], abs=1.0)  # wraps, no error


def test_interp_out_of_range_raises_without_clip():
    g = GridSpec.box(1.0, 0.5)
    f = ValueField(g, np.zeros((g.n1, g.n2)))
    with pytest.raises(ValueError):
        f(np.array([[1.6, 0.0]]))
    # clip mode pins to the boundary instead
    assert f(np.array([[1.6, 0.0]]), clip=True)[0] == 0.0


def test_contains_tolerance():
    g = GridSpec.box(1.0, 0.5)
    pts = np.array([[1.0, 1.0], [1.0 + 1e-13, 0.0], [1.1, 0.0]])
    inside = g.contains(pts)
    assert inside.tolist() == [True, True, False]


@pytest.mark.parametrize("grid", [GridSpec.box(1.5, 0.125), GridSpec.strip(1.0, 1.5, 0.125)], ids=["box", "strip"])
def test_blocked_reading_equals_the_one_shot_gather_bit_for_bit(grid):
    rng = np.random.default_rng(3)
    f = ValueField(grid, rng.normal(size=(grid.n1, grid.n2)))
    pts = rng.uniform(-2.0, 2.0, size=(3 * _BLOCK + 17, 2))
    idx, w = grid.interp_weights(pts, clip=True)
    one_shot = (f.flat()[idx] * w).sum(axis=1)
    got = f(pts[None], clip=True)
    assert got.shape == (1, len(pts))
    assert got[0].tobytes() == one_shot.tobytes()


def test_blocked_reading_raises_on_a_point_in_a_later_block():
    g = GridSpec.box(1.0, 0.5)
    f = ValueField(g, np.zeros((g.n1, g.n2)))
    pts = np.zeros((2 * _BLOCK, 2))
    pts[-1] = [1.6, 0.0]
    with pytest.raises(ValueError, match="outside the grid"):
        f(pts)
