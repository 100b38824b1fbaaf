import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from intertwine.chamber import (BoundaryPoint, Partition, embed_boundary, gamma_bar,
                                interlace_eq, interlace_plus, link_cell, vandermonde)

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def test_vandermonde_examples():
    assert vandermonde((1.0, 3.0)) == pytest.approx(2.0)
    assert vandermonde((7.0,)) == 1.0
    assert vandermonde((0.0, 1.0, 3.0)) == pytest.approx(6.0)


@hypothesis.given(st.lists(finite_floats, min_size=2, max_size=5, unique=True),
                  st.data())
def test_vandermonde_antisymmetric_under_transposition(xs, data):
    i = data.draw(st.integers(0, len(xs) - 2))
    swapped = list(xs)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    assert vandermonde(swapped) == pytest.approx(-vandermonde(xs), rel=1e-9, abs=1e-12)


def test_interlace_plus_examples():
    assert interlace_plus((0, 2, 4), (1, 3))
    assert not interlace_plus((0, 2, 4), (3, 3))
    assert interlace_plus((1, 1), (1,))


def test_interlace_dimension_errors():
    with pytest.raises(ValueError):
        interlace_plus((0, 2), (1, 3))
    with pytest.raises(ValueError):
        interlace_eq((0, 2), (1,))


def test_interlace_to_an_empty_target_raises():
    # a source whose target would have dimension 0 has no cell, for either link
    with pytest.raises(ValueError, match="needs sources of dimension >= 1, got 0"):
        interlace_eq((), ())
    with pytest.raises(ValueError, match="needs sources of dimension >= 2, got 1"):
        interlace_plus((1.0,), ())


def test_link_cells():
    x = np.array([1.0, 2.0, 4.0])
    for kind, lo, hi in (("L", [1, 2], [2, 4]), ("lambda_eq", [0, 1, 2], [1, 2, 4]),
                         ("lambda_plus", [0, 1], [2, 4])):
        cell = link_cell(kind, x)
        assert np.array_equal(cell[0], lo) and np.array_equal(cell[1], hi)
        rows = link_cell(kind, np.stack([x, 2 * x]))
        assert np.array_equal(rows[0], [lo, 2 * np.array(lo)])
        assert np.array_equal(rows[1], [hi, 2 * np.array(hi)])
    with pytest.raises(ValueError, match="unknown link"):
        link_cell("nope", x)
    with pytest.raises(ValueError, match="dimension >= 2"):
        link_cell("lambda_plus", np.ones((3, 1)))


def test_interlace_eq_examples():
    assert interlace_eq((2, 5), (1, 3))
    assert not interlace_eq((2, 5), (3, 4))
    assert interlace_eq((2,), (0,))


@hypothesis.given(st.lists(st.floats(min_value=-20, max_value=20), min_size=2, max_size=5))
def test_interlace_plus_bounds_envelope(xs):
    x = sorted(xs)
    # midpoints of consecutive intervals always interlace
    y = [(x[k] + x[k + 1]) / 2 for k in range(len(x) - 1)]
    assert interlace_plus(x, y)
    assert min(y) >= min(x) and max(y) <= max(x)


def test_embed_boundary_examples():
    bp = embed_boundary((1, 2, 3))
    assert bp.alphas == pytest.approx((3 / 9, 2 / 9, 1 / 9))
    assert bp.gamma == pytest.approx(6 / 9)
    assert embed_boundary((0,)).gamma == 0.0
    bp4 = embed_boundary((4,))
    assert bp4.alphas == (4.0,) and bp4.gamma == 4.0
    with pytest.raises(ValueError):
        embed_boundary((-1.0, 2.0))
    with pytest.raises(ValueError, match=r"empty configuration \(\)"):
        embed_boundary(())


@hypothesis.given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=6))
def test_embed_boundary_invariants(xs):
    bp = embed_boundary(np.sort(xs))
    assert all(bp.alphas[i] >= bp.alphas[i + 1] for i in range(len(bp.alphas) - 1))
    assert gamma_bar(bp) == pytest.approx(0.0, abs=1e-12 * max(1.0, bp.gamma))


def test_gamma_bar_examples():
    assert gamma_bar(BoundaryPoint((), 2.0)) == 2.0
    assert gamma_bar(BoundaryPoint((1.0, 1.0), 2.0)) == 0.0
    assert gamma_bar(BoundaryPoint((0.25,), 1.0)) == 0.75


def test_boundary_point_validation():
    with pytest.raises(ValueError):
        BoundaryPoint((1.0, 2.0), 5.0)  # increasing masses
    with pytest.raises(ValueError):
        BoundaryPoint((2.0,), 1.0)  # sum exceeds gamma
    with pytest.raises(ValueError):
        BoundaryPoint((-0.5,), 1.0)
    for alphas, gamma in (((), float("nan")), ((float("nan"),), 2.0), ((), float("inf"))):
        with pytest.raises(ValueError, match="non-finite"):
            BoundaryPoint(alphas, gamma)


def test_partition_validation_and_helpers():
    p = Partition((3, 1, 0))
    assert p.weight == 4 and p.length == 3
    assert p.padded(5) == (3, 1, 0, 0, 0)
    assert p.scaled(10).parts == (30, 10, 0)
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((-1,))
    with pytest.raises(ValueError):
        p.padded(2)
