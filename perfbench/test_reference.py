"""Tests of the benchmark's own reference computations.

Run from the repository root: python3 -m pytest -q perfbench
"""

import math
import struct

import numpy as np
import pytest

import reference as ref


class TestDirectFormulas:
    # One grid point, M = 3 members {0, 1, 4}, truth 2.
    #   ensemble mean 5/3, so RMSE = |5/3 - 2| = 1/3
    #   fair CRPS = (2 + 1 + 2)/3 - (2 * (1 + 4 + 3)) / (2 * 3 * 2) = 5/3 - 4/3 = 1/3
    members = np.array([0.0, 1.0, 4.0]).reshape(3, 1, 1)
    truth = np.array([[2.0]])

    def test_rmse_one_point(self):
        assert ref.rmse_direct(self.members, self.truth, [1.0]) == pytest.approx(1.0 / 3.0)

    def test_crps_fair_one_point(self):
        assert ref.crps_fair_direct(self.members, self.truth, [1.0]) == pytest.approx(1.0 / 3.0)

    def test_crps_fair_two_members(self):
        # {1, 3} around truth 2: (1 + 1)/2 - (2 + 2)/(2 * 2 * 1) = 0.
        f = np.array([1.0, 3.0]).reshape(2, 1, 1)
        assert ref.crps_fair_direct(f, np.array([[2.0]]), [1.0]) == pytest.approx(0.0)

    def test_latitude_weights(self):
        # Two rows with weights 3 and 1; errors of the mean 1 and 3.
        f = np.array([[[1.0], [3.0]], [[1.0], [3.0]]])
        y = np.zeros((2, 1))
        w = np.array([3.0, 1.0])
        assert ref.rmse_direct(f, y, w) == pytest.approx(math.sqrt((3 * 1 + 1 * 9) / 4))
        # Identical members: CRPS is the weighted mean absolute error.
        assert ref.crps_fair_direct(f, y, w) == pytest.approx((3 * 1 + 1 * 3) / 4)

    def test_cos_lat(self):
        np.testing.assert_allclose(ref.cos_lat([-60.0, 0.0, 60.0]), [0.5, 1.0, 0.5])

    def test_leading_axes_are_kept(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((4, 3, 2, 5, 6))
        y = rng.standard_normal((3, 2, 5, 6))
        w = rng.uniform(0.1, 1.0, 5)
        table = ref.crps_fair_direct(f, y, w)
        assert table.shape == (3, 2)
        assert table[1, 0] == pytest.approx(ref.crps_fair_direct(f[:, 1, 0], y[1, 0], w))


class TestExchangeableExpectations:
    """Truth and M members drawn independently from N(c, sigma^2)."""

    sigma, m, n = 0.7, 8, (200, 1000)

    @pytest.fixture(scope="class")
    def draw(self):
        rng = np.random.default_rng(42)
        centre = rng.uniform(-3.0, 3.0, self.n)
        truth = centre + self.sigma * rng.standard_normal(self.n)
        members = centre + self.sigma * rng.standard_normal((self.m,) + self.n)
        return members, truth, np.ones(self.n[0])

    def test_mean_fair_crps(self, draw):
        crps = ref.crps_fair_direct(*draw)
        assert crps / ref.expected_crps_fair(self.sigma) == pytest.approx(1.0, abs=0.01)

    def test_ensemble_mean_mse(self, draw):
        mse = ref.rmse_direct(*draw) ** 2
        assert mse / ref.expected_mean_mse(self.sigma, self.m) == pytest.approx(1.0, abs=0.01)

    def test_spread_skill_ratio(self, draw):
        assert ref.ssr_direct(*draw) == pytest.approx(1.0, abs=0.01)

    def test_underdispersed_ensemble_is_detected(self, draw):
        members, truth, w = draw
        narrow = members.mean(axis=0) + 0.5 * (members - members.mean(axis=0))
        assert ref.ssr_direct(narrow, truth, w) < 0.7


def test_read_pyld(tmp_path):
    t, v, h, w = 2, 2, 3, 4
    data = np.arange(t * v * h * w, dtype="<f4").reshape(t, v, h, w)
    lat, lon = np.array([-60.0, 0.0, 60.0]), np.arange(w) * 90.0
    parts = [ref.PYLD_MAGIC, struct.pack("<4I", t, v, h, w)]
    for name in ("u", "temp"):
        parts += [struct.pack("<H", len(name)), name.encode(), struct.pack("<4d", 0, 1, 1, math.nan)]
    parts += [lat.astype("<f8").tobytes(), lon.astype("<f8").tobytes(), data.tobytes()]
    path = tmp_path / "x.pyld"
    path.write_bytes(b"".join(parts))
    got, got_lat, got_lon, names = ref.read_pyld(path)
    np.testing.assert_array_equal(got, data)
    np.testing.assert_array_equal(got_lat, lat)
    np.testing.assert_array_equal(got_lon, lon)
    assert names == ["u", "temp"]
