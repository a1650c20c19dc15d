import dataclasses
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from shell_profile import radial_profile

from nimbus import grid, pipeline
from nimbus.errors import ConfigError, DomainError, FormatError


def make_batch(t=4, v=2, h=8, w=8, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((t, v, h, w)).astype(np.float32)
    lat, lon = grid.default_grid(h, w)
    specs = tuple(
        grid.VariableSpec(name=f"var{i}", mean=float(i), std=1.0 + i) for i in range(v)
    )
    return grid.FieldBatch(data=data, lat=lat, lon=lon, specs=specs)


def residual_frames(b):
    """The residual frames the VAE trains on, for train slice b, with unit statistics."""
    unit = tuple(dataclasses.replace(s, mean=0.0, std=1.0) for s in b.specs)
    return grid.standardized_residuals(b.data, unit)


class TestLatWeights:
    def test_single_row_is_one(self):
        assert grid.lat_weights([0.0]) == pytest.approx([1.0])

    def test_symmetric_pair(self):
        np.testing.assert_allclose(grid.lat_weights([60.0, -60.0]), [1.0, 1.0])

    def test_two_rows_derived(self):
        # cos(0)=1, cos(60)=0.5, mean 0.75
        np.testing.assert_allclose(grid.lat_weights([0.0, 60.0]), [4 / 3, 2 / 3])

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            grid.lat_weights([91.0])

    @given(
        st.lists(st.floats(min_value=-89.9, max_value=89.9), min_size=1, max_size=40)
    )
    @settings(max_examples=50, deadline=None)
    def test_mean_exactly_one(self, lats):
        w = grid.lat_weights(lats)
        assert abs(w.mean() - 1.0) < 1e-12
        assert not w.flags.writeable


class TestStandardize:
    def test_constant_at_mean_gives_zero(self):
        b = make_batch()
        data = np.zeros_like(b.data)
        for i, s in enumerate(b.specs):
            data[:, i] = s.mean
        out = grid.standardize_array(data, b.specs)
        assert np.all(out == 0)

    def test_identity_when_standard(self):
        b = make_batch()
        specs = tuple(
            grid.VariableSpec(name=s.name, mean=0.0, std=1.0) for s in b.specs
        )
        out = grid.standardize_array(b.data, specs)
        np.testing.assert_array_equal(out, b.data)

    def test_direct_arithmetic(self):
        b = make_batch(t=1, v=1)
        spec = (grid.VariableSpec(name="var0", mean=1.0, std=2.0),)
        out = grid.standardize_array(np.full_like(b.data, 5.0), spec)
        np.testing.assert_allclose(out, 2.0)

    def test_roundtrip(self):
        b = make_batch(seed=3)
        back = grid.destandardize_array(grid.standardize_array(b.data, b.specs), b.specs)
        np.testing.assert_allclose(back, b.data, rtol=1e-6, atol=1e-6)

    def test_missing_spec_is_config_error(self):
        b = make_batch(v=2)
        with pytest.raises(ConfigError):
            grid.standardize_array(b.data, b.specs[:1])
        with pytest.raises(ConfigError):
            grid.destandardize_array(b.data, b.specs[:1])


class TestResiduals:
    def test_constant_sequence_zero(self):
        b = make_batch()
        b = dataclasses.replace(b, data=np.ones_like(b.data))
        assert np.all(residual_frames(b) == 0)

    def test_linear_ramp_gives_ones(self):
        b = make_batch(t=5)
        data = np.broadcast_to(
            np.arange(5, dtype=np.float32)[:, None, None, None], b.data.shape
        ).copy()
        r = residual_frames(dataclasses.replace(b, data=data))
        np.testing.assert_array_equal(r, np.ones_like(r))

    def test_matches_subtraction_oracle(self):
        b = make_batch(t=6, seed=9)
        r = residual_frames(b)
        assert r.dtype == np.float32
        np.testing.assert_array_equal(r, b.data[1:] - b.data[:-1])

    def test_short_sequence_rejected(self):
        b = make_batch(t=1)
        with pytest.raises(DomainError):
            grid.residual_specs(b.data, b.specs)

    def test_cumulative_sum_reconstructs(self):
        b = make_batch(t=8, seed=4)
        r = residual_frames(b)
        recon = b.data[0] + r.astype(np.float64).sum(axis=0)
        np.testing.assert_allclose(recon, b.data[-1], atol=1e-5)

    def test_next_state_inverts_the_residual(self):
        b = make_batch(t=8, v=3, seed=6)
        specs = grid.residual_specs(b.data, b.specs)
        resid_std = grid.standardized_residuals(b.data, specs)
        x_next = np.stack([grid.next_state(x, r, specs) for x, r in zip(b.data, resid_std)])
        assert x_next.dtype == np.float32
        # Six float32 roundings (the difference, the shift and scale each way,
        # the sum), each within one ulp of the largest state: residuals reach
        # twice its size.
        ulp = np.spacing(np.abs(b.data).max())
        np.testing.assert_allclose(x_next, b.data[1:], rtol=0, atol=6 * ulp)

    def test_residual_specs_use_residual_statistics(self):
        b = make_batch(t=16, v=3, h=16, w=24, seed=5)
        specs = grid.residual_specs(b.data, b.specs)
        diff = np.diff(b.data.astype(np.float64), axis=0)
        for i, s in enumerate(specs):
            # The same float64 formula, but summed over a contiguous per-variable
            # stack instead of a strided slice of the whole one: numpy's pairwise
            # sums then group the terms differently, so the last bits may differ.
            tol = 1e-12 * diff[:, i].std()
            assert abs(s.mean - diff[:, i].mean()) <= tol
            assert abs(s.std - diff[:, i].std()) <= tol


class TestGenSynthetic:
    def test_deterministic(self):
        a = grid.gen_synthetic(seed=7, h=16, w=16, v=2, t=3)
        b = grid.gen_synthetic(seed=7, h=16, w=16, v=2, t=3)
        np.testing.assert_array_equal(a.data, b.data)

    def test_flat_spectrum_for_slope_zero(self):
        # Least-squares slope on the log-log radial spectrum, shell noise
        # averaged over a few seeds; flat means <10% amplitude drift across
        # the fitted radius range.
        amps = []
        for seed in range(8):
            b = grid.gen_synthetic(seed=seed, h=64, w=64, v=1, t=1, spectral_slopes=[0.0])
            edges, amplitude, _ = radial_profile(b.data[0, 0])
            amps.append(amplitude)
        amp = np.mean(amps, axis=0)[1:-1]
        radii = edges[1:-1]
        slope = np.polyfit(np.log(radii), np.log(amp), 1)[0]
        ratio = (radii[-1] / radii[0]) ** slope
        assert 0.9 < ratio < 1.1

    def test_pure_advection_is_exact_shift(self):
        b = grid.gen_synthetic(
            seed=2, h=16, w=16, v=1, t=3, advection=[(1, 0)], forcing=0.0
        )
        for t in range(1, 3):
            np.testing.assert_array_equal(
                b.data[t, 0], np.roll(b.data[t - 1, 0], (1, 0), axis=(0, 1))
            )

    def test_distinct_slopes_give_distinct_energy_curves(self):
        b = grid.gen_synthetic(
            seed=3, h=64, w=64, v=3, t=1, spectral_slopes=[1.0, 2.0, 3.5]
        )
        curves = []
        for v in range(3):
            curves.append(radial_profile(b.data[0, v])[2])
        gaps = [
            np.max(np.abs(curves[i] - curves[j]))
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        assert max(gaps) > 0.05

    def test_too_small_grid_rejected(self):
        with pytest.raises(DomainError):
            grid.gen_synthetic(seed=0, h=4, w=4, v=1, t=1)


# The frames a windowed read keeps in these tests, as ``forecast`` keeps its init window.
WINDOW = slice(2, 7)


def _nan_in_frame(i):
    """Damage for the file of ``make_batch(t=12)``: a NaN as the first value of frame ``i``."""

    def damage(blob):
        frame = 2 * 8 * 8 * 4
        at = len(blob) - (12 - i) * frame
        return blob[:at] + struct.pack("<f", np.nan) + blob[at + 4 :]

    return damage


def _zero_std(blob):
    # var0's std follows the 24-byte header, the u16 name length, "var0" and its mean.
    return blob[:38] + struct.pack("<d", 0.0) + blob[46:]


class TestFieldFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        b = grid.gen_synthetic(seed=11, h=8, w=12, v=3, t=2)
        path = tmp_path / "x.pyld"
        grid.write_fields(b, path)
        back = grid.read_fields(path)
        np.testing.assert_array_equal(back.data, b.data)
        np.testing.assert_array_equal(back.lat, b.lat)
        np.testing.assert_array_equal(back.lon, b.lon)
        assert back.specs == b.specs

    def test_double_roundtrip_identical_bytes(self, tmp_path):
        b = grid.gen_synthetic(seed=11, h=8, w=8, v=1, t=2)
        p1, p2 = tmp_path / "a.pyld", tmp_path / "b.pyld"
        grid.write_fields(b, p1)
        grid.write_fields(grid.read_fields(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_non_utf8_variable_name(self, tmp_path):
        b = grid.gen_synthetic(seed=0, h=8, w=8, v=2, t=1)
        names = ("ab", "cd")
        b = dataclasses.replace(
            b, specs=tuple(dataclasses.replace(s, name=n) for s, n in zip(b.specs, names))
        )
        path = tmp_path / "x.pyld"
        grid.write_fields(b, path)
        path.write_bytes(path.read_bytes().replace(b"cd", b"\xc3\x28", 1))
        with pytest.raises(FormatError, match="not valid UTF-8") as info:
            grid.read_fields(path)
        # magic 8 + dims 16 + first record (2 + 2 + 32) + name length 2
        assert info.value.offset == 62

    def test_empty_file_bad_magic(self, tmp_path):
        path = tmp_path / "empty.pyld"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            grid.read_fields(path)

    def test_truncated_header(self, tmp_path):
        b = grid.gen_synthetic(seed=0, h=8, w=8, v=2, t=1)
        path = tmp_path / "x.pyld"
        grid.write_fields(b, path)
        blob = path.read_bytes()
        # Declare V=2 but cut the file inside the first variable record.
        path.write_bytes(blob[:30])
        with pytest.raises(FormatError) as exc:
            grid.read_fields(path)
        assert str(exc.value).count("truncated") == 1
        assert exc.value.offset <= 30

    def test_truncated_payload_names_the_missing_bytes(self, tmp_path):
        path = tmp_path / "x.pyld"
        grid.write_fields(grid.gen_synthetic(seed=0, h=8, w=8, v=2, t=1), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError, match="truncated payload: need 5 more bytes"):
            grid.read_fields(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "big.pyld"
        path.write_bytes(grid.MAGIC_FIELDS + struct.pack("<4I", 2**20, 2**20, 64, 64))
        with pytest.raises(FormatError):
            grid.read_fields(path)

    def test_odd_name_length_round_trips(self, tmp_path):
        # A 3-byte name puts the payload at an odd offset of the file buffer,
        # so the data is an unaligned view; it must still read back exactly.
        b = make_batch(t=2, v=1, seed=2)
        b = dataclasses.replace(b, specs=(dataclasses.replace(b.specs[0], name="t2m"),))
        path = tmp_path / "x.pyld"
        grid.write_fields(b, path)
        back = grid.read_fields(path)
        np.testing.assert_array_equal(back.data, b.data)
        assert back.specs == b.specs
        assert not back.data.flags.writeable

    def test_immutable_after_construction(self):
        b = make_batch()
        with pytest.raises(ValueError):
            b.data[0, 0, 0, 0] = 3.0

    def test_windowed_read_equals_the_slice_of_a_full_read(self, tmp_path):
        b = make_batch(t=12, v=3, seed=4)
        path = tmp_path / "x.pyld"
        grid.write_fields(b, path)
        full = grid.read_fields(path)
        seen = []

        def keep(t):
            seen.append(t)
            return WINDOW

        part = grid.read_fields(path, keep)
        assert seen == [12]
        assert part.data.tobytes() == full.data[WINDOW].tobytes()
        assert part.lat.tobytes() == full.lat.tobytes()
        assert part.lon.tobytes() == full.lon.tobytes()
        assert part.specs == full.specs
        assert not part.data.flags.writeable

    def test_keep_refuses_before_any_frame_is_read(self, tmp_path):
        path = tmp_path / "x.pyld"
        grid.write_fields(make_batch(t=12), path)
        path.write_bytes(_nan_in_frame(0)(path.read_bytes()))

        def too_few(t):
            raise ConfigError(f"dataset has {t} frames")

        with pytest.raises(ConfigError, match="dataset has 12 frames"):
            grid.read_fields(path, too_few)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda blob: b"NOTPYLD!" + blob[8:], "bad magic"),
            (lambda blob: blob[:30], "truncated header (variable stats)"),
            (lambda blob: blob[:-5], "truncated payload: need 5 more bytes"),
            (lambda blob: blob + bytes(3), "3 trailing bytes after payload"),
            (lambda blob: blob.replace(b"var1", b"va\xc3\x28", 1), "not valid UTF-8"),
            (lambda blob: grid.MAGIC_FIELDS + struct.pack("<4I", 2**20, 2**20, 64, 64), "unreasonable"),
            (_nan_in_frame(0), "field data contains non-finite values"),
            (_nan_in_frame(3), "field data contains non-finite values"),
            (_nan_in_frame(11), "field data contains non-finite values"),
            # The header's values are checked before any frame.
            (lambda blob: _nan_in_frame(11)(_zero_std(blob)), "variable 'var0': std must be > 0"),
        ],
        ids=[
            "bad-magic", "truncated-header", "truncated-payload", "trailing-bytes", "non-utf8-name",
            "dimension-overflow", "nan-before-window", "nan-in-window", "nan-after-window",
            "zero-std-and-nan",
        ],
    )
    def test_windowed_read_fails_as_a_full_read(self, tmp_path, damage, message):
        path = tmp_path / "x.pyld"
        grid.write_fields(make_batch(t=12), path)
        path.write_bytes(damage(path.read_bytes()))
        errors = []
        for keep in (None, lambda t: WINDOW):
            with pytest.raises(FormatError) as info:
                grid.read_fields(path, keep)
            errors.append((str(info.value), info.value.offset))
        assert message in errors[0][0]
        assert errors[0] == errors[1]


class TestWriteFile:
    def test_writer_that_raises_midway_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "x.pyld"
        old = make_batch(seed=1)
        grid.write_fields(old, path)
        before = path.read_bytes()
        # A name that cannot be encoded fails after the header is written.
        bad_spec = dataclasses.replace(old.specs[0], name="\ud800")
        bad = dataclasses.replace(old, specs=(bad_spec, *old.specs[1:]))
        with pytest.raises(UnicodeEncodeError):
            grid.write_fields(bad, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["x.pyld"]

    def test_replaces_a_longer_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old contents, longer than the new")
        with grid.write_file(path) as fh:
            fh.write("new")
        assert path.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.txt"]


def peak_bytes(fn, *args):
    """``fn(*args)`` and the peak bytes it allocated; tracemalloc sees numpy's buffers too."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakAllocation:
    # Room for the interpreter's own small objects (the file object and its
    # read buffer, header records, specs); far below any array in these tests.
    SMALL = 64 * 1024

    def test_read_fields_holds_the_payload_once(self, tmp_path):
        b = make_batch(t=32, v=4, h=32, w=64)
        path = tmp_path / "x.pyld"
        grid.write_fields(b, path)
        back, peak = peak_bytes(grid.read_fields, path)
        np.testing.assert_array_equal(back.data, b.data)
        # The file's bytes, read once, and the FieldBatch finiteness check's
        # bool mask of one frame (one byte per value). A copy of the payload
        # would add 4 bytes per value.
        assert peak <= path.stat().st_size + b.data[0].size + self.SMALL

    def test_windowed_read_holds_the_window_and_one_frame(self, tmp_path):
        peaks = []
        for t in (40, 80):
            b = make_batch(t=t, v=4, h=32, w=64)
            path = tmp_path / f"x{t}.pyld"
            grid.write_fields(b, path)
            back, peak = peak_bytes(grid.read_fields, path, lambda n: slice(20, 25))
            np.testing.assert_array_equal(back.data, b.data[20:25])
            # The five frames held, the spare frame that every other frame is
            # read into, and the finiteness check's bool mask of one frame.
            frame = b.data[0]
            assert peak <= 5 * frame.nbytes + frame.nbytes + frame.size + self.SMALL
            peaks.append(peak)
        # Twice the frames cost nothing more: the peaks differ only by the
        # interpreter's small objects, far less than a frame (32 KiB here).
        assert abs(peaks[1] - peaks[0]) <= 4096

    def test_split_dataset_works_one_variable_at_a_time(self):
        train, k = 24, 2
        b = grid.gen_synthetic(seed=3, h=32, w=64, v=4, t=train + k + 4)
        def split_and_fit():
            bundle = pipeline.split_dataset(b, train, k)
            return bundle.state_specs, bundle.resid_specs

        _, peak = peak_bytes(split_and_fit)
        # The split only slices (views), so the peak is the fits':
        # residual_specs holds one variable's float64 difference stack and the
        # centred copy that its std makes; the state std's centred copy is one
        # frame larger. A float64 copy of the whole slice is 2V/3 stacks on its
        # own (V = 4).
        stack = 8 * (train - 1) * 32 * 64
        assert peak <= 3 * stack
