"""Gridded multivariate fields: data model, standardization, residuals, synthetic data, file I/O.

Fields live on an equiangular lat-lon grid (periodic longitude, bounded
latitude) and are stored as float32 with shape (time, variable, lat, lon).

The model learns residuals: x_t is the base of the residual x_{t+1} - x_t.
``residual`` takes it for the statistics, the training frames and a member's
first latent, and every rollout step integrates with its inverse ``next_state``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import ConfigError, DomainError, FormatError

MAGIC_FIELDS = b"PYLD0001"

# Largest axis product of a dataset: read_fields refuses larger files, which
# guards against corrupted headers allocating absurd arrays, and the config
# refuses a larger data section.
MAX_ELEMENTS = 1 << 31


@dataclass(frozen=True)
class VariableSpec:
    """Per-variable metadata: identity, climatological stats, loss weight."""

    name: str
    mean: float
    std: float
    loss_weight: float = 1.0
    level: float | None = None

    def __post_init__(self):
        if not self.name:
            raise ConfigError("variable name must be non-empty")
        if not (self.std > 0):
            raise ConfigError(f"variable {self.name!r}: std must be > 0, got {self.std}")
        if self.loss_weight < 0:
            raise ConfigError(f"variable {self.name!r}: loss_weight must be >= 0")


@dataclass(frozen=True)
class FieldBatch:
    """A stack of multivariate gridded states, shape (T, V, H, W)."""

    data: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    specs: tuple[VariableSpec, ...]

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        lat = np.asarray(self.lat, dtype=np.float64)
        lon = np.asarray(self.lon, dtype=np.float64)
        specs = tuple(self.specs)
        if data.ndim != 4:
            raise DomainError(f"field data must be 4-axis (T,V,H,W), got shape {data.shape}")
        t, v, h, w = data.shape
        if lat.shape != (h,) or lon.shape != (w,):
            raise DomainError(
                f"lat/lon shapes {lat.shape}/{lon.shape} do not match grid ({h},{w})"
            )
        if len(specs) != v:
            raise ConfigError(f"{len(specs)} specs for {v} variables")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigError("variable names must be unique")
        if np.any(np.abs(lat) > 90.0):
            raise DomainError("latitudes must lie in [-90, 90]")
        d = np.diff(lat)
        if lat.size > 1 and not (np.all(d > 0) or np.all(d < 0)):
            raise DomainError("latitudes must be strictly monotone")
        check_finite(data)
        for arr in (data, lat, lon):
            arr.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "lat", lat)
        object.__setattr__(self, "lon", lon)
        object.__setattr__(self, "specs", specs)

    @property
    def shape(self):
        return self.data.shape


def check_finite(frames) -> None:
    """A DomainError unless every value of ``frames`` is finite.

    Frame by frame: the mask is one frame's, not the whole batch's.
    """
    if not all(np.isfinite(frame).all() for frame in frames):
        raise DomainError("field data contains non-finite values")


def lat_weights(lat) -> np.ndarray:
    """Read-only cosine-of-latitude area weights with exact unit mean."""
    lat = np.asarray(lat, dtype=np.float64)
    if lat.size == 0:
        raise DomainError("latitude list must be non-empty")
    if np.any(np.abs(lat) > 90.0):
        raise DomainError("latitudes must lie in [-90, 90]")
    c = np.cos(np.deg2rad(lat))
    w = c / c.mean()
    w.setflags(write=False)
    return w


def _spec_stats(a: np.ndarray, specs):
    if len(specs) != a.shape[-3]:
        raise ConfigError(f"{len(specs)} specs cannot standardize {a.shape[-3]} variables")
    mean = np.array([s.mean for s in specs], dtype=a.dtype)[:, None, None]
    std = np.array([s.std for s in specs], dtype=a.dtype)[:, None, None]
    return mean, std


def standardize_array(a: np.ndarray, specs, out=None) -> np.ndarray:
    """Per-variable (a - mean) / std for (..., V, H, W) data, in ``a``'s dtype.

    The result is written into ``out``, which may be ``a`` itself, or into a
    new array where ``out`` is not given. Either way the subtraction and the
    division share that one array, so no other temporary of ``a``'s size is
    made.
    """
    mean, std = _spec_stats(a, specs)
    if out is None:
        out = np.empty(a.shape, mean.dtype)
    np.subtract(a, mean, out=out)
    return np.divide(out, std, out=out)


def destandardize_array(a: np.ndarray, specs) -> np.ndarray:
    """Inverse of :func:`standardize_array`."""
    mean, std = _spec_stats(a, specs)
    return a * std + mean


def fit_specs(specs, columns) -> tuple[VariableSpec, ...]:
    """``specs`` with the float64 mean and std of each variable's array in ``columns``.

    The std has a floor, so that a constant variable still standardizes.
    """
    return tuple(
        dataclasses.replace(
            s,
            mean=float(x.mean(dtype=np.float64)),
            std=max(float(x.std(dtype=np.float64)), 1e-12),
        )
        for s, x in zip(specs, columns)
    )


def residual(states: np.ndarray, dtype) -> np.ndarray:
    """Row t is x_{t+1} - x_t, for the states along axis 0 of ``states``, taken in ``dtype``."""
    return np.subtract(states[1:], states[:-1], dtype=dtype)


def standardized_residuals(states: np.ndarray, specs) -> np.ndarray:
    """The float32 residuals of consecutive (T, V, H, W) ``states``, standardized by ``specs``.

    The fresh residual array is standardized in place, so it is the only
    array of the result's size that is made.
    """
    resid = residual(states, np.float32)
    return standardize_array(resid, specs, resid)


def next_state(x: np.ndarray, resid_std: np.ndarray, specs) -> np.ndarray:
    """The state after ``x`` whose standardized residual is ``resid_std``: x + the raw residual."""
    return x + destandardize_array(resid_std, specs)


def residual_specs(data: np.ndarray, specs) -> tuple[VariableSpec, ...]:
    """Per-variable statistics of the residuals of consecutive (T, V, H, W) ``data``.

    The residual mean/std are computed from the data itself (not the state
    climatology), which is what residual standardization must use. They are
    taken in float64 one variable at a time, so the largest temporary is one
    variable's (T-1, H, W) float64 residual stack, not the whole slice's.
    """
    if data.shape[0] < 2:
        raise DomainError("need at least two time steps for residual statistics")
    return fit_specs(specs, (residual(column, np.float64) for column in data.swapaxes(0, 1)))


def default_grid(h: int, w: int):
    """Equiangular lat/lon vectors: lat cell centers, periodic lon."""
    lat = -90.0 + (np.arange(h) + 0.5) * (180.0 / h)
    lon = np.arange(w) * (360.0 / w)
    return lat, lon


def gen_synthetic(
    seed: int,
    h: int = 64,
    w: int = 128,
    v: int = 8,
    t: int = 32,
    spectral_slopes=None,
    advection=None,
    forcing: float = 0.1,
) -> FieldBatch:
    """Synthetic multivariate dataset with per-variable spectral slopes.

    Each variable starts as a Gaussian random field whose radial amplitude
    spectrum follows ``(r + r0)^(-slope)`` and evolves by periodic integer
    advection plus small stochastic forcing with the same spectrum.
    Deterministic given ``seed``.

    The variables are made one at a time: each is built in float64 in one
    (T, H, W) column, its spec is fitted on that column, and it is written
    into the float32 dataset, so no (T, V, H, W) float64 array is made. The
    column's frame stride is what a variable of such an array would have
    had: numpy sums a column whose frames are contiguous with one another
    in another order than one whose frames are not, so the fitted means
    would differ in their last bits. With one variable the frames are
    contiguous; with more, the column's rows are one element longer than a
    frame.
    """
    if h < 8 or w < 8:
        raise DomainError("grid must be at least 8x8")
    slopes = np.asarray(
        spectral_slopes if spectral_slopes is not None else np.linspace(1.0, 3.5, v),
        dtype=np.float64,
    )
    if slopes.shape != (v,) or not np.all(np.isfinite(slopes)):
        raise DomainError("spectral_slopes must be V finite values")
    if advection is None:
        advection = [((i % 3) - 1, 1 + (i % 4)) for i in range(v)]
    advection = [(int(dy), int(dx)) for dy, dx in advection]
    if len(advection) != v:
        raise DomainError("advection must give one (dy, dx) velocity per variable")

    rng = np.random.default_rng(seed)
    r = spectral.normalized_radius(h, w)
    r0 = 2.0 / max(h, w)
    data = np.empty((t, v, h, w), dtype=np.float32)
    column = np.empty((t, h * w + (v > 1)))[:, : h * w].reshape(t, h, w)
    specs = []

    def grf(amp):
        z = rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))
        f = np.fft.ifft2(amp * z).real
        f -= f.mean()
        s = f.std()
        return f / s if s > 0 else f

    for j in range(v):
        amp = (r + r0) ** (-slopes[j])
        cur = grf(amp)
        column[0] = cur
        for i in range(1, t):
            cur = np.roll(cur, shift=advection[j], axis=(0, 1))
            if forcing > 0:
                cur = cur + forcing * grf(amp)
            column[i] = cur
        specs += fit_specs((VariableSpec(name=f"var{j}", mean=0.0, std=1.0),), (column,))
        data[:, j] = column

    lat, lon = default_grid(h, w)
    return FieldBatch(data=data, lat=lat, lon=lon, specs=specs)


# ---------------------------------------------------------------------------
# Input files: one rule for a missing, unreadable or malformed file.
# ---------------------------------------------------------------------------


def read_file(path, read, missing: str):
    """``read(path)``, under the one rule for an input file that is not as expected.

    A missing file is a ConfigError saying ``missing``. A file that cannot be
    read (a directory in its place, say) or that ``read`` finds malformed is a
    FormatError naming ``path``.
    """
    if not os.path.exists(path):
        raise ConfigError(missing)
    try:
        return read(path)
    except OSError as exc:
        raise FormatError(f"{path}: cannot read it: {exc.strerror or exc}") from exc
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


@contextlib.contextmanager
def write_file(path, mode: str = "w", **kwargs):
    """Open a fresh file to write; when the block ends it takes ``path``'s name.

    The block writes a temp file in ``path``'s directory, opened with
    ``mode`` ("w" or "wb") and ``open``'s other arguments. When the block
    ends, the old file is unlinked and the temp file renamed onto the name
    that is now free. When it raises, the temp file is removed and ``path``
    keeps its old bytes. The old file is never truncated in place: on some
    filesystems that costs tens of milliseconds whatever its size, where an
    unlink and a new file cost a fraction of one.
    """
    path = os.fspath(path)
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: a directory holds its name")
    name = f".{os.path.basename(path)}.{os.getpid()}.{threading.get_ident()}.tmp"
    tmp = os.path.join(os.path.dirname(path), name)
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        os.rename(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def make_dir(path) -> None:
    """``os.makedirs(path)`` unless it exists; a file in the way is a ConfigError naming ``path``."""
    try:
        os.makedirs(path, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"cannot make directory {path}: {exc.strerror}") from None


def read_json(path):
    """The JSON value in ``path``; a file that is not JSON is a FormatError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on non-UTF-8 bytes
            raise FormatError(f"is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# PYLD1 container: magic, u32 dims, variable records, axes, f32 payload.
# ---------------------------------------------------------------------------


def write_fields(x: FieldBatch, path) -> None:
    t, v, h, w = x.data.shape
    with write_file(path, "wb") as fh:
        fh.write(MAGIC_FIELDS + struct.pack("<4I", t, v, h, w))
        for s in x.specs:
            name = s.name.encode("utf-8")
            level = math.nan if s.level is None else float(s.level)
            fh.write(struct.pack("<H", len(name)) + name)
            fh.write(struct.pack("<4d", s.mean, s.std, s.loss_weight, level))
        for arr, dtype in ((x.lat, "<f8"), (x.lon, "<f8"), (x.data, "<f4")):
            fh.write(np.ascontiguousarray(arr, dtype=dtype))


class Cursor:
    """Reads a binary file front to back; a read past its end is a FormatError.

    The file's size is taken when the cursor opens, so a read that would
    run past the end is refused before it is made.
    """

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0

    def need(self, n, what):
        """A FormatError naming ``what`` unless ``n`` more bytes follow."""
        if self.pos + n > self.size:
            missing = self.pos + n - self.size
            raise FormatError(f"truncated {what}: need {missing} more bytes", self.pos)

    def take(self, n, what):
        """The next ``n`` bytes."""
        self.need(n, what)
        self.pos += n
        return self.fh.read(n)


def read_fields(path, keep=None, out=None) -> FieldBatch:
    """The batch ``write_fields`` wrote to ``path``, or the frames of it that ``keep`` asks for.

    The file is streamed. Its header is read and checked first, and the
    payload's length against the file's size; then the payload is read one
    frame at a time. Every frame is read and checked for finiteness, but only
    the frames of ``range(T)[keep(T)]`` are held, for the file's T frames:
    ``keep`` returns a slice, sees T before any frame is read and may raise
    on it. A frame that is not held is read into one spare frame. Without
    ``keep`` every frame is held, in one array, so a full read holds the
    payload once. That array is ``out`` where ``out`` is given with the
    held frames' (T, V, H, W) shape (and float32 dtype), a new one where not.
    The returned data, lat and lon are read-only.

    A malformed file is a FormatError, in the file's order: the header's
    values and axes are checked before the payload's.
    """
    with open(path, "rb") as fh:
        cur = Cursor(fh)
        magic = cur.take(8, "magic")
        if magic != MAGIC_FIELDS:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC_FIELDS!r}", 0)
        t, v, h, w = struct.unpack("<4I", cur.take(16, "header"))
        if t * v * h * w > MAX_ELEMENTS or min(t, v, h, w) == 0:
            raise FormatError(f"unreasonable dimensions (T={t}, V={v}, H={h}, W={w})", 8)
        records = []
        for _ in range(v):
            (nlen,) = struct.unpack("<H", cur.take(2, "header (variable record)"))
            offset = cur.pos
            try:
                name = cur.take(nlen, "header (variable name)").decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError("variable name is not valid UTF-8", offset) from None
            stats = struct.unpack("<4d", cur.take(32, "header (variable stats)"))
            records.append((name, *stats))
        lat = np.frombuffer(cur.take(8 * h, "latitude axis"), dtype="<f8")
        lon = np.frombuffer(cur.take(8 * w, "longitude axis"), dtype="<f8")
        cur.need(4 * t * v * h * w, "payload")
        end = cur.pos + 4 * t * v * h * w
        if end != cur.size:
            raise FormatError(f"{cur.size - end} trailing bytes after payload", end)
        # Header values or a payload that the data model rejects are a bad
        # file. A batch of no frames checks the header before any frame.
        try:
            specs = tuple(
                VariableSpec(name, mean, std, lw, None if math.isnan(level) else level)
                for name, mean, std, lw, level in records
            )
            FieldBatch(data=np.empty((0, v, h, w), np.float32), lat=lat, lon=lon, specs=specs)
        except (ConfigError, DomainError) as exc:
            raise FormatError(str(exc)) from exc
        kept = range(t) if keep is None else range(t)[keep(t)]
        shape = (len(kept), v, h, w)
        if out is not None and out.shape == shape and out.dtype == np.float32:
            data = out
        else:
            data = np.empty(shape, np.float32)
        spare = np.empty((v, h, w), np.float32) if len(kept) < t else None
        try:
            for i in range(t):
                frame = data[kept.index(i)] if i in kept else spare
                fh.readinto(frame)
                if frame is spare:
                    check_finite((spare,))
            # The held frames are checked here, so each frame is checked once.
            return FieldBatch(data=data, lat=lat, lon=lon, specs=specs)
        except DomainError as exc:
            raise FormatError(str(exc)) from exc
