"""Dense row-major matrix I/O, synthetic datasets, and the package's CSV rows and random streams.

Matrices are plain float64 C-contiguous 2-D numpy arrays throughout the
package; :func:`as_matrix` is the single validation/coercion point. The
sketched and exact pipelines take only its shape check, and prove their input
finite from its sketch (see :mod:`levsketch.leverage`).

Binary format: little-endian header ``{magic "LVSK", version u32, n u64,
d u64}`` followed by ``n*d`` IEEE-754 doubles, row-major. CSV: one row per
line, comma-separated, no header by default.
"""

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import _integer, ensure_capacity, mem_cap
from .errors import ConfigurationError, FormatError, ParseError

MAGIC = b"LVSK"
BINARY_VERSION = 1
_HEADER = struct.Struct("<4sIQQ")

# The counter-based generator of every random stream in the package (Salmon
# et al., SC 2011), each built by :func:`philox`; recorded in output metadata
# so runs can be reproduced.
GENERATOR_NAME = "philox4x64"
_SYNTH_STREAM = 0x5D47


def philox(*key: int, counter: int = 0) -> np.random.Generator:
    """The Philox stream keyed by ``key`` (a stream constant, then its seeds),
    from counter block ``counter`` on; a block gives eight 32-bit draws."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key), counter=counter))


def as_matrix(obj, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 C-contiguous 2-D array or raise."""
    a = _float_matrix(obj, name)
    if not _all_finite(a):
        raise FormatError(f"{name} contains non-finite entries")
    return a


def _float_matrix(obj, name: str = "matrix") -> np.ndarray:
    """Coerce to a non-empty float64 C-contiguous 2-D array or raise; the
    entries are not read."""
    a = np.ascontiguousarray(obj, dtype=np.float64)
    if a.ndim != 2:
        raise FormatError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise FormatError(f"{name} must be non-empty, got shape {a.shape}")
    return a


# The finiteness scan reads blocks of rows of about this many entries, so
# its mask stays about this many bytes.
_SCAN_ENTRIES = 1 << 16


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the 2-D array ``a`` is finite: a scan entry by
    entry, one block of rows at a time, that stops at the first block holding
    a non-finite entry."""
    step = max(1, _SCAN_ENTRIES // a.shape[1])
    return all(np.isfinite(a[lo : lo + step]).all() for lo in range(0, a.shape[0], step))


@dataclass(frozen=True)
class SyntheticSpec:
    """Low-rank-plus-noise dataset: ``A = G1 @ G2 + noise_sigma * N`` with
    ``G1`` (n x rank), ``G2`` (rank x d) and ``N`` (n x d) i.i.d. standard
    normal. ``noise_sigma=0`` gives a matrix of column rank exactly ``rank``."""

    n: int
    d: int
    rank: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n", 1), ("d", 1), ("rank", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        if self.rank > self.d:
            raise ConfigurationError(f"rank must satisfy 1 <= rank <= d, got rank={self.rank}, d={self.d}")
        if not 0 <= self.noise_sigma < np.inf:
            raise ConfigurationError(f"noise_sigma must be finite and nonnegative, got {self.noise_sigma}")


def gen_synthetic(spec: SyntheticSpec) -> np.ndarray:
    """Generate the dataset described by ``spec``; deterministic given its seed.

    Checked against the memory cap before the first draw, counting G1, G2, A,
    the noise draw and the finiteness check's mask as if all were held at
    once: ``8*((n + d)*rank + 2*n*d) + min(n*d, _SCAN_ENTRIES + d)`` bytes.
    The check masks one block of rows of at most ``max(_SCAN_ENTRIES, d)``
    entries.
    """
    n, d, rank = spec.n, spec.d, spec.rank
    ensure_capacity(8 * ((n + d) * rank + 2 * n * d) + min(n * d, _SCAN_ENTRIES + d), f"synthetic {n}x{d} matrix")
    rng = philox(_SYNTH_STREAM, spec.seed)
    a = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))  # G1 drawn first
    if spec.noise_sigma > 0:
        noise = rng.standard_normal((n, d))
        noise *= spec.noise_sigma  # in place: no scaled copy of the draw
        a += noise
    return as_matrix(a, "synthetic matrix")


def save_matrix(m: np.ndarray, path, format: str = "binary") -> None:
    """Write a matrix. Binary round-trips bit-exactly; CSV uses %.17g which
    also round-trips float64 exactly."""
    m = as_matrix(m)
    path = Path(path)
    if format == "binary":
        with open(path, "wb") as f:
            f.write(_HEADER.pack(MAGIC, BINARY_VERSION, m.shape[0], m.shape[1]))
            f.write(m.astype("<f8", copy=False).data)  # the buffer itself, not a bytes copy of it
    elif format == "csv":
        with open(path, "w") as f:
            write_rows(f, *m.T)
    else:
        raise ConfigurationError(f"unknown matrix format {format!r}")


# The text spelling of a float64 in every CSV this package writes; 17
# significant digits round-trip any float64 exactly.
FLOAT_FORMAT = "%.17g"
# write_rows formats about this many values per write, in one pass of % that
# holds a Python object per value, so the block stays small.
_VALUES_PER_WRITE = 4096


def write_rows(f, *columns, index: bool = False) -> None:
    """Write one CSV line per row of the equal-length 1-D ``columns``: each
    value in :data:`FLOAT_FORMAT`, after the row's index if ``index``."""
    line = ("%d," if index else "") + ",".join([FLOAT_FORMAT] * len(columns)) + "\n"
    step = max(1, _VALUES_PER_WRITE // len(columns))
    for start in range(0, len(columns[0]), step):
        cells = [c[start : start + step].tolist() for c in columns]
        if index:
            cells.insert(0, range(start, start + step))  # zip stops at the block's end
        f.write("".join(map(line.__mod__, zip(*cells))))


def text_lines(path):
    """The lines of a UTF-8 text file, read one at a time; FormatError if the
    file is not UTF-8."""
    with open(path, encoding="utf-8") as f:
        try:
            yield from f
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from None


def write_json(path, payload: dict) -> None:
    """Write a JSON sidecar: keys sorted, two-space indent, final newline."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def load_matrix(path, format: str | None = None, header: bool = False) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix` (or any conforming file),
    and refuse one holding a non-finite entry.

    The memory cap is checked against the header's n x d before a binary
    payload is read, and against the rows parsed so far while a CSV file is
    read.

    Parameters
    ----------
    path : file path
    format : "csv", "binary", or None: binary if the file starts with the magic, else CSV
    header : for CSV, skip one leading header line
    """
    a = _read_matrix(path, format, header)
    if not _all_finite(a):
        raise FormatError(f"{Path(path)} contains non-finite entries")
    return a


def _read_matrix(path, format: str | None = None, header: bool = False) -> np.ndarray:
    """:func:`load_matrix` without the finiteness check, for a caller that
    proves its input finite on the way (the sketched and exact pipelines)."""
    path = Path(path)
    if format is None:
        with open(path, "rb") as f:
            format = "binary" if f.read(len(MAGIC)) == MAGIC else "csv"
    if format == "binary":
        return _load_binary(path)
    if format == "csv":
        return _load_csv(path, header)
    raise ConfigurationError(f"unknown matrix format {format!r}")


def _load_binary(path: Path) -> np.ndarray:
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, n, d = _HEADER.unpack(head)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != BINARY_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        ensure_capacity(8 * n * d, f"{path}: {n}x{d} matrix")
        data = np.fromfile(f, dtype="<f8", count=n * d)
    if data.size != n * d:
        raise FormatError(f"{path}: expected {n * d} values, found {data.size}")
    return _float_matrix(data.reshape(n, d), str(path))


def _load_csv(path: Path, header: bool) -> np.ndarray:
    limit = mem_cap()  # read once, not per row
    rows = []
    width = None
    for lineno, line in enumerate(text_lines(path), start=1):
        if header and lineno == 1:
            continue
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise FormatError(
                f"{path}: ragged row at line {lineno}: expected {width} fields, got {len(fields)}"
            )
        # per value a Python float, its list slot and its place in the
        # final float64 array; per row a list header and its slot
        need = (len(rows) + 1) * (40 * width + 64)
        if need > limit:
            ensure_capacity(need, f"{path}: CSV rows parsed")
        try:
            rows.append([float(v) for v in fields])
        except ValueError:
            for col, v in enumerate(fields):
                try:
                    float(v)
                except ValueError:
                    raise ParseError(
                        f"{path}: non-numeric field {v!r} at line {lineno}, column {col + 1}"
                    ) from None
            raise
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return _float_matrix(np.array(rows, dtype=np.float64), str(path))
