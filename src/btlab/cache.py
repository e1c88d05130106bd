"""On-disk matrix cache, keyed by (symbol, kind, level); ``symbol_hash`` names the files.

Files are plain text: a header tagged with the format line
``btlab-matrix 4``, then a checksummed block holding the exact ``Kernel``:
a line ``den D`` with its one positive denominator, then one line
``d n re im`` per nonzero diagonal d = j - k, in increasing d, where n is the
number of cells it stores and ``re`` and ``im`` are the Newton columns of its
real and imaginary parts, comma-separated ints (``0`` for a zero part).  Along a
diagonal of T_f or Q_f every entry is a polynomial of degree at most R in the
cell index, so a column has at most R + 1 ints and a file has the same size at
every level; any other kernel is stored exactly too, with longer columns.
A load parses every value with ``int``, extends each column to its n cells and
rebuilds the matrix from that kernel exactly as a fresh assembly does, so a hit
is the same matrix: an equal kernel and bit-equal floats.  Any header,
checksum or diagonal-count mismatch, a diagonal out of range for the level or
given twice, a malformed value, a column longer than its diagonal, a kernel
not in lowest terms or with a trailing zero cell, or a file in an older format
raises CacheCorruption; callers recompute and overwrite.
Only a process that looks up or stores a file imports ``hashlib`` (``_sha256_hex``).
A store writes a temp file of its own and renames it into place, so
processes that store one key at once leave one whole file; a store that
fails removes its temp file, and ``clear`` removes those that a killed
writer left.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import CacheCorruption
from .operators import Kernel, OperatorMatrix, newton_cells, newton_column
from .symbols import CanonicalSymbol

CACHE_ENV = "BTLAB_CACHE_DIR"
_MAGIC = "btlab-matrix 4"


def default_cache_root() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "btlab"


def _sha256_hex(text: str) -> str:
    import hashlib  # here, off the common path: it loads OpenSSL (3.5 MiB), which a run with no disk cache never needs

    return hashlib.sha256(text.encode()).hexdigest()


def symbol_hash(f: CanonicalSymbol) -> str:
    """Stable content hash of a symbol's canonical representation."""
    parts = [f"R={f.denom_exp}", f"den={f.den}"]
    parts += (f"{a},{b}:{re}:{im}" for (a, b), (re, im) in sorted(f.nums.items()))
    return _sha256_hex(";".join(parts))


class MatrixCache:
    def __init__(self, root: Path | None = None):
        self.root = Path(root) if root is not None else default_cache_root()

    def path_for(self, f: CanonicalSymbol, kind: str, m: int) -> Path:
        return self.root / f"{kind}-m{m}-{symbol_hash(f)[:32]}.mat"

    def store(self, mat: OperatorMatrix, f: CanonicalSymbol, kind: str) -> Path:
        """Write the matrix of symbol f under its kind and level; the path of the file."""
        self.root.mkdir(parents=True, exist_ok=True)
        lines = [f"{d} {len(cells)} {_column(cells, 0)} {_column(cells, 1)}" for d, cells in mat.kernel.diags]
        block = "\n".join([f"den {mat.kernel.den}", *lines])
        checksum = _sha256_hex(block)
        header = "\n".join(
            [
                _MAGIC,
                f"kind {kind}",
                f"m {mat.m}",
                f"source {symbol_hash(f)}",
                f"checksum {checksum}",
                f"diagonals {len(lines)}",
            ]
        )
        path = self.path_for(f, kind, mat.m)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")  # one per writer: processes may store one key at once
        try:
            tmp.write_text(header + "\n" + block + "\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    def load(self, f: CanonicalSymbol, kind: str, m: int) -> OperatorMatrix | None:
        """The cached matrix of symbol f, kind and level m, or None on a cache miss."""
        path = self.path_for(f, kind, m)
        if not path.exists():
            return None
        try:
            lines = path.read_text().splitlines()
            if lines[0] != _MAGIC:
                raise CacheCorruption(f"{path}: bad magic line")
            header = {}
            for line in lines[1:5]:
                key, _, value = line.partition(" ")
                header[key] = value
            expected = {"kind": kind, "m": str(m), "source": symbol_hash(f)}
            for key, want in expected.items():
                if header.get(key) != want:
                    raise CacheCorruption(f"{path}: header {key} mismatch")
            block = "\n".join(lines[6:])
            if _sha256_hex(block) != header.get("checksum"):
                raise CacheCorruption(f"{path}: checksum mismatch")
            if len(lines) != 7 + int(lines[5].split()[1]):
                raise CacheCorruption(f"{path}: diagonal count mismatch")
            tag, den = lines[6].split()
            if tag != "den":
                raise CacheCorruption(f"{path}: no den line")
            den, diags = int(den), {}
            for line in lines[7:]:
                d, n, re, im = line.split(" ")
                d, n = int(d), int(n)
                if not (abs(d) <= m and 1 <= n <= m + 1 - abs(d)):
                    raise CacheCorruption(f"{path}: diagonal {d} of {n} cells out of range for level {m}")
                if d in diags:
                    raise CacheCorruption(f"{path}: diagonal {d} given twice")
                re, im = ([int(v) for v in column.split(",")] for column in (re, im))
                if max(len(re), len(im)) > n:
                    raise CacheCorruption(f"{path}: diagonal {d} has a column longer than its {n} cells")
                diags[d] = list(zip(newton_cells(re, n), newton_cells(im, n)))
            kernel = Kernel(den, diags)
            if kernel.den != den or [len(cells) for cells in kernel] != [len(diags[d]) for d in sorted(diags)]:
                raise CacheCorruption(f"{path}: kernel not in lowest terms, or a diagonal ends in a zero cell")
        except CacheCorruption:
            raise
        except Exception as exc:
            raise CacheCorruption(f"{path}: unreadable ({exc})") from exc
        return OperatorMatrix(m, kernel)

    def clear(self) -> int:
        """Remove every cached matrix and every temp file a killed writer left; the number of matrices removed.
        A store into this cache at the same time may lose its temp file and raise."""
        if not self.root.exists():
            return 0
        removed = 0
        for path in self.root.glob("*.mat"):
            path.unlink()
            removed += 1
        for path in self.root.glob("*.mat.*.tmp"):
            path.unlink(missing_ok=True)  # a live writer may rename it first
        return removed


def _column(cells, part: int) -> str:
    """The Newton column of one part (0 for re, 1 for im) of a diagonal's cells, comma-separated, or ``0``
    when that part is zero."""
    return ",".join(map(str, newton_column(cell[part] for cell in cells))) or "0"
