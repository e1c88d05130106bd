"""On-disk matrix cache, keyed by (source hash, kind, level).

Files are plain text: a header tagged with the format line
``btlab-matrix 2``, then a checksummed block with one line ``j k re im`` per
nonzero entry of the exact kernel, where ``re`` and ``im`` are ``Fraction``
strings, ``n`` or ``n/d``, which a load parses with ``int``.  A load
rebuilds the matrix from that kernel exactly as a fresh assembly does, so a
hit is the same matrix: an equal kernel and bit-equal floats.  Only a
matrix with an exact kernel can be stored.  Any header, checksum, count or
index mismatch, a malformed value, or a file in an older format raises
CacheCorruption; callers recompute and overwrite.
"""

from __future__ import annotations

import hashlib
import os
from fractions import Fraction
from pathlib import Path

from .errors import CacheCorruption
from .exact import QC
from .operators import OperatorMatrix, from_kernel
from .symbols import ChartRational

CACHE_ENV = "BTLAB_CACHE_DIR"
_MAGIC = "btlab-matrix 2"


def _rational(text: str) -> Fraction:
    """An ``n`` or ``n/d`` value, as the writer prints a ``Fraction``, parsed with ``int``;
    anything else, a zero or signed denominator included, raises."""
    num, slash, den = text.partition("/")
    if slash and not den.isdigit():
        raise ValueError(f"bad denominator in {text!r}")
    return Fraction(int(num), int(den)) if slash else Fraction(int(num))


def default_cache_root() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "btlab"


def symbol_hash(f: ChartRational) -> str:
    """Stable content hash of a symbol's canonical representation."""
    parts = [f"R={f.denom_exp}"]
    for (a, b), c in sorted(f.terms.items()):
        parts.append(f"{a},{b}:{c.re}:{c.im}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()


class MatrixCache:
    def __init__(self, root: Path | None = None):
        self.root = Path(root) if root is not None else default_cache_root()

    def path_for(self, source: str, kind: str, m: int) -> Path:
        return self.root / f"{kind}-m{m}-{source[:32]}.mat"

    def store(self, mat: OperatorMatrix, source: str, kind: str) -> Path:
        if mat.kernel is None:
            raise ValueError(f"cannot cache a level-{mat.m} matrix with no exact kernel")
        self.root.mkdir(parents=True, exist_ok=True)
        block = "\n".join(f"{j} {k} {v.re} {v.im}" for (j, k), v in sorted(mat.kernel.items()))
        checksum = hashlib.sha256(block.encode()).hexdigest()
        header = "\n".join(
            [
                _MAGIC,
                f"kind {kind}",
                f"m {mat.m}",
                f"source {source}",
                f"checksum {checksum}",
                f"entries {len(mat.kernel)}",
            ]
        )
        path = self.path_for(source, kind, mat.m)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(header + "\n" + block + "\n")
        os.replace(tmp, path)
        return path

    def load(self, source: str, kind: str, m: int) -> OperatorMatrix | None:
        """The cached matrix, or None on a cache miss."""
        path = self.path_for(source, kind, m)
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
            count = int(lines[5].split()[1])
            expected = {"kind": kind, "m": str(m), "source": source}
            for key, want in expected.items():
                if header.get(key) != want:
                    raise CacheCorruption(f"{path}: header {key} mismatch")
            block = "\n".join(lines[6 : 6 + count])
            if hashlib.sha256(block.encode()).hexdigest() != header.get("checksum"):
                raise CacheCorruption(f"{path}: checksum mismatch")
            kernel = {}
            for line in block.splitlines():
                j_s, k_s, re_s, im_s = line.split()
                j, k = int(j_s), int(k_s)
                if not (0 <= j <= m and 0 <= k <= m):
                    raise CacheCorruption(f"{path}: index ({j}, {k}) out of range for level {m}")
                kernel[j, k] = QC(_rational(re_s), _rational(im_s))
            if len(kernel) != count:
                raise CacheCorruption(f"{path}: entry count mismatch")
        except CacheCorruption:
            raise
        except Exception as exc:
            raise CacheCorruption(f"{path}: unreadable ({exc})") from exc
        return from_kernel(kernel, m)

    def clear(self) -> int:
        if not self.root.exists():
            return 0
        removed = 0
        for path in self.root.glob("*.mat"):
            path.unlink()
            removed += 1
        return removed
