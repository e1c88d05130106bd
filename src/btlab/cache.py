"""On-disk matrix cache, keyed by (source hash, kind, level).

Files are plain text: a header tagged with the format line
``btlab-matrix 3``, then a checksummed block holding the exact ``Kernel``:
a line ``den d`` with its one positive denominator, then one line
``j k re im`` of plain ints per nonzero entry, in lowest terms.  A load
parses every value with ``int`` and rebuilds the matrix from that kernel
exactly as a fresh assembly does, so a hit is the same matrix: an equal
kernel and bit-equal floats.  Only a matrix with an exact kernel can be
stored.  Any header, checksum, count or index mismatch, a malformed value,
a kernel not in lowest terms or holding an explicit zero entry, or a file
in an older format raises CacheCorruption; callers recompute and overwrite.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from .errors import CacheCorruption
from .operators import Kernel, OperatorMatrix, from_kernel
from .symbols import ChartRational

CACHE_ENV = "BTLAB_CACHE_DIR"
_MAGIC = "btlab-matrix 3"


def default_cache_root() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "btlab"


def symbol_hash(f: ChartRational) -> str:
    """Stable content hash of a symbol's canonical representation."""
    parts = [f"R={f.denom_exp}", f"den={f.den}"]
    parts += (f"{a},{b}:{re}:{im}" for (a, b), (re, im) in sorted(f.nums.items()))
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
        entries = (f"{j} {k} {re} {im}" for (j, k), (re, im) in sorted(mat.kernel.nums.items()))
        block = "\n".join([f"den {mat.kernel.den}", *entries])
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
            block = "\n".join(lines[6 : 7 + count])
            if hashlib.sha256(block.encode()).hexdigest() != header.get("checksum"):
                raise CacheCorruption(f"{path}: checksum mismatch")
            tag, den = lines[6].split()
            if tag != "den":
                raise CacheCorruption(f"{path}: no den line")
            den = int(den)
            nums = {}
            for line in lines[7 : 7 + count]:
                j, k, re, im = map(int, line.split())
                if not (0 <= j <= m and 0 <= k <= m):
                    raise CacheCorruption(f"{path}: index ({j}, {k}) out of range for level {m}")
                nums[j, k] = (re, im)
            if len(nums) != count:
                raise CacheCorruption(f"{path}: entry count mismatch")
            kernel = Kernel(den, nums)
            if kernel.den != den or len(kernel) != count:
                raise CacheCorruption(f"{path}: kernel not in lowest terms or holding a zero entry")
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
