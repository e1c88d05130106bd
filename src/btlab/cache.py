"""On-disk matrix cache, keyed by (source hash, kind, level).

Files are plain text with a checksummed data block; every entry is written
with 17 significant digits so the reload reproduces the stored floats bit
for bit.  Any header or checksum mismatch raises CacheCorruption; callers
recompute and overwrite.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

from .errors import CacheCorruption
from .operators import OperatorMatrix
from .symbols import ChartRational

CACHE_ENV = "BTLAB_CACHE_DIR"
_MAGIC = "btlab-matrix 1"


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
        self.root.mkdir(parents=True, exist_ok=True)
        n = mat.m + 1
        lines = []
        for j in range(n):
            for k in range(n):
                v = mat.entries[j, k]
                lines.append(f"{j} {k} {v.real:.17e} {v.imag:.17e}")
        block = "\n".join(lines)
        checksum = hashlib.sha256(block.encode()).hexdigest()
        header = "\n".join(
            [
                _MAGIC,
                f"kind {kind}",
                f"m {mat.m}",
                f"source {source}",
                f"provenance {mat.provenance}",
                f"checksum {checksum}",
                f"entries {n * n}",
            ]
        )
        path = self.path_for(source, kind, mat.m)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(header + "\n" + block + "\n")
        os.replace(tmp, path)
        return path

    def load(self, source: str, kind: str, m: int) -> OperatorMatrix | None:
        """The cached matrix, or None on a cache miss.

        The file holds floats only, so a hit has no exact kernel and its
        provenance is "cached", whatever the stored matrix was.
        """
        path = self.path_for(source, kind, m)
        if not path.exists():
            return None
        try:
            lines = path.read_text().splitlines()
            if lines[0] != _MAGIC:
                raise CacheCorruption(f"{path}: bad magic line")
            header = {}
            for line in lines[1:6]:
                key, _, value = line.partition(" ")
                header[key] = value
            count = int(lines[6].split()[1])
            expected = {"kind": kind, "m": str(m), "source": source}
            for key, want in expected.items():
                if header.get(key) != want:
                    raise CacheCorruption(f"{path}: header {key} mismatch")
            block = "\n".join(lines[7 : 7 + count])
            if hashlib.sha256(block.encode()).hexdigest() != header.get("checksum"):
                raise CacheCorruption(f"{path}: checksum mismatch")
            data = block.splitlines()
            if len(data) != count or count != (m + 1) ** 2:
                raise CacheCorruption(f"{path}: entry count mismatch")
            entries = np.empty((m + 1, m + 1), dtype=complex)
            for line in data:
                j_s, k_s, re_s, im_s = line.split()
                entries[int(j_s), int(k_s)] = complex(float(re_s), float(im_s))
        except CacheCorruption:
            raise
        except Exception as exc:
            raise CacheCorruption(f"{path}: unreadable ({exc})") from exc
        return OperatorMatrix(m, entries, "cached", source)

    def clear(self) -> int:
        if not self.root.exists():
            return 0
        removed = 0
        for path in self.root.glob("*.mat"):
            path.unlink()
            removed += 1
        return removed
