"""On-disk cache of computed subgroup lattices, keyed by shape.

One gzipped JSON file per shape, content-addressed from the canonical shape
string plus a format version.  Anything that fails to load cleanly (missing,
corrupted, version or key mismatch, inconsistent lengths) is treated as
absent and recomputed.  Write failures warn once and turn the cache off for
the rest of the process; they never produce wrong results.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from .core import GroupShape, format_shape

FORMAT_VERSION = 2
# masks written to a cache entry per piece
_MASK_CHUNK = 4096


def _flags_to_str(flags) -> str:
    return "".join("1" if f else "0" for f in flags)


def _str_to_flags(s: str) -> list[bool]:
    return [c == "1" for c in s]


def _document_pieces(shape: GroupShape, masks, char_flags, fi_flags):
    """The text of `json.dumps(doc, sort_keys=True)` for the entry document
    {"char", "count", "fi", "masks", "shape", "version"}, in pieces: the masks
    as hex strings, _MASK_CHUNK at a time, so no list of every hex string, nor
    the whole text, is held at once (2:1^8 has 417,199 masks)."""
    before = {"char": _flags_to_str(char_flags), "count": len(masks), "fi": _flags_to_str(fi_flags)}
    after = {"shape": format_shape(shape), "version": FORMAT_VERSION}
    # the keys sort as before < "masks" < after, so the masks go between them
    yield json.dumps(before, sort_keys=True)[:-1] + ', "masks": ['
    sep = ""
    for start in range(0, len(masks), _MASK_CHUNK):
        yield sep + ", ".join(f'"{m:x}"' for m in masks[start : start + _MASK_CHUNK])
        sep = ", "
    yield "], " + json.dumps(after, sort_keys=True)[1:]


class LatticeCache:
    def __init__(self, root) -> None:
        self.root = Path(root)
        self._disabled = False
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            self._disabled = True
            print(f"warning: lattice cache disabled ({exc})", file=sys.stderr)

    def _path(self, shape: GroupShape) -> Path:
        key = f"v{FORMAT_VERSION}:{format_shape(shape)}"
        digest = hashlib.sha256(key.encode()).hexdigest()[:32]
        return self.root / f"{digest}.json.gz"

    def load(self, shape: GroupShape):
        """(masks, char_flags, fi_flags) or None if absent/unusable."""
        path = self._path(shape)
        try:
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, EOFError, ValueError):
            return None
        try:
            if doc["version"] != FORMAT_VERSION:
                return None
            if doc["shape"] != format_shape(shape):
                return None
            masks = [int(m, 16) for m in doc["masks"]]
            char_flags = _str_to_flags(doc["char"])
            fi_flags = _str_to_flags(doc["fi"])
            n = doc["count"]
            if not (len(masks) == len(char_flags) == len(fi_flags) == n):
                return None
            if n == 0 or masks[0] != 1:
                return None
        except (KeyError, TypeError, ValueError):
            return None
        return masks, char_flags, fi_flags

    def save(self, shape: GroupShape, masks, char_flags, fi_flags) -> None:
        if self._disabled:
            return
        path = self._path(shape)
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as raw:
                    # zlib's default level: on 2:1^8 gzip's own level 9 took
                    # 11.7 s against 0.77 s, for a 5% smaller entry
                    with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0, compresslevel=6) as gz:
                        for piece in _document_pieces(shape, masks, char_flags, fi_flags):
                            gz.write(piece.encode())
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self._disabled = True
            print(f"warning: lattice cache disabled ({exc})", file=sys.stderr)
