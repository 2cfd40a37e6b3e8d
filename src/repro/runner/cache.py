"""Content-keyed on-disk result cache for scenario specs.

Each cached result lives in one pickle file named after its content key
(see :func:`repro.runner.spec.content_key`).  Writes go through a
temporary file and an atomic rename, so a cache directory shared by many
worker processes never exposes a half-written entry; unreadable entries
are treated as misses and overwritten.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Any

__all__ = ["ResultCache", "default_cache_dir"]

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The default on-disk cache location.

    ``$REPRO_CACHE_DIR`` if set, otherwise ``~/.cache/repro`` (or
    ``$XDG_CACHE_HOME/repro`` when XDG is configured).
    """
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


class ResultCache:
    """Pickle-per-key result store under one directory."""

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        """File backing one content key."""
        if not key or any(c in key for c in "/\\"):
            raise ValueError(f"invalid cache key {key!r}")
        return self.directory / f"{key}.pkl"

    def get(self, key: str) -> tuple[bool, Any]:
        """Return ``(hit, value)``; unreadable entries count as misses."""
        path = self.path_for(key)
        try:
            with path.open("rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except (pickle.UnpicklingError, EOFError, AttributeError, ImportError, OSError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Store a result atomically under ``key``.

        A failed write (say, an unpicklable value) removes its temporary
        file before the error propagates.
        """
        path = self.path_for(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        for path in self.directory.glob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                pass
        return removed
