"""Persistent result cache keyed by (quantity, params, route, digits, version).

Values are stored as decimal strings, so a hit reproduces the original
compute output byte for byte.  The route is the one that runs (the CLI
resolves defaults and ``auto`` first), so spelling out the default shares
the entry.  Keys include the digit count, so an entry written at lower
digits is never served for a higher-digit request, and the package version,
so a release that changes printed values never serves older ones.  Any
cache I/O failure degrades to a recompute with a warning on stderr.

An entry also records the version of the mpmath that computed it: ``put``
runs after a computation, so mpmath is loaded.  A hit returns that version
with the entry, so the CLI reports it without importing mpmath; an entry
without one is a miss, recomputed and rewritten.  This module imports
neither mpmath nor any computing module of the package.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional

from . import __version__

ENV_VAR = "STIELTJES_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "stieltjes"


class ResultCache:
    def __init__(self, directory=None, enabled: bool = True):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.enabled = enabled

    def _key_path(self, quantity: str, params: dict, method: str,
                  digits: int) -> Path:
        canon = json.dumps(
            {"quantity": quantity, "params": params, "method": method,
             "digits": digits, "version": __version__},
            sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canon.encode()).hexdigest()[:32]
        return self.directory / f"{digest}.json"

    def get(self, quantity: str, params: dict, method: str,
            digits: int) -> Optional[dict]:
        if not self.enabled:
            return None
        path = self._key_path(quantity, params, method, digits)
        try:
            if not path.exists():
                return None
            with open(path) as fh:
                entry = json.load(fh)
            if (entry.get("digits") != digits or "result" not in entry
                    or "mpmath" not in entry):
                return None
            return entry
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"warning: unreadable cache entry {path.name}: {exc}; "
                  "recomputing", file=sys.stderr)
            return None

    def put(self, quantity: str, params: dict, method: str, digits: int,
            payload: dict) -> None:
        if not self.enabled:
            return
        path = self._key_path(quantity, params, method, digits)
        import mpmath  # already loaded by the computation being stored
        entry = dict(payload)
        entry["digits"] = digits
        entry["mpmath"] = mpmath.__version__
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, path)  # atomic; last writer wins on identical keys
        except OSError as exc:
            print(f"warning: cache write failed ({exc}); continuing",
                  file=sys.stderr)
