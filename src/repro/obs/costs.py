"""Persistent measured-cost ledger feeding planning decisions.

PR 5's ledger showed ``--dist auto`` *losing* wall-clock (0.77–0.83×)
on this host because :mod:`repro.dist.plan` guessed costs from a static
table.  This module closes that loop: the engine and the dist layer
record what stages *actually* cost here — per-stage build seconds,
per-shard serialization bytes/seconds, reduce seconds — and the
planner consults those measurements before agreeing to shard.

Entries are EWMA-aggregated under a composite key::

    stage|measure|backend|size_bucket

where ``size_bucket`` is the power-of-two bucket of the input size
(edge count), so a measurement on a 50k-edge graph informs an estimate
for a 70k-edge one without being polluted by a 1M-edge run.
:meth:`CostLedger.estimate` scales across buckets linearly in
``2**Δbucket`` when only a neighbouring bucket has data.

The ledger persists as JSON under the artifact cache directory
(atomic write-then-rename) and is stamped with a host fingerprint;
measurements from a different host are discarded on load rather than
silently steering this host's planner.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, Optional

__all__ = [
    "CostLedger",
    "host_fingerprint",
    "size_bucket",
    "default_ledger",
    "ledger_for",
]

_WILDCARD = "-"

_fingerprint_cache: Optional[Dict[str, object]] = None
_fingerprint_lock = threading.Lock()


def _compiler_banner() -> str:
    cc = os.environ.get("CC", "cc")
    try:
        out = subprocess.run(
            [cc, "--version"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=5,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "none"
    first = out.decode(errors="replace").splitlines()
    return first[0].strip() if first else "none"


def host_fingerprint() -> Dict[str, object]:
    """A stable identity for *this* host's performance envelope.

    Used to stamp bench ledgers and the cost ledger so comparisons
    across different machines are refused instead of producing phantom
    regressions.  Cached after the first call (the compiler probe costs
    a subprocess).
    """
    global _fingerprint_cache
    with _fingerprint_lock:
        if _fingerprint_cache is None:
            try:
                from repro import accel

                backend = accel.get_backend()
            except Exception:
                backend = "unknown"
            _fingerprint_cache = {
                "cpus": os.cpu_count() or 1,
                "platform": platform.platform(),
                "machine": platform.machine(),
                "python": sys.version.split()[0],
                "compiler": _compiler_banner(),
                "accel": backend,
            }
        return dict(_fingerprint_cache)


def size_bucket(size: int) -> int:
    """Power-of-two bucket index for an input size (edge count)."""
    size = int(size)
    if size <= 0:
        return 0
    return size.bit_length()


def _key(stage: str, measure: Optional[str], backend: Optional[str],
         bucket: int) -> str:
    return "|".join(
        (stage, measure or _WILDCARD, backend or _WILDCARD, str(bucket))
    )


class CostLedger:
    """EWMA-aggregated measured costs, optionally persisted to JSON.

    ``path=None`` gives a memory-only ledger (used in tests and when no
    cache directory is configured).  With a path, every :meth:`record`
    autosaves (atomic write-then-rename) unless ``autosave=False``.
    """

    def __init__(
        self,
        path: Optional[os.PathLike] = None,
        *,
        alpha: float = 0.3,
        autosave: bool = True,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.path = Path(path) if path is not None else None
        self.alpha = alpha
        self.autosave = autosave
        self.host = host_fingerprint()
        self._entries: Dict[str, Dict[str, float]] = {}
        self._lock = threading.Lock()
        if self.path is not None:
            self._load()

    # -- persistence ---------------------------------------------------
    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return
        if not isinstance(raw, dict):
            return
        # Measurements from another machine would steer this host's
        # planner with someone else's timings: start fresh instead.
        if raw.get("host") != self.host:
            return
        entries = raw.get("entries")
        if isinstance(entries, dict):
            self._entries = {
                k: dict(v) for k, v in entries.items() if isinstance(v, dict)
            }

    def save(self) -> None:
        if self.path is None:
            return
        payload = {"version": 1, "host": self.host, "entries": self._entries}
        tmp = self.path.with_name(self.path.name + f".tmp{os.getpid()}")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
            tmp.replace(self.path)
        except OSError:
            # A read-only, full or vanished cache dir must never fail a
            # build, nor leave a temp file behind.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    # -- recording / estimating ---------------------------------------
    def record(
        self,
        stage: str,
        seconds: float,
        *,
        measure: Optional[str] = None,
        backend: Optional[str] = None,
        size: int = 0,
        nbytes: Optional[int] = None,
    ) -> None:
        """Fold one measurement into the ledger."""
        if seconds < 0:
            return
        key = _key(stage, measure, backend, size_bucket(size))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = {"ewma_s": float(seconds), "last_s": float(seconds),
                         "count": 0}
                self._entries[key] = entry
            else:
                entry["ewma_s"] = (
                    self.alpha * float(seconds)
                    + (1.0 - self.alpha) * entry["ewma_s"]
                )
                entry["last_s"] = float(seconds)
            entry["count"] = int(entry.get("count", 0)) + 1
            if nbytes is not None:
                prev = entry.get("ewma_bytes")
                entry["ewma_bytes"] = (
                    float(nbytes) if prev is None
                    else self.alpha * float(nbytes)
                    + (1.0 - self.alpha) * prev
                )
        if self.autosave:
            self.save()

    def _match(self, stage: str, measure: Optional[str],
               backend: Optional[str]) -> Dict[int, Dict[str, float]]:
        """Entries for ``stage`` whose measure/backend are compatible
        with the query (``None`` in the query matches anything),
        keyed by size bucket.  Exact matches shadow wildcard ones."""
        by_bucket: Dict[int, Dict[str, float]] = {}
        exactness: Dict[int, int] = {}
        with self._lock:
            items = list(self._entries.items())
        for key, entry in items:
            k_stage, k_measure, k_backend, k_bucket = key.split("|", 3)
            if k_stage != stage:
                continue
            if measure is not None and k_measure not in (measure, _WILDCARD):
                continue
            if backend is not None and k_backend not in (backend, _WILDCARD):
                continue
            score = (k_measure != _WILDCARD) + (k_backend != _WILDCARD)
            bucket = int(k_bucket)
            if score >= exactness.get(bucket, -1):
                exactness[bucket] = score
                by_bucket[bucket] = entry
        return by_bucket

    def estimate(
        self,
        stage: str,
        *,
        measure: Optional[str] = None,
        backend: Optional[str] = None,
        size: int = 0,
    ) -> Optional[float]:
        """Estimated seconds for ``stage`` at ``size``, or ``None`` if
        nothing relevant was ever measured.

        Prefers the exact size bucket; otherwise takes the nearest
        measured bucket and scales linearly by ``2**Δbucket`` (stage
        costs here are near-linear in edge count).
        """
        by_bucket = self._match(stage, measure, backend)
        if not by_bucket:
            return None
        want = size_bucket(size)
        best = min(by_bucket, key=lambda b: (abs(b - want), b))
        base = by_bucket[best]["ewma_s"]
        return base * (2.0 ** (want - best))

    def estimate_bytes(
        self,
        stage: str,
        *,
        measure: Optional[str] = None,
        backend: Optional[str] = None,
        size: int = 0,
    ) -> Optional[float]:
        by_bucket = self._match(stage, measure, backend)
        want = size_bucket(size)
        candidates = {
            b: e for b, e in by_bucket.items() if "ewma_bytes" in e
        }
        if not candidates:
            return None
        best = min(candidates, key=lambda b: (abs(b - want), b))
        return candidates[best]["ewma_bytes"] * (2.0 ** (want - best))

    # -- introspection -------------------------------------------------
    def entries(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {k: dict(v) for k, v in self._entries.items()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        where = str(self.path) if self.path else "memory"
        return f"CostLedger({where}, entries={len(self)})"

    # -- constructors --------------------------------------------------
    @classmethod
    def from_env(cls) -> "CostLedger":
        """Ledger at ``$REPRO_COST_LEDGER``, else ``$REPRO_CACHE_DIR/
        costs.json``, else memory-only."""
        explicit = os.environ.get("REPRO_COST_LEDGER")
        if explicit:
            return cls(explicit)
        cache_dir = os.environ.get("REPRO_CACHE_DIR")
        if cache_dir:
            return cls(Path(cache_dir) / "costs.json")
        return cls(None)


_default: Optional[CostLedger] = None
_default_lock = threading.Lock()
_by_dir: Dict[str, CostLedger] = {}


def default_ledger() -> CostLedger:
    """Process-wide ledger resolved from the environment once."""
    global _default
    with _default_lock:
        if _default is None:
            _default = CostLedger.from_env()
        return _default


def ledger_for(directory) -> CostLedger:
    """Ledger stored as ``costs.json`` under ``directory`` (one shared
    instance per directory); falls back to :func:`default_ledger` when
    the directory is ``None`` (memory-only cache)."""
    if directory is None:
        return default_ledger()
    key = str(directory)
    with _default_lock:
        ledger = _by_dir.get(key)
        if ledger is None:
            ledger = CostLedger(Path(directory) / "costs.json")
            _by_dir[key] = ledger
        return ledger
