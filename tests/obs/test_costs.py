"""Where measured state is keyed and kept: the host fingerprint that
stamps bench ledgers (``scripts/bench_all.py``) so timings from
different machines are never compared, and the cache-directory
resolution that decides whether built artifacts persist."""

import argparse
import importlib.util
from pathlib import Path

from repro import cli
from repro.engine import ArtifactCache

_SPEC = importlib.util.spec_from_file_location(
    "bench_all",
    Path(__file__).resolve().parents[2] / "scripts" / "bench_all.py",
)
bench_all = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_all)


class TestHostFingerprint:
    def test_shape_and_stability(self):
        fp = bench_all.host_fingerprint()
        assert {"cpus", "platform", "machine", "python", "compiler"} <= set(fp)
        assert fp == bench_all.host_fingerprint()
        assert fp["cpus"] >= 1


class TestFromEnv:
    def test_explicit_path_wins(self, tmp_path, monkeypatch):
        target = tmp_path / "explicit"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        cache = cli._cache(argparse.Namespace(cache_dir=str(target)))
        assert cache.directory == target

    def test_cache_dir_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert ArtifactCache.from_env().directory == tmp_path
        cache = cli._cache(argparse.Namespace(cache_dir=None))
        assert cache.directory == tmp_path

    def test_memory_only_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert ArtifactCache.from_env().directory is None
        cache = cli._cache(argparse.Namespace(cache_dir=None))
        assert cache.directory is None
