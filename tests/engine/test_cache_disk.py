"""The disk tier: accounting (disk_stats, prune), the cached source
stage and its ``csr`` envelope, and write failures."""

import errno
import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.serialize import artifact_from_json, artifact_to_json
from repro.engine import ArtifactCache, EdgeListSource, Pipeline
from repro.engine import pipeline as pipeline_mod
from repro.engine.cache import stage_key
from repro.graph import CSRGraph, datasets, from_edges
from repro.graph.io import write_edge_list


def _fill(cache: ArtifactCache, n: int, size: int = 64) -> list:
    keys = []
    for i in range(n):
        key = f"k{i:04d}"
        cache.put(key, np.full(size, float(i)))
        keys.append(key)
    return keys


class TestDiskStats:
    def test_memory_only_cache_reports_zero(self):
        cache = ArtifactCache()
        _fill(cache, 3)
        assert cache.disk_stats() == {"entries": 0, "bytes": 0}

    def test_counts_entries_and_bytes(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _fill(cache, 4)
        stats = cache.disk_stats()
        assert stats["entries"] == 4
        expected = sum(p.stat().st_size for p in tmp_path.glob("*.json"))
        assert stats["bytes"] == expected > 0

    def test_memory_only_artifacts_do_not_count(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("mem", np.ones(8), disk=False)
        assert cache.disk_stats()["entries"] == 0


class TestPrune:
    def test_prunes_oldest_first(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        keys = _fill(cache, 5)
        # Make the write order unambiguous for the mtime sort.
        for i, key in enumerate(keys):
            path = tmp_path / f"{key}.json"
            stamp = time.time() - (5 - i) * 10
            import os

            os.utime(path, (stamp, stamp))
        per_entry = cache.disk_stats()["bytes"] // 5
        result = cache.prune(per_entry * 2)
        assert result["removed"] == 3
        survivors = sorted(p.stem for p in tmp_path.glob("*.json"))
        assert survivors == keys[3:]
        assert cache.disk_stats()["bytes"] == result["bytes"] <= per_entry * 2

    def test_prune_to_zero_empties_the_tier(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _fill(cache, 3)
        result = cache.prune(0)
        assert result == {"removed": 3, "bytes": 0}
        assert cache.disk_stats() == {"entries": 0, "bytes": 0}

    def test_prune_within_budget_is_a_noop(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _fill(cache, 3)
        before = cache.disk_stats()
        assert cache.prune(before["bytes"])["removed"] == 0
        assert cache.disk_stats() == before

    def test_pruned_entry_rebuilds_through_get(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("gone", np.arange(4.0))
        cache.clear()  # drop the memory tier, keep disk
        cache.prune(0)
        assert cache.get("gone") is None  # clean miss, not an error

    def test_memory_only_prune_is_safe(self):
        assert ArtifactCache().prune(0) == {"removed": 0, "bytes": 0}

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactCache(tmp_path).prune(-1)

    def test_memory_tier_survives_prune(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("hot", np.arange(8.0))
        cache.prune(0)
        assert np.array_equal(cache.get("hot"), np.arange(8.0))


class TestCSREnvelope:
    def test_round_trip(self):
        graph = datasets.load("amazon").graph
        back = artifact_from_json(artifact_to_json(graph))
        assert isinstance(back, CSRGraph)
        assert back.indptr.dtype == back.indices.dtype == np.int64
        assert np.array_equal(back.indptr, graph.indptr)
        assert np.array_equal(back.indices, graph.indices)
        assert back.labels is None

    def test_labelled_graph_has_no_disk_form(self, tmp_path):
        graph = from_edges([("a", "b"), ("b", "c")])
        with pytest.raises(TypeError):
            artifact_to_json(graph)
        cache = ArtifactCache(tmp_path)
        assert cache.put("labelled", graph) is graph
        assert cache.disk_stats()["entries"] == 0
        assert cache.get("labelled") is graph


def _source_key(name: str) -> str:
    return stage_key(
        "source",
        {"dataset": name, "numpy": np.__version__},
        pipeline_mod._synthesis_digest(),
    )


def _no_synthesis(name):
    raise AssertionError(f"dataset {name!r} was synthesized")


class TestSourceStage:
    DATASET = "amazon"

    def _render(self, cache, path):
        Pipeline.from_dataset(self.DATASET, "kcore", cache=cache).render(
            path=path, resolution=32, width=64, height=48
        )
        return path.read_bytes()

    def test_warm_process_skips_synthesis(self, tmp_path, monkeypatch):
        cold = self._render(ArtifactCache(tmp_path / "c"), tmp_path / "a.png")
        assert (tmp_path / "c" / f"{_source_key(self.DATASET)}.json").exists()
        # A new process: no dataset memo, an empty memory tier.
        datasets.clear_cache()
        monkeypatch.setattr(datasets, "load", _no_synthesis)
        cache = ArtifactCache(tmp_path / "c")
        warm = self._render(cache, tmp_path / "b.png")
        assert warm == cold
        assert cache.stats["disk_hits"] >= 1

    def test_memory_tier_holds_the_graph(self, monkeypatch):
        cache = ArtifactCache()
        graph = Pipeline.from_dataset(self.DATASET, "kcore", cache=cache).graph
        monkeypatch.setattr(datasets, "load", _no_synthesis)
        again = Pipeline.from_dataset(self.DATASET, "kcore", cache=cache)
        assert again.graph is graph
        assert cache.stats["memory_hits"] == 1

    def test_edge_list_source_stays_uncached(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(datasets.load(self.DATASET).graph, path)
        cache = ArtifactCache(tmp_path / "c")
        Pipeline(EdgeListSource(path), "kcore", cache=cache).graph
        assert len(cache) == 0
        assert cache.disk_stats()["entries"] == 0

    @pytest.mark.parametrize("damage", [
        "truncated", "non-monotone indptr", "index out of range",
    ])
    def test_corrupt_entry_is_dropped_and_rebuilt(self, tmp_path, damage):
        directory = tmp_path / "c"
        good = Pipeline.from_dataset(
            self.DATASET, "kcore", cache=ArtifactCache(directory)
        ).graph
        path = directory / f"{_source_key(self.DATASET)}.json"
        text = path.read_text()
        doc = json.loads(text)
        if damage == "truncated":
            text = text[: len(text) // 2]
        elif damage == "non-monotone indptr":
            doc["indptr"][1], doc["indptr"][2] = doc["indptr"][2], 0
            text = json.dumps(doc)
        else:
            doc["indices"][0] = len(doc["indptr"]) + 5
            text = json.dumps(doc)
        path.write_text(text)

        cache = ArtifactCache(directory)
        assert cache.get(_source_key(self.DATASET)) is None
        assert cache.stats["corrupt"] == 1
        assert not path.exists()
        datasets.clear_cache()
        rebuilt = Pipeline.from_dataset(
            self.DATASET, "kcore", cache=cache
        ).graph
        assert rebuilt == good
        assert artifact_from_json(path.read_text()) == good

    @pytest.mark.parametrize("change", ["digest", "numpy"])
    def test_key_covers_generator_source_and_numpy(
        self, tmp_path, monkeypatch, change
    ):
        directory = tmp_path / "c"
        Pipeline.from_dataset(
            self.DATASET, "kcore", cache=ArtifactCache(directory)
        ).graph
        before = _source_key(self.DATASET)
        if change == "digest":
            monkeypatch.setattr(
                pipeline_mod, "_synthesis_digest", lambda: "0" * 64
            )
        else:
            monkeypatch.setattr(np, "__version__", "0.0.0")
        after = _source_key(self.DATASET)
        assert after != before
        cache = ArtifactCache(directory)
        Pipeline.from_dataset(self.DATASET, "kcore", cache=cache).graph
        assert cache.stats["misses"] == 1
        assert (directory / f"{after}.json").exists()
        assert (directory / f"{before}.json").exists()

    def test_digest_hashes_the_synthesis_modules(self):
        from repro.graph import builders, csr, generators

        digest = hashlib.sha256()
        for module in (datasets, generators, builders, csr):
            digest.update(Path(module.__file__).read_bytes())
        assert pipeline_mod._synthesis_digest() == digest.hexdigest()


class TestWriteFailure:
    @pytest.fixture
    def full_disk(self, monkeypatch):
        def replace(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", replace)

    def test_put_keeps_memory_copy(self, tmp_path, full_disk):
        cache = ArtifactCache(tmp_path)
        value = np.arange(6.0)
        assert cache.put("k", value) is value
        assert cache.stats["write_errors"] == 1
        assert list(tmp_path.iterdir()) == []
        assert cache.get("k") is value

    def test_pipeline_build_survives(self, tmp_path, full_disk):
        cache = ArtifactCache(tmp_path)
        pipeline = Pipeline.from_dataset("amazon", "kcore", cache=cache)
        assert pipeline.display_tree is not None
        assert pipeline.graph == datasets.load("amazon").graph
        assert cache.stats["write_errors"] >= 3  # source, field, tree...
        assert not [p for p in tmp_path.iterdir() if ".tmp" in p.name]
