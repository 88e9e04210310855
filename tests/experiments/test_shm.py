"""Tests for repro.experiments.shm — the zero-copy shared-memory transport
behind the experiment fan-out — and its robustness-sweep integration:
byte-identical parallel results, exactly-one oracle build per distinct
base graph, and no leaked ``/dev/shm`` segments."""

import glob
import json
import os
from multiprocessing.shared_memory import SharedMemory

import numpy as np
import pytest

from repro.experiments import shm
from repro.experiments import robustness_exp as rexp
from repro.graph.distances import DistanceOracle
from repro.graph.graph import graph_signature
from repro.graph.paths import graph_csr


@pytest.fixture(autouse=True)
def _clean_registries():
    """Each test starts and ends with pristine process-level registries."""
    yield
    shm.clear_memo()
    shm._LOCAL.clear()
    shm._ATTACHED.clear()
    for segment in shm._WORKER_SEGMENTS:
        segment.close()
    shm._WORKER_SEGMENTS.clear()


def _shm_files(names):
    return [f"/dev/shm/{name}" for name in names]


class TestPublication:
    def test_publish_attach_round_trip(self):
        arrays = {
            "demo": {
                "a": np.arange(6, dtype=np.float64).reshape(2, 3),
                "b": np.array([1, 2, 3], dtype=np.int64),
            }
        }
        publication = shm.publish(arrays)
        names = publication.segment_names()
        try:
            for path in _shm_files(names):
                assert os.path.exists(path)
            shm.attach_worker(publication.payload)
            attached = shm.get("demo")
            for key, original in arrays["demo"].items():
                assert np.array_equal(attached[key], original)
                assert attached[key].dtype == original.dtype
                assert not attached[key].flags.writeable
        finally:
            publication.close()
        for path in _shm_files(names):
            assert not os.path.exists(path)

    def test_close_is_idempotent(self):
        publication = shm.publish({"k": {"x": np.zeros(4)}})
        publication.close()
        publication.close()  # second close must not raise

    def test_failed_publish_releases_partial_segments(self, monkeypatch):
        # Force the SECOND segment allocation to fail (name collision)
        # so publish() has a live first segment it must roll back.
        taken = SharedMemory(
            create=True, size=8, name=f"{shm.SEGMENT_PREFIX}_test_taken"
        )
        fresh = f"{shm.SEGMENT_PREFIX}_test_fresh"
        try:
            names = iter([fresh, taken.name])
            monkeypatch.setattr(
                shm, "_next_segment_name", lambda: next(names)
            )
            with pytest.raises(FileExistsError):
                shm.publish(
                    {"k": {"good": np.zeros(8), "bad": np.zeros(8)}}
                )
            assert not os.path.exists(f"/dev/shm/{fresh}")
        finally:
            taken.close()
            taken.unlink()

    def test_segment_is_tracked_before_it_exists(self, monkeypatch):
        # A parent killed between creating a segment and registering it
        # would leak it past the resource tracker; the name must reach
        # the tracker while /dev/shm has no file of that name yet.
        existed_at_first_register = {}
        register = shm.resource_tracker.register

        def recording_register(name, rtype):
            if rtype == "shared_memory":
                existed_at_first_register.setdefault(
                    name, os.path.exists(f"/dev/shm{name}")
                )
            register(name, rtype)

        monkeypatch.setattr(
            shm.resource_tracker, "register", recording_register
        )
        publication = shm.publish(
            {"k": {"x": np.zeros(4), "y": np.ones(2)}}
        )
        try:
            names = publication.segment_names()
            assert len(names) == 2
            for name in names:
                assert existed_at_first_register["/" + name] is False
        finally:
            publication.close()

    def test_local_registry_serves_serial_path(self):
        arrays = {"key": {"x": np.arange(3)}}
        assert shm.maybe_get("key") is None
        shm.register_local(arrays)
        assert np.array_equal(shm.get("key")["x"], arrays["key"]["x"])
        shm.unregister_local(arrays)
        assert shm.maybe_get("key") is None

    def test_get_raises_on_unknown_key(self):
        with pytest.raises(KeyError):
            shm.get("never-published")

    def test_memo_builds_once_per_process(self):
        calls = []
        factory = lambda: calls.append(1) or "value"  # noqa: E731
        assert shm.memo("k", factory) == "value"
        assert shm.memo("k", factory) == "value"
        assert len(calls) == 1
        shm.clear_memo()
        assert shm.memo("k", factory) == "value"
        assert len(calls) == 2


class TestRobustnessIntegration:
    def test_harness_cached_and_oracle_built_exactly_once(self):
        rexp._HARNESS_CACHE.clear()
        before = DistanceOracle.build_count
        harness_a, sigma_a = rexp._prepared_harness("quick", 91)
        assert DistanceOracle.build_count == before + 1
        harness_b, sigma_b = rexp._prepared_harness("quick", 91)
        assert harness_b is harness_a  # served from the per-process cache
        assert sigma_b == sigma_a
        assert DistanceOracle.build_count == before + 1

    def test_shared_memory_adoption_skips_the_oracle_build(self):
        rexp._HARNESS_CACHE.clear()
        harness, sigma = rexp._prepared_harness("quick", 92)
        instance = harness.instance
        key = f"oracle:{graph_signature(instance.graph)}"
        indptr, indices, data = graph_csr(instance.graph)
        shm.register_local(
            {
                key: {
                    "matrix": instance.oracle.matrix,
                    "indptr": indptr,
                    "indices": indices,
                    "data": data,
                    "nodes": np.asarray(
                        [int(label) for label in instance.graph.nodes],
                        dtype=np.int64,
                    ),
                }
            }
        )
        rexp._HARNESS_CACHE.clear()  # force the full rebuild path
        before = DistanceOracle.build_count
        adopted, adopted_sigma = rexp._prepared_harness(
            "quick", 92, shm_key=key
        )
        # The graph + matrix came from the registry: zero Dijkstra work.
        assert DistanceOracle.build_count == before
        assert adopted_sigma == sigma
        assert adopted.shortcuts == harness.shortcuts
        assert graph_signature(adopted.instance.graph) == graph_signature(
            instance.graph
        )

    def test_stale_publication_is_never_adopted(self):
        rexp._HARNESS_CACHE.clear()
        harness, _ = rexp._prepared_harness("quick", 93)
        instance = harness.instance
        key = f"oracle:{graph_signature(instance.graph)}"
        indptr, indices, data = graph_csr(instance.graph)
        shm.register_local(
            {
                key: {
                    "matrix": instance.oracle.matrix,
                    "indptr": indptr,
                    "indices": indices,
                    "data": data,
                    "nodes": np.asarray(
                        [int(label) for label in instance.graph.nodes],
                        dtype=np.int64,
                    ),
                }
            }
        )
        # A workload whose n differs from the published graph must fall
        # back to rebuilding instead of adopting mismatched arrays.
        assert rexp._shared_workload(key, instance.n + 1) is None

    def test_parallel_sweep_byte_identical_and_leak_free(self):
        rexp._HARNESS_CACHE.clear()
        serial = rexp.run_robustness(scale="quick", seed=5, jobs=1)
        rexp._HARNESS_CACHE.clear()
        parallel = rexp.run_robustness(scale="quick", seed=5, jobs=4)
        assert json.dumps(
            serial.to_json(), sort_keys=True
        ) == json.dumps(parallel.to_json(), sort_keys=True)
        # Publication teardown must leave /dev/shm clean for this process.
        leaked = glob.glob(f"/dev/shm/{shm.SEGMENT_PREFIX}_{os.getpid()}_*")
        assert leaked == []
