"""Backend execution: local vs subprocess, fault recovery, worker reuse."""

import pytest

from repro.errors import ServiceError
from repro.service import (
    JobSpec,
    LocalBackend,
    SubprocessBackend,
    execute_job,
    make_backend,
)

SPEC = JobSpec(
    experiment="capacity",
    params={"channel": "ntp+ntp", "intervals": [2100, 1800], "n_bits": 16},
)


@pytest.fixture
def node(tmp_path):
    """One service node's shared cache root + store path."""
    return str(tmp_path / "cache"), str(tmp_path / "store.sqlite")


class TestLocalBackend:
    def test_runs_a_job_and_records_the_run(self, node):
        cache_root, store_path = node
        backend = LocalBackend(cache_root=cache_root, store_path=store_path)
        try:
            events = []
            result = backend.run_job(SPEC, sink=events.append)
            assert result["experiment"] == "capacity"
            assert result["shards"]["total"] == 2
            assert result["runs"][0]["campaign"].startswith("capacity_sweep/")
            assert any(e["name"] == "runner.shard" for e in events)
        finally:
            backend.close()

    def test_second_run_is_cache_served(self, node):
        cache_root, store_path = node
        backend = LocalBackend(cache_root=cache_root, store_path=store_path)
        try:
            first = backend.run_job(SPEC)
            second = backend.run_job(SPEC)
            assert first["shards"]["computed"] == 2
            assert second["shards"]["computed"] == 0
            assert second["shards"]["cached"] == 2
            assert (first["runs"][0]["fingerprint"]
                    == second["runs"][0]["fingerprint"])
        finally:
            backend.close()

    def test_closed_backend_refuses_jobs(self, node):
        backend = LocalBackend(*node)
        backend.close()
        with pytest.raises(ServiceError, match="closed"):
            backend.run_job(SPEC)


class TestSubprocessBackend:
    def test_runs_a_job_with_events_over_the_pipe(self, node):
        cache_root, store_path = node
        backend = SubprocessBackend(cache_root=cache_root, store_path=store_path)
        try:
            events = []
            result = backend.run_job(SPEC, sink=events.append)
            assert result["experiment"] == "capacity"
            assert result["shards"]["total"] == 2
            assert any(e["name"] == "runner.shard" for e in events)
        finally:
            backend.close()

    def test_worker_reused_across_jobs(self, node):
        backend = SubprocessBackend(*node)
        try:
            first = backend.run_job(SPEC)
            worker_pid = backend._proc.pid
            second = backend.run_job(SPEC)
            assert backend._proc.pid == worker_pid  # same worker, reused
            assert second["shards"]["cached"] == 2
            assert first["spec_fingerprint"] == second["spec_fingerprint"]
        finally:
            backend.close()

    def test_worker_survives_a_failed_job(self, node):
        backend = SubprocessBackend(*node)
        try:
            # Every shard crash-faults with no retries, so the sweep drops
            # all its points and peak() raises inside the worker — a *job*
            # error over clean framing, not a protocol breakdown.
            doomed = JobSpec(
                experiment="capacity",
                params={"channel": "ntp+ntp", "intervals": [2100], "n_bits": 16},
                faults={"seed": 0, "crash_probability": 1.0},
            )
            with pytest.raises(ServiceError, match="worker failed"):
                backend.run_job(doomed)
            worker_pid = backend._proc.pid
            result = backend.run_job(SPEC)  # same worker takes the next job
            assert backend._proc.pid == worker_pid
            assert result["shards"]["total"] == 2
        finally:
            backend.close()

    def test_matches_direct_execution_bit_for_bit(self, node, tmp_path):
        """Location transparency: pipe-dispatched == in-process executed."""
        cache_root, store_path = node
        backend = SubprocessBackend(cache_root=cache_root, store_path=store_path)
        try:
            remote = backend.run_job(SPEC)
        finally:
            backend.close()

        from repro.runner import ResultCache
        from repro.store import CampaignStore

        direct_store = CampaignStore(str(tmp_path / "direct.sqlite"))
        try:
            direct = execute_job(
                SPEC,
                cache=ResultCache(str(tmp_path / "direct-cache")),
                store=direct_store,
            )
        finally:
            direct_store.close()
        assert remote["runs"][0]["fingerprint"] == direct["runs"][0]["fingerprint"]
        assert remote["detail"] == direct["detail"]


class TestFactory:
    def test_make_backend_names(self):
        for name, cls in (("local", LocalBackend), ("subprocess", SubprocessBackend)):
            backend = make_backend(name)
            assert isinstance(backend, cls)
            backend.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ServiceError, match="unknown backend"):
            make_backend("ssh")


class _FailingStore:
    """A campaign store whose every write fails."""

    def record_run(self, *args, **kwargs):
        raise OSError("disk full")


class TestStoreErrors:
    def test_failed_store_write_shows_in_the_job_result(self):
        result = execute_job(SPEC, store=_FailingStore())
        assert result["shards"]["store_errors"] == 1
        assert result["runs"] == []

    def test_clean_run_reports_zero_store_errors(self, node):
        cache_root, store_path = node
        backend = LocalBackend(cache_root=cache_root, store_path=store_path)
        try:
            assert backend.run_job(SPEC)["shards"]["store_errors"] == 0
        finally:
            backend.close()
