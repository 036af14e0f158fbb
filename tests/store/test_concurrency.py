"""Two processes, one campaign store file: nobody loses a write.

The sweep service points every dispatcher (and the CLI, concurrently) at
one sqlite store.  WAL journaling plus a busy timeout make that safe: a
writer that meets another writer's transaction waits it out instead of
failing with ``database is locked``, and readers never block writers.
"""

import multiprocessing
import sqlite3

from repro.runner import make_shards
from repro.store import CampaignStore

RUNS_PER_WRITER = 8
#: Processes racing to create the same campaign (more than the cores of a
#: small CI runner, so creations overlap), and campaigns they race on.
HAMMER_WRITERS = 4
HAMMER_ROUNDS = 6


def _write_runs(store_path, writer, barrier, out):
    """One writer process: record RUNS_PER_WRITER runs, all racing."""
    shards = make_shards(writer, [{"x": i} for i in range(3)])
    results = [{"index": s.index, "x": s.params["x"]} for s in shards]
    store = CampaignStore(store_path)
    try:
        barrier.wait(timeout=30)  # maximize write overlap
        ids = []
        for n in range(RUNS_PER_WRITER):
            ids.append(store.record_run(
                f"concurrency/writer-{writer}",
                shards,
                results,
                executor="test",
                engine=None,
                engine_version="test-0",
                jobs=1,
                shards_computed=len(shards),
                metrics={"writer": writer, "n": n},
            ))
        out.put((writer, ids))
    finally:
        store.close()


def _create_and_record(store_path, writer, barrier, out):
    """One hammer process: each round, record one run into a new campaign.

    Every process meets at the barrier before each round, so all of them
    try to create that round's campaign at once.
    """
    shards = make_shards(writer, [{"x": 0}])
    results = [{"index": 0, "x": 0}]
    store = CampaignStore(store_path)
    try:
        ids = []
        for round_ in range(HAMMER_ROUNDS):
            barrier.wait(timeout=60)
            ids.append(store.record_run(
                f"concurrency/hammer-{round_}", shards, results,
                executor="test", engine=None, engine_version="test-0",
                metrics={"writer": writer},
            ))
        out.put((writer, ids, None))
    except Exception as error:  # reported to the parent, which fails the test
        barrier.abort()  # release the others now rather than at the timeout
        out.put((writer, [], f"{type(error).__name__}: {error}"))
    finally:
        store.close()


class TestConcurrentWriters:
    def test_two_processes_share_one_store_file(self, tmp_path):
        store_path = str(tmp_path / "shared.sqlite")
        CampaignStore(store_path).close()  # create the schema up front

        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        out = ctx.Queue()
        writers = [
            ctx.Process(target=_write_runs, args=(store_path, w, barrier, out))
            for w in (0, 1)
        ]
        for proc in writers:
            proc.start()
        reported = {}
        for _ in writers:
            writer, ids = out.get(timeout=120)
            reported[writer] = ids
        for proc in writers:
            proc.join(timeout=30)
            assert proc.exitcode == 0

        store = CampaignStore(store_path)
        try:
            # Every run from both writers landed, none overwrote another.
            all_ids = [i for ids in reported.values() for i in ids]
            assert len(set(all_ids)) == 2 * RUNS_PER_WRITER
            for writer, ids in reported.items():
                runs = store.runs(f"concurrency/writer-{writer}")
                assert [r.id for r in runs] == sorted(ids)
                assert len(runs) == RUNS_PER_WRITER
        finally:
            store.close()

    def test_racing_campaign_creation_keeps_every_run(self, tmp_path):
        """Get-or-create of a campaign row is atomic across processes.

        Each writer records one run per round into that round's new
        campaign, all at once: every run must land and each campaign must
        end up with exactly one row.
        """
        store_path = str(tmp_path / "hammer.sqlite")
        CampaignStore(store_path).close()

        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(HAMMER_WRITERS)
        out = ctx.Queue()
        writers = [
            ctx.Process(target=_create_and_record,
                        args=(store_path, w, barrier, out))
            for w in range(HAMMER_WRITERS)
        ]
        for proc in writers:
            proc.start()
        outcomes = [out.get(timeout=120) for _ in writers]
        for proc in writers:
            proc.join(timeout=30)
            assert not proc.is_alive()
        assert [error for _, _, error in outcomes if error] == []

        store = CampaignStore(store_path)
        try:
            for round_ in range(HAMMER_ROUNDS):
                name = f"concurrency/hammer-{round_}"
                rows = store._db.execute(
                    "SELECT COUNT(*) FROM campaigns WHERE name = ?", (name,)
                ).fetchone()[0]
                assert rows == 1
                runs = store.runs(name)
                assert sorted(r.id for r in runs) == sorted(
                    ids[round_] for _, ids, _ in outcomes)
        finally:
            store.close()

    def test_file_store_journals_in_wal(self, tmp_path):
        store_path = str(tmp_path / "wal.sqlite")
        store = CampaignStore(store_path)
        try:
            mode = store._db.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"
            timeout = store._db.execute("PRAGMA busy_timeout").fetchone()[0]
            assert timeout >= 5_000
        finally:
            store.close()

    def test_reader_sees_writers_commit_immediately(self, tmp_path):
        """WAL's promise: a second connection reads committed rows."""
        store_path = str(tmp_path / "visible.sqlite")
        writer = CampaignStore(store_path)
        reader = CampaignStore(store_path)
        try:
            shards = make_shards(0, [{"x": 1}])
            writer.record_run(
                "concurrency/visibility", shards,
                [{"index": 0, "x": 1}],
                executor="test", engine=None, engine_version="test-0",
            )
            assert len(reader.runs("concurrency/visibility")) == 1
        finally:
            writer.close()
            reader.close()

    def test_memory_store_untouched_by_wal_pragmas(self):
        store = CampaignStore(":memory:")
        try:
            mode = store._db.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "memory"
        finally:
            store.close()
