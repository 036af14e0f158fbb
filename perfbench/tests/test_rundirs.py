"""Finished runs keep their files until together they pass the bound."""

import os

import run


def make_run(root, name, size):
    path = root / name
    path.mkdir()
    (path / "cache.json").write_bytes(b"x" * size)
    run.finish_run_dir(str(path))
    return path


def test_runs_are_kept_below_the_bound_and_all_pruned_above(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(run, "KEEP_BYTES", 3 * 8192)
    first = make_run(tmp_path, "run-a", 8192)
    second = make_run(tmp_path, "run-b", 8192)
    (tmp_path / "trace").mkdir()
    run.prune_old_runs()
    assert first.exists() and second.exists()

    unfinished = tmp_path / "run-c"
    unfinished.mkdir()
    (unfinished / "cache.json").write_bytes(b"x" * 3 * 8192)
    run.prune_old_runs()
    assert not any(p.name.startswith("run-") for p in tmp_path.iterdir())
    assert (tmp_path / "trace").exists()


def test_finished_run_records_its_allocated_size(tmp_path):
    path = make_run(tmp_path, "run-a", 10000)
    recorded = int((path / "SIZE").read_text())
    assert recorded == os.lstat(path / "cache.json").st_blocks * 512
