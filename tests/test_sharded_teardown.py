"""Pool lifecycle tests for the sharded engine.

A leaked worker pool is invisible to the differential suite (outputs
stay right) but poisons everything downstream: CI runners accumulate
zombie processes, and a second engine contends with the first's
workers.  These tests pin the teardown contract: ``close()`` terminates
the pool, no child processes outlive it, and a closed engine respawns
cleanly.
"""

import multiprocessing

import pytest

from repro.algorithms.view_rules import DegreeProfileRule
from repro.core.engine import SimRequest
from repro.core.sharded import ShardedEngine
from repro.graphs.generators import path


def _pooled_request(n=8):
    return SimRequest(
        kind="view",
        graph=path(n),
        algorithm=DegreeProfileRule(radius=1),
        ids=list(range(1, n + 1)),  # distinct views => pooled dispatch
        label="teardown-test",
    )


def _drain_finished_children():
    # active_children() also reaps finished processes; call it once so
    # pre-existing zombies don't count against the engine under test.
    multiprocessing.active_children()


def test_close_terminates_all_workers():
    _drain_finished_children()
    before = set(multiprocessing.active_children())
    engine = ShardedEngine(shards=2)
    report = engine.run(_pooled_request())
    assert report.info["pooled"] is True
    assert set(multiprocessing.active_children()) - before  # pool is live
    engine.close()
    leaked = set(multiprocessing.active_children()) - before
    assert not leaked, f"workers outlived close(): {leaked}"


def test_close_is_idempotent_and_cheap_without_a_pool():
    engine = ShardedEngine(shards=2)
    engine.close()  # never spawned: must not raise
    engine.close()
    engine.run(_pooled_request())
    engine.close()
    engine.close()


def test_closed_engine_respawns_on_next_run():
    engine = ShardedEngine(shards=2)
    try:
        first = engine.run(_pooled_request())
        engine.close()
        second = engine.run(_pooled_request())
        assert second.info["pooled"] is True
        assert second.identity() == first.identity()
    finally:
        engine.close()


def test_second_engine_starts_after_first_closes():
    first = ShardedEngine(shards=2)
    first.run(_pooled_request())
    first.close()
    second = ShardedEngine(shards=2)
    try:
        report = second.run(_pooled_request())
        assert report.info["pooled"] is True
    finally:
        second.close()
    _drain_finished_children()


def test_constructor_rejects_bad_arguments():
    with pytest.raises(ValueError, match="shards"):
        ShardedEngine(shards=0)
    with pytest.raises(ValueError, match="shards"):
        ShardedEngine(shards=-3)
    with pytest.raises(ValueError, match="timeout"):
        ShardedEngine(timeout=0)
    with pytest.raises(ValueError, match="timeout"):
        ShardedEngine(timeout=-1.5)
    # An unknown inner backend fails here, not later inside every worker.
    with pytest.raises(ValueError, match="inner must be 'direct' or 'cached'"):
        ShardedEngine(shards=2, inner="bogus")
    with pytest.raises(ValueError, match="inner"):
        ShardedEngine(inner="sharded")
    # None timeout and unspecified shards are the documented defaults.
    engine = ShardedEngine()
    assert engine.timeout is None
    assert engine.shards >= 1
    engine.close()


def test_interpreter_exit_does_not_hang_on_live_pool():
    # The engine registers an atexit hook; a child interpreter that
    # exits with a warm pool must terminate promptly and cleanly.
    import subprocess
    import sys

    code = (
        "from repro.core.sharded import ShardedEngine\n"
        "from tests.test_sharded_teardown import _pooled_request\n"
        "engine = ShardedEngine(shards=2)\n"
        "report = engine.run(_pooled_request())\n"
        "assert report.info['pooled'] is True\n"
        "print('warm-pool-exit-ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": "src:.", "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "warm-pool-exit-ok" in proc.stdout
