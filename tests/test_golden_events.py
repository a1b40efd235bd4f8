"""Golden pins for the engine's view and edge tracer event streams.

:meth:`~repro.core.SimReport.identity` deliberately excludes
diagnostics, so the differential grid cannot notice a change that
still computes the right outputs but reports a different story: views
materialized around other centres or in another order, or event
payloads that moved.  Every recorded trace artifact depends on
that story.

This table is the tripwire: one run per (engine × case) cell,
recorded with a :class:`~repro.instrumentation.TraceRecorder`
(which reads no clock, so its events are deterministic), hashed as the
sha256 of the canonical JSON of the whole stream.  If a digest moves,
the event stream of that cell changed; either restore it or record the
change consciously (``python -m tests.test_golden_events`` prints the
current table).
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Tuple

import pytest

from repro.algorithms.view_rules import make_view_rule
from repro.core import DirectEngine, SimRequest
from repro.graphs import toroidal_grid
from repro.graphs.identifiers import random_permutation_ids
from repro.instrumentation import TraceRecorder
from repro.local_model import EdgeViewAlgorithm

CASES = ("view-ids", "edge-ids", "view-anon", "edge-anon")


def _edge_output(view: Any) -> Tuple[int, int, int]:
    """Ball size, edge count, and the smallest random value in sight."""
    return (view.node_count, len(view.edges), min(view.randomness))


def _request(case: str) -> SimRequest:
    graph = toroidal_grid(5, 6)
    rng = random.Random(f"golden-events:{case}")
    kind, labeling = case.split("-")
    if labeling == "ids":
        ids = random_permutation_ids(graph, rng)
        randomness = [rng.getrandbits(12) for _ in graph.nodes()]
    else:
        # Sparse random bits: most balls collide into few classes.
        ids = None
        randomness = [int(rng.random() < 0.1) for _ in graph.nodes()]
    if kind == "view":
        rule = "local-max" if labeling == "ids" else "ball-signature"
        algorithm = make_view_rule(rule, radius=1)
    else:
        algorithm = EdgeViewAlgorithm(2, _edge_output, name="edge-golden")
    return SimRequest(
        kind=kind,
        graph=graph,
        algorithm=algorithm,
        ids=ids,
        randomness=randomness,
        label=f"golden:{case}",
    )


def record_stream(case: str) -> str:
    """The canonical JSON of one cell's event stream."""
    recorder = TraceRecorder()
    DirectEngine().run(_request(case), tracer=recorder)
    return json.dumps(
        [e.to_dict() for e in recorder.events],
        sort_keys=True,
        separators=(",", ":"),
    )


def stream_digest(case: str) -> str:
    text = record_stream(case)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# (engine, case) -> sha256 of the canonical event stream.
GOLDEN_EVENTS = {
    ('direct', 'view-ids'):
        '065c4e15d93b8a698f72d250434854cb72e9de2dba0c44ed276a3f33884f2882',
    ('direct', 'edge-ids'):
        'aa466a5de1ebbc6ccc769e9b35ae748c8eb0d8e932bdf00b5ce014b43250cfbd',
    ('direct', 'view-anon'):
        '6ea3f2305afeba2d02c862d2beef4af8fc7753c7de64788b942f93a43ce09d0b',
    ('direct', 'edge-anon'):
        'aa466a5de1ebbc6ccc769e9b35ae748c8eb0d8e932bdf00b5ce014b43250cfbd',
}


@pytest.mark.parametrize(
    "engine,case",
    sorted(GOLDEN_EVENTS),
    ids=lambda p: str(p),
)
def test_event_stream_matches_golden_digest(engine, case):
    assert engine == DirectEngine.name  # the name every event carries
    assert stream_digest(case) == GOLDEN_EVENTS[(engine, case)], (
        record_stream(case)
    )


def test_golden_table_covers_the_full_grid():
    assert set(GOLDEN_EVENTS) == {("direct", c) for c in CASES}


if __name__ == "__main__":  # pragma: no cover - table regeneration aid
    for c in CASES:
        print(f"    ('direct', {c!r}):\n        {stream_digest(c)!r},")
