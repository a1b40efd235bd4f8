"""Golden pins for the engine's tracer event streams.

A :class:`~repro.core.SimReport` holds only the run's results, so the
differential grid cannot notice a change that still computes the right
outputs but reports a different story: views materialized around other
centres or in another order, or event payloads that moved.  Every recorded trace artifact depends on
that story.

This table is the tripwire: one run per case (the ``finite`` case runs
one trial and then a batch of three on the warm memo, so its ``cache``
events count hits as well as misses), recorded with a
:class:`~repro.instrumentation.TraceRecorder`
(which reads no clock, so its events are deterministic), hashed as the
sha256 of the canonical JSON of the whole stream.  If a digest moves,
the event stream of that cell changed; either restore it or record the
change consciously (``python -m tests.test_golden_events`` prints the
current table).

The message-passing stream is pinned by the worked trace in
``docs/ENGINE.md``: its 36 JSONL lines must be what a recorder on that
run exports, byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path
from typing import Any, List, Tuple

import pytest

from repro.algorithms.message_passing import RandomizedWeakColoring
from repro.algorithms.view_rules import BallSignatureColoring, LocalMaximumRule
from repro.core import SimRequest, simulate
from repro.graphs import cycle, orient_torus, toroidal_grid
from repro.graphs.identifiers import random_permutation_ids
from repro.instrumentation import TraceRecorder
from repro.local_model import EdgeViewAlgorithm
from repro.speedup import local_maximum_coloring
from repro.speedup.finite_runner import resolve_ball_tables

CASES = ("view-ids", "edge-ids", "view-anon", "finite")


def _edge_output(view: Any) -> Tuple[int, int, int]:
    """Ball size, edge count, and the smallest random value in sight."""
    return (view.node_count, len(view.edges), min(view.randomness))


def _finite_requests() -> List[SimRequest]:
    """One trial, then a batch of three, on one fresh algorithm's memo."""
    graph = toroidal_grid(5, 6)
    rng = random.Random("golden-events:finite")
    algorithm = local_maximum_coloring(2)
    tables = resolve_ball_tables(algorithm, graph, orient_torus(graph, 5, 6))

    def draw() -> List[int]:
        return [rng.randrange(algorithm.values) for _ in graph.nodes()]

    values = draw()
    batch = [draw() for _ in range(3)]
    return [
        SimRequest(kind="finite", graph=graph, algorithm=algorithm,
                   tables=tables, label="golden:finite", **trials)
        for trials in ({"values": values}, {"batch": batch})
    ]


def _requests(case: str) -> List[SimRequest]:
    if case == "finite":
        return _finite_requests()
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
        rule = LocalMaximumRule if labeling == "ids" else BallSignatureColoring
        algorithm = rule(radius=1)
    else:
        algorithm = EdgeViewAlgorithm(2, _edge_output, name="edge-golden")
    return [SimRequest(
        kind=kind,
        graph=graph,
        algorithm=algorithm,
        ids=ids,
        randomness=randomness,
        label=f"golden:{case}",
    )]


def record_stream(case: str) -> str:
    """The canonical JSON of one cell's event stream."""
    recorder = TraceRecorder()
    for request in _requests(case):
        simulate(request, tracer=recorder)
    return json.dumps(
        [e.to_dict() for e in recorder.events],
        sort_keys=True,
        separators=(",", ":"),
    )


def stream_digest(case: str) -> str:
    text = record_stream(case)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# case -> sha256 of the canonical event stream.
GOLDEN_EVENTS = {
    'view-ids':
        '065c4e15d93b8a698f72d250434854cb72e9de2dba0c44ed276a3f33884f2882',
    'edge-ids':
        'aa466a5de1ebbc6ccc769e9b35ae748c8eb0d8e932bdf00b5ce014b43250cfbd',
    'view-anon':
        '6ea3f2305afeba2d02c862d2beef4af8fc7753c7de64788b942f93a43ce09d0b',
    'finite':
        '72a1a04a96baf1212bf243595edcd970fe21800720f8ea6d04f120ff2d514f7c',
}


@pytest.mark.parametrize("case", sorted(GOLDEN_EVENTS))
def test_event_stream_matches_golden_digest(case):
    assert stream_digest(case) == GOLDEN_EVENTS[case], record_stream(case)


def test_golden_table_covers_the_full_grid():
    assert set(GOLDEN_EVENTS) == set(CASES)


ENGINE_MD = Path(__file__).resolve().parent.parent / "docs" / "ENGINE.md"


def worked_trace(markdown: str) -> str:
    """The JSONL fence that follows the worked trace's "full JSONL event log"."""
    fence = re.search(r"The full JSONL event log.*?```json\n(.*?)```", markdown, re.S)
    return fence.group(1).rstrip("\n")


def test_engine_md_worked_trace_is_the_recorded_stream():
    recorder = TraceRecorder()
    simulate(SimRequest(kind="local", graph=cycle(6),
                        algorithm=RandomizedWeakColoring(), rng=random.Random(42)),
             tracer=recorder)
    documented = worked_trace(ENGINE_MD.read_text(encoding="utf-8"))
    assert len(documented.splitlines()) == 36
    assert recorder.to_jsonl() == documented


if __name__ == "__main__":  # pragma: no cover - table regeneration aid
    for c in CASES:
        print(f"    {c!r}:\n        {stream_digest(c)!r},")
