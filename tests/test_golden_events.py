"""Golden pins for the per-layout tracer event streams.

:meth:`~repro.core.SimReport.identity` deliberately excludes
diagnostics, so the differential grid cannot notice a layout that
still computes the right outputs but reports a different story: views
materialized around other centres or in another order, layout
payloads that moved.  Every recorded trace artifact depends on
that story.

This table is the tripwire: one run per (engine × layout × case)
cell, recorded with a :class:`~repro.instrumentation.TraceRecorder`
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

LAYOUTS = ("dict", "csr")
CASES = ("view-ids", "edge-ids", "view-anon", "edge-anon")


def _edge_output(view: Any) -> Tuple[int, int, int]:
    """Ball size, edge count, and the smallest random value in sight."""
    return (view.node_count, len(view.edges), min(view.randomness))


def _request(case: str, layout: str) -> SimRequest:
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
        layout=layout,
        label=f"golden:{case}",
    )


def record_stream(layout: str, case: str) -> str:
    """The canonical JSON of one cell's event stream."""
    recorder = TraceRecorder()
    DirectEngine().run(_request(case, layout), tracer=recorder)
    return json.dumps(
        [e.to_dict() for e in recorder.events],
        sort_keys=True,
        separators=(",", ":"),
    )


def stream_digest(layout: str, case: str) -> str:
    text = record_stream(layout, case)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# (engine, layout, case) -> sha256 of the canonical event stream.
GOLDEN_EVENTS = {
    ('direct', 'dict', 'view-ids'):
        '013e601ebcfe84fb4390cd05ba7ac6007c137b604140c32ce6767aa214911802',
    ('direct', 'dict', 'edge-ids'):
        '2a7fa32b6312177af9c5c192d30b40bf9c88427ea806470ee472f78133aafbb4',
    ('direct', 'dict', 'view-anon'):
        '0684e54640ff8b61501fee3d0109ffe6bba8cf9d9dbb274b18fe99f3328abe23',
    ('direct', 'dict', 'edge-anon'):
        '2a7fa32b6312177af9c5c192d30b40bf9c88427ea806470ee472f78133aafbb4',
    ('direct', 'csr', 'view-ids'):
        'e75b357100588594d5ff6d4b3b4205e91d21ddde47d2edca406a90b52968f271',
    ('direct', 'csr', 'edge-ids'):
        'afd023e1f55bd8886b18ae1d4c99cebccee3d88f4066e4e7c6ecaf7fde1e62ff',
    ('direct', 'csr', 'view-anon'):
        '1cf0c38d6e08b19d26e671a2e563dee6fba2eced8a8cb8426a0c8ade7d341570',
    ('direct', 'csr', 'edge-anon'):
        'afd023e1f55bd8886b18ae1d4c99cebccee3d88f4066e4e7c6ecaf7fde1e62ff',
}


@pytest.mark.parametrize(
    "engine,layout,case",
    sorted(GOLDEN_EVENTS),
    ids=lambda p: str(p),
)
def test_event_stream_matches_golden_digest(engine, layout, case):
    assert engine == DirectEngine.name  # the name every event carries
    assert stream_digest(layout, case) == GOLDEN_EVENTS[
        (engine, layout, case)
    ], record_stream(layout, case)


def test_golden_table_covers_the_full_grid():
    assert set(GOLDEN_EVENTS) == {
        ("direct", l, c) for l in LAYOUTS for c in CASES
    }


if __name__ == "__main__":  # pragma: no cover - table regeneration aid
    for l in LAYOUTS:
        for c in CASES:
            print(f"    ('direct', {l!r}, {c!r}):\n        {stream_digest(l, c)!r},")
