"""The sharded backend: dedupe view classes, fan evaluations over a pool.

The sharded engine combines the cached engine's insight (on symmetric
graph families, almost all balls are pairwise isomorphic) with process
fan-out:

1. the parent process keys every node (edge) by its canonical view
   signature — the same perfect key the cached engine uses;
2. the *distinct* view classes are split into shards, each with a
   sha256-derived seed
   (:func:`~repro.core.engine.derive_seed`, the experiment runner's
   ``derive_cell_seed`` scheme);
3. a :mod:`multiprocessing` pool materializes one representative ball
   per class and evaluates the algorithm on it;
4. the parent broadcasts each class's output to every member.

Work drops from ``n`` evaluations to ``distinct classes`` evaluations,
and those evaluations parallelize — so the engine beats the direct
backend even on a single core (it does strictly less work), and scales
with cores when they exist.  ``benchmarks/BENCH_engine_backends.json``
tracks the measured ratios.

Degradation is explicit, never silent in the report: algorithms or
labelings that cannot cross a process boundary (lambdas, closures), and
runs already inside a daemonic worker (the experiment runner's
``--jobs`` pool cannot have children), are evaluated in-process with
the same dedup-and-broadcast plan, and the report's ``info["pooled"]``
says which path ran.  When the degraded path runs for a *reason* —
unpicklable payload, forbidden fork, a worker that died or raised, a
pool that stopped answering within ``timeout`` — the reason string is
surfaced as ``info["degraded"]`` and fired through
:meth:`~repro.instrumentation.tracer.Tracer.on_degraded`, so metrics
and artifacts record every fallback (the conformance fault-injection
suite, ``repro.conformance.faults``, asserts these paths).  ``local``
requests (round-synchronous message passing) and ``finite`` requests
(already memoized by the algorithm's own assignment cache) fall back to
direct semantics.  Results are bit-identical to the other backends in
every case — the differential suite proves it.

:meth:`ShardedEngine.run_many` is the second axis the paper's workload
offers: *independent* requests (cells, graphs) fan out over the pool
whole, one report each, order preserved.
"""

from __future__ import annotations

import atexit
import multiprocessing
import pickle
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..instrumentation.tracer import Tracer, effective_tracer
from ..local_model.cache import CacheStats
from ..local_model.kernels import broadcast_table
from .direct import DirectEngine
from .engine import SimReport, SimRequest, derive_seed, resolve_engine
from .entities import ENTITIES, Entities, labeling_of, layout_info, partition

__all__ = ["ShardedEngine"]


#: Backends :meth:`ShardedEngine.run_many` may run inside its workers.
_INNER_ENGINES = ("direct", "cached")


def _default_shards() -> int:
    """Pool width: every core, but at least two shards (fan-out exists
    even on one core, where the dedup — not parallelism — is the win)."""
    return max(2, multiprocessing.cpu_count())


def _split(items: Sequence[Any], shards: int) -> List[Sequence[Any]]:
    """At most ``shards`` contiguous, non-empty, balanced chunks."""
    shards = max(1, min(shards, len(items)))
    size, extra = divmod(len(items), shards)
    chunks, start = [], 0
    for i in range(shards):
        end = start + size + (1 if i < extra else 0)
        chunks.append(items[start:end])
        start = end
    return chunks


def _picklable(*objects: Any) -> bool:
    """Whether every object can cross a process boundary."""
    try:
        pickle.dumps(objects)
    except Exception:
        return False
    return True


def _can_fork() -> bool:
    """Whether this process may spawn pool workers.

    Daemonic processes (e.g. the experiment runner's ``--jobs`` workers)
    cannot have children; the engine then runs its dedup-and-broadcast
    plan in-process instead of crashing.
    """
    return not multiprocessing.current_process().daemon


# -- module-level workers (Pool requires importable callables) ----------

def _eval_chunk(payload: Tuple[Any, ...]) -> List[Any]:
    """Evaluate one shard of class representatives.

    The payload names the request kind (not its adapter) so it pickles.
    """
    kind, graph, algorithm, ids, inputs, randomness, orientation, reps = payload
    ents = ENTITIES[kind]
    radius, evaluate = ents.radius(algorithm), ents.evaluator(algorithm)
    return [
        evaluate(
            ents.gather(
                graph, entity, radius,
                ids=ids, inputs=inputs, randomness=randomness,
                orientation=orientation,
            )
        )
        for entity in reps
    ]


def _run_request_chunk(payload: Tuple[str, Sequence[SimRequest], bool]) -> List[Any]:
    """One chunk of independent requests through a fresh ``inner`` engine.

    One engine per chunk, so a chunk's requests share a memo table.
    When ``traced``, each request runs under a fresh worker-side
    :class:`~repro.instrumentation.metrics.MetricsTracer` and comes
    back as a ``(report, metrics_dict)`` pair — the parent relays the
    dict through :meth:`~repro.instrumentation.tracer.Tracer.on_subrun`
    so cache/layout/kernel activity inside workers is never lost.
    The serial fallback runs this same function in-process.
    """
    inner, requests, traced = payload
    engine = resolve_engine(inner)
    if not traced:
        return [engine.run(request) for request in requests]
    from ..instrumentation.metrics import MetricsTracer

    results = []
    for request in requests:
        metrics = MetricsTracer()
        report = engine.run(request, tracer=metrics)
        results.append((report, metrics.metrics.to_dict()))
    return results


class ShardedEngine(DirectEngine):
    """Process-pool backend over view-equivalence classes and requests.

    Parameters
    ----------
    shards:
        Number of shards (and pool processes); default
        ``max(2, cpu_count())``.
    base_seed:
        Base of the per-shard seed derivation
        ``derive_seed(base_seed, f"{label}:{kind}:shard-{i}")``; a
        request's own ``seed`` takes precedence as the base.
    inner:
        Backend run *inside* each worker for :meth:`run_many`
        (``"direct"`` or ``"cached"``).
    timeout:
        Seconds to wait for the pool to answer one dispatched batch.
        ``None`` (the default) waits forever — correct when workers are
        trusted to either answer or raise.  A finite timeout buys crash
        resilience: if a worker dies mid-shard (so its results never
        arrive), the engine tears the pool down and re-evaluates
        in-process instead of hanging, reporting
        ``info["degraded"]``.
    """

    name = "sharded"
    prefer_csr = True  # class detection is this backend's parent-side cost

    def __init__(
        self,
        shards: Optional[int] = None,
        base_seed: int = 0,
        inner: str = "direct",
        timeout: Optional[float] = None,
    ):
        if shards is not None and shards < 1:
            raise ValueError("shards must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if inner not in _INNER_ENGINES:
            raise ValueError(
                f"inner must be 'direct' or 'cached', got {inner!r}"
            )
        self.shards = shards or _default_shards()
        self.base_seed = base_seed
        self.inner = inner
        self.timeout = timeout
        self._pool: Optional[Any] = None

    # -- pool lifecycle --------------------------------------------------
    def _get_pool(self):
        """The persistent worker pool, spawned on first pooled run.

        Keeping the pool warm across runs matters: on the graphs the
        benchmarks measure, a fresh pool per run costs more than the
        dedup saves.  Workers are daemonic, so an unexited interpreter
        never hangs on them; :meth:`close` releases them eagerly.
        """
        if self._pool is None:
            self._pool = multiprocessing.Pool(processes=self.shards)
            # Tear down before interpreter shutdown: Pool.__del__ during
            # teardown races module finalization and logs spurious noise.
            atexit.register(self.close)
        return self._pool

    def close(self) -> None:
        """Terminate the worker pool (a later run respawns it)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    # -- shared plumbing ------------------------------------------------
    def _shard_seeds(self, request: SimRequest, count: int) -> List[int]:
        base = request.seed if request.seed is not None else self.base_seed
        return [
            derive_seed(base, f"{request.label}:{request.kind}:shard-{i}")
            for i in range(count)
        ]

    def _pool_map(
        self,
        worker: Callable[[Any], Any],
        payloads: Sequence[Any],
    ) -> List[Any]:
        """``pool.map`` honoring :attr:`timeout`.

        Raises whatever the workers raise; raises
        :class:`multiprocessing.TimeoutError` when the pool does not
        answer in time (the signature of a worker that died mid-shard —
        its results will never arrive).
        """
        if self.timeout is None:
            return self._get_pool().map(worker, payloads)
        return self._get_pool().map_async(worker, payloads).get(self.timeout)

    def _degradation_reason(self, shared: Any) -> Optional[str]:
        """Why the pooled path cannot run, or ``None`` if it can."""
        if not _can_fork():
            return "no-fork"
        if not _picklable(shared):
            return "unpicklable"
        return None

    def _evaluate_shards(
        self,
        request: SimRequest,
        reps: Sequence[Any],
        tracer: Optional[Tracer],
    ) -> Tuple[List[Any], bool, Optional[str]]:
        """Evaluate one representative per class, pooled when possible.

        Returns ``(outputs_in_rep_order, pooled, degraded_reason)``.
        ``degraded_reason`` is ``None`` on the happy paths (pooled, or
        in-process merely because there is one chunk) and a short reason
        string whenever the engine *wanted* the pool but could not use
        it — see the module docstring's degradation contract.
        """
        chunks = _split(list(reps), self.shards)
        seeds = self._shard_seeds(request, len(chunks))
        if tracer is not None:
            for i, (chunk, seed) in enumerate(zip(chunks, seeds)):
                tracer.on_shard(i, len(chunk), seed)
        shared = (
            request.graph,
            request.algorithm,
            request.ids,
            request.inputs,
            request.randomness,
            request.orientation,
        )
        payloads = [(request.kind,) + shared + (chunk,) for chunk in chunks]
        pooled, degraded = False, None
        if len(chunks) > 1:
            degraded = self._degradation_reason(shared)
        if len(chunks) > 1 and degraded is None:
            try:
                chunk_outputs = self._pool_map(_eval_chunk, payloads)
                pooled = True
            except Exception as exc:
                # A worker died, raised, or the pool timed out: the pool
                # state is unknown, so tear it down (a later run
                # respawns it) and re-evaluate in-process — strictly
                # less efficient, bit-identical by construction.
                self.close()
                degraded = f"pool-error: {type(exc).__name__}: {exc}"
        if not pooled:
            chunk_outputs = [_eval_chunk(payload) for payload in payloads]
        if degraded is not None and tracer is not None:
            tracer.on_degraded(self.name, degraded)
        return (
            [out for chunk in chunk_outputs for out in chunk],
            pooled,
            degraded,
        )

    @staticmethod
    def _dedup_stats(lookups: int, distinct: int) -> Dict[str, Any]:
        return CacheStats(
            lookups=lookups,
            hits=lookups - distinct,
            misses=distinct,
            distinct_classes=distinct,
        ).to_dict()

    # -- "view"/"edge": shard the distinct ball classes ----------------
    def _evaluate(
        self,
        ents: Entities,
        request: SimRequest,
        layout: str,
        tracer: Optional[Tracer],
    ) -> SimReport:
        graph, algorithm = request.graph, request.algorithm
        entities, count = ents.entities(graph), ents.count(graph)
        part = partition(
            ents, graph, entities, ents.radius(algorithm), layout,
            labeling_of(request),
        )
        if tracer is not None:
            info = layout_info(request, count, part)
            info["classes"] = part.class_count
            tracer.on_layout(self.name, layout, info)
        # First-occurrence representatives match the dict scan's, so
        # shard payloads — and therefore outputs — are layout-independent.
        reps = [entities[i] for i in part.reps]
        class_outputs, pooled, degraded = self._evaluate_shards(
            request, reps, tracer
        )
        if tracer is not None:
            tracer.on_cache(request.kind, self._dedup_stats(count, len(reps)))
        info = {"distinct_classes": len(reps), "pooled": pooled}
        if degraded is not None:
            info["degraded"] = degraded
        return ents.report(
            algorithm, entities,
            broadcast_table(class_outputs, part.labels),
            self.name, info,
        )

    # -- batches: shard whole independent requests ----------------------
    def run_many(
        self,
        requests: Sequence[SimRequest],
        tracer: Optional[Tracer] = None,
    ) -> List[SimReport]:
        """Fan independent requests over the pool, order preserved.

        Each shard (a contiguous chunk of the batch) runs its requests
        through the ``inner`` backend in a worker process.  Degradation
        is decided *per chunk*: a chunk that cannot be pickled (lambdas
        in algorithms, exotic labelings) runs in-process while the
        picklable chunks still pool, and only the degraded chunk's
        reports carry the reason under ``info["degraded"]`` — mirroring
        the single-run contract without punishing the healthy part of a
        mixed batch.  A pool failure mid-batch (worker crash, timeout)
        reassigns every pooled chunk to the serial path with a
        ``pool-error`` reason.

        Metrics folding happens in one assembly pass *after* all
        evaluation: exactly one
        :meth:`~repro.instrumentation.tracer.Tracer.on_subrun` per
        request and one
        :meth:`~repro.instrumentation.tracer.Tracer.on_degraded` per
        degraded chunk, on every path.  (The previous implementation
        relayed pooled metrics inside its ``try`` block, so an
        exception raised after a partial relay fell through to a serial
        mirror that re-folded the whole batch — double-counting every
        ``cache_*`` counter.  The single-pass assembly makes that
        impossible; ``tests/test_run_many_folding.py`` pins the folded
        totals against per-shard sums.)
        """
        tracer = effective_tracer(tracer)
        requests = list(requests)
        if not requests:
            return []
        chunks = _split(requests, self.shards)
        if tracer is not None:
            for i, chunk in enumerate(chunks):
                seed = derive_seed(self.base_seed, f"run-many:shard-{i}")
                tracer.on_shard(i, len(chunk), seed)
        # Per-chunk degradation decision.  A single-chunk batch runs
        # in-process as a happy path (no pool to degrade from), exactly
        # like _evaluate_shards.
        multi = len(chunks) > 1
        forbidden = "no-fork" if (multi and not _can_fork()) else None
        reasons: List[Optional[str]] = []
        for chunk in chunks:
            if not multi:
                reasons.append(None)
            elif forbidden is not None:
                reasons.append(forbidden)
            elif not _picklable(list(chunk)):
                reasons.append("unpicklable")
            else:
                reasons.append(None)
        traced = tracer is not None
        pooled_idx = [i for i in range(len(chunks)) if multi and reasons[i] is None]
        results: Dict[int, List[Any]] = {}
        if pooled_idx:
            payloads = [(self.inner, chunks[i], traced) for i in pooled_idx]
            try:
                for i, chunk_result in zip(
                    pooled_idx, self._pool_map(_run_request_chunk, payloads)
                ):
                    results[i] = chunk_result
            except Exception as exc:
                # A worker died, raised, or the pool timed out: tear the
                # pool down (a later run respawns it) and reassign every
                # pooled chunk to the serial path with the reason.
                self.close()
                reason = f"pool-error: {type(exc).__name__}: {exc}"
                results.clear()
                for i in pooled_idx:
                    reasons[i] = reason
        for i, chunk in enumerate(chunks):
            if i not in results:
                results[i] = _run_request_chunk((self.inner, chunk, traced))
        # Single assembly pass, after all evaluation: relay metrics,
        # mark degraded chunks, preserve input order.
        reports: List[SimReport] = []
        for i, chunk in enumerate(chunks):
            reason = reasons[i] if multi else None
            if reason is not None and tracer is not None:
                tracer.on_degraded(self.name, reason)
            for item in results[i]:
                if traced:
                    report, metrics = item
                    tracer.on_subrun(metrics)
                else:
                    report = item
                if reason is not None:
                    report.info["degraded"] = reason
                reports.append(report)
        return reports
