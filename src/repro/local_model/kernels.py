"""Vectorized algorithm kernels: whole-run NumPy execution plans.

PR 5 vectorized view *partitioning* (:mod:`repro.local_model.batch_views`
computes every ball class in one pass), but the algorithm step still ran
per class in Python, and round-based message passing looped node by node
per round.  This module closes that gap with two kernel shapes, both
opt-in and both guaranteed bit-identical to the reference engines:

**View kernels** map a whole :class:`PackedRows` block — the packed
streams of every view-equivalence class, parsed back into flat arrays —
to one output per class at once (a vectorized *class table*), which
:func:`broadcast_table` then fans out to the class members.  No
per-class Python call remains on the happy path.

**Local (round) kernels** express a synchronous message-passing
algorithm as one gather/scatter step per round over the CSR
``indptr/indices`` arrays — the SpMV shape — with a :class:`KernelState`
(halt/output/round arrays plus kernel-owned state) threaded across
rounds by :func:`run_local_kernel`, which reproduces the direct
engine's round loop exactly: same per-node RNG derivation, same
``max_rounds`` runaway guard (same message), same halt-round
accounting.

Kernels never guess: anything a kernel cannot reproduce exactly is
*declined* via :class:`KernelUnsupported` **before** any observable
effect (in particular before the master RNG is touched), and the
engines fall back to the reference per-entity path — so registering a
kernel can change performance, never results.  The authoring contract,
the packed-row format, and a worked example live in ``docs/KERNELS.md``;
the parity suites (``tests/test_kernels.py``) and the conformance
``layouts=`` axis prove the bit-identity.

The engine reaches kernels only through an explicit
``SimRequest.layout="kernel"``; ``"auto"`` never escalates (see
:func:`repro.local_model.batch_views.resolve_layout`).
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from .batch_views import ClassPartition, _exclusive_cumsum

__all__ = [
    "KernelUnsupported",
    "PackedRows",
    "KernelState",
    "LocalKernel",
    "register_view_kernel",
    "view_kernel_for",
    "register_local_kernel",
    "local_kernel_for",
    "register_finite_kernel",
    "finite_kernel_for",
    "has_kernel",
    "run_view_kernel",
    "broadcast_table",
    "run_local_kernel",
]


class KernelUnsupported(Exception):
    """A kernel declines a run it cannot reproduce exactly.

    Raised by the registry helpers (``"no-kernel"``), the packed-row
    parser (``"python-partition"``), or a kernel's own feasibility
    checks (``"unsupported: ..."``).  Engines catch it and run the
    reference per-entity path instead — declining is always safe, so
    kernels should decline on *any* doubt.  Must never be raised after
    a kernel has produced observable effects (RNG draws, mutations).
    """


# ----------------------------------------------------------------------
# Packed view rows: the vectorized face of a ClassPartition
# ----------------------------------------------------------------------

class PackedRows:
    """The packed streams of one :class:`ClassPartition`, as flat arrays.

    Every numpy-path class key carries its ball's canonical stream
    ``[k, degrees..., port rows..., label sections...]`` as bytes (see
    ``docs/KERNELS.md`` for the full format).  This class concatenates
    the per-class streams back into one ``int64`` buffer so a view
    kernel can compute all class outputs with array operations.

    Attributes
    ----------
    count:
        Number of classes (= rows).
    tag, radius, flags, itemsize:
        The shared key prefix: entity tag (``"v"`` / ``"e"``), view
        radius, ``(has_ids, has_inputs, has_randomness)`` label flags,
        and the packed element width in bytes (4 or 8).
    buf, offsets, lengths, k:
        The concatenated streams, each class's start offset and element
        length within ``buf``, and each class's ball size ``k``
        (``buf[offsets]`` — the stream's self-delimiting header).
    """

    __slots__ = ("count", "tag", "radius", "flags", "itemsize",
                 "buf", "offsets", "lengths", "k", "ncols")

    #: Label sections appear in this fixed slot order when present.
    _SLOTS = ("ids", "inputs", "randomness")

    def __init__(
        self,
        count: int,
        tag: str,
        radius: int,
        flags: Tuple[bool, ...],
        itemsize: int,
        buf: np.ndarray,
        offsets: np.ndarray,
        lengths: np.ndarray,
        k: np.ndarray,
    ):
        self.count = count
        self.tag = tag
        self.radius = radius
        self.flags = flags
        self.itemsize = itemsize
        self.buf = buf
        self.offsets = offsets
        self.lengths = lengths
        self.k = k
        self.ncols = sum(1 for f in flags if f)

    @classmethod
    def from_partition(cls, partition: ClassPartition) -> "PackedRows":
        """Parse a numpy-path partition's keys into packed rows.

        Raises
        ------
        KernelUnsupported
            With reason ``"python-partition"`` when the partition came
            from the reference fallback (its keys are signature tuples,
            not packed streams) — the caller must fall back too.
        """
        if partition.path != "numpy":
            raise KernelUnsupported("python-partition")
        keys = partition.keys
        empty = np.zeros(0, dtype=np.int64)
        if not keys:
            return cls(0, "", 0, (False, False, False), 8,
                       empty, empty, empty, empty)
        tag, radius, key_flags, _ = keys[0]
        flags = tuple(bool(f) for f in key_flags[:3])
        itemsize = int(key_flags[3])
        dtype = np.int32 if itemsize == 4 else np.int64
        blob = b"".join(key[3] for key in keys)
        buf = np.asarray(np.frombuffer(blob, dtype=dtype), dtype=np.int64)
        lengths = np.fromiter(
            (len(key[3]) // itemsize for key in keys),
            dtype=np.int64, count=len(keys),
        )
        offsets = _exclusive_cumsum(lengths)
        return cls(len(keys), tag, int(radius), flags, itemsize,
                   buf, offsets, lengths, buf[offsets])

    # -- label-section accessors ----------------------------------------
    def column_index(self, slot: str) -> Optional[int]:
        """Position of ``slot`` among the present label sections, or None."""
        i = self._SLOTS.index(slot)
        if not self.flags[i]:
            return None
        return sum(1 for f in self.flags[:i] if f)

    def _column_start(self, slot: str) -> np.ndarray:
        ci = self.column_index(slot)
        if ci is None:
            raise KernelUnsupported(
                f"unsupported: no {slot} labeling in the packed stream"
            )
        rowlen = self.lengths - 1 - (1 + self.ncols) * self.k
        return self.offsets + 1 + self.k + rowlen + ci * self.k

    def center(self, slot: str) -> np.ndarray:
        """Each class's center label (exploration order starts at the
        center, so this is the first entry of the section) — int64[count]."""
        return self.buf[self._column_start(slot)]

    def column(self, slot: str) -> Tuple[np.ndarray, np.ndarray]:
        """One label section of every class, gathered contiguously.

        Returns ``(values, bounds)``: the concatenated per-class label
        values (ball-exploration order, ``k[c]`` entries per class) and
        the exclusive-cumsum segment boundaries suitable for
        ``np.<ufunc>.reduceat`` (every ball has ``k >= 1``).
        """
        starts = self._column_start(slot)
        total = int(self.k.sum())
        bounds = _exclusive_cumsum(self.k)
        pos = np.repeat(starts - bounds, self.k) + np.arange(
            total, dtype=np.int64
        )
        return self.buf[pos], bounds

    def with_column(self, slot: str, values: np.ndarray) -> "PackedRows":
        """A copy of these rows with one label section rewritten.

        ``values`` aligns with :meth:`column`'s concatenated layout
        (ball-exploration order, ``k[c]`` entries per class).  The
        projection kernels use this to substitute derived labels — e.g.
        per-class order ranks — while keeping every other section, and
        therefore the inner kernel's parsing, untouched.
        """
        starts = self._column_start(slot)
        total = int(self.k.sum())
        bounds = _exclusive_cumsum(self.k)
        pos = np.repeat(starts - bounds, self.k) + np.arange(
            total, dtype=np.int64
        )
        buf = self.buf.copy()
        buf[pos] = np.asarray(values, dtype=np.int64)
        return PackedRows(self.count, self.tag, self.radius, self.flags,
                          self.itemsize, buf, self.offsets, self.lengths,
                          self.k)

    def segment_max(self, slot: str) -> np.ndarray:
        """Per-class maximum over one label section — int64[count]."""
        vals, bounds = self.column(slot)
        return np.maximum.reduceat(vals, bounds)

    def segment_max_count(self, slot: str) -> Tuple[np.ndarray, np.ndarray]:
        """Per-class ``(max, multiplicity of the max)`` over a section."""
        vals, bounds = self.column(slot)
        mx = np.maximum.reduceat(vals, bounds)
        seg = np.repeat(np.arange(self.count, dtype=np.int64), self.k)
        cnt = np.add.reduceat((vals == mx[seg]).astype(np.int64), bounds)
        return mx, cnt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedRows(classes={self.count}, tag={self.tag!r}, "
            f"radius={self.radius}, flags={self.flags})"
        )


# ----------------------------------------------------------------------
# Kernel registries (one axis per kernel shape, MRO-resolved)
# ----------------------------------------------------------------------

#: View kernels: algorithm class -> fn(algorithm, PackedRows) -> table.
_VIEW_KERNELS: Dict[type, Callable[[Any, PackedRows], Sequence[Any]]] = {}

#: Local kernels: algorithm class -> LocalKernel factory.
_LOCAL_KERNELS: Dict[type, Callable[[Any], "LocalKernel"]] = {}

#: Finite kernels: algorithm class -> fn(algorithm, values, tables)
#: -> (outputs, failing).  See :func:`register_finite_kernel`.
_FINITE_KERNELS: Dict[type, Callable[..., Tuple[List[Any], List[int]]]] = {}

_BUILTINS_LOADED = False


def _load_builtin_kernels() -> None:
    """Import the built-in kernel registrations, once, lazily.

    Lookup-triggered so the engines see the built-in kernels without
    anyone having to import :mod:`repro.algorithms.kernels` explicitly
    (mirroring ``ensure_builtins`` for the component registries), while
    keeping the import graph one-way at module load time.
    """
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        importlib.import_module("repro.algorithms.kernels")


def register_view_kernel(
    algorithm_cls: type,
) -> Callable[[Callable[[Any, PackedRows], Sequence[Any]]],
              Callable[[Any, PackedRows], Sequence[Any]]]:
    """Decorator: register a view kernel for an algorithm class.

    The kernel is ``fn(algorithm, rows) -> per-class outputs`` (one
    entry per class, in class order); it must either reproduce the
    algorithm's ``output`` on every class representative exactly or
    raise :class:`KernelUnsupported`.  Lookup walks the MRO, so a
    subclass's kernel shadows its parent's — which is how the
    conformance broken-kernel fixture plants a wrong kernel without
    touching the honest one.
    """

    def decorator(fn):
        _VIEW_KERNELS[algorithm_cls] = fn
        return fn

    return decorator


def view_kernel_for(algorithm: Any) -> Optional[Callable]:
    """The registered view kernel serving ``algorithm``, or ``None``."""
    _load_builtin_kernels()
    for klass in type(algorithm).__mro__:
        fn = _VIEW_KERNELS.get(klass)
        if fn is not None:
            return fn
    return None


def register_local_kernel(
    algorithm_cls: type,
) -> Callable[[Callable[[Any], "LocalKernel"]],
              Callable[[Any], "LocalKernel"]]:
    """Decorator: register a :class:`LocalKernel` factory for a class.

    The factory (usually the kernel class itself) is called with the
    algorithm instance; MRO lookup as for :func:`register_view_kernel`.
    """

    def decorator(factory):
        _LOCAL_KERNELS[algorithm_cls] = factory
        return factory

    return decorator


def local_kernel_for(algorithm: Any) -> Optional[Callable]:
    """The registered local-kernel factory for ``algorithm``, or ``None``."""
    _load_builtin_kernels()
    for klass in type(algorithm).__mro__:
        factory = _LOCAL_KERNELS.get(klass)
        if factory is not None:
            return factory
    return None


def register_finite_kernel(
    algorithm_cls: type,
) -> Callable[[Callable[..., Tuple[List[Any], List[int]]]],
              Callable[..., Tuple[List[Any], List[int]]]]:
    """Decorator: register a finite-runner kernel for an algorithm class.

    The kernel is ``fn(algorithm, values, tables) -> (outputs, failing)``
    where ``values`` is the per-node random assignment and ``tables``
    the resolved ball tables (node -> ball-position -> node).  It must
    reproduce the reference per-node evaluation loop — the same output
    object per node and the same ascending list of failing nodes — or
    raise :class:`KernelUnsupported`; MRO lookup as for
    :func:`register_view_kernel`, so the conformance broken-trial
    fixture can shadow the honest kernel on a subclass.
    """

    def decorator(fn):
        _FINITE_KERNELS[algorithm_cls] = fn
        return fn

    return decorator


def finite_kernel_for(algorithm: Any) -> Optional[Callable]:
    """The registered finite kernel serving ``algorithm``, or ``None``."""
    _load_builtin_kernels()
    for klass in type(algorithm).__mro__:
        fn = _FINITE_KERNELS.get(klass)
        if fn is not None:
            return fn
    return None


def has_kernel(algorithm: Any, kind: str) -> bool:
    """Whether ``algorithm`` registers a kernel for request ``kind``."""
    if kind in ("view", "edge"):
        return view_kernel_for(algorithm) is not None
    if kind == "local":
        return local_kernel_for(algorithm) is not None
    if kind == "finite":
        return finite_kernel_for(algorithm) is not None
    return False


# ----------------------------------------------------------------------
# View-kernel execution
# ----------------------------------------------------------------------

def run_view_kernel(algorithm: Any, partition: ClassPartition) -> List[Any]:
    """Compute the per-class output table with the registered view kernel.

    Raises :class:`KernelUnsupported` when there is no kernel, the
    partition came from the Python fallback, or the kernel itself
    declines — the caller then evaluates one representative per class
    the reference way.  A kernel returning the wrong number of entries
    is a bug, not a decline, and raises ``RuntimeError``.
    """
    fn = view_kernel_for(algorithm)
    if fn is None:
        raise KernelUnsupported("no-kernel")
    if partition.class_count == 0:
        return []
    rows = PackedRows.from_partition(partition)
    table = list(fn(algorithm, rows))
    if len(table) != partition.class_count:
        raise RuntimeError(
            f"view kernel for {type(algorithm).__name__} returned "
            f"{len(table)} outputs for {partition.class_count} classes"
        )
    return table


def broadcast_table(table: Sequence[Any], labels: Sequence[int]) -> List[Any]:
    """Fan a per-class output table out to every entity, vectorized.

    Integer tables broadcast through one ``take``; anything else falls
    back to a list comprehension (still one index per entity, no
    algorithm call).
    """
    if table and all(type(x) is int for x in table):
        try:
            return np.asarray(table, dtype=np.int64)[
                np.asarray(labels, dtype=np.int64)
            ].tolist()
        except OverflowError:
            pass
    return [table[c] for c in labels]


# ----------------------------------------------------------------------
# Local (round) kernels
# ----------------------------------------------------------------------

@dataclass
class KernelState:
    """Per-run state threaded through a local kernel's round steps.

    The driver owns ``halted`` / ``halt_rounds`` / ``out`` / ``round``;
    kernels own everything they hang off themselves and mutate the
    driver's arrays only through :meth:`halt`.  ``words[v]`` is the
    64-bit seed the direct engine would have given node ``v``'s private
    RNG (drawn from the master RNG in node order), so
    ``random.Random(words[v])`` reproduces the reference node's random
    stream bit for bit.
    """

    graph: Any
    csr: Any
    n: int
    request: Any
    words: List[int]
    halted: np.ndarray
    halt_rounds: np.ndarray
    out: List[Any]
    round: int = 0
    _arc_src: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def arc_src(self) -> np.ndarray:
        """Arc source ids aligned with ``csr.indices`` (cached)."""
        if self._arc_src is None:
            self._arc_src = np.repeat(
                np.arange(self.n, dtype=np.int64), self.csr.degrees
            )
        return self._arc_src

    def halt(self, nodes: np.ndarray, outputs: Sequence[Any]) -> None:
        """Halt ``nodes`` (bool mask or index array) with ``outputs``.

        ``outputs`` aligns with the ascending-index order of the
        selected nodes; ndarray outputs are converted to Python
        scalars so reports stay JSON-clean and identity-comparable.
        """
        nodes = np.asarray(nodes)
        if nodes.dtype == np.bool_:
            nodes = np.flatnonzero(nodes)
        self.halted[nodes] = True
        self.halt_rounds[nodes] = self.round
        if isinstance(outputs, np.ndarray):
            outputs = outputs.tolist()
        out = self.out
        for v, value in zip(nodes.tolist(), outputs):
            out[v] = value


class LocalKernel:
    """Base class for local (round) kernels; see ``docs/KERNELS.md``.

    Subclass per algorithm and register with
    :func:`register_local_kernel`.  The driver calls :meth:`supports`
    first (decline here — *before* any side effect), then :meth:`init`
    once, then :meth:`step` once per synchronous round until every node
    has halted.
    """

    def __init__(self, algorithm: Any):
        self.algorithm = algorithm

    def supports(self, request: Any) -> Optional[str]:
        """A decline reason, or ``None`` to accept the run.

        Must be side-effect free: it runs before the master RNG is
        touched, so declining here leaves the fallback's random stream
        identical to a run that never tried the kernel.
        """
        return None

    def init(self, state: KernelState) -> None:
        """Round 0: parse inputs, build arrays, halt degree-0 cases."""
        raise NotImplementedError

    def step(self, state: KernelState) -> None:
        """One synchronous round: gather sends, scatter receives, halt."""
        raise NotImplementedError


def run_local_kernel(
    algorithm: Any, request: Any
) -> Tuple[List[Any], List[Optional[int]], int]:
    """Run a ``local`` request through its registered round kernel.

    Returns ``(outputs, halt_rounds, rounds)`` exactly as the direct
    engine's reference loop would produce them; raises
    :class:`KernelUnsupported` (before consuming any randomness) when
    no kernel applies, and the same ``RuntimeError`` the reference loop
    raises for runaway rounds.  Labeling lengths are the caller's to
    validate (:class:`~repro.core.direct.DirectEngine` checks them once
    for every path).
    """
    factory = local_kernel_for(algorithm)
    if factory is None:
        raise KernelUnsupported("no-kernel")
    graph = request.graph
    if not getattr(graph, "is_frozen", False):
        # Round kernels run on the compiled CSR arrays, which only
        # exist for frozen graphs; unfrozen requests take the fallback.
        raise KernelUnsupported("unsupported: graph not frozen")
    n = graph.n
    kernel = factory(algorithm)
    reason = kernel.supports(request)
    if reason is not None:
        raise KernelUnsupported(reason)
    master = request.resolved_rng()
    # One 64-bit word per node, in node order — the exact draws the
    # direct loop spends seeding each node's private RNG, so a shared
    # master RNG is left in the identical state afterwards.
    words = [master.getrandbits(64) for _ in range(n)]
    max_rounds = request.max_rounds
    if max_rounds is None:
        max_rounds = 4 * n + 16
    state = KernelState(
        graph=graph,
        csr=graph.csr(),
        n=n,
        request=request,
        words=words,
        halted=np.zeros(n, dtype=bool),
        halt_rounds=np.full(n, -1, dtype=np.int64),
        out=[None] * n,
    )
    kernel.init(state)
    while not state.halted.all():
        state.round += 1
        if state.round > max_rounds:
            active = n - int(state.halted.sum())
            raise RuntimeError(
                f"{algorithm.name}: {active} nodes still running after "
                f"{max_rounds} rounds — runaway algorithm?"
            )
        kernel.step(state)
    rounds = int(state.halt_rounds.max(initial=0))
    halt_rounds: List[Optional[int]] = [int(r) for r in state.halt_rounds]
    return state.out, halt_rounds, rounds
