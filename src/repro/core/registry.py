"""The component registry: one name -> factory table per component kind.

Before this module existed, every layer that needed to turn a *name*
into a *thing* grew its own private string dispatch, and nothing could
*enumerate* what exists — there was no honest ``--list``.

A :class:`Registry` replaces those silos with decorator-based
registration at the definition site::

    @register_graph_family("cycle", params=("n",))
    def cycle(n: int) -> Graph: ...

    @register_algorithm("luby-mis", kind="local", needs="ids",
                        solves=("mis", {}))
    class LubyMIS(LocalAlgorithm): ...

Three registries cover the system:

=====================  ==================================================
registry               contents
=====================  ==================================================
:data:`GRAPH_FAMILIES` graph generators (``params`` metadata names the
                       keys each factory consumes)
:data:`ALGORITHMS`     message-passing algorithms (``kind="local"``),
                       view and edge rules, and finite algorithms
:data:`PROBLEMS`       LCL problems / verifiers from ``repro.lcl.catalog``
=====================  ==================================================

The paper's exhibits are not registered: they are the rows of
:data:`repro.experiments.exhibits.EXHIBITS`.

Registration happens as a side effect of importing the defining module,
so :func:`ensure_builtins` imports the canonical set before any lookup
that must see the full picture (``python -m repro.experiments --list``,
``tests/test_contracts.py``).  Lookups raise :class:`RegistryError` — a
``KeyError`` that names the known entries, so a typo'd name fails
usefully.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Mapping, Tuple

__all__ = [
    "Registry",
    "RegistryEntry",
    "RegistryError",
    "GRAPH_FAMILIES",
    "ALGORITHMS",
    "PROBLEMS",
    "register_graph_family",
    "register_algorithm",
    "register_problem",
    "ensure_builtins",
]


class RegistryError(KeyError):
    """An unknown (or duplicate) registry name, with the known names."""

    def __str__(self) -> str:  # KeyError repr-quotes its message
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class RegistryEntry:
    """One registered component: a factory plus declarative metadata."""

    name: str
    factory: Callable[..., Any]
    metadata: Mapping[str, Any] = field(default_factory=dict)

    @property
    def description(self) -> str:
        """Explicit ``description`` metadata, else the docstring's first line."""
        explicit = self.metadata.get("description")
        if explicit:
            return str(explicit)
        doc = getattr(self.factory, "__doc__", None) or ""
        return doc.strip().splitlines()[0] if doc.strip() else ""

    def create(self, **params: Any) -> Any:
        """Invoke the factory with keyword parameters.

        An unknown/missing keyword surfaces as :class:`RegistryError`
        naming the factory's valid parameters — not as the factory's
        bare ``TypeError`` — so a typo'd CLI flag or ``domains`` entry
        fails with the fix in the message.  ``TypeError`` raised
        *inside* a correctly-called factory body passes through.
        """
        try:
            signature = inspect.signature(self.factory)
        except (TypeError, ValueError):  # builtins without introspection
            return self.factory(**params)
        try:
            signature.bind(**params)
        except TypeError as exc:
            valid = ", ".join(signature.parameters) or "<none>"
            raise RegistryError(
                f"cannot create {self.name!r}: {exc} "
                f"(valid parameters: {valid})"
            ) from None
        return self.factory(**params)


class Registry:
    """A named, enumerable name -> :class:`RegistryEntry` table.

    Registration is idempotent-hostile on purpose: registering the same
    name twice raises unless ``replace=True``, because two components
    silently shadowing each other is how string-dispatch bugs start.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: Dict[str, RegistryEntry] = {}

    # -- registration ---------------------------------------------------
    def add(
        self,
        name: str,
        factory: Callable[..., Any],
        replace: bool = False,
        **metadata: Any,
    ) -> RegistryEntry:
        """Register ``factory`` under ``name`` and return the entry."""
        if not name:
            raise RegistryError(f"{self.kind} name must be non-empty")
        if not replace and name in self._entries:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered; "
                f"pass replace=True to override"
            )
        entry = RegistryEntry(name=name, factory=factory, metadata=dict(metadata))
        self._entries[name] = entry
        return entry

    def register(
        self, name: str, replace: bool = False, **metadata: Any
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator form of :meth:`add`; returns the factory unchanged."""

        def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
            self.add(name, factory, replace=replace, **metadata)
            return factory

        return decorator

    # -- lookup ---------------------------------------------------------
    def get(self, name: str) -> RegistryEntry:
        """The entry for ``name``; :class:`RegistryError` if unknown."""
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names()) or "<none registered>"
            raise RegistryError(
                f"unknown {self.kind} {name!r} (known: {known})"
            ) from None

    def create(self, name: str, **params: Any) -> Any:
        """Instantiate ``name``'s factory with ``params``."""
        return self.get(name).create(**params)

    def names(self) -> Tuple[str, ...]:
        """All registered names, sorted."""
        return tuple(sorted(self._entries))

    def entries(self) -> Tuple[RegistryEntry, ...]:
        """All entries, sorted by name."""
        return tuple(self._entries[name] for name in self.names())

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {len(self)} entries)"


#: Graph generators.  ``params`` metadata names the keyword parameters
#: the factory takes.
GRAPH_FAMILIES = Registry("graph family")

#: Algorithms: ``kind="local"`` (message passing), ``kind="view"``
#: (functional node-view rules), ``kind="edge"`` (edge-view rules), or
#: ``kind="finite"`` (oriented-tree node algorithms).  Local, view and
#: edge entries carry ``needs`` ("ids" / "randomness" / "none").
#: Entries that solve an LCL declare ``solves=(problem_name, kwargs)``
#: resolved through :data:`PROBLEMS`; entries that state a contract add
#: ``domains`` / ``fuzz_params`` / ``invariances``, which
#: ``tests/test_contracts.py`` checks — see ``docs/ENGINE.md``.
ALGORITHMS = Registry("algorithm")

#: LCL problems (verifiers) from :mod:`repro.lcl.catalog`.
PROBLEMS = Registry("LCL problem")

register_graph_family = GRAPH_FAMILIES.register
register_algorithm = ALGORITHMS.register
register_problem = PROBLEMS.register


#: Modules whose import populates the built-in registries.
_BUILTIN_MODULES = (
    "repro.graphs.generators",
    "repro.lcl.catalog",
    "repro.algorithms.message_passing",
    "repro.algorithms.view_rules",
    "repro.algorithms.edge_rules",
    "repro.speedup.algorithms",
)


def ensure_builtins() -> None:
    """Import every module that registers built-in components.

    Idempotent and cheap after the first call (module cache hits).  Call
    before enumerating a registry or resolving user-supplied names; code
    that merely *registers* must not call it (imports stay one-way).
    """
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
