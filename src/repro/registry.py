"""One registry discipline for every extension seam.

The library grew its registries independently — execution backends
(:mod:`repro.runtime.backends`) and sampler families
(:mod:`repro.sampling`) — and with them slightly different lookup
surfaces and error spellings. This module is the single implementation
they now share:

* :class:`Registry` — an ordered name → object mapping with the
  canonical ``register`` / ``get`` / ``available`` surface;
* one error contract: an unknown name raises
  :class:`~repro.errors.ConfigError` whose message is
  ``unknown <kind> <name!r>; registered: [...]`` — the fix is always in
  the traceback, and the spelling can no longer drift between seams
  (``tests/unit/test_registries.py`` pins it for every seam);
* dict compatibility: :class:`Registry` is a
  :class:`~collections.abc.MutableMapping`, so historical call sites
  that treated the registries as plain dicts (``name in BACKENDS``,
  ``sorted(SAMPLER_REGISTRY)``, direct item assignment in tests) keep
  working unchanged.

The per-seam modules keep their thin domain wrappers
(``register_backend`` validates the class contract,
``register_sampler`` validates builders) — those wrappers delegate the
storage and the lookup error to one place.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import Iterator, TypeVar

from .errors import ConfigError

T = TypeVar("T")


class Registry(MutableMapping):
    """An ordered name → object registry with uniform error messages.

    Parameters
    ----------
    kind:
        Human-readable noun for error messages (``"execution
        backend"``, ``"sampler"``). Appears verbatim
        in the unknown-name error.
    """

    def __init__(self, kind: str) -> None:
        if not kind:
            raise ConfigError("registry kind must be non-empty")
        self.kind = kind
        self._entries: dict[str, object] = {}

    # ------------------------------------------------------------------
    # The canonical surface
    # ------------------------------------------------------------------
    def register(self, name: str, obj: T) -> T:
        """Register ``obj`` under ``name`` (replacing any previous
        entry — how tests and out-of-tree code override a shipped
        implementation). Returns ``obj`` unchanged so wrappers can be
        used as decorators."""
        if not name:
            raise ConfigError(
                f"{self.kind} needs a non-empty name; registered: "
                f"{sorted(self._entries)}")
        self._entries[name] = obj
        return obj

    _MISSING = object()

    def get(self, name: str, default=_MISSING):  # type: ignore[override]
        """Look up ``name``; unknown names raise the uniform
        :class:`~repro.errors.ConfigError` listing every registered
        name. An explicit ``default`` restores dict semantics (returned
        instead of raising) for callers probing optional entries."""
        if name in self._entries:
            return self._entries[name]
        if default is not Registry._MISSING:
            return default
        raise self.unknown_error(name)

    def available(self) -> tuple[str, ...]:
        """Registered names, sorted."""
        return tuple(sorted(self._entries))

    def unknown_error(self, name: str) -> ConfigError:
        """The uniform unknown-name error (shared spelling across every
        seam): ``unknown <kind> <name!r>; registered: [...]``."""
        return ConfigError(
            f"unknown {self.kind} {name!r}; registered: "
            f"{sorted(self._entries)}")

    # ------------------------------------------------------------------
    # MutableMapping (dict-compatible legacy surface)
    # ------------------------------------------------------------------
    def __getitem__(self, name: str):
        # Plain indexing keeps KeyError semantics (callers like
        # ``BACKENDS[name]`` inside try/except KeyError predate the
        # unified surface); ``get`` is the uniform-error path.
        return self._entries[name]

    def __setitem__(self, name: str, obj) -> None:
        self.register(name, obj)

    def __delitem__(self, name: str) -> None:
        del self._entries[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Registry {self.kind!r} "
                f"[{', '.join(sorted(self._entries))}]>")
