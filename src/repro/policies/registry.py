"""The public policy registry.

Registry keys are the single source of truth for every place that refers
to a policy by name: the CLI, the runner's simulation cells, the
hardware catalog and the benchmarks.  Policies register themselves at
class-definition time with the :func:`register` decorator::

    @register(tags=("default-eval",))
    class MyPolicy(ReplacementPolicy):
        NAME = "mypolicy"
        ...

and are then constructible via :func:`get` (one standalone per-set
instance) or :class:`PolicyFactory` (per-set instances sharing one
cache-global context, as a whole cache needs).

Builder styles cover the constructor shapes in the library:

* plain — ``cls(ways, **params)`` (the default);
* ``rng=True`` — ``cls(ways, rng=<per-set fork>, **params)`` for
  randomized policies;
* ``dueling=True`` — ``cls(ways, shared=..., set_index=..., **params)``
  for set-dueling policies;
* :func:`register_builder` — anything else (the qLRU presets, the
  spec-parameterised permutation policy).

``tags`` group policies for default selections (e.g. the CLI's
``--policies`` defaults come from :func:`default_policies`), so no
caller needs to re-list policy names by hand.

Duplicate names are rejected eagerly with
:class:`~repro.errors.ConfigurationError` — a silent overwrite would let
two experiments disagree about what a name means.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.errors import ConfigurationError, UnknownPolicyError
from repro.policies.base import ReplacementPolicy, SharedContext
from repro.util.rng import SeededRng

__all__ = [
    "PolicyEntry",
    "PolicyFactory",
    "register",
    "register_builder",
    "unregister",
    "available",
    "default_policies",
    "get",
    "get_entry",
]

#: Builder signature: (ways, set_index, shared, rng, params) -> policy.
Builder = Callable[
    [int, int, "SharedContext | None", "SeededRng | None", dict], ReplacementPolicy
]


@dataclass(frozen=True)
class PolicyEntry:
    """One registry entry: name, implementing class, builder, tags."""

    name: str
    cls: type[ReplacementPolicy]
    builder: Builder
    tags: tuple[str, ...] = ()


#: name -> entry, in registration order (insertion-ordered dict).
_REGISTRY: dict[str, PolicyEntry] = {}


def register_builder(
    name: str,
    cls: type[ReplacementPolicy],
    builder: Builder,
    tags: Sequence[str] = (),
) -> None:
    """Register ``name`` with an explicit builder (the low-level hook)."""
    if not name:
        raise ConfigurationError(f"policy class {cls.__name__} has no registry name")
    if name in _REGISTRY:
        raise ConfigurationError(
            f"duplicate policy name {name!r}: already registered by "
            f"{_REGISTRY[name].cls.__name__}"
        )
    _REGISTRY[name] = PolicyEntry(name=name, cls=cls, builder=builder, tags=tuple(tags))


def register(
    cls: type[ReplacementPolicy] | None = None,
    *,
    name: str | None = None,
    rng: bool = False,
    dueling: bool = False,
    tags: Sequence[str] = (),
):
    """Class decorator adding a policy under ``name`` (default: ``cls.NAME``).

    Usable bare (``@register``) or with options
    (``@register(rng=True, tags=("default-eval",))``).
    """
    if rng and dueling:
        raise ConfigurationError("a policy builder cannot be both rng and dueling")

    def apply(policy_cls: type[ReplacementPolicy]) -> type[ReplacementPolicy]:
        key = name if name is not None else policy_cls.NAME

        if rng:

            def builder(ways, set_index, shared, per_cache_rng, params):
                set_rng = (
                    per_cache_rng.fork(f"{key}-{set_index}")
                    if per_cache_rng is not None
                    else None
                )
                return policy_cls(ways, rng=set_rng, **params)

        elif dueling:

            def builder(ways, set_index, shared, per_cache_rng, params):
                return policy_cls(ways, shared=shared, set_index=set_index, **params)

        else:

            def builder(ways, set_index, shared, per_cache_rng, params):
                return policy_cls(ways, **params)

        register_builder(key, policy_cls, builder, tags)
        return policy_cls

    if cls is None:
        return apply
    return apply(cls)


def unregister(name: str) -> None:
    """Remove an entry (plugin/test hygiene; unknown names are ignored)."""
    _REGISTRY.pop(name, None)


def get_entry(name: str) -> PolicyEntry:
    """Look up a registry entry, raising :class:`UnknownPolicyError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownPolicyError(
            f"unknown policy {name!r}; known: {', '.join(available())}"
        ) from None


def available(tag: str | None = None) -> list[str]:
    """Registered policy names, sorted; optionally only those tagged ``tag``."""
    if tag is None:
        return sorted(_REGISTRY)
    return sorted(entry.name for entry in _REGISTRY.values() if tag in entry.tags)


def default_policies(group: str) -> list[str]:
    """Names tagged ``default-<group>``, in registration order.

    Registration order (not alphabetical) so that curated defaults keep
    their conventional reading order (``lru`` first, baselines before
    variants) in CLI tables.
    """
    tag = f"default-{group}"
    return [entry.name for entry in _REGISTRY.values() if tag in entry.tags]


class PolicyFactory:
    """Named policy constructor used to build every set of a cache.

    Example::

        factory = PolicyFactory("dip")
        shared = factory.create_shared(num_sets=64, rng=SeededRng(1))
        policies = [factory.build(8, s, shared) for s in range(64)]
    """

    def __init__(self, name: str, **params) -> None:
        entry = get_entry(name)
        self.name = name
        self.params = params
        self._cls = entry.cls
        self._builder = entry.builder

    def create_shared(self, num_sets: int, rng: SeededRng | None = None) -> SharedContext:
        """Create the cache-global context for this policy."""
        return self._cls.create_shared(num_sets, rng)

    def build(
        self,
        ways: int,
        set_index: int = 0,
        shared: SharedContext | None = None,
        rng: SeededRng | None = None,
    ) -> ReplacementPolicy:
        """Construct the policy instance for one set."""
        policy = self._builder(ways, set_index, shared, rng, self.params)
        try:
            # Provenance stamp: lets the kernel's compiled_for() route a
            # registry-built instance to the shared per-name automaton
            # cache (and through it, the on-disk artifact store).
            policy._registry_key = (self.name, tuple(sorted(self.params.items())))
        except (AttributeError, TypeError):  # __slots__ or unhashable params
            pass
        return policy

    def build_cache(
        self, num_sets: int, ways: int, rng: SeededRng
    ) -> tuple[SharedContext, list[ReplacementPolicy]]:
        """The shared context and every set's policy, as a cache builds them.

        The shared context draws from ``rng.fork("shared")`` and set ``i``
        is ``build(ways, i, shared, rng)``.  A
        :class:`~repro.cache.cache.Cache` whose sets hold policy objects
        and both whole-trace fast paths build through here, so every rng
        stream they draw is the same.
        """
        shared = self.create_shared(num_sets, rng.fork("shared"))
        policies = [
            self.build(ways, set_index, shared, rng) for set_index in range(num_sets)
        ]
        return shared, policies

    @property
    def deterministic(self) -> bool:
        """True if the policy draws no randomness."""
        return self._cls.DETERMINISTIC

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PolicyFactory({self.name!r}, {self.params!r})"


def get(
    name: str, ways: int, rng: SeededRng | None = None, **params
) -> ReplacementPolicy:
    """Build a standalone single-set policy instance by name."""
    factory = PolicyFactory(name, **params)
    shared = factory.create_shared(num_sets=1, rng=rng)
    return factory.build(ways, set_index=0, shared=shared, rng=rng)
