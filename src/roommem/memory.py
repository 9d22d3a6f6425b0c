"""Bounded short-term, episodic and semantic memory systems.

All three hold knowledge-graph quadruples (head, relation, tail, value).
Short-term and episodic entries keep the owner in the head ("Bob's laptop")
and use the observation timestamp as value; semantic entries drop the owner
("laptop") and use an occurrence-count strength instead.  Capacities are
hard: episodic evicts the oldest timestamp, semantic the weakest strength.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

__all__ = [
    "RELATION",
    "FORGET",
    "TO_EPISODIC",
    "TO_SEMANTIC",
    "N_ACTIONS",
    "ACTION_NAMES",
    "SHORT_TERM",
    "EPISODIC",
    "SEMANTIC",
    "CapacityError",
    "MalformedHeadError",
    "Quadruple",
    "MemorySystem",
    "format_head",
    "strip_owner",
    "observe",
    "apply_action",
    "retrieve",
    "answer_of",
    "prefill_semantic",
    "snapshot_systems",
    "memory_lines",
]

RELATION = "AtLocation"

FORGET, TO_EPISODIC, TO_SEMANTIC = 0, 1, 2
N_ACTIONS = 3
ACTION_NAMES = ("forget", "to_episodic", "to_semantic")

SHORT_TERM = "short_term"
EPISODIC = "episodic"
SEMANTIC = "semantic"
_KINDS = (SHORT_TERM, EPISODIC, SEMANTIC)

_OWNER_SEP = "'s "


class CapacityError(RuntimeError):
    """Memory operation impossible at the current fill level."""


class MalformedHeadError(ValueError):
    """Head does not match the `<human>'s <object>` form."""


class Quadruple(NamedTuple):
    head: str
    relation: str
    tail: str
    value: int


class MemorySystem:
    """One bounded store of quadruples, in insertion order."""

    def __init__(self, kind: str, capacity: int):
        if kind not in _KINDS:
            raise ValueError(f"unknown memory kind {kind!r}")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.kind = kind
        self.capacity = capacity
        self.entries: list[Quadruple] = []

    def __len__(self) -> int:
        return len(self.entries)

    def is_full(self) -> bool:
        return len(self.entries) >= self.capacity

    def snapshot(self) -> tuple[Quadruple, ...]:
        return tuple(self.entries)

    def __repr__(self) -> str:
        return f"MemorySystem({self.kind!r}, {len(self.entries)}/{self.capacity})"


def format_head(human: str, obj: str) -> str:
    return f"{human}{_OWNER_SEP}{obj}"


def strip_owner(head: str) -> tuple[str, str]:
    """Split "Bob's laptop" into ("Bob", "laptop").

    Splits on the first "'s "; human names must not contain apostrophes, so
    the first separator is always the owner boundary.
    """
    parts = head.split(_OWNER_SEP, 1)
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise MalformedHeadError(f"head {head!r} is not of the form <human>'s <object>")
    return parts[0], parts[1]


def observe(m_o: MemorySystem, obs: Quadruple) -> None:
    """Stage an observation in short-term memory; full short-term is an error."""
    if m_o.kind != SHORT_TERM:
        raise ValueError("observe targets the short-term system")
    if m_o.is_full():
        raise CapacityError("short-term memory is full")
    m_o.entries.append(obs)


def _evict_weakest(entries: list[Quadruple]) -> None:
    # minimum value; ties broken toward the earliest-inserted entry
    best = 0
    for i in range(1, len(entries)):
        if entries[i].value < entries[best].value:
            best = i
    del entries[best]


def apply_action(m_o: MemorySystem, m_e: MemorySystem, m_s: MemorySystem, action: int) -> None:
    """Move the oldest short-term entry out: drop it, keep it verbatim in
    episodic, or generalize it (owner stripped, strength-counted) in semantic.

    A capacity-0 destination silently drops the entry, same as forgetting.
    """
    if not m_o.entries:
        raise CapacityError("short-term memory is empty, nothing to manage")
    if action not in (FORGET, TO_EPISODIC, TO_SEMANTIC):
        raise ValueError(f"unknown action {action!r}")
    quad = m_o.entries.pop(0)
    if action == FORGET:
        return
    if action == TO_EPISODIC:
        if m_e.capacity == 0:
            return
        if m_e.is_full():
            _evict_weakest(m_e.entries)
        m_e.entries.append(quad)
        return
    _, obj = strip_owner(quad.head)
    for i, e in enumerate(m_s.entries):
        if e.head == obj and e.tail == quad.tail:
            m_s.entries[i] = e._replace(value=e.value + 1)
            return
    if m_s.capacity == 0:
        return
    if m_s.is_full():
        _evict_weakest(m_s.entries)
    m_s.entries.append(Quadruple(obj, quad.relation, quad.tail, 1))


def retrieve(question, m_e: MemorySystem, m_s: MemorySystem) -> Quadruple | None:
    """Best stored answer for a question head like "Bob's laptop".

    Episodic wins when any entry matches the head exactly: most recent
    timestamp, ties to the latest-inserted.  Otherwise the strongest semantic
    entry for the owner-stripped object, same tie rule.  None if neither
    system knows anything relevant.
    """
    head = question.head
    best = None
    for e in m_e.entries:
        if e.head == head and (best is None or e.value >= best.value):
            best = e
    if best is not None:
        return best
    _, obj = strip_owner(head)
    for e in m_s.entries:
        if e.head == obj and (best is None or e.value >= best.value):
            best = e
    return best


def answer_of(entry: Quadruple | None) -> str | None:
    return None if entry is None else entry.tail


def prefill_semantic(m_s: MemorySystem, kb) -> None:
    """Load commonsense facts into an empty semantic memory, in knowledge-base
    object order, until it runs out of objects or capacity.  Strength 1 each."""
    from .kb import commonsense_location

    if m_s.kind != SEMANTIC:
        raise ValueError("prefill targets the semantic system")
    if m_s.entries:
        raise ValueError("semantic prefill requires an empty system")
    for obj in kb.objects:
        if m_s.is_full():
            break
        m_s.entries.append(Quadruple(obj, RELATION, commonsense_location(kb, obj), 1))


def snapshot_systems(m_o: MemorySystem, m_e: MemorySystem, m_s: MemorySystem):
    """Immutable copy of all three systems, in (short, episodic, semantic) order."""
    return (m_o.snapshot(), m_e.snapshot(), m_s.snapshot())


def memory_lines(kind: str, entries: Iterable[Quadruple]) -> list[str]:
    """Serialize entries as `kind<TAB>head<TAB>relation<TAB>tail<TAB>value` lines."""
    return [f"{kind}\t{e.head}\t{e.relation}\t{e.tail}\t{e.value}" for e in entries]
