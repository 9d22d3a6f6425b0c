"""Ground-truth room simulation.

Humans follow fixed cyclic routines, carrying their one object from location
to location.  Locations hold at most `location_capacity` objects; a blocked
move falls through to later routine segments, or stays put.  The simulation
is the hidden state of the environment; agents only ever see one observation
per tick.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kb import KnowledgeBase, commonsense_location, numbered_words

__all__ = [
    "DesError",
    "Routine",
    "Human",
    "RoomState",
    "human_names",
    "build_room",
    "tick",
    "true_location",
]


class DesError(ValueError):
    """Invalid simulation construction or query."""


_HUMAN_NAMES = (
    "Alice", "Bob", "Carol", "Dave", "Eve", "Frank", "Grace", "Heidi",
    "Ivan", "Judy", "Karl", "Lena", "Mike", "Nina", "Oscar", "Peggy",
    "Quinn", "Rosa", "Sam", "Tina", "Uma", "Vera", "Walt", "Xena",
    "Yara", "Zane", "Adam", "Bella", "Carlos", "Dora", "Emil", "Fiona",
    "Gus", "Hana", "Igor", "Jana", "Kira", "Liam", "Mona", "Nils",
    "Olga", "Pablo", "Rita", "Sven", "Tara", "Ursula", "Vic", "Wanda",
    "Xavier", "Yusuf", "Zoe", "Ann", "Boris", "Clara", "Dimitri", "Elsa",
    "Felix", "Gerda", "Hank", "Iris", "Jack", "Katja", "Lars", "Mia",
    "Nora", "Otto", "Paula", "Ralf", "Stella", "Tom", "Ulla", "Viktor",
)


def human_names(n: int) -> tuple[str, ...]:
    """First `n` human names; past the base list, names get a numeric suffix.

    Names never contain apostrophes, which keeps owner-qualified heads like
    "Bob's laptop" parseable.
    """
    return numbered_words(_HUMAN_NAMES, n)


@dataclass(frozen=True)
class Routine:
    """Cyclic schedule: ((location, duration), ...), durations in ticks."""

    segments: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise DesError("routine needs at least one segment")
        for loc, dur in self.segments:
            if dur < 1:
                raise DesError(f"segment duration must be >= 1, got {dur}")


@dataclass
class Human:
    name: str
    obj: str
    routine: Routine
    seg: int = 0            # scheduled segment index; advances even when a move is blocked
    steps_in_seg: int = 0   # ticks spent in the scheduled segment so far


@dataclass
class RoomState:
    humans: list[Human]
    current_location: dict[str, str]
    occupancy: dict[str, int]
    location_capacity: int


def build_room(
    kb: KnowledgeBase,
    n_humans: int,
    p_commonsense: float,
    seed: int,
    location_capacity: int,
    segment_range: tuple[int, int],
    duration_range: tuple[int, int],
) -> RoomState:
    """Sample humans, routines and initial placements, deterministically in `seed`.

    Each routine segment sits at the owned object's commonsense location with
    probability `p_commonsense`, otherwise uniformly at one of the other
    locations.  Initial placement tries the human's segments in order and then
    any location with room; a completely full room is an error.
    """
    if n_humans < 1:
        raise DesError("n_humans must be at least 1")
    if not 0.0 <= p_commonsense <= 1.0:
        raise DesError("p_commonsense must be in [0, 1]")
    if len(kb.locations) < 2:
        raise DesError("need at least 2 locations")
    if location_capacity < 1:
        raise DesError("location_capacity must be at least 1")
    s_lo, s_hi = segment_range
    d_lo, d_hi = duration_range
    if not (1 <= s_lo <= s_hi and 1 <= d_lo <= d_hi):
        raise DesError("invalid routine segment/duration ranges")

    rng = np.random.default_rng(int(seed))
    names = human_names(n_humans)
    humans: list[Human] = []
    for name in names:
        obj = kb.objects[int(rng.integers(len(kb.objects)))]
        common = commonsense_location(kb, obj)
        others = [loc for loc in kb.locations if loc != common]
        n_seg = int(rng.integers(s_lo, s_hi + 1))
        segments = []
        for _ in range(n_seg):
            if rng.random() < p_commonsense:
                loc = common
            else:
                loc = others[int(rng.integers(len(others)))]
            dur = int(rng.integers(d_lo, d_hi + 1))
            segments.append((loc, dur))
        humans.append(Human(name, obj, Routine(tuple(segments))))

    occupancy = {loc: 0 for loc in kb.locations}
    current: dict[str, str] = {}
    for h in humans:
        placed = None
        for loc, _ in h.routine.segments:
            if occupancy[loc] < location_capacity:
                placed = loc
                break
        if placed is None:
            for loc in kb.locations:
                if occupancy[loc] < location_capacity:
                    placed = loc
                    break
        if placed is None:
            raise DesError("not enough location capacity to place all humans")
        occupancy[placed] += 1
        current[h.name] = placed
    return RoomState(humans, current, occupancy, location_capacity)


def tick(room: RoomState) -> None:
    """Advance one tick.

    Humans are processed in fixed creation order.  On a segment boundary the
    human tries the new segment's location, then subsequent segments in
    routine order, and failing all of them stays put.  The schedule phase
    advances regardless of whether the move succeeded.
    """
    for h in room.humans:
        segments = h.routine.segments
        h.steps_in_seg += 1
        if h.steps_in_seg <= segments[h.seg][1]:
            continue
        h.seg = (h.seg + 1) % len(segments)
        h.steps_in_seg = 1
        old = room.current_location[h.name]
        for j in range(len(segments)):
            target = segments[(h.seg + j) % len(segments)][0]
            if target == old:
                break  # staying put counts as success
            if room.occupancy[target] < room.location_capacity:
                room.occupancy[old] -= 1
                room.occupancy[target] += 1
                room.current_location[h.name] = target
                break


def true_location(room: RoomState, human: str) -> str:
    """Ground-truth location of `human`'s object right now."""
    try:
        return room.current_location[human]
    except KeyError:
        raise DesError(f"unknown human {human!r}") from None
