"""Ground-truth room simulation.

Humans follow fixed cyclic routines, carrying their one object from location
to location.  Locations hold at most `location_capacity` objects; a blocked
move falls through to later routine segments, or stays put.  The simulation
is the hidden state of the environment; agents only ever see one observation
per tick.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .kb import KnowledgeBase, commonsense_location, numbered_words

if TYPE_CHECKING:
    from .env import EnvConfig

__all__ = [
    "Human",
    "RoomState",
    "human_names",
    "build_room",
    "tick",
]


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


@dataclass
class Human:
    name: str
    obj: str
    segments: tuple[tuple[str, int], ...]  # cyclic routine: (location, duration in ticks)
    location: str           # where the human, and so its object, is right now
    seg: int = 0            # scheduled segment index; advances even when a move is blocked
    steps_in_seg: int = 0   # ticks spent in the scheduled segment so far


@dataclass
class RoomState:
    humans: list[Human]
    occupancy: dict[str, int]
    location_capacity: int


def build_room(kb: KnowledgeBase, config: EnvConfig, seed: int) -> RoomState:
    """Sample humans, routines and initial placements, deterministically in `seed`.

    Each routine segment sits at the owned object's commonsense location with
    probability `config.p_commonsense`, otherwise uniformly at one of the
    other locations.  Each human starts at the first of its segments with
    room, else the first location with room; a validated `config` with `kb`
    from `env.world_kb` seats every human.
    """
    (s_lo, s_hi), (d_lo, d_hi) = config.routine_segments, config.routine_durations
    capacity = config.location_capacity
    rng = np.random.default_rng(int(seed))
    occupancy = {loc: 0 for loc in kb.locations}
    humans: list[Human] = []
    for name in human_names(config.n_humans):
        obj = kb.objects[int(rng.integers(len(kb.objects)))]
        common = commonsense_location(kb, obj)
        others = [loc for loc in kb.locations if loc != common]
        n_seg = int(rng.integers(s_lo, s_hi + 1))
        segments = []
        for _ in range(n_seg):
            if rng.random() < config.p_commonsense:
                loc = common
            else:
                loc = others[int(rng.integers(len(others)))]
            dur = int(rng.integers(d_lo, d_hi + 1))
            segments.append((loc, dur))
        candidates = [loc for loc, _ in segments] + list(kb.locations)
        start = next(loc for loc in candidates if occupancy[loc] < capacity)
        occupancy[start] += 1
        humans.append(Human(name, obj, tuple(segments), start))
    return RoomState(humans, occupancy, capacity)


def tick(room: RoomState) -> None:
    """Advance one tick.

    Humans are processed in fixed creation order.  On a segment boundary the
    human tries the new segment's location, then subsequent segments in
    routine order, and failing all of them stays put.  The schedule phase
    advances regardless of whether the move succeeded.
    """
    for h in room.humans:
        segments = h.segments
        h.steps_in_seg += 1
        if h.steps_in_seg <= segments[h.seg][1]:
            continue
        h.seg = (h.seg + 1) % len(segments)
        h.steps_in_seg = 1
        old = h.location
        for j in range(len(segments)):
            target = segments[(h.seg + j) % len(segments)][0]
            if target == old:
                break  # staying put counts as success
            if room.occupancy[target] < room.location_capacity:
                room.occupancy[old] -= 1
                room.occupancy[target] += 1
                h.location = target
                break

