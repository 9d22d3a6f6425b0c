"""Object/location vocabulary and commonsense placement knowledge.

A knowledge base is a weighted edge set between object types and locations.
The highest-weight location of an object is its "commonsense" location (bowls
live in cupboards); lower-weight edges are plausible but atypical placements.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KbError",
    "KnowledgeBase",
    "commonsense_location",
    "load_kb",
    "write_kb",
    "generate_synthetic_kb",
]


class KbError(ValueError):
    """Malformed knowledge-base file or invalid edge set."""


_OBJECT_WORDS = (
    "bowl", "laptop", "train", "phone", "book", "mug", "pillow", "bike",
    "guitar", "plant", "towel", "ball", "camera", "wallet", "scarf",
    "umbrella", "clock", "shoe", "hat", "key", "lamp", "radio", "kettle",
    "brush",
)

_LOCATION_WORDS = (
    "cupboard", "desk", "lap", "wardrobe", "kitchen", "zoo", "circus",
    "shelf", "drawer", "table", "bed", "sofa", "garage", "garden",
    "bathroom", "hallway", "balcony", "attic", "basement", "office",
    "studio", "closet", "windowsill", "doorway", "fireplace", "staircase",
    "pantry", "porch", "cellar", "rooftop", "bench", "counter",
)


def numbered_words(base: tuple[str, ...], n: int) -> tuple[str, ...]:
    """First `n` words of `base`; past its end, the words recur with a
    numeric suffix ("bowl2", ...)."""
    out = []
    for i in range(n):
        if i < len(base):
            out.append(base[i])
        else:
            out.append(f"{base[i % len(base)]}{i // len(base) + 1}")
    return tuple(out)


@dataclass(frozen=True)
class KnowledgeBase:
    """Immutable object-to-location edge set with explicit vocabularies.

    `objects` and `locations` fix the vocabulary order used everywhere
    downstream (synthetic rooms, semantic prefill, token ids).  Every edge
    endpoint must be in the vocabulary and every object needs at least one
    edge; locations without edges are allowed.
    """

    objects: tuple[str, ...]
    locations: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]

    def __post_init__(self) -> None:
        if not self.objects:
            raise KbError("no objects")
        if len(set(self.objects)) != len(self.objects):
            raise KbError("duplicate object names")
        if len(set(self.locations)) != len(self.locations):
            raise KbError("duplicate location names")
        oset, lset = set(self.objects), set(self.locations)
        if oset & lset:
            raise KbError(f"names used as both object and location: {sorted(oset & lset)}")
        seen: set[tuple[str, str]] = set()
        covered: set[str] = set()
        for obj, loc, w in self.edges:
            if obj not in oset:
                raise KbError(f"edge references unknown object {obj!r}")
            if loc not in lset:
                raise KbError(f"edge references unknown location {loc!r}")
            if (obj, loc) in seen:
                raise KbError(f"duplicate edge {obj!r} -> {loc!r}")
            seen.add((obj, loc))
            if not (isinstance(w, (int, float)) and math.isfinite(w) and w > 0):
                raise KbError(f"edge {obj!r} -> {loc!r} has non-positive weight {w!r}")
            covered.add(obj)
        missing = oset - covered
        if missing:
            raise KbError(f"objects without edges: {sorted(missing)}")


def commonsense_location(kb: KnowledgeBase, obj: str) -> str:
    """Highest-weight location of `obj`; ties go to the lexicographically
    smallest location name, so the result is independent of edge order."""
    best: tuple[float, str] | None = None
    for o, loc, w in kb.edges:
        if o != obj:
            continue
        if best is None or w > best[0] or (w == best[0] and loc < best[1]):
            best = (w, loc)
    if best is None:
        raise KbError(f"unknown object {obj!r}")
    return best[1]


def load_kb(path: str) -> KnowledgeBase:
    """Parse a tab-separated file of `object<TAB>location<TAB>weight` lines.

    Blank lines and lines starting with `#` are skipped.  Vocabulary order is
    first appearance in the file.
    """
    objects: list[str] = []
    locations: list[str] = []
    oseen: set[str] = set()
    lseen: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    edges: list[tuple[str, str, float]] = []
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise KbError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise KbError(f"{path}:{lineno}: expected object<TAB>location<TAB>weight")
        obj, loc, wtext = parts
        if not obj or not loc:
            raise KbError(f"{path}:{lineno}: empty name")
        try:
            w = float(wtext)
        except ValueError:
            raise KbError(f"{path}:{lineno}: bad weight {wtext!r}") from None
        if not (math.isfinite(w) and w > 0):
            raise KbError(f"{path}:{lineno}: weight must be a positive finite number")
        if (obj, loc) in pairs:
            raise KbError(f"{path}:{lineno}: duplicate edge {obj!r} -> {loc!r}")
        pairs.add((obj, loc))
        if obj not in oseen:
            oseen.add(obj)
            objects.append(obj)
        if loc not in lseen:
            lseen.add(loc)
            locations.append(loc)
        edges.append((obj, loc, w))
    if not objects:
        raise KbError(f"{path}: no objects")
    return KnowledgeBase(tuple(objects), tuple(locations), tuple(edges))


def write_kb(kb: KnowledgeBase, path: str) -> None:
    """Write a knowledge base in the format read by :func:`load_kb`.

    Output is byte-deterministic; weights use repr so a round trip is exact.
    """
    lines = ["# object\tlocation\tweight"]
    for obj, loc, w in kb.edges:
        lines.append(f"{obj}\t{loc}\t{w!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@functools.lru_cache(maxsize=8)
def generate_synthetic_kb(seed: int, n_objects: int, n_locations: int) -> KnowledgeBase:
    """Random knowledge base: per object one designated commonsense edge with
    weight in [2, 5] plus 1..3 distractor edges with weights in (0, 1].

    Deterministic in `seed`, so every environment reset of one world shares
    one cached (immutable) result.  The designated edge is always the strict
    maximum for its object.
    """
    if seed < 0:
        raise KbError(f"seed must be non-negative, got {seed}")
    if n_objects < 1:
        raise KbError("n_objects must be at least 1")
    if n_locations < 2:
        raise KbError("n_locations must be at least 2")
    objects = numbered_words(_OBJECT_WORDS, n_objects)
    locations = numbered_words(_LOCATION_WORDS, n_locations)
    rng = np.random.default_rng(int(seed))
    edges: list[tuple[str, str, float]] = []
    for obj in objects:
        common = locations[int(rng.integers(n_locations))]
        edges.append((obj, common, float(rng.uniform(2.0, 5.0))))
        others = [loc for loc in locations if loc != common]
        k = min(int(rng.integers(1, 4)), len(others))
        picks = rng.choice(len(others), size=k, replace=False)
        for j in picks:
            edges.append((obj, others[int(j)], float(rng.uniform(0.05, 1.0))))
    return KnowledgeBase(objects, locations, tuple(edges))
