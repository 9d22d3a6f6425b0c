import numpy as np
import pytest

from roommem.des import (
    DesError,
    Human,
    RoomState,
    Routine,
    build_room,
    human_names,
    tick,
    true_location,
)
from roommem.kb import generate_synthetic_kb, commonsense_location


ROUTINE_RANGES = dict(segment_range=(2, 5), duration_range=(1, 4))


def make_room(humans, capacity=8, locations=("a", "b", "c")):
    occupancy = {loc: 0 for loc in locations}
    current = {}
    for h, start in humans:
        occupancy[start] += 1
        current[h.name] = start
    return RoomState([h for h, _ in humans], current, occupancy, capacity)


def test_human_names_have_no_apostrophes():
    for name in human_names(200):
        assert "'" not in name
    assert len(set(human_names(200))) == 200


def test_routine_validation():
    with pytest.raises(DesError):
        Routine(())
    with pytest.raises(DesError):
        Routine((("a", 0),))


def test_tick_follows_durations():
    """A solo human cycles through its routine, spending exactly the
    configured number of ticks in each segment."""
    h = Human("Ann", "bowl", Routine((("a", 2), ("b", 3))))
    room = make_room([(h, "a")])
    seen = []
    for _ in range(10):
        tick(room)
        seen.append(true_location(room, "Ann"))
    assert seen == ["a", "a", "b", "b", "b", "a", "a", "b", "b", "b"]


def test_single_segment_routine_never_moves():
    h = Human("Ann", "bowl", Routine((("a", 1),)))
    room = make_room([(h, "a")])
    for _ in range(5):
        tick(room)
        assert true_location(room, "Ann") == "a"
        assert room.occupancy == {"a": 1, "b": 0, "c": 0}


def test_blocked_move_falls_through_to_next_segment():
    blocker = Human("Bob", "mug", Routine((("b", 9),)))
    mover = Human("Ann", "bowl", Routine((("a", 1), ("b", 1), ("c", 1))))
    room = make_room([(blocker, "b"), (mover, "a")], capacity=1)
    tick(room)  # first tick just finishes the one-tick stay at a
    assert true_location(room, "Ann") == "a"
    tick(room)  # Ann schedules b, which is full, so she lands in c
    assert true_location(room, "Ann") == "c"
    assert mover.seg == 1  # schedule still points at the blocked segment
    assert room.occupancy == {"a": 0, "b": 1, "c": 1}


def test_fully_blocked_move_stays_put():
    b1 = Human("Bob", "mug", Routine((("b", 9),)))
    c1 = Human("Cam", "hat", Routine((("c", 9),)))
    mover = Human("Ann", "bowl", Routine((("a", 1), ("b", 1), ("c", 1))))
    room = make_room([(b1, "b"), (c1, "c"), (mover, "a")], capacity=1)
    tick(room)
    tick(room)
    assert true_location(room, "Ann") == "a"
    assert room.occupancy == {"a": 1, "b": 1, "c": 1}
    # the schedule advanced even though no move happened
    assert mover.seg == 1 and mover.steps_in_seg == 1


def test_move_transfers_one_unit_of_occupancy():
    h = Human("Ann", "bowl", Routine((("a", 1), ("b", 1))))
    room = make_room([(h, "a")])
    tick(room)
    assert true_location(room, "Ann") == "a"
    assert room.occupancy == {"a": 1, "b": 0, "c": 0}
    tick(room)
    assert true_location(room, "Ann") == "b"
    assert room.occupancy == {"a": 0, "b": 1, "c": 0}


def test_build_room_deterministic():
    kb = generate_synthetic_kb(3, 4, 6)
    r1 = build_room(kb, 8, 0.5, seed=42, location_capacity=8, **ROUTINE_RANGES)
    r2 = build_room(kb, 8, 0.5, seed=42, location_capacity=8, **ROUTINE_RANGES)
    assert [h.routine for h in r1.humans] == [h.routine for h in r2.humans]
    assert r1.current_location == r2.current_location
    assert [h.routine for h in build_room(kb, 8, 0.5, seed=43, location_capacity=8,
                                          **ROUTINE_RANGES).humans] != \
           [h.routine for h in r1.humans]


def test_build_room_p_one_pins_routines_to_commonsense():
    kb = generate_synthetic_kb(3, 4, 6)
    room = build_room(kb, 10, 1.0, seed=0, location_capacity=8, **ROUTINE_RANGES)
    for h in room.humans:
        common = commonsense_location(kb, h.obj)
        assert all(loc == common for loc, _ in h.routine.segments)


def test_build_room_p_zero_avoids_commonsense():
    kb = generate_synthetic_kb(3, 4, 6)
    room = build_room(kb, 10, 0.0, seed=0, location_capacity=8, **ROUTINE_RANGES)
    for h in room.humans:
        common = commonsense_location(kb, h.obj)
        assert all(loc != common for loc, _ in h.routine.segments)


def test_build_room_routine_shape_ranges():
    kb = generate_synthetic_kb(1, 4, 8)
    room = build_room(kb, 30, 0.5, seed=5, location_capacity=8, segment_range=(2, 5),
                      duration_range=(1, 4))
    for h in room.humans:
        assert 2 <= len(h.routine.segments) <= 5
        assert all(1 <= d <= 4 for _, d in h.routine.segments)


def test_build_room_full_world_raises():
    kb = generate_synthetic_kb(2, 2, 2)
    with pytest.raises(DesError):
        build_room(kb, 5, 0.5, seed=0, location_capacity=2, **ROUTINE_RANGES)


def test_capacity_never_exceeded_over_time():
    kb = generate_synthetic_kb(9, 16, 28)
    room = build_room(kb, 64, 0.5, seed=17, location_capacity=8, **ROUTINE_RANGES)
    for _ in range(200):
        tick(room)
        counts = {}
        for loc in room.current_location.values():
            counts[loc] = counts.get(loc, 0) + 1
        assert all(v <= 8 for v in counts.values())
        # the incremental occupancy tally stays consistent with reality
        for loc in room.occupancy:
            assert room.occupancy[loc] == counts.get(loc, 0)


def test_tick_is_deterministic():
    kb = generate_synthetic_kb(4, 8, 10)
    rooms = [build_room(kb, 16, 0.5, seed=77, location_capacity=8, **ROUTINE_RANGES)
             for _ in range(2)]
    for _ in range(50):
        tick(rooms[0])
        tick(rooms[1])
        assert rooms[0].current_location == rooms[1].current_location
        assert rooms[0].occupancy == rooms[1].occupancy


def test_true_location_unknown_human():
    kb = generate_synthetic_kb(1, 3, 4)
    room = build_room(kb, 2, 0.5, seed=0, location_capacity=8, **ROUTINE_RANGES)
    with pytest.raises(DesError):
        true_location(room, "Nobody")


def test_build_room_argument_validation():
    kb = generate_synthetic_kb(1, 3, 4)
    with pytest.raises(DesError):
        build_room(kb, 0, 0.5, seed=0, location_capacity=8, **ROUTINE_RANGES)
    with pytest.raises(DesError):
        build_room(kb, 2, 1.5, seed=0, location_capacity=8, **ROUTINE_RANGES)
    with pytest.raises(DesError):
        build_room(kb, 2, 0.5, seed=0, location_capacity=0, **ROUTINE_RANGES)
    with pytest.raises(DesError):
        build_room(kb, 2, 0.5, seed=0, location_capacity=8, segment_range=(0, 3),
                   duration_range=(1, 4))
