from collections import Counter

from hypothesis import assume, given, settings, strategies as st

from roommem.des import Human, RoomState, build_room, human_names, tick
from roommem.env import ConfigError, EnvConfig, world_kb
from roommem.kb import commonsense_location


def world(kb_seed, n_objects, n_locations, n_humans, **kw):
    """A validated config and its synthetic knowledge base."""
    cfg = EnvConfig(n_humans=n_humans, n_objects=n_objects, n_object_locations=n_locations,
                    kb_seed=kb_seed, **kw)
    cfg.validate()
    return world_kb(cfg), cfg


def make_room(humans, capacity=8, locations=("a", "b", "c")):
    occupancy = {loc: 0 for loc in locations}
    for h in humans:
        occupancy[h.location] += 1
    return RoomState(list(humans), occupancy, capacity)


def test_human_names_have_no_apostrophes():
    for name in human_names(200):
        assert "'" not in name
    assert len(set(human_names(200))) == 200


def test_tick_follows_durations():
    """A solo human cycles through its routine, spending exactly the
    configured number of ticks in each segment."""
    h = Human("Ann", "bowl", (("a", 2), ("b", 3)), location="a")
    room = make_room([h])
    seen = []
    for _ in range(10):
        tick(room)
        seen.append(h.location)
    assert seen == ["a", "a", "b", "b", "b", "a", "a", "b", "b", "b"]


def test_single_segment_routine_never_moves():
    h = Human("Ann", "bowl", (("a", 1),), location="a")
    room = make_room([h])
    for _ in range(5):
        tick(room)
        assert h.location == "a"
        assert room.occupancy == {"a": 1, "b": 0, "c": 0}


def test_blocked_move_falls_through_to_next_segment():
    blocker = Human("Bob", "mug", (("b", 9),), location="b")
    mover = Human("Ann", "bowl", (("a", 1), ("b", 1), ("c", 1)), location="a")
    room = make_room([blocker, mover], capacity=1)
    tick(room)  # first tick just finishes the one-tick stay at a
    assert mover.location == "a"
    tick(room)  # Ann schedules b, which is full, so she lands in c
    assert mover.location == "c"
    assert mover.seg == 1  # schedule still points at the blocked segment
    assert room.occupancy == {"a": 0, "b": 1, "c": 1}


def test_fully_blocked_move_stays_put():
    b1 = Human("Bob", "mug", (("b", 9),), location="b")
    c1 = Human("Cam", "hat", (("c", 9),), location="c")
    mover = Human("Ann", "bowl", (("a", 1), ("b", 1), ("c", 1)), location="a")
    room = make_room([b1, c1, mover], capacity=1)
    tick(room)
    tick(room)
    assert mover.location == "a"
    assert room.occupancy == {"a": 1, "b": 1, "c": 1}
    # the schedule advanced even though no move happened
    assert mover.seg == 1 and mover.steps_in_seg == 1


def test_move_transfers_one_unit_of_occupancy():
    h = Human("Ann", "bowl", (("a", 1), ("b", 1)), location="a")
    room = make_room([h])
    tick(room)
    assert h.location == "a"
    assert room.occupancy == {"a": 1, "b": 0, "c": 0}
    tick(room)
    assert h.location == "b"
    assert room.occupancy == {"a": 0, "b": 1, "c": 0}


def test_build_room_deterministic():
    kb, cfg = world(3, 4, 6, n_humans=8)
    r1 = build_room(kb, cfg, seed=42)
    r2 = build_room(kb, cfg, seed=42)
    assert [h.segments for h in r1.humans] == [h.segments for h in r2.humans]
    assert [h.location for h in r1.humans] == [h.location for h in r2.humans]
    assert [h.segments for h in build_room(kb, cfg, seed=43).humans] != \
           [h.segments for h in r1.humans]


def test_build_room_p_one_pins_routines_to_commonsense():
    kb, cfg = world(3, 4, 6, n_humans=10, p_commonsense=1.0)
    room = build_room(kb, cfg, seed=0)
    for h in room.humans:
        common = commonsense_location(kb, h.obj)
        assert all(loc == common for loc, _ in h.segments)


def test_build_room_p_zero_avoids_commonsense():
    kb, cfg = world(3, 4, 6, n_humans=10, p_commonsense=0.0)
    room = build_room(kb, cfg, seed=0)
    for h in room.humans:
        common = commonsense_location(kb, h.obj)
        assert all(loc != common for loc, _ in h.segments)


def test_build_room_routine_shape_ranges():
    kb, cfg = world(1, 4, 8, n_humans=30, routine_segments=(2, 5), routine_durations=(1, 4))
    room = build_room(kb, cfg, seed=5)
    for h in room.humans:
        assert 2 <= len(h.segments) <= 5
        assert all(1 <= d <= 4 for _, d in h.segments)


def test_capacity_never_exceeded_over_time():
    kb, cfg = world(9, 16, 28, n_humans=64, location_capacity=8)
    room = build_room(kb, cfg, seed=17)
    for _ in range(200):
        tick(room)
        counts = Counter(h.location for h in room.humans)
        assert all(v <= 8 for v in counts.values())
        # the incremental occupancy tally stays consistent with reality
        for loc in room.occupancy:
            assert room.occupancy[loc] == counts.get(loc, 0)


def test_tick_is_deterministic():
    kb, cfg = world(4, 8, 10, n_humans=16)
    rooms = [build_room(kb, cfg, seed=77) for _ in range(2)]
    for _ in range(50):
        tick(rooms[0])
        tick(rooms[1])
        assert [h.location for h in rooms[0].humans] == [h.location for h in rooms[1].humans]
        assert rooms[0].occupancy == rooms[1].occupancy



@settings(max_examples=60)
@given(n_humans=st.integers(1, 16), n_objects=st.integers(1, 5),
       n_locations=st.integers(2, 6), capacity=st.integers(1, 5),
       seg=st.tuples(st.integers(0, 3), st.integers(0, 2)),
       dur=st.tuples(st.integers(0, 3), st.integers(0, 2)),
       p_commonsense=st.floats(0.0, 1.0), kb_seed=st.integers(0, 50),
       seed=st.integers(0, 2**32))
def test_every_valid_config_builds_a_seated_room(n_humans, n_objects, n_locations, capacity,
                                                 seg, dur, p_commonsense, kb_seed, seed):
    """build_room checks nothing itself: whatever EnvConfig.validate accepts
    must seat every human within capacity on routines of the configured shape."""
    (s_lo, s_span), (d_lo, d_span) = seg, dur
    try:
        kb, cfg = world(kb_seed, n_objects, n_locations, n_humans, location_capacity=capacity,
                        routine_segments=(s_lo, s_lo + s_span),
                        routine_durations=(d_lo, d_lo + d_span), p_commonsense=p_commonsense)
    except ConfigError:
        assume(False)
    room = build_room(kb, cfg, seed)
    assert [h.name for h in room.humans] == list(human_names(n_humans))
    seated = Counter(h.location for h in room.humans)
    assert set(seated) <= set(kb.locations)
    assert room.occupancy == {loc: seated[loc] for loc in kb.locations}
    assert max(room.occupancy.values()) <= capacity
    for h in room.humans:
        assert s_lo <= len(h.segments) <= s_lo + s_span
        assert all(d_lo <= d <= d_lo + d_span for _, d in h.segments)
        assert all(loc in kb.locations for loc, _ in h.segments)
