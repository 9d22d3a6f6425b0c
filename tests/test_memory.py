import numpy as np
import pytest
from hypothesis import given, strategies as st

from roommem.env import Question
from roommem.kb import generate_synthetic_kb
from roommem.memory import (
    EPISODIC,
    FORGET,
    RELATION,
    SEMANTIC,
    SHORT_TERM,
    TO_EPISODIC,
    TO_SEMANTIC,
    CapacityError,
    MalformedHeadError,
    MemorySystem,
    Quadruple,
    answer_of,
    apply_action,
    format_head,
    memory_lines,
    observe,
    prefill_semantic,
    retrieve,
    strip_owner,
)

from .oracles import oracle_retrieve, random_memory_state


def systems(short_cap=1, epi_cap=4, sem_cap=4):
    return (
        MemorySystem(SHORT_TERM, short_cap),
        MemorySystem(EPISODIC, epi_cap),
        MemorySystem(SEMANTIC, sem_cap),
    )


def obs(human, obj, loc, t):
    return Quadruple(format_head(human, obj), RELATION, loc, t)


def test_format_and_strip_owner_round_trip():
    head = format_head("Bob", "laptop")
    assert head == "Bob's laptop"
    assert strip_owner(head) == ("Bob", "laptop")


def test_strip_owner_rejects_malformed():
    for bad in ("laptop", "Bob's ", "'s laptop"):
        with pytest.raises(MalformedHeadError):
            strip_owner(bad)


def test_strip_owner_splits_at_first_separator():
    # the object itself may contain the separator text
    assert strip_owner("Bob's cat's toy") == ("Bob", "cat's toy")


def test_observe_stages_quadruple():
    m_o, _, _ = systems()
    observe(m_o, obs("Ann", "bowl", "desk", 5))
    assert m_o.entries == [Quadruple("Ann's bowl", RELATION, "desk", 5)]


def test_observe_full_short_term_raises():
    m_o, _, _ = systems(short_cap=1)
    observe(m_o, obs("Ann", "bowl", "desk", 0))
    with pytest.raises(CapacityError):
        observe(m_o, obs("Bob", "mug", "lap", 1))


def test_observe_wrong_kind():
    _, m_e, _ = systems()
    with pytest.raises(ValueError):
        observe(m_e, obs("Ann", "bowl", "desk", 0))


def test_apply_action_on_empty_short_term():
    m_o, m_e, m_s = systems()
    with pytest.raises(CapacityError):
        apply_action(m_o, m_e, m_s, FORGET)


def test_apply_action_unknown_action():
    m_o, m_e, m_s = systems()
    observe(m_o, obs("Ann", "bowl", "desk", 0))
    with pytest.raises(ValueError):
        apply_action(m_o, m_e, m_s, 3)


def test_forget_drops_entry():
    m_o, m_e, m_s = systems()
    observe(m_o, obs("Ann", "bowl", "desk", 0))
    apply_action(m_o, m_e, m_s, FORGET)
    assert len(m_o) == 0 and len(m_e) == 0 and len(m_s) == 0


def test_to_episodic_keeps_entry_verbatim():
    m_o, m_e, m_s = systems()
    observe(m_o, obs("Ann", "bowl", "desk", 7))
    apply_action(m_o, m_e, m_s, TO_EPISODIC)
    assert m_e.entries == [Quadruple("Ann's bowl", RELATION, "desk", 7)]
    assert len(m_o) == 0


def test_episodic_evicts_oldest_timestamp():
    m_o, m_e, m_s = systems(epi_cap=2)
    for t, loc in [(0, "desk"), (1, "lap"), (2, "bed")]:
        observe(m_o, obs("Ann", "bowl", loc, t))
        apply_action(m_o, m_e, m_s, TO_EPISODIC)
    assert [e.value for e in m_e.entries] == [1, 2]


def test_episodic_eviction_tie_prefers_earliest_inserted():
    m_o, m_e, m_s = systems(epi_cap=2)
    # two distinct entries sharing a timestamp, then an overflow
    m_e.entries.append(Quadruple("Ann's bowl", RELATION, "desk", 5))
    m_e.entries.append(Quadruple("Bob's mug", RELATION, "lap", 5))
    observe(m_o, obs("Cam", "hat", "bed", 9))
    apply_action(m_o, m_e, m_s, TO_EPISODIC)
    assert m_e.entries[0].head == "Bob's mug"
    assert m_e.entries[1].head == "Cam's hat"


def test_to_semantic_strips_owner_and_counts():
    m_o, m_e, m_s = systems()
    observe(m_o, obs("Ann", "bowl", "desk", 3))
    apply_action(m_o, m_e, m_s, TO_SEMANTIC)
    assert m_s.entries == [Quadruple("bowl", RELATION, "desk", 1)]


def test_to_semantic_duplicate_strengthens_in_place():
    m_o, m_e, m_s = systems()
    for t, human in [(0, "Ann"), (1, "Bob"), (2, "Cam")]:
        observe(m_o, obs(human, "bowl", "desk", t))
        apply_action(m_o, m_e, m_s, TO_SEMANTIC)
    assert m_s.entries == [Quadruple("bowl", RELATION, "desk", 3)]


def test_to_semantic_same_object_different_location_is_new_entry():
    m_o, m_e, m_s = systems()
    observe(m_o, obs("Ann", "bowl", "desk", 0))
    apply_action(m_o, m_e, m_s, TO_SEMANTIC)
    observe(m_o, obs("Ann", "bowl", "lap", 1))
    apply_action(m_o, m_e, m_s, TO_SEMANTIC)
    assert len(m_s) == 2


def test_semantic_evicts_weakest_strength():
    m_o, m_e, m_s = systems(sem_cap=2)
    m_s.entries.append(Quadruple("bowl", RELATION, "desk", 3))
    m_s.entries.append(Quadruple("mug", RELATION, "lap", 1))
    observe(m_o, obs("Ann", "hat", "bed", 9))
    apply_action(m_o, m_e, m_s, TO_SEMANTIC)
    heads = [e.head for e in m_s.entries]
    assert heads == ["bowl", "hat"]
    assert m_s.entries[-1].value == 1


def test_semantic_eviction_tie_prefers_earliest_inserted():
    m_o, m_e, m_s = systems(sem_cap=2)
    m_s.entries.append(Quadruple("bowl", RELATION, "desk", 2))
    m_s.entries.append(Quadruple("mug", RELATION, "lap", 2))
    observe(m_o, obs("Ann", "hat", "bed", 9))
    apply_action(m_o, m_e, m_s, TO_SEMANTIC)
    assert [e.head for e in m_s.entries] == ["mug", "hat"]


def test_duplicate_strengthening_beats_eviction_when_full():
    """A duplicate of an existing fact never evicts anything, even at
    capacity; it only bumps the existing strength."""
    m_o, m_e, m_s = systems(sem_cap=2)
    m_s.entries.append(Quadruple("bowl", RELATION, "desk", 1))
    m_s.entries.append(Quadruple("mug", RELATION, "lap", 5))
    observe(m_o, obs("Ann", "bowl", "desk", 9))
    apply_action(m_o, m_e, m_s, TO_SEMANTIC)
    assert m_s.entries == [
        Quadruple("bowl", RELATION, "desk", 2),
        Quadruple("mug", RELATION, "lap", 5),
    ]


def test_zero_capacity_destination_drops_silently():
    m_o, m_e, m_s = systems(epi_cap=0, sem_cap=0)
    observe(m_o, obs("Ann", "bowl", "desk", 0))
    apply_action(m_o, m_e, m_s, TO_EPISODIC)
    assert len(m_o) == 0 and len(m_e) == 0
    observe(m_o, obs("Ann", "bowl", "desk", 1))
    apply_action(m_o, m_e, m_s, TO_SEMANTIC)
    assert len(m_s) == 0


def test_zero_capacity_semantic_still_strengthens_nothing():
    # no phantom entries appear when capacity is zero
    m_o, m_e, m_s = systems(sem_cap=0)
    for t in range(3):
        observe(m_o, obs("Ann", "bowl", "desk", t))
        apply_action(m_o, m_e, m_s, TO_SEMANTIC)
    assert m_s.entries == []


def test_memory_system_validation():
    with pytest.raises(ValueError):
        MemorySystem("nope", 4)
    with pytest.raises(ValueError):
        MemorySystem(EPISODIC, -1)


def test_retrieve_episodic_most_recent_wins():
    _, m_e, m_s = systems()
    m_e.entries.append(Quadruple("Ann's bowl", RELATION, "desk", 1))
    m_e.entries.append(Quadruple("Ann's bowl", RELATION, "lap", 4))
    m_e.entries.append(Quadruple("Bob's mug", RELATION, "bed", 9))
    got = retrieve(Question("Ann's bowl", RELATION), m_e, m_s)
    assert got.tail == "lap"


def test_retrieve_episodic_beats_stronger_semantic():
    _, m_e, m_s = systems()
    m_e.entries.append(Quadruple("Ann's bowl", RELATION, "lap", 0))
    m_s.entries.append(Quadruple("bowl", RELATION, "desk", 99))
    got = retrieve(Question("Ann's bowl", RELATION), m_e, m_s)
    assert got.tail == "lap"


def test_retrieve_semantic_matches_bare_object():
    _, m_e, m_s = systems()
    m_e.entries.append(Quadruple("Bob's bowl", RELATION, "bed", 3))  # other owner
    m_s.entries.append(Quadruple("bowl", RELATION, "desk", 1))
    m_s.entries.append(Quadruple("bowl", RELATION, "lap", 4))
    got = retrieve(Question("Ann's bowl", RELATION), m_e, m_s)
    assert got.tail == "lap"


def test_retrieve_tie_takes_latest_inserted():
    _, m_e, m_s = systems()
    m_e.entries.append(Quadruple("Ann's bowl", RELATION, "desk", 5))
    m_e.entries.append(Quadruple("Ann's bowl", RELATION, "lap", 5))
    assert retrieve(Question("Ann's bowl", RELATION), m_e, m_s).tail == "lap"
    m_e.entries.clear()
    m_s.entries.append(Quadruple("bowl", RELATION, "desk", 2))
    m_s.entries.append(Quadruple("bowl", RELATION, "bed", 2))
    assert retrieve(Question("Ann's bowl", RELATION), m_e, m_s).tail == "bed"


def test_retrieve_nothing_relevant_returns_none():
    _, m_e, m_s = systems()
    m_e.entries.append(Quadruple("Bob's mug", RELATION, "bed", 0))
    m_s.entries.append(Quadruple("mug", RELATION, "lap", 1))
    assert retrieve(Question("Ann's bowl", RELATION), m_e, m_s) is None
    assert answer_of(None) is None


def test_answer_of_returns_tail():
    assert answer_of(Quadruple("bowl", RELATION, "desk", 1)) == "desk"


def test_retrieve_matches_bruteforce_oracle():
    """Randomized cross-check against the obvious filter/argmax reference,
    with heavy value collisions so every tie path fires."""
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        q_head, m_e, m_s = random_memory_state(rng, max_size=16)
        got = retrieve(Question(q_head, RELATION), m_e, m_s)
        want = oracle_retrieve(q_head, m_e.entries, m_s.entries)
        assert got == want


def test_prefill_follows_kb_object_order():
    kb = generate_synthetic_kb(3, 6, 8)
    _, _, m_s = systems(sem_cap=4)
    prefill_semantic(m_s, kb)
    assert len(m_s) == 4
    assert [e.head for e in m_s.entries] == list(kb.objects[:4])
    assert all(e.value == 1 for e in m_s.entries)


def test_prefill_fills_to_object_count_when_room():
    kb = generate_synthetic_kb(3, 4, 8)
    _, _, m_s = systems(sem_cap=16)
    prefill_semantic(m_s, kb)
    assert len(m_s) == 4


def test_prefill_rejects_bad_targets(small_kb):
    _, m_e, m_s = systems()
    with pytest.raises(ValueError):
        prefill_semantic(m_e, small_kb)
    m_s.entries.append(Quadruple("bowl", RELATION, "desk", 1))
    with pytest.raises(ValueError):
        prefill_semantic(m_s, small_kb)


def test_memory_lines_format():
    lines = memory_lines(EPISODIC, [Quadruple("Ann's bowl", RELATION, "desk", 4)])
    assert lines == ["episodic\tAnn's bowl\tAtLocation\tdesk\t4"]


@given(
    caps=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    script=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 4), st.integers(0, 2)),
        max_size=40,
    ),
)
def test_sizes_never_exceed_capacity(caps, script):
    """Any action sequence respects both capacity bounds, and semantic
    strengths stay positive."""
    humans = ("Ann", "Bob", "Cam", "Dee")
    objects = ("bowl", "mug", "hat")
    locations = ("desk", "lap", "bed", "sofa", "attic")
    m_o = MemorySystem(SHORT_TERM, 1)
    m_e = MemorySystem(EPISODIC, caps[0])
    m_s = MemorySystem(SEMANTIC, caps[1])
    for t, (hi, oi, li, action) in enumerate(script):
        observe(m_o, obs(humans[hi], objects[oi], locations[li], t))
        apply_action(m_o, m_e, m_s, action)
        assert len(m_o) == 0
        assert len(m_e) <= caps[0]
        assert len(m_s) <= caps[1]
        assert all(e.value >= 1 for e in m_s.entries)
        # semantic never holds duplicate (object, location) pairs
        pairs = [(e.head, e.tail) for e in m_s.entries]
        assert len(pairs) == len(set(pairs))
