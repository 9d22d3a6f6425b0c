import pytest

from roommem.kb import (
    KbError,
    KnowledgeBase,
    commonsense_location,
    generate_synthetic_kb,
    load_kb,
    write_kb,
)


def test_synthetic_kb_is_deterministic():
    a = generate_synthetic_kb(11, 8, 10)
    b = generate_synthetic_kb(11, 8, 10)
    assert a == b
    c = generate_synthetic_kb(12, 8, 10)
    assert c != a


def test_synthetic_kb_shapes():
    kb = generate_synthetic_kb(0, 16, 28)
    assert len(kb.objects) == 16
    assert len(kb.locations) == 28
    # every object: one strong edge plus 1..3 weak ones
    for obj in kb.objects:
        ws = sorted(w for o, _, w in kb.edges if o == obj)
        assert 2 <= len(ws) <= 4
        assert ws[-1] >= 2.0
        assert all(w <= 1.0 for w in ws[:-1])


def test_commonsense_location_is_strict_max():
    kb = generate_synthetic_kb(5, 6, 8)
    for obj in kb.objects:
        common = commonsense_location(kb, obj)
        best = max(w for o, _, w in kb.edges if o == obj)
        assert (obj, common, best) in kb.edges


def test_commonsense_tie_goes_to_lexicographically_smaller():
    kb = KnowledgeBase(
        ("cup",), ("b_loc", "a_loc"),
        (("cup", "b_loc", 2.0), ("cup", "a_loc", 2.0)),
    )
    assert commonsense_location(kb, "cup") == "a_loc"


def test_commonsense_unknown_object():
    kb = generate_synthetic_kb(1, 3, 4)
    with pytest.raises(KbError):
        commonsense_location(kb, "nope")


def test_vocab_recycles_with_suffix():
    kb = generate_synthetic_kb(0, 30, 40)
    assert "bowl" in kb.objects
    assert "bowl2" in kb.objects
    assert len(set(kb.objects)) == 30
    assert len(set(kb.locations)) == 40


def test_file_round_trip(tmp_path, small_kb):
    """Writing and re-reading preserves all edges and knowledge; vocabulary
    order follows first appearance in the file, so only edge-bearing
    locations survive and their order may be renumbered."""
    path = str(tmp_path / "kb.tsv")
    write_kb(small_kb, path)
    loaded = load_kb(path)
    assert loaded.edges == small_kb.edges
    assert loaded.objects == small_kb.objects
    assert set(loaded.locations) == {loc for _, loc, _ in small_kb.edges}
    for obj in small_kb.objects:
        assert commonsense_location(loaded, obj) == commonsense_location(small_kb, obj)
    # a loaded KB is a fixed point of write/load
    path2 = str(tmp_path / "kb2.tsv")
    write_kb(loaded, path2)
    assert load_kb(path2) == loaded


def test_load_skips_blanks_and_comments(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("# header\n\nbowl\tkitchen\t3.0\n  # indented comment\nbowl\tdesk\t0.5\n")
    kb = load_kb(str(path))
    assert kb.objects == ("bowl",)
    assert kb.locations == ("kitchen", "desk")
    assert commonsense_location(kb, "bowl") == "kitchen"


@pytest.mark.parametrize("line", [
    "bowl\tkitchen",                 # missing weight
    "bowl\tkitchen\tx",              # non-numeric weight
    "bowl\tkitchen\t-1.0",           # non-positive weight
    "bowl\tkitchen\tinf",            # non-finite weight
    "\tkitchen\t1.0",                # empty object name
])
def test_load_rejects_malformed_lines(tmp_path, line):
    path = tmp_path / "kb.tsv"
    path.write_text(line + "\n")
    with pytest.raises(KbError):
        load_kb(str(path))


def test_load_rejects_duplicate_edge(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("bowl\tkitchen\t1.0\nbowl\tkitchen\t2.0\n")
    with pytest.raises(KbError):
        load_kb(str(path))


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("# nothing here\n")
    with pytest.raises(KbError):
        load_kb(str(path))


def test_kb_validation():
    with pytest.raises(KbError):
        KnowledgeBase((), ("a",), ())
    with pytest.raises(KbError):
        KnowledgeBase(("x", "x"), ("a",), (("x", "a", 1.0),))
    with pytest.raises(KbError):
        KnowledgeBase(("x",), ("a",), (("y", "a", 1.0),))
    with pytest.raises(KbError):
        KnowledgeBase(("x",), ("a",), (("x", "b", 1.0),))
    # object with no edges at all
    with pytest.raises(KbError):
        KnowledgeBase(("x", "y"), ("a",), (("x", "a", 1.0),))
    # a name that is both an object and a location is ambiguous
    with pytest.raises(KbError, match="both object and location"):
        KnowledgeBase(("desk",), ("desk", "a"), (("desk", "a", 1.0),))
