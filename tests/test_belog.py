from fractions import Fraction

import pytest

from cognilog.belog import (
    BeLog,
    BeRelation,
    BeVerbType,
    characteristics,
    class_centre,
    equivalence_from_class,
    equivalence_pairs,
    is_member,
    mapping_compatibility,
    prototype_distance,
    similarity_by_characteristics,
)
from cognilog.errors import EmptyClassError, NotInClassError


def _b(*triples):
    rels = []
    for i, t in enumerate(triples):
        type_, src, dst = t[:3]
        w = t[3] if len(t) > 3 else 1.0
        rels.append(BeRelation(id=f"r{i}", type=BeVerbType(type_), source=src,
                               target=dst, weight=w))
    return BeLog(tuple(rels))


BIRDS = _b(
    ("Be4", "bird", "flies"),
    ("Be4", "bird", "feathers"),
    ("Be4", "sparrow", "flies"),
    ("Be4", "sparrow", "feathers"),
    ("Be4", "sparrow", "small"),
    ("Be4", "sparrow", "brown"),
    ("Be4", "stone", "heavy"),
    ("Be3", "robin", "bird"),
)


def test_characteristics_view():
    assert characteristics(BIRDS, "bird") == frozenset({"flies", "feathers"})
    assert characteristics(BIRDS, "nothing_known") == frozenset()


def test_similarity_identity():
    assert similarity_by_characteristics(BIRDS, "bird", "bird") == 1


def test_similarity_subset_and_asymmetry():
    # sparrow's 4 characteristics cover bird's 2: full one way, half back
    assert similarity_by_characteristics(BIRDS, "sparrow", "bird") == 1
    assert similarity_by_characteristics(BIRDS, "bird", "sparrow") == Fraction(1, 2)


def test_similarity_vacuous_on_empty_target():
    assert similarity_by_characteristics(BIRDS, "stone", "no_demands") == 1


def test_similarity_exact_fraction():
    b = _b(("Be4", "a", "x"), ("Be4", "c", "x"), ("Be4", "c", "y"), ("Be4", "c", "z"))
    assert similarity_by_characteristics(b, "a", "c") == Fraction(1, 3)


def test_membership_channels():
    assert is_member(BIRDS, "sparrow", "bird")   # characteristic cover
    assert is_member(BIRDS, "robin", "bird")     # explicit Be3 edge
    assert is_member(BIRDS, "bird", "bird")      # reflexive
    assert not is_member(BIRDS, "stone", "bird")


def test_membership_closure_composes():
    b = _b(("Be3", "tweety", "canary"), ("Be3", "canary", "bird"))
    assert not is_member(b, "tweety", "bird")
    assert is_member(b, "tweety", "bird", closure=True)


def test_class_centre_max_incoming_similarity():
    b = _b(
        ("Be4", "proto", "x"), ("Be4", "proto", "y"),
        ("Be4", "m1", "x"), ("Be4", "m1", "y"), ("Be4", "m1", "w"),
        ("Be4", "m2", "x"), ("Be4", "m2", "z"),
    )
    # members cover proto's characteristics better than each other's
    assert class_centre(b, ["proto", "m1", "m2"]) == "proto"


def test_class_centre_tie_breaks_by_id():
    assert class_centre(_b(), ["b", "a"]) == "a"


def test_class_centre_empty_raises():
    with pytest.raises(EmptyClassError):
        class_centre(_b(), [])


def test_prototype_distance():
    b = _b(("Be4", "proto", "x"), ("Be4", "proto", "y"), ("Be4", "m", "x"))
    assert prototype_distance(b, "proto", "proto") == 0
    assert prototype_distance(b, "m", "proto") == Fraction(1, 2)
    with pytest.raises(NotInClassError):
        prototype_distance(b, "m", "proto", class_members=["proto"])


def test_equivalence_block_and_pairs():
    block = equivalence_from_class(BIRDS, "bird", ["sparrow", "robin", "stone"])
    assert block == frozenset({"sparrow", "robin"})
    pairs = equivalence_pairs(block)
    assert ("sparrow", "robin") in pairs and ("robin", "sparrow") in pairs
    assert ("sparrow", "sparrow") in pairs


def test_similar_edges_not_symmetrized():
    b = _b(("Similar", "a", "c", 0.7))
    assert mapping_compatibility(b, "a", "c") == pytest.approx(0.7)
    assert mapping_compatibility(b, "c", "a") == 0.0


def test_compatibility_channels():
    assert mapping_compatibility(BIRDS, "x", "x") == 1.0
    assert mapping_compatibility(BIRDS, "sparrow", "bird") == 1.0  # membership
    assert mapping_compatibility(BIRDS, "stone", "bird") == 0.0
    shared = _b(("Be3", "a", "k"), ("Be3", "c", "k"))
    assert mapping_compatibility(shared, "a", "c") == 1.0  # shared class


def test_weight_range_enforced():
    with pytest.raises(ValueError):
        BeRelation(id="r", type=BeVerbType.SIMILAR, source="a", target="c", weight=0.0)
    with pytest.raises(ValueError):
        BeRelation(id="r", type=BeVerbType.BE3, source="a", target="a")


@pytest.mark.parametrize("bad", ["", "a b", "a\tb", 'a"b', "a\u2028b"])
def test_relation_endpoints_are_writable_ids(bad):
    # the text format writes source and target as bare tokens
    with pytest.raises(ValueError, match="invalid id"):
        BeRelation(id="r", type=BeVerbType.SIMILAR, source=bad, target="c")
    with pytest.raises(ValueError, match="invalid id"):
        BeRelation(id="r", type=BeVerbType.SIMILAR, source="a", target=bad)
