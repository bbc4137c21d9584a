import pytest

from quivhom import quiver as qv
from quivhom.errors import CycleFound, DuplicateVertexId, QuivhomError, UnknownVertex


def test_validate_a2():
    q = qv.a_n(2)
    assert q.topological == ("1", "2")
    assert q.acyclic


def test_loop_rejected():
    with pytest.raises(CycleFound) as err:
        qv.make_quiver(["v"], [("l", "v", "v")])
    assert "v" in str(err.value)


def test_two_cycle_named():
    with pytest.raises(CycleFound) as err:
        qv.make_quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    assert "1" in str(err.value) and "2" in str(err.value)


def test_duplicate_vertex():
    with pytest.raises(DuplicateVertexId):
        qv.make_quiver(["1", "1"], [])


def test_kronecker_valid():
    q = qv.kronecker()
    assert len(q.arrows) == 2 and q.acyclic


def test_paths_trivial_only():
    q = qv.a_n(2)
    ps = qv.paths_between(q, "1", "1")
    assert [str(p) for p in ps] == ["e_1"]


def test_paths_a2():
    q = qv.a_n(2)
    ps = qv.paths_between(q, "1", "2")
    assert len(ps) == 1 and ps[0].arrows == ("a1",)


def test_paths_kronecker():
    ps = qv.paths_between(qv.kronecker(), "1", "2")
    assert [p.arrows for p in ps] == [("a",), ("b",)]


def test_unknown_vertex():
    with pytest.raises(UnknownVertex):
        qv.paths_between(qv.a_n(2), "1", "9")


def test_sinks_sources():
    q = qv.a_n(2)
    assert qv.sinks(q) == ["2"] and qv.sources(q) == ["1"]
    out = qv.d4((0, 0, 0))
    assert sorted(qv.sinks(out)) == ["1", "2", "3"]
    assert qv.sources(out) == ["c"]
    sv = qv.single_vertex()
    assert qv.sinks(sv) == ["1"] and qv.sources(sv) == ["1"]


def test_is_type_an():
    assert qv.is_type_An(qv.a_n(2))
    assert qv.is_type_An(qv.single_vertex())
    assert qv.is_type_An(qv.make_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")]))
    assert not qv.is_type_An(qv.d4((0, 0, 0)))
    assert not qv.is_type_An(qv.kronecker())


def test_every_orientation_distinct_sinks():
    seen = set()
    for bits, q in qv.d4_orientations():
        assert q.acyclic
        seen.add(tuple(sorted(qv.sinks(q))))
    assert len(qv.d4_orientations()) == 8


def test_subquiver():
    q = qv.d4((0, 0, 0))
    sub = qv.subquiver(q, ["c"])
    assert sub.vertices == ("c",) and sub.arrows == ()


def test_subquiver_refuses_unknown_vertices():
    q = qv.d4((0, 0, 0))
    with pytest.raises(UnknownVertex):
        qv.subquiver(q, ["9"])
    with pytest.raises(UnknownVertex):
        qv.subquiver(q, ["c", "9"])


@pytest.mark.parametrize("bits", [(0, 0), (0, 2, 0), (0, 0, 0, 0), (), (1, -1, 0)])
def test_d4_needs_three_bits(bits):
    with pytest.raises(QuivhomError):
        qv.d4(bits)


def test_nontrivial_path_respects_topological_order():
    q = qv.d4((0, 1, 0))
    topo = list(q.topological)
    for v in q.vertices:
        for w in q.vertices:
            for p in qv.paths_between(q, v, w):
                if not p.is_trivial():
                    assert topo.index(v) < topo.index(w)


def test_concat():
    q = qv.a_n(3)
    p1 = qv.paths_between(q, "1", "2")[0]
    p2 = qv.paths_between(q, "2", "3")[0]
    p = qv.concat(p1, p2)
    assert p.arrows == ("a1", "a2")
    with pytest.raises(QuivhomError):
        qv.concat(p2, p1)
