"""Finite quivers, path enumeration, and the shape predicates used as hypotheses.

Paths are stored in traversal order: ``arrows[0]`` leaves the source and
``arrows[-1]`` enters the target.  The path-algebra product used throughout
the package is function-composition order, ``p * q = "q first, then p"``
(defined when q ends where p starts), which makes covariant representations
exactly the left modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import (CycleFound, DuplicateArrowId, DuplicateVertexId, NotAPath, QuivhomError,
                     UnknownVertex)


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    arrows: tuple
    topological: Optional[tuple] = field(default=None, compare=False)

    @property
    def acyclic(self) -> bool:
        return self.topological is not None

    def arrows_from(self, v: str):
        return [a for a in self.arrows if a.source == v]

    def arrows_into(self, v: str):
        return [a for a in self.arrows if a.target == v]


def make_quiver(vertices, arrows, require_acyclic: bool = True) -> Quiver:
    """Build a checked quiver.  Arrows are (name, source, target) triples."""
    verts = tuple(str(v) for v in vertices)
    seen = set()
    for v in verts:
        if v in seen:
            raise DuplicateVertexId(f"duplicate vertex id {v!r}")
        seen.add(v)
    arrs = []
    anames = set()
    for a in arrows:
        if isinstance(a, Arrow):
            name, s, t = a.name, a.source, a.target
        else:
            try:
                if isinstance(a, str):  # it would unpack into its characters
                    raise TypeError
                name, s, t = a
            except (TypeError, ValueError):
                raise QuivhomError(f"arrow {a!r} is not a (name, source, target) triple") from None
        name, s, t = str(name), str(s), str(t)
        if name in anames:
            raise DuplicateArrowId(f"duplicate arrow id {name!r}")
        anames.add(name)
        if s not in seen or t not in seen:
            raise UnknownVertex(f"arrow {name!r} references unknown vertex")
        arrs.append(Arrow(name, s, t))
    topo = _topological_order(verts, arrs)
    if topo is None and require_acyclic:
        raise CycleFound(_find_cycle(verts, arrs))
    return Quiver(verts, tuple(arrs), topo)


def _topological_order(verts, arrs):
    indeg = {v: 0 for v in verts}
    for a in arrs:
        indeg[a.target] += 1
    queue = [v for v in verts if indeg[v] == 0]
    order = []
    while queue:
        v = queue.pop(0)
        order.append(v)
        for a in arrs:
            if a.source == v:
                indeg[a.target] -= 1
                if indeg[a.target] == 0:
                    queue.append(a.target)
    return tuple(order) if len(order) == len(verts) else None


def _find_cycle(verts, arrs):
    color = {v: 0 for v in verts}
    stack = []
    for v in verts:
        if color[v] == 0:
            cyc = _cycle_from(v, arrs, color, stack)
            if cyc:
                return cyc
    return verts  # unreachable when a cycle exists


def _cycle_from(v, arrs, color, stack):
    """Depth-first search from v for a cycle through the vertices on
    ``stack`` (colour 1: open, 2: done); the cycle as a closed vertex list,
    or None.  A module-level helper, so no call leaves a reference cycle."""
    color[v] = 1
    stack.append(v)
    for a in arrs:
        if a.source != v:
            continue
        w = a.target
        if color[w] == 1:
            return stack[stack.index(w):] + [w]
        if color[w] == 0:
            found = _cycle_from(w, arrs, color, stack)
            if found:
                return found
    stack.pop()
    color[v] = 2
    return None


@dataclass(frozen=True)
class Path:
    source: str
    target: str
    arrows: tuple  # arrow names in traversal order

    @property
    def length(self) -> int:
        return len(self.arrows)

    def is_trivial(self) -> bool:
        return not self.arrows

    def __str__(self) -> str:
        if not self.arrows:
            return f"e_{self.source}"
        return "*".join(self.arrows)


def trivial_path(v: str) -> Path:
    return Path(str(v), str(v), ())


def arrow_path(a: Arrow) -> Path:
    return Path(a.source, a.target, (a.name,))


def check_path(q: Quiver, p: Path) -> Path:
    """``p``, a path of ``q`` (else ``UnknownVertex`` for an end, or
    ``NotAPath`` for arrows that do not run from its source to its target)."""
    if p.source not in q.vertices or p.target not in q.vertices:
        raise UnknownVertex(f"path {p} runs from {p.source} to {p.target}: not both vertices")
    arrows, at = {a.name: a for a in q.arrows}, p.source
    for name in p.arrows:
        if name not in arrows or arrows[name].source != at:
            raise NotAPath(f"path {p}: no arrow {name!r} of the quiver leaves {at}")
        at = arrows[name].target
    if at != p.target:
        raise NotAPath(f"path {p} ends at {at}, not at its target {p.target}")
    return p


def concat(first: Path, second: Path) -> Path:
    """Traverse ``first`` then ``second``; requires first.target == second.source."""
    if first.target != second.source:
        raise QuivhomError(f"paths do not compose: {first} then {second}")
    return Path(first.source, second.target, first.arrows + second.arrows)


def paths_between(q: Quiver, v: str, w: str):
    """All paths v ~> w, lexicographic in arrow ids; includes e_v when v == w."""
    v, w = str(v), str(w)
    if v not in q.vertices or w not in q.vertices:
        raise UnknownVertex(f"unknown vertex in ({v}, {w})")
    if not q.acyclic:
        raise QuivhomError("path enumeration requires an acyclic quiver")
    out = []
    _walk(q, v, w, [], out)
    return sorted((Path(v, w, arrows) for arrows in out), key=lambda p: p.arrows)


def _walk(q: Quiver, at: str, w: str, prefix: list, out: list):
    """Append to ``out`` the arrow names of every path to w that continues
    ``prefix``, a path ending at ``at``.  A module-level helper, so no call
    leaves a reference cycle."""
    if at == w:
        out.append(tuple(prefix))
    for a in sorted(q.arrows_from(at), key=lambda a: a.name):
        prefix.append(a.name)
        _walk(q, a.target, w, prefix, out)
        prefix.pop()


def longest_path(q: Quiver) -> int:
    """The length of a longest path of an acyclic quiver, by one pass over
    its topological order."""
    longest = dict.fromkeys(q.vertices, 0)
    for v in q.topological:
        for a in q.arrows_from(v):
            longest[a.target] = max(longest[a.target], longest[v] + 1)
    return max(longest.values(), default=0)


def sinks(q: Quiver):
    return [v for v in q.vertices if not q.arrows_from(v)]


def sources(q: Quiver):
    return [v for v in q.vertices if not q.arrows_into(v)]


def is_type_An(q: Quiver) -> bool:
    """True iff the underlying undirected graph is a simple chain."""
    n = len(q.vertices)
    if n == 0:
        return False
    if len(q.arrows) != n - 1:
        return False
    deg = {v: 0 for v in q.vertices}
    edges = set()
    for a in q.arrows:
        if a.source == a.target:
            return False
        key = frozenset((a.source, a.target))
        if key in edges:
            return False  # parallel (or opposed) arrows break the chain
        edges.add(key)
        deg[a.source] += 1
        deg[a.target] += 1
    if any(d > 2 for d in deg.values()):
        return False
    # n-1 edges, no multi-edges, max degree 2: connected iff it is a chain
    return _connected_undirected(q)


def _connected_undirected(q: Quiver) -> bool:
    if not q.vertices:
        return False
    seen = {q.vertices[0]}
    frontier = [q.vertices[0]]
    while frontier:
        v = frontier.pop()
        for a in q.arrows:
            for u, w in ((a.source, a.target), (a.target, a.source)):
                if u == v and w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return len(seen) == len(q.vertices)


def subquiver(q: Quiver, keep) -> Quiver:
    """Full subquiver on the kept vertices (incident arrows dropped)."""
    keepset = {str(v) for v in keep}
    if not keepset <= set(q.vertices):
        raise UnknownVertex(f"unknown vertices {sorted(keepset - set(q.vertices))}")
    verts = [v for v in q.vertices if v in keepset]
    arrs = [(a.name, a.source, a.target) for a in q.arrows
            if a.source in keepset and a.target in keepset]
    return make_quiver(verts, arrs, require_acyclic=q.acyclic)


# -- stock quivers used across tests and the pipeline --------------------------

def single_vertex() -> Quiver:
    return make_quiver(["1"], [])


def a_n(n: int) -> Quiver:
    """Linear orientation 1 -> 2 -> ... -> n."""
    verts = [str(i) for i in range(1, n + 1)]
    arrs = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    return make_quiver(verts, arrs)


def kronecker() -> Quiver:
    return make_quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])


def d4(bits=(0, 0, 0)) -> Quiver:
    """D_4 star with center 'c' and leaves 1..3.

    bit i = 0 orients edge i outward (c -> leaf), 1 inward (leaf -> c).
    """
    bits = tuple(bits)
    if len(bits) != 3 or any(b not in (0, 1) for b in bits):
        raise QuivhomError(f"D_4 needs three bits, each 0 or 1, not {bits}")
    arrs = []
    for i, b in enumerate(bits, start=1):
        if b == 0:
            arrs.append((f"a{i}", "c", str(i)))
        else:
            arrs.append((f"a{i}", str(i), "c"))
    return make_quiver(["1", "2", "3", "c"], arrs)


def d4_orientations():
    """All 8 orientations of the D_4 star, with their bit labels."""
    out = []
    for b0 in (0, 1):
        for b1 in (0, 1):
            for b2 in (0, 1):
                out.append(((b0, b1, b2), d4((b0, b1, b2))))
    return out
