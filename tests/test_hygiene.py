"""Static hygiene checks on the library sources (no linter needed)."""

import ast
import dataclasses
import inspect
import pathlib
import random

from quivhom import algebra as alg
from quivhom import cats
from quivhom import derived as dv
from quivhom import quiver as qv
from quivhom import repcat as rc
from quivhom import scmodule as scm
from quivhom import trimat as tm
from quivhom.exactlin import GF, QQ, Mat

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "quivhom"


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_module_level_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [f"{p.name}:{line}: {name}" for p in modules for line, name in _unused_imports(p)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_names(tree):
    """Names referred to in ``tree``, leaving out the references inside a
    definition to its own name (recursion is not a use)."""
    names = set()
    stack = [(tree, frozenset())]
    while stack:
        n, inside = stack.pop()
        if isinstance(n, _DEFINITIONS):
            inside = inside | {n.name}
        if isinstance(n, ast.Name) and n.id not in inside:
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and n.attr not in inside:
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(alias.name for alias in n.names)
        stack.extend((c, inside) for c in ast.iter_child_nodes(n))
    return names


def test_no_dead_private_definitions():
    # a module-level _name function or class that nothing in the library
    # refers to, outside its own body, is dead code
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    used = set().union(*(_referenced_names(t) for t in trees.values()))
    dead = [f"{name}:{node.lineno}: {node.name}" for name, tree in trees.items()
            for node in tree.body
            if isinstance(node, _DEFINITIONS)
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in used]
    assert not dead, "unreferenced private definitions:\n" + "\n".join(dead)


def _public_definitions(tree):
    """Module-level public functions and classes, and the public methods of
    those classes."""
    for node in tree.body:
        if isinstance(node, _DEFINITIONS) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (m for m in node.body
                            if isinstance(m, _DEFINITIONS) and not m.name.startswith("_"))


def test_no_unreferenced_public_definitions():
    # a public function, class or method that nothing in the library, the
    # tests or the benchmark refers to, outside its own body, is dead code
    root = SRC.parents[1]
    readers = sorted(SRC.glob("*.py")) + sorted((root / "tests").glob("*.py")) \
        + sorted((root / "bench").glob("*.py"))
    used = set().union(*(_referenced_names(ast.parse(p.read_text(encoding="utf-8")))
                         for p in readers))
    dead = [f"{p.name}:{node.lineno}: {node.name}" for p in sorted(SRC.glob("*.py"))
            for node in _public_definitions(ast.parse(p.read_text(encoding="utf-8")))
            if node.name not in used]
    assert not dead, "unreferenced public definitions:\n" + "\n".join(dead)


# Public definitions that no library module and no benchmark file reads: only
# the tests do (as oracles, or as entry points checked there).  The list
# may only shrink: it fails on an unlisted one, and on a listed one that
# gains a library reader or is gone, so that it is taken off the list.
READ_ONLY_BY_TESTS = [
    "algebra.path_algebra", "algebra.map_from_projective", "algebra.cover_is_minimal",
    "algebra.minimal_resolution", "exactlin.format", "exactlin.parse",
    "exactlin.inverse", "quiver.is_trivial", "repcat.adjunction_check", "repcat.rep_simple",
    "repcat.gldim_pathalgebra", "repdim.is_gen_cogen", "repdim.to_json_dict",
    "repdim.d4_orientation_projectivity_sweep", "scmodule.regular_module",
    "scmodule.sc_module_of_algmod", "trimat.is_projective_triple",
    "trimat.gldim_sandwich_report",
]


def test_public_definitions_read_only_by_tests_only_shrink():
    root = SRC.parents[1]
    readers = sorted(SRC.glob("*.py")) + sorted((root / "bench").glob("*.py"))
    used = set().union(*(_referenced_names(ast.parse(p.read_text(encoding="utf-8")))
                         for p in readers))
    found = {f"{p.stem}.{node.name}" for p in sorted(SRC.glob("*.py"))
             for node in _public_definitions(ast.parse(p.read_text(encoding="utf-8")))
             if node.name not in used}
    new = sorted(found - set(READ_ONLY_BY_TESTS))
    stale = sorted(set(READ_ONLY_BY_TESTS) - found)
    assert not new, "public definitions read only by the tests: " + ", ".join(new)
    assert not stale, "listed but now read by the library, or gone: " + ", ".join(stale)


def test_column_data_is_built_only_in_scmodule():
    # one ColumnData per algebra: other library modules take the algebra's
    # shared one from scmodule.column_data instead of calling ColumnData(...)
    calls = [f"{p.name}:{n.lineno}" for p in sorted(SRC.glob("*.py")) if p.name != "scmodule.py"
             for n in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
             if isinstance(n, ast.Call) and "ColumnData" in (getattr(n.func, "id", None),
                                                             getattr(n.func, "attr", None))]
    assert not calls, "ColumnData built outside scmodule:\n" + "\n".join(calls)


def test_no_imports_inside_functions():
    # every import is made once, at module level; no library module needs a
    # deferred import to break an import cycle
    found = sorted({f"{p.name}:{n.lineno}" for p in sorted(SRC.glob("*.py"))
                    for fn in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))})
    assert not found, "imports inside functions:\n" + "\n".join(found)


def test_repcat_has_no_solver_of_its_own():
    # representations are modules over the bound quiver algebra Lambda Q, so
    # repcat solves nothing itself: hom bases, kernels and pd are algebra's
    tree = ast.parse((SRC / "repcat.py").read_text(encoding="utf-8"))
    imported = {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                for alias in n.names}
    found = sorted(imported & {"_commuting_rows", "_kernel_blocks", "kernel_basis", "syzygy_pd",
                               "_null_space", "_reduced_span", "syzygy_steps"})
    assert not found, "repcat imports solver internals: " + ", ".join(found)


def test_trimat_has_no_solver_of_its_own():
    # a triple is a module over the triangular ring T, so trimat solves
    # nothing itself: hom bases, kernels, covers and pd are scmodule's over T
    tree = ast.parse((SRC / "trimat.py").read_text(encoding="utf-8"))
    imported = {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                for alias in n.names}
    found = sorted(imported & {"_commuting_rows", "_kernel_blocks", "_null_space", "solve_matrix",
                               "_read_off_units", "syzygy_pd", "syzygy_steps"})
    assert not found, "trimat imports solver internals: " + ", ".join(found)


def test_one_quotient_construction():
    # every quotient of k^n is algebra.quotient_by_rows: no other module
    # (trimat's tensors included) reads an rref of its own, or defines a
    # complement or a quotient projection
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    readers = sorted(name for name, tree in trees.items() if name != "algebra.py"
                     for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                     for alias in n.names if alias.name == "rref")
    assert not readers, "rref imported outside algebra: " + ", ".join(readers)
    found = sorted(f"{name}:{n.lineno}: {n.name}" for name, tree in trees.items()
                   if name != "algebra.py" for n in ast.walk(tree)
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and any(w in n.name for w in ("complement", "quotient_by", "projection")))
    assert not found, "complements defined outside algebra:\n" + "\n".join(found)
    # M (x)_R X is scmodule's quotient of M (x)_k X: trimat reads no
    # quotient of its own and places no S-action on the tensor by hand
    tensor = next(n for n in trees["trimat.py"].body
                  if isinstance(n, ast.FunctionDef) and n.name == "tensor_basis")
    assert "quotient_sc" in _called_names(tensor)
    assert not _referenced_names(trees["trimat.py"]) & {"quotient_by_rows", "tensor_module",
                                                        "s_action"}


def test_only_derived_builds_tensor_maps():
    # triples are solved and checked as modules over T, through M's action
    # psi_k, so the tensor map M (x) u is built only by the functors of derived
    calls = sorted(f"{p.name}:{n.lineno}" for p in sorted(SRC.glob("*.py")) if p.name != "derived.py"
                   for n in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
                   if isinstance(n, ast.Call) and "tensor_map" in (getattr(n.func, "id", None),
                                                                   getattr(n.func, "attr", None)))
    assert not calls, "tensor_map called outside derived:\n" + "\n".join(calls)


def test_end_iso_reads_the_end_algebra_it_is_given():
    # the End isomorphisms of the repdim proof are checked in the End algebra
    # passed in (a corner of End(X-bar)): no second End over Lambda Q, no sum
    # of A and no sum of its adjoints
    tree = ast.parse((SRC / "endo.py").read_text(encoding="utf-8"))
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "adjoint_end_iso")
    found = sorted(_referenced_names(fn)
                   & {"hom_basis", "hom_dim", "sum_mods", "direct_sum_mods", "left_adjoint",
                      "right_adjoint"})
    assert not found, "adjoint_end_iso refers to " + ", ".join(found)


def test_submodules_are_read_off_unit_rows():
    # kernels, spans and covers read a submodule's structure off the rows
    # where its RREF basis is the identity, and push unit columns along
    # paths: none of them solves a system or builds a full path matrix
    pins = {"algebra.py": ("kernel_of", "projective_cover", "map_from_projective",
                           "_push_along_paths", "_read_off_units"),
            "scmodule.py": ("_submodule", "kernel_of_sc"),
            "trimat.py": ("triple_kernel",)}
    found = []
    for name, pinned in pins.items():
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
        for fn in pinned:
            bad = _referenced_names(defs[fn]) & {"solve_matrix", "eval_path"}
            found += [f"{name}: {fn} refers to {b}" for b in sorted(bad)]
    assert not found, "\n".join(found)


def _called_names(node):
    return {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            for n in ast.walk(node) if isinstance(n, ast.Call)} - {None}


def _syzygy_loops(tree):
    """Functions of ``tree`` with a loop that calls both a cover and a kernel."""
    return sorted({fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   for loop in ast.walk(fn) if isinstance(loop, (ast.For, ast.While))
                   for called in [_called_names(loop)]
                   if any("cover" in c for c in called) and any("kernel" in c for c in called)})


def test_one_reader_per_elimination_and_one_syzygy_loop():
    # exactlin alone reads an elimination as a null space or a row-reduced
    # span, and bounds alone steps through syzygies: every other module
    # calls these instead of keeping a copy
    readers = {"_null_space", "_reduced_span", "kernel_basis", "row_space"}
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    found = sorted(f"{name}: defines {n.name}" for name, tree in trees.items()
                   if name != "exactlin.py" for n in ast.walk(tree)
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name in readers)
    found += sorted(f"{name}: {fn} steps through syzygies" for name, tree in trees.items()
                    if name != "bounds.py" for fn in _syzygy_loops(tree))
    assert _syzygy_loops(trees["bounds.py"]) == ["syzygy_steps"]  # the pin sees the loop
    assert not found, "\n".join(found)


def test_repdim_imports_nothing_from_trimat():
    # Sigma is a sub-table of End(X-bar): the repdim proof builds no triple
    tree = ast.parse((SRC / "repdim.py").read_text(encoding="utf-8"))
    found = sorted(f"repdim.py:{n.lineno}" for n in ast.walk(tree)
                   if isinstance(n, (ast.Import, ast.ImportFrom))
                   for name in (getattr(n, "module", None) or "", *(a.name for a in n.names))
                   if name.split(".")[-1] == "trimat")
    assert not found, "repdim imports trimat:\n" + "\n".join(found)


def test_pd_oracle_builds_its_own_resolution():
    # pd_via_ext checks pd, so it must not read the syzygy steps pd keeps:
    # it refers neither to the slot nor to any function that reaches it
    tree = ast.parse((SRC / "algebra.py").read_text(encoding="utf-8"))
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    readers = {"_kept", "_kept_steps"}
    while True:
        more = {name for name, fn in defs.items() if _referenced_names(fn) & readers} - readers
        if not more:
            break
        readers |= more
    assert {"pd", "ext_dims", "minimal_resolution"} <= readers
    found = sorted(_referenced_names(defs["pd_via_ext"]) & readers)
    assert not found, "pd_via_ext reaches pd's kept steps through " + ", ".join(found)


def _definitions(*names):
    """Functions and methods of the given library modules, by name."""
    defs = {}
    for name in names:
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        for n in tree.body:
            members = n.body if isinstance(n, ast.ClassDef) else [n]
            defs.update((m.name, m) for m in members if isinstance(m, ast.FunctionDef))
    return defs


def test_ext_dims_solves_no_hom_system():
    # Hom(P_i, N) is read off the pieces of P_i, and delta_i off d_(i+1)'s
    # generator columns: _ext_dims reaches no hom basis and no solver, through
    # any function or method of algebra or exactlin it refers to
    defs = _definitions("algebra.py", "exactlin.py")
    reached, todo = set(), ["_ext_dims"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(n for n in _referenced_names(defs[name]) if n in defs)
    assert "rank" in reached and "_push_along_paths" in reached  # the pin follows the calls
    found = sorted(reached & {"hom_basis", "hom_dim", "solve_matrix", "_kernel_blocks"})
    assert not found, "_ext_dims reaches " + ", ".join(found)


def _expression_transport(fn):
    """What in ``fn`` transports a leaf through the functor image of its
    expression: the chain-level sum with its maps, or ``on_complex`` of the
    expression ``w.incl.target``."""
    found = sorted(_referenced_names(fn) & {"expression_summand_maps", "direct_sum_complexes"})
    found += sorted(f"on_complex({ast.unparse(a)})" for n in ast.walk(fn)
                    if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "on_complex"
                    for a in n.args if ast.unparse(a) == "w.incl.target")
    return found


def test_push_transports_leaves_summand_by_summand():
    # a pushed leaf is placed from F(proj_k o incl) and F(retr o inj_k): no
    # F(expression), and no injections or projections of the expression
    tree = ast.parse((SRC / "derived.py").read_text(encoding="utf-8"))
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_push")
    found = _expression_transport(fn)
    assert not found, "_push transports through the expression: " + ", ".join(found)


# the transport through F(expression) that the pin above rules out
_TRANSPORT_THROUGH_THE_EXPRESSION = """
def _push(w, functor, old_gens, new_gens, gmap):
    _, oinjs, oprojs = expression_summand_maps(functor.src_cat, old_gens, w.entries)
    f_expr = functor.on_complex(w.incl.target)
"""


def test_push_pin_flags_the_transport_through_the_expression():
    fn = ast.parse(_TRANSPORT_THROUGH_THE_EXPRESSION).body[0]
    assert _expression_transport(fn) == ["expression_summand_maps", "on_complex(w.incl.target)"]


def test_cat_states_only_what_differs():
    # an adapter states what differs between the categories; the block
    # algebra of morphisms (identity, zero map, compose, add, scale,
    # is_morphism) and the zero object are Cat's own, so no adapter field
    # forwards them
    assert [f.name for f in dataclasses.fields(cats.Cat)] == [
        "name", "field", "keys", "comp_dim", "sum_obj", "map_mats", "map_from_mats",
        "hom_basis", "kernel", "quotient", "obj_equal", "is_semisimple_base"]


def test_no_true_division_outside_exactlin():
    # a / b of two ints is a float: scalars are divided by Field.div, so the
    # only true division in the library is exactlin's, on Fractions
    found = sorted(f"{p.name}:{n.lineno}" for p in sorted(SRC.glob("*.py")) if p.name != "exactlin.py"
                   for n in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
                   if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div))
    assert not found, "true division outside exactlin:\n" + "\n".join(found)


def test_a_representation_is_stored_once_as_its_lambda_q_module():
    # rep_cat is mod_cat of Lambda Q, so its hom bases, kernels and maps are
    # algebra's; repcat keeps no second storage of a representation and no
    # converters to and from it
    q, k = qv.kronecker(), alg.ground_field_algebra(QQ)
    cat = cats.rep_cat(q, k)
    assert (cat.hom_basis, cat.kernel, cat.map_from_mats) == (alg.hom_basis, alg.kernel_of,
                                                              alg.ModMap)
    assert cat.zero_obj().algebra is rc.path_algebra_over(q, k) and rc.RepMap is alg.ModMap
    tree = ast.parse((SRC / "repcat.py").read_text(encoding="utf-8"))
    defined = {n.name for n in tree.body if isinstance(n, _DEFINITIONS)}
    found = sorted(defined & {"as_module", "as_rep", "as_module_map", "as_rep_map", "RepMap",
                              "rep_sum", "rep_hom_basis", "rep_hom_dim", "rep_pd"})
    assert not found, "repcat defines " + ", ".join(found)


def test_one_gluing_step_for_both_standard_triangles():
    # the terms of the standard triangle are the functor images that the
    # witness children push into: the presentation and the triple sequence
    # build only its maps, on terms they are given, and derived glues both
    # triangles in one step that both witness builders end in
    pins = {"repcat.py": "standard_presentation", "trimat.py": "triple_ses"}
    found = []
    for name, pinned in pins.items():
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == pinned)
        bad = _referenced_names(fn) & {"left_adjoint", "evaluate", "e1_lambda", "e2_lambda",
                                       "tensor_module", "tensor_basis"}
        found += [f"{name}: {pinned} refers to {b}" for b in sorted(bad)]
    assert not found, "\n".join(found)
    tree = ast.parse((SRC / "derived.py").read_text(encoding="utf-8"))
    defs = {n.name: n for n in tree.body if isinstance(n, _DEFINITIONS)}
    assert not [name for name in defs if "triangle" in name or name == "_verified_ses"]
    builders = sorted(name for name, fn in defs.items()
                      if _called_names(fn) & {"standard_presentation", "triple_ses"})
    assert builders == ["rep_complex_witness", "triple_complex_witness"]
    for name in builders:
        last = defs[name].body[-1]
        assert isinstance(last, ast.Return) and "_glue" in _called_names(last), name


# -- modules by their Peirce grading ---------------------------------------------------------

def _t2_a4_rad2_triples():
    """The triple pool of the resolutions_fp benchmark, T2(A4/rad2) over
    GF(101): simple triples and the column projectives k1(Re_i), k2(Se_j),
    and seeded direct sums of them."""
    field = GF(101)
    rels = [[(1, qv.Path(str(i), str(i + 2), (f"a{i}", f"a{i + 1}")))] for i in range(1, 3)]
    spec = tm.t2_spec(alg.build_bqa(field, qv.a_n(4), rels, 2))
    pool = [t for _, _, t in tm.simple_triples(spec)]
    pool += [tm.e1_lambda(spec, col) for col, _ in spec.coldata_r().columns]
    pool += [tm.e2_lambda(spec, col) for col, _ in spec.coldata_s().columns]
    rng = random.Random(1)
    return pool + [tm.triple_sum(spec, rng.sample(pool, rng.randint(2, 4))) for _ in range(8)]


def test_pd_over_t_places_no_full_action_matrix(monkeypatch):
    # every cover, radical and kernel step of pd over T works on the blocks
    # of the Peirce grading: scmodule._place, the one placement of blocks
    # into a full action matrix, is never called
    triples = _t2_a4_rad2_triples()
    placed = []
    real = scm._place
    monkeypatch.setattr(scm, "_place", lambda m, parts: placed.append(m.dim) or real(m, parts))
    pds = [scm.pd_sc(t, 20) for t in triples]
    assert placed == [] and {d.value for d in pds} >= {0, 1}
    triples[0].action[0]  # reading an action places it
    assert placed == [triples[0].dim]


def _t2_k_complexes():
    """Seeded two- and three-term complexes of triples over T2(k), as in the
    derived_witness benchmark: (k^a, k^b)_phi with random nonzero phi and
    differentials, a three-term d0 factoring through the kernel of d1."""
    spec = tm.t2_spec(alg.ground_field_algebra(QQ))
    cat, rng = cats.triple_cat(spec), random.Random(2)

    def scalars(n):
        return tuple(QQ.of_int(rng.choice((-1, 1, 2))) for _ in range(n))

    def triple():
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        return tm.TripleModule(spec, scm.SCModule(spec.r, a, [Mat.identity(QQ, a)]),
                               scm.SCModule(spec.s, b, [Mat.identity(QQ, b)]), Mat(QQ, b, a, scalars(a * b)))

    def morphism(x, y):
        basis = cat.hom_basis(x, y)
        f = cat.zero_map(x, y)
        for b, c in zip(basis, scalars(len(basis))):
            f = cat.add_map(f, cat.scale_map(b, c))
        return f

    out = []
    for _ in range(6):
        x0, x1 = triple(), triple()
        out.append(dv.Complex(cat, 0, 1, {0: x0, 1: x1}, {0: morphism(x0, x1)}))
        x1, x2 = triple(), triple()
        d1 = morphism(x1, x2)
        ker, incl = tm.triple_kernel(d1)
        x0 = triple()
        out.append(dv.Complex(cat, 0, 2, {0: x0, 1: x1, 2: x2},
                              {0: cat.compose(incl, morphism(x0, ker)), 1: d1}))
    return spec, out


def test_t2_witness_places_no_full_action_and_tensors_each_x_once(monkeypatch):
    # a triple keeps the X, Y and phi it is built from, and M (x) - is the Y
    # side of the witness's own k1: building and checking a T2(k) witness
    # reads no part back off T's full actions, and tensors each R-module
    # object once
    spec, complexes = _t2_k_complexes()
    r_gens = [scm.SCModule(spec.r, 1, [Mat.identity(QQ, 1)])]
    s_gens = [scm.SCModule(spec.s, 1, [Mat.identity(QQ, 1)])]
    placed, tensored = [], []
    real_place, real_tensor = scm._place, tm.tensor_basis

    def place(m, parts):
        if len(parts) != 1 or next(iter(parts.values())).rows != m.dim:
            placed.append(m.dim)  # blocks placed into a full matrix
        return real_place(m, parts)

    def tensor(spec_, x):
        tensored.append(x)  # kept, so that no id is reused
        return real_tensor(spec_, x)

    monkeypatch.setattr(scm, "_place", place)
    monkeypatch.setattr(tm, "tensor_basis", tensor)
    nodes = 0
    for cx in complexes:
        for shortcut in (True, False):
            tensored.clear()
            w, gens = dv.triple_complex_witness(cx, r_gens, s_gens, shortcut=shortcut)
            ok, failure = dv.witness_check(w, gens, 2, cx.cat)
            assert ok, failure
            nodes += isinstance(w, dv.Node)
            assert tensored and len({id(x) for x in tensored}) == len(tensored)
    assert placed == [] and nodes >= len(complexes)


def test_trimat_defines_no_action_placer_of_its_own():
    # a triple is a module over T stored by T's grading: trimat keeps no
    # per-basis-element block table and no lazy view of T's actions, and
    # reads full actions only through scmodule's placement
    tree = ast.parse((SRC / "trimat.py").read_text(encoding="utf-8"))
    defined = {n.name for n in ast.walk(tree) if isinstance(n, _DEFINITIONS)}
    assert not defined & {"_Actions", "_hold", "__getitem__", "__iter__"}
    assert not _referenced_names(tree) & {"blocks_at", "Sequence", "_place"}


# the public signatures of scmodule when modules came to be stored by their
# Peirce grading: the storage changed, the calls did not
SCMODULE_SIGNATURES = {
    "SCModule": ["sc", "dim", "action"], "SCModule.act_vector": ["self", "coeffs"],
    "SCModule.is_zero": ["self"], "SCModule.check": ["self"],
    "SCMap": ["source", "target", "mat"], "SCMap.is_valid": ["self"],
    "zero_sc_module": ["sc"], "regular_module": ["sc"], "sc_module_of_algmod": ["m", "sc"],
    "sum_sc": ["sc", "mods"], "hom_basis_sc": ["m", "n"], "radical_of": ["sc"],
    "quotient_sc": ["m", "cols"], "kernel_of_sc": ["f_map"],
    "ColumnData": ["sc"], "ColumnData.simple_top": ["self", "i"],
    "table_actions": ["sc", "acting", "basis", "left"], "column_data": ["sc"],
    "projective_cover_sc": ["m"], "column_cover_sc": ["m"], "is_projective_sc": ["m"],
    "pd_sc": ["m", "cap"], "gldim_sc": ["sc", "cap"],
}


def test_no_public_scmodule_signature_gains_a_parameter():
    found = {}
    for name, obj in vars(scm).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != scm.__name__:
            continue
        if inspect.isfunction(obj) or inspect.isclass(obj):
            found[name] = list(inspect.signature(obj).parameters)
        if inspect.isclass(obj):
            found.update((f"{name}.{m}", list(inspect.signature(f).parameters))
                         for m, f in vars(obj).items() if not m.startswith("_") and inspect.isfunction(f))
    assert found == SCMODULE_SIGNATURES


# the public parameters of the constructors of an algebra and of a triple:
# each part is passed once, so no labels beside an End algebra's blocks and
# no tensor beside the X it is built from
CONSTRUCTOR_SIGNATURES = {"SCAlgebra": ["field", "mult", "unit", "idempotents", "radical"],
                          "TripleModule": ["spec", "x", "y", "phi"]}


def test_no_constructor_takes_a_restated_part():
    found = {name: list(inspect.signature(cls).parameters)
             for name, cls in (("SCAlgebra", alg.SCAlgebra), ("TripleModule", tm.TripleModule))}
    assert found == CONSTRUCTOR_SIGNATURES


def test_paths_are_enumerated_once_per_plan_and_path_block_algebra():
    # an adjoint's copies are indexed by its plan, built once per Lambda Q,
    # side and vertex: in repcat only the plan builder enumerates paths, and
    # in endo only the path-block algebra (End A)Q
    pinned = {"repcat.py": {"_adjoint_plan"}, "endo.py": {"path_block_algebra"}}
    for name, allowed in pinned.items():
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        readers = {getattr(n, "name", f"line {n.lineno}") for n in tree.body
                   if not isinstance(n, ast.ImportFrom) and "paths_between" in _referenced_names(n)}
        assert readers == allowed, f"{name}: paths_between read by {sorted(readers)}"



def _a8_rad2_and_nakayama_5_4():
    """A8 with rad^2 = 0 and the cyclic Nakayama algebra N(5, 4), over GF(101)."""
    fp = GF(101)
    q = qv.a_n(8)
    a8 = alg.build_bqa(fp, q, [[(1, qv.Path(str(i), str(i + 2), (f"a{i}", f"a{i + 1}")))]
                               for i in range(1, 7)], 2)
    cyc = qv.make_quiver([str(i) for i in range(1, 6)],
                         [(f"c{i}", str(i), str(i % 5 + 1)) for i in range(1, 6)],
                         require_acyclic=False)
    rels = [[(1, qv.Path(str(i), str((i + 3) % 5 + 1),
                         tuple(f"c{(i + t - 1) % 5 + 1}" for t in range(4))))] for i in range(1, 6)]
    return a8, alg.build_bqa(fp, cyc, rels, 4)


def test_syzygy_steps_pass_no_operand_without_entries(monkeypatch):
    # a zero vertex space costs nothing in a syzygy step: kernel_of forms no
    # null space, product or read-off there, and a cover pushes no image
    # through it, so no product and no elimination inside kernel_of or
    # projective_cover sees an operand without entries
    from quivhom import exactlin
    from quivhom.bounds import syzygy_steps

    empty, inside, seen = [], [0], [0]
    real_mul, real_rref = Mat.mul, exactlin.rref

    def mul(a, b):
        if inside[0]:
            seen[0] += 1
            if not (a.entries and b.entries):
                empty.append(("mul", a.rows, a.cols, b.rows, b.cols))
        return real_mul(a, b)

    def rref(m):
        if inside[0]:
            seen[0] += 1
            if not m.entries:
                empty.append(("rref", m.rows, m.cols))
        return real_rref(m)

    def watched(fn):
        def run(x):
            inside[0] += 1
            try:
                return fn(x)
            finally:
                inside[0] -= 1
        return run

    monkeypatch.setattr(Mat, "mul", mul)
    monkeypatch.setattr(exactlin, "rref", rref)
    rng = random.Random(11)
    zero_spaces = 0
    for a in _a8_rad2_and_nakayama_5_4():
        pool = ([alg.simple_module(a, v) for v in a.quiver.vertices]
                + [alg.projective_module(a, v) for v in a.quiver.vertices]
                + alg.injective_indecomposables(a))
        for _ in range(12):
            m = alg.sum_mods(a, rng.sample(pool, rng.randint(1, 5)))
            zero_spaces += sum(not d for d in m.dims.values())
            syzygy_steps(m, [], 6, watched(alg.projective_cover), watched(alg.kernel_of))
    assert zero_spaces and seen[0]
    assert empty == []


def test_pushing_along_paths_leaves_no_cyclic_garbage():
    # _push_along_paths (under covers, map_from_projective and _ext_dims)
    # pushes prefixes with no self-referencing closure, so it frees its
    # intermediate images by reference counting, without waiting for the
    # cyclic collector.  Only that function runs with the collector off: its
    # modules, projectives and start columns are built beforehand.
    import gc

    runs = []
    for a in _a8_rad2_and_nakayama_5_4():
        f = a.field
        m = alg.sum_mods(a, [alg.simple_module(a, "1"), alg.projective_module(a, "2"),
                             alg.injective_indecomposables(a)[2]])
        runs.extend((m, alg.projective_module(a, v), Mat.identity(f, m.dims[v]))
                    for v in a.quiver.vertices)
    gc.collect()
    gc.disable()
    try:
        for m, p, start in runs:
            alg._push_along_paths(m, p, start)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_quiver_walks_leave_no_cyclic_garbage():
    # paths_between and _find_cycle recurse through module-level helpers,
    # not through closures that refer to themselves, so each call frees its
    # frames by reference counting.  The quivers are built beforehand; only
    # the two walks run with the collector off.
    import gc

    acyclic = [q for _, q in qv.d4_orientations()] + [qv.kronecker(), qv.a_n(5)]
    cyclic = [qv.make_quiver([str(i) for i in range(1, 6)],
                             [(f"c{i}", str(i), str(i % 5 + 1)) for i in range(1, 6)],
                             require_acyclic=False),
              qv.make_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "2")],
                             require_acyclic=False)]
    gc.collect()
    gc.disable()
    try:
        paths = [qv.paths_between(q, v, w) for q in acyclic for v in q.vertices for w in q.vertices]
        cycles = [qv._find_cycle(q.vertices, q.arrows) for q in cyclic]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert sum(map(len, paths)) == 8 * 7 + 12 + 4 + 15  # D4: 6 + 6 paths of length 2
    assert cycles == [["1", "2", "3", "4", "5", "1"], ["2", "3", "2"]]
