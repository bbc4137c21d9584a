"""Static hygiene checks on the library sources (no linter needed)."""

import ast
import dataclasses
import pathlib

from quivhom import algebra as alg
from quivhom import cats
from quivhom import quiver as qv
from quivhom import repcat as rc
from quivhom.exactlin import QQ

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
    "scmodule.sc_module_of_algmod", "trimat.is_projective_triple", "trimat.triple_radical",
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


def test_only_derived_builds_tensor_maps():
    # triples are solved and checked through M's action psi_k (trimat), so
    # the tensor map M (x) u is built only by the functors of derived
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
            "scmodule.py": ("_restrict_sc", "kernel_of_sc"),
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
