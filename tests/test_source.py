"""Checks on the source text of `src/ddks`: every check there must raise
explicitly, so it survives `python -O`, no exact integer product may
pass through floating point (and so through BLAS), the paper's criteria
live only in the registry of `ddks.paper`, the relator certifier
imports neither enumeration route, the small-group prestructure
reference names no part of the search engine, the symplectic route
shares with the backtracking route only the certify tail and the key
format, and no module outside the group core builds its own array of a
group's Cayley table, inverses or element orders, or its own commutator
or conjugation table, writes an attribute on an object other than
`self`, or walks a group by hand instead of through `spanning_tree`;
only the certify tail writes the table of certified rows; only
`DDKStructure` verifies a structure; only the group core's
`check_elements` says that an element index is out of range; and no
module sets an array's writeable flag, since a table is read-only at its
source (`group_core.read_only`)."""

import ast
import sys
from pathlib import Path

import pytest

import ddks
from ddks.paper import CRITERIA

SRC = Path(ddks.__file__).parent
MODULES = sorted(SRC.rglob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
FLOAT_DTYPES = {
    "float", "float_", "float16", "float32", "float64", "double", "half",
    "single", "longdouble", "f2", "f4", "f8",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _float_dtypes(tree: ast.Module):
    """Nodes naming a floating dtype: np.float64 and the like anywhere, and
    float or a float dtype string given to astype or as dtype=."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FLOAT_DTYPES:
            yield node
        if not isinstance(node, ast.Call):
            continue
        given = [kw.value for kw in node.keywords if kw.arg == "dtype"]
        if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
            given += node.args
        for arg in given:
            if isinstance(arg, ast.Name) and arg.id == "float":
                yield arg
            if isinstance(arg, ast.Constant) and arg.value in FLOAT_DTYPES:
                yield arg


def test_sources_are_found():
    assert {"homology.py", "structures.py", "catalog.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_bare_asserts(path):
    found = [node.lineno for node in ast.walk(_parse(path)) if isinstance(node, ast.Assert)]
    assert found == [], f"{path.name}: bare assert on lines {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_float_dtypes(path):
    found = [node.lineno for node in _float_dtypes(_parse(path))]
    assert found == [], f"{path.name}: floating dtype on lines {found}"


@pytest.mark.parametrize(
    "source, hits",
    [
        ("x.astype(np.float64) @ y", 1),
        ("x.astype(float) @ y", 1),
        ("np.zeros(3, dtype='float64')", 1),
        ("x.astype(np.int64) @ y.astype(object)", 0),
        ("float(t)", 0),
    ],
)
def test_float_dtype_scan_finds_casts(source, hits):
    assert len(list(_float_dtypes(ast.parse(source)))) == hits


def _criterion_names(tree: ast.Module):
    """String literals that spell a criterion name of the registry."""
    names = {name for name, _ in CRITERIA}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in names:
            yield node


def test_criterion_names_only_in_the_registry():
    found = [
        f"{path.parent.name}/{path.name}:{node.lineno}"
        for path in MODULES + TESTS
        if path != SRC / "paper.py"
        for node in _criterion_names(_parse(path))
    ]
    assert found == [], f"criterion names outside ddks/paper.py: {found}"


def test_criterion_name_scan_finds_literals():
    name = CRITERIA[3][0]
    assert len(list(_criterion_names(ast.parse(f"check = {name!r}")))) == 1
    assert len(list(_criterion_names(ast.parse(f"check = {name[:-1]!r}")))) == 0
    assert len(list(_criterion_names(_parse(SRC / "paper.py")))) == len(CRITERIA)


def test_cli_defines_no_criterion_checks():
    found = [
        node.name
        for node in ast.walk(_parse(SRC / "cli.py"))
        if isinstance(node, ast.FunctionDef) and node.name.lstrip("_").startswith("check")
    ]
    assert found == [], f"cli.py defines criterion checks {found}"


def _imports(tree: ast.Module) -> set[str]:
    """The modules a source file imports, relative ones with their dots."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or ""))
    return found


def test_certifier_imports_neither_route():
    """The certifier checks both enumeration routes, so it may import only
    numpy, the standard library and the group core."""
    found = _imports(_parse(SRC / "certify.py"))
    allowed = {"numpy", ".group_core"}
    outside = {
        name for name in found
        if name not in allowed and name.split(".")[0] not in sys.stdlib_module_names
    }
    assert outside == set(), f"certify.py imports {sorted(outside)}"


def test_import_scan_finds_relative_imports():
    tree = ast.parse("from .structures import x\nimport numpy as np\nfrom . import symplectic")
    assert _imports(tree) == {".structures", "numpy", "."}


ENGINE_NAMES = {
    "_genus2_blocks", "genus2_rows", "_descend", "_search_plan", "_candidate_masks", "_Tables",
}


def _names_in(tree: ast.Module, function: str) -> set[str]:
    """The names and attribute names used by a top-level function."""
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_reference_search_names_no_engine_part():
    """`reference_prestructures` cross-checks the search engine, so it may
    share no plan, table or mask with it."""
    used = _names_in(_parse(SRC / "structures.py"), "reference_prestructures")
    assert used & ENGINE_NAMES == set(), f"the reference uses {sorted(used & ENGINE_NAMES)}"


def test_engine_name_scan_finds_names_and_attributes():
    tree = ast.parse(
        "def reference_prestructures(G):\n"
        "    return structures._descend(G) + genus2_rows(G, [])\n"
        "def other(G):\n"
        "    return _Tables(G)\n"
    )
    assert _names_in(tree, "reference_prestructures") & ENGINE_NAMES == {"_descend", "genus2_rows"}


SYMPLECTIC_MAY_IMPORT = {
    "ROW_KEY_SHIFTS", "DDKStructure", "StructureType", "certify_structure_rows", "pack_rows",
    "verify_structure",
}


def _route_independence_breaches(tree: ast.Module) -> list[str]:
    """What a symplectic route module takes from the backtracking route or
    from Aut(G): a name from `.structures` outside SYMPLECTIC_MAY_IMPORT,
    any import of `.automorphisms`, and any use of a search-engine name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("ddks").lstrip(".")
            names = {alias.name for alias in node.names}
            if module == "structures":
                found += sorted(f"structures.{n}" for n in names - SYMPLECTIC_MAY_IMPORT)
            elif module == "automorphisms" or (module == "" and "automorphisms" in names):
                found.append("automorphisms")
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.endswith("automorphisms")]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in ENGINE_NAMES:
                found.append(name)
    return found


def test_symplectic_route_is_independent():
    """The symplectic route cross-checks the backtracking route and Aut(G),
    so it shares only the certify tail and the key format with them."""
    breaches = _route_independence_breaches(_parse(SRC / "symplectic.py"))
    assert breaches == [], f"symplectic.py uses {breaches}"


@pytest.mark.parametrize(
    "source, breaches",
    [
        ("from .structures import pack_rows, structure_rows", ["structures.structure_rows"]),
        ("from ddks.structures import example_structure", ["structures.example_structure"]),
        ("from ddks import automorphisms", ["automorphisms"]),
        ("from .automorphisms import orbit_count", ["automorphisms"]),
        ("from . import automorphisms", ["automorphisms"]),
        ("import ddks.automorphisms", ["ddks.automorphisms"]),
        ("rows = structures.genus2_rows(G, [])", ["genus2_rows"]),
        ("from .structures import ROW_KEY_SHIFTS, verify_structure", []),
        ("from .group_core import FiniteGroup", []),
    ],
)
def test_route_independence_scan_finds_breaches(source, breaches):
    assert _route_independence_breaches(ast.parse(source)) == breaches


GROUP_LISTS = {"cayley", "inverse", "element_order"}


def _group_list_arrays(tree: ast.Module):
    """Attributes `cayley`, `inverse` or `element_order` (a FiniteGroup's
    lists) inside the arguments of np.array or np.asarray; a method call
    such as `w.inverse()` is not one."""
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if not (
            isinstance(func, ast.Attribute) and func.attr in ("array", "asarray")
            and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
        ):
            continue
        called = {id(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}
        for arg in node.args + [kw.value for kw in node.keywords]:
            for n in ast.walk(arg):
                if isinstance(n, ast.Attribute) and n.attr in GROUP_LISTS and id(n) not in called:
                    yield n


def test_group_arrays_come_from_the_group_core():
    """`FiniteGroup` keeps one checked array each of the table, the
    inverses and the element orders, so no other module builds its own."""
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in MODULES
        if "group_core" not in path.relative_to(SRC).parts
        for node in _group_list_arrays(_parse(path))
    ]
    assert found == [], f"group arrays built outside ddks/group_core: {found}"


@pytest.mark.parametrize(
    "source, hits",
    [
        ("cayley = np.array(G.cayley, dtype=np.uint8)", 1),
        ("inv = np.asarray(G.inverse)", 1),
        ("np.array(G.element_order, dtype=np.int32)[rows[:, -1]] == n", 1),
        ("back = numpy.array([G.inverse[g] for g in images])", 1),
        ("np.array([w.inverse() for w in words])", 0),
        ("np.array(G.table)[:, G.inverses]", 0),
        ("orders = list(G.element_order)", 0),
    ],
)
def test_group_array_scan_finds_conversions(source, hits):
    assert len(list(_group_list_arrays(ast.parse(source)))) == hits


GENERIC_TYPES = {"tuple", "list", "dict", "set", "frozenset", "type", "Sequence", "Iterable", "Iterator"}


def _self_indexed_tables(tree: ast.Module):
    """Subscripts t[...] with t itself, or an entry t[...] of t, among their
    indices, as in t[t[a, b], inv[a]]: how a commutator or conjugation
    table is built from a Cayley table.  A generic type such as
    tuple[tuple[int, ...], ...] is not a table."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Subscript):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in GENERIC_TYPES:
            continue
        table = ast.dump(node.value)
        indices = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        if any(ast.dump(i.value if isinstance(i, ast.Subscript) else i) == table for i in indices):
            yield node


def test_commutator_and_conjugation_tables_come_from_the_group_core():
    """`FiniteGroup` keeps the one commutator table and the one source of
    conjugation tables (`commutators`, `conjugates`), so no other module
    indexes a Cayley table by its own entries."""
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in MODULES
        if "group_core" not in path.relative_to(SRC).parts
        for node in _self_indexed_tables(_parse(path))
    ]
    assert found == [], f"tables built from a Cayley table outside ddks/group_core: {found}"


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("commutators = T[T[T, G.inverses[:, None]], G.inverses]", True),
        ("commutators = table[table[table, inv[:, None]], inv]", True),
        ("conj = cayley[cayley[a, b], inv[a]]", True),
        ("conj = G.table[G.table[:, xs], G.inverses[:, None]]", True),
        ("value = G.table[value, signed[l]]", False),
        ("ok = perms[:, cayley] == cayley[perms[:, :, None], perms[:, None, :]]", False),
        ("rows = rows[generation_mask_filter(G, rows)]", False),
        ("def f(x: tuple[tuple[int, ...], ...]) -> list[list[int]]: pass", False),
    ],
)
def test_self_indexed_table_scan_finds_table_builds(source, flagged):
    assert any(_self_indexed_tables(ast.parse(source))) == flagged


def _foreign_attribute_writes(tree: ast.Module):
    """Attribute stores and deletions on an object other than `self`
    (an array's `flags` among them), `setattr` and `delattr` calls
    whose object is not `self`, and any read of `__dict__`: how a module
    hangs its own state on someone else's object, such as a group."""
    def is_self(node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id == "self"

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr == "__dict__":
                yield node
            elif isinstance(node.ctx, (ast.Store, ast.Del)) and not is_self(node.value):
                yield node
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("setattr", "delattr") and node.args and not is_self(node.args[0])
        ):
            yield node


def test_no_module_outside_the_group_core_writes_attributes_on_other_objects():
    """Per-group caches live in their own module, keyed by the group
    (`weakref.WeakKeyDictionary`), so a copy of a group shares none of
    them and only the group core sets a group's attributes."""
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in MODULES
        if "group_core" not in path.relative_to(SRC).parts
        for node in _foreign_attribute_writes(_parse(path))
    ]
    assert found == [], f"attributes written on other objects outside ddks/group_core: {found}"


@pytest.mark.parametrize(
    "source, flagged",
    [
        # the five per-group caches that lived on the group
        ("cached = G._aut_cache = {}", True),
        ("G._subgroup_masks = sorted(masks)", True),
        ("G._maximal_masks = maximal", True),
        ("G._search_tables = _Tables(G)", True),
        ('cache = G.__dict__.setdefault("_certify_tables", {})', True),
        # each form
        ("h.table += 1", True),
        ("del h.commutators", True),
        ('setattr(G, "_cache", {})', True),
        ('delattr(G, "_cache")', True),
        ("state = vars(G) if G.__dict__ else None", True),
        ("perms.flags.writeable = False", True),
        # not a breach
        ("self.table = table", False),
        ("del self.commutators", False),
        ('setattr(self, "group", G)', False),
        ('cached = getattr(G, "_cache", None)', False),
        ("_CACHE[G] = masks", False),
    ],
)
def test_foreign_attribute_scan_finds_writes(source, flagged):
    assert any(_foreign_attribute_writes(ast.parse(source))) == flagged


def _hand_walks(tree: ast.Module):
    """Loops over a list that grows inside them: `for x in xs:` whose body
    appends to xs (a call of append, extend or insert, or `xs += ...`),
    and `while xs:` whose body appends to xs or assigns it anew, the
    shapes of a breadth-first walk written by hand.  Other augmented
    assignments, as `v ^= pivot` in a reduction, are not walks."""
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Name):
            name, assigns = node.iter.id, ()
        elif isinstance(node, ast.While) and isinstance(node.test, ast.Name):
            name, assigns = node.test.id, (ast.Assign,)
        else:
            continue
        for n in ast.walk(node):
            grows = (
                isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr in ("append", "extend", "insert")
                and isinstance(n.func.value, ast.Name) and n.func.value.id == name
            )
            added = isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Add)
            targets = n.targets if isinstance(n, assigns) else [n.target] if added else []
            if grows or any(isinstance(t, ast.Name) and t.id == name for t in targets):
                yield node
                break


def test_the_group_is_walked_only_in_the_group_core():
    """`spanning_tree` is the one breadth-first walk of a group; `realize`,
    `subgroup_generated`, Aut(G) and the Schreier transversal read it."""
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in MODULES
        if "group_core" not in path.relative_to(SRC).parts
        for node in _hand_walks(_parse(path))
    ]
    assert found == [], f"hand-written walks outside ddks/group_core: {found}"


@pytest.mark.parametrize(
    "source, flagged",
    [
        # the walks that `spanning_tree` replaced
        ("reached = [0]\nfor x in reached:\n    for g in gens:\n        reached.append(G.mul(x, g))", True),
        ("while queue:\n    frontier = []\n    for g in queue:\n        frontier.append(g)\n    queue = frontier", True),
        ("while frontier:\n    x = frontier.pop()\n    if x:\n        frontier.append(x - 1)", True),
        # each form
        ("for x in xs:\n    xs.extend(f(x))", True),
        ("for x in xs:\n    xs += f(x)", True),
        ("while xs:\n    xs = xs[1:]", True),
        ("while frontier:\n    frontier += new - found", True),
        # not a breach
        ("for x in xs:\n    ys.append(x)", False),
        ("for x in xs:\n    xs = f(x)", False),
        ("for y in order[1:]:\n    perms[:, y] = cayley[perms[:, parent[y]], rows[:, column[y]]]", False),
        ("while i < len(queue):\n    queue.append(i)\n    i += 1", False),
        ("while broken := f(M):\n    broken.append(0)", False),
        ("while v:\n    v ^= pivots[v.bit_length() - 1]", False),
    ],
)
def test_hand_walk_scan_finds_walks(source, flagged):
    assert any(_hand_walks(ast.parse(source))) == flagged


CERTIFICATE_WRITERS = {"pop", "popitem", "clear", "update", "setdefault", "__setitem__", "__delitem__", "__ior__"}


def _certificate_writes(tree: ast.Module):
    """Writes to `_CERTIFIED`, the table of certified rows, outside
    `certify_structure_rows`: the table bound anew (its one annotated
    definition at module level aside), an item assigned or deleted, and a
    mutating method called or passed on, as the tail passes `pop` to the
    finalizer that drops a record."""
    def is_table(node):
        return (isinstance(node, ast.Name) and node.id == "_CERTIFIED") or (
            isinstance(node, ast.Attribute) and node.attr == "_CERTIFIED"
        )

    tail = {
        id(n)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "certify_structure_rows"
        for n in ast.walk(node)
    }
    definition = {
        id(node.target) for node in tree.body if isinstance(node, ast.AnnAssign) and is_table(node.target)
    }
    for node in ast.walk(tree):
        if id(node) in tail:
            continue
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            if id(target) not in definition and (
                is_table(target) or isinstance(target, ast.Subscript) and is_table(target.value)
            ):
                yield node
        if isinstance(node, ast.Attribute) and node.attr in CERTIFICATE_WRITERS and is_table(node.value):
            yield node


def test_only_the_certify_tail_writes_certificates():
    """A record in `_CERTIFIED` says its rows were checked, or compared
    with rows that were, so no other code may add, change or drop one."""
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in MODULES
        for node in _certificate_writes(_parse(path))
    ]
    assert found == [], f"certificates written outside certify_structure_rows: {found}"


@pytest.mark.parametrize(
    "source, flagged",
    [
        # each form
        ("_CERTIFIED[id(rows)] = (weakref.ref(rows), G, t)", True),
        ("structures._CERTIFIED[id(rows)] = entry", True),
        ("del _CERTIFIED[key]", True),
        ("_CERTIFIED.pop(id(rows))", True),
        ("weakref.finalize(rows, _CERTIFIED.pop, id(rows))", True),
        ("structures._CERTIFIED.update(other)", True),
        ("_CERTIFIED.setdefault(id(rows), entry)", True),
        ("_CERTIFIED.clear()", True),
        ("_CERTIFIED = {}", True),
        ("_CERTIFIED |= other", True),
        ("def certified_type(G, rows):\n    _CERTIFIED[id(rows)] = entry", True),
        ("def f():\n    _CERTIFIED: dict = {}", True),
        # not a breach
        ("def certify_structure_rows(G, keys, t):\n    _CERTIFIED[id(rows)] = entry", False),
        ("_CERTIFIED: dict[int, tuple] = {}", False),
        ("entry = _CERTIFIED.get(id(rows))", False),
        ("for ref, g, u in list(_CERTIFIED.values()):\n    pass", False),
        ("records = dict(_CERTIFIED)", False),
    ],
)
def test_certificate_write_scan_finds_writes(source, flagged):
    assert any(_certificate_writes(ast.parse(source))) == flagged


def _verify_structure_uses(tree: ast.Module):
    """Uses of `verify_structure`, by name or as an attribute, outside
    `DDKStructure.__post_init__`: its definition and imports are no use."""
    inside = {
        id(n)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "DDKStructure"
        for f in cls.body
        if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
        for n in ast.walk(f)
    }
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name == "verify_structure" and id(node) not in inside:
            yield node


def test_only_the_structure_type_verifies_structures():
    """A DDKStructure is verified where it is made, so every structure is
    one and no reader verifies it again."""
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in MODULES
        for node in _verify_structure_uses(_parse(path))
    ]
    assert found == [], f"verify_structure used outside DDKStructure.__post_init__: {found}"


@pytest.mark.parametrize(
    "source, flagged",
    [
        # the four readers that verified a structure again
        ("ok, diag = verify_structure(G, s.elements, s.stype)", True),
        ("ok = structures.verify_structure(G, elems, t)[0]", True),
        # each form
        ("checks = map(verify_structure, groups, tuples, types)", True),
        ("class DDKStructure:\n    def words(self):\n        return verify_structure(G, e, t)", True),
        ("class Other:\n    def __post_init__(self):\n        verify_structure(G, e, t)", True),
        # not a breach
        ("class DDKStructure:\n    def __post_init__(self):\n        verify_structure(self.ambient, e, t)", False),
        ("def verify_structure(G, elements, t):\n    return True, None", False),
        ("from .structures import verify_structure", False),
    ],
)
def test_verify_structure_scan_finds_uses(source, flagged):
    assert any(_verify_structure_uses(ast.parse(source))) == flagged


RANGE_MESSAGE = "element index out of range"


def _range_messages(tree: ast.Module):
    """(function, node): each string constant that says an element index
    is out of range, with the top-level function holding it (None at
    module level), so that the one element check can be told apart."""
    for top in tree.body:
        function = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and RANGE_MESSAGE in node.value:
                yield function, node


def test_element_indices_are_checked_only_in_the_group_core():
    """`group_core.check_elements` is the one check of element indices;
    every other module calls it rather than testing a range of its own."""
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in MODULES
        for function, node in _range_messages(_parse(path))
        if (path.relative_to(SRC).as_posix(), function) != ("group_core/group.py", "check_elements")
    ]
    assert found == [], f"element range checks outside group_core.check_elements: {found}"


@pytest.mark.parametrize(
    "source, found",
    [
        # the copies that the one check replaced
        ('def verify_structure(G, elements, t):\n    raise ValueError("element index out of range for the group")',
         [("verify_structure", 2)]),
        ('class Homomorphism:\n    def __post_init__(self):\n        raise ValueError("element index out of range")',
         [(None, 3)]),
        ('def check_elements(G, values):\n    raise ValueError(f"{what}: element index out of range")',
         [("check_elements", 2)]),
        ('MESSAGE = "element index out of range for the group"', [(None, 1)]),
        # not a breach
        ('def f(G):\n    raise ValueError("members must be sorted and distinct")', []),
        ("def f(G):\n    check_elements(G, values)", []),
    ],
)
def test_range_message_scan_finds_copies(source, found):
    assert [(function, node.lineno) for function, node in _range_messages(ast.parse(source))] == found


def _writeable_flag_sets(tree: ast.Module):
    """Stores to an array's `flags.writeable` and `setflags(write=...)`
    calls: an owner's flag set to False can be set back, so a table made
    read-only that way is not."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute) and node.attr == "writeable" and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Attribute) and node.value.attr == "flags"
        ):
            yield node
        if (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "setflags"
            and any(kw.arg == "write" for kw in node.keywords)
        ):
            yield node


def test_tables_are_read_only_only_through_the_group_core_helper():
    """Every table the system hands out is a `read_only` copy, whose flag
    no array can set back; none is made read-only by its flag."""
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in MODULES
        for node in _writeable_flag_sets(_parse(path))
    ]
    assert found == [], f"writeable flags set outside group_core.read_only: {found}"


@pytest.mark.parametrize(
    "source, flagged",
    [
        # the seven sites the helper replaced, in their forms
        ("inn.flags.writeable = False", True),
        ("for a in (table, inverses, orders):\n    a.flags.writeable = False", True),
        ("self.q_table.flags.writeable = False", True),
        ("a.flags.writeable = True", True),
        ("a.setflags(write=False)", True),
        # not a breach
        ("inn = read_only(inn)", False),
        ("ok = not rows.flags.writeable", False),
        ("a.setflags(align=True)", False),
    ],
)
def test_writeable_flag_scan_finds_sets(source, flagged):
    assert any(_writeable_flag_sets(ast.parse(source))) == flagged
