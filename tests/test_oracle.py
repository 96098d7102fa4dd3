import ast
import hashlib
import importlib
import pathlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import driftlab
from driftlab.basis import Filtration, Partition, Process, SampleSpace, StoppingTime, alive_atoms
from driftlab.calculus import is_martingale, stop
from driftlab.errors import InternalInvariant
from driftlab.models import (
    gen_single_filtration,
    random_adapted,
    random_stopping_time,
    random_viable_asset,
)
from driftlab.oracle import (_build_lp, _row_descriptors, arbitrage_certificate, check_deflator,
                             lp_deflator_oracle, verify_no_deflator)
from driftlab.rational import ONE, ZERO, Q
from driftlab.serialize import dumps, encode_exact
from driftlab.viability import deflator_from_connector, find_structure_connector
from reference import pointwise_mul

SRC = pathlib.Path(driftlab.__file__).parent

# SHA-256 of the first 40 `acc-one` oracle results, taken from the dense
# list-of-rows tableau before rows became sparse.
PINNED_ORACLE_DIGEST = "bf0467562c56ac5c6e1f471425fcde5a921ee45a9dc3facade5d6e13cd8061c0"


def package_imports(name):
    """Names of sibling modules a package module pulls in."""
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.add((node.module or "").split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.startswith("driftlab"):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("driftlab"):
                    found.add(alias.name.split(".")[1])
    return found


def unused_imports(path):
    """Names a module imports and never reads, except `# noqa: F401` re-exports."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_package_has_no_unused_imports():
    """`__init__` only re-exports; every other module uses what it imports."""
    unused = {path.name: unused_imports(path) for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def absolute_imports(path):
    """Top-level names of the modules a package module imports by absolute name."""
    names = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def package_modules():
    return [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def referenced_names(trees):
    """Every name and attribute the syntax trees mention."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


# Functions that BENCHMARK.json's per-layer metrics name although no engine
# path calls them; they stay in the package until the benchmark drops those
# metrics.
BENCHMARK_PINNED = {"enlargement.tilde", "linalg.min_norm_solve", "representation.represent"}


def test_unreferenced_functions_are_exported():
    """A module-level function nothing in the package calls is public API.

    So it must be exported from `__init__`; otherwise it is dead code.  And
    unless a benchmark workload calls it, it must be one the benchmark pins
    by name: a reference that only tests use belongs in `tests/reference.py`.
    """
    trees = {path.stem: parse(path) for path in package_modules()}
    used = referenced_names(trees.values())
    orphans = [(name, node.name) for name, tree in trees.items() for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name not in used]
    assert [f"{name}.{fn}" for name, fn in orphans if fn not in vars(driftlab)] == []
    bench = referenced_names(parse(path) for path in (SRC.parent.parent / "perfbench").glob("*.py"))
    assert [f"{name}.{fn}" for name, fn in orphans
            if fn not in bench and f"{name}.{fn}" not in BENCHMARK_PINNED] == []


def test_every_method_is_referenced():
    """Each method of a package class is reached as an attribute somewhere.

    Searched: the package, its tests and the benchmark.  Dunder methods
    are reached through the language and are exempt.
    """
    repo = SRC.parent.parent
    paths = [path for folder in (SRC, repo / "tests", repo / "perfbench")
             for path in folder.glob("*.py")]
    attrs = {node.attr for path in paths for node in ast.walk(parse(path))
             if isinstance(node, ast.Attribute)}
    unused = [f"{path.stem}.{cls.name}.{fn.name}" for path in package_modules()
              for cls in parse(path).body if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, ast.FunctionDef)
              and not fn.name.startswith("__") and fn.name not in attrs]
    assert unused == []


def unread_locals(tree):
    """function.name for each local a function assigns and never reads."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [node for node in ast.walk(fn) if isinstance(node, ast.Name)]
        read = {node.id for node in names if not isinstance(node.ctx, ast.Store)}
        out += sorted({f"{fn.name}.{node.id}" for node in names
                       if isinstance(node.ctx, ast.Store) and node.id not in read
                       and not node.id.startswith("_")})
    return out


def test_every_local_is_read():
    """A local that a package function assigns is read in that function.

    Reads inside nested functions count for the enclosing one.  A name
    starting with `_` marks a value dropped on purpose.
    """
    unread = {path.name: unread_locals(parse(path)) for path in package_modules()}
    assert {name: names for name, names in unread.items() if names} == {}


def test_package_has_no_assert():
    """Every printed guarantee is enforced by code that `python -O` keeps."""
    asserts = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(parse(path)) if isinstance(node, ast.Assert)]
    assert asserts == []


def test_package_computes_without_floats():
    """No package module calls `float` or `math.isfinite`; float literals are draw odds.

    Every number the engine computes with is a `Q`.  Float literals appear
    only in `models` and `verify`, as the probabilities of random draws.
    """
    calls, literals = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("float", "isfinite"):
                    calls.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                literals.add(path.name)
    assert calls == []
    assert literals <= {"models.py", "verify.py"}


def test_alive_atoms_is_the_only_alive_walk():
    """`.alive_block(` is called only by `basis.alive_atoms` and `oracle._build_lp`.

    Every walk over the alive (tick, left-limit atom)s goes through
    `alive_atoms`; the oracle keeps one walk of its own, over tick atoms,
    for its column index, whose order the pinned results fix.
    """
    callers = [f"{path.stem}.{fn.name}" for path in package_modules()
               for fn in ast.walk(parse(path)) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute) and node.func.attr == "alive_block"]
    assert sorted(callers) == ["basis.alive_atoms", "oracle._build_lp"]


def child_map_refetches(path):
    """Lines subscripting `child_map` with the (k, b) names of an enclosing walk.

    A walk is a `for` loop or comprehension clause over `alive_atoms(...)`,
    or over `enumerate(alive_atoms(...))`; its (k, b) names are the first
    two names of its (k, b, kids) target.
    """
    def is_walk(call):
        return isinstance(call, ast.Call) and \
            getattr(call.func, "id", getattr(call.func, "attr", None)) == "alive_atoms"

    found = []
    for scope in ast.walk(parse(path)):
        if isinstance(scope, ast.For):
            clauses = [scope]
        elif isinstance(scope, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            clauses = scope.generators
        else:
            continue
        for clause in clauses:
            target, walk = clause.target, clause.iter
            if isinstance(walk, ast.Call) and getattr(walk.func, "id", None) == "enumerate" \
                    and walk.args and isinstance(target, ast.Tuple) and len(target.elts) == 2:
                target, walk = target.elts[1], walk.args[0]
            if not (is_walk(walk) and isinstance(target, ast.Tuple)):
                continue
            names = [getattr(e, "id", None) for e in target.elts[:2]]
            found += [f"{path.stem}:{node.lineno}" for node in ast.walk(scope)
                      if isinstance(node, ast.Subscript)
                      and getattr(node.value, "attr", None) == "child_map"
                      and isinstance(node.slice, ast.Tuple)
                      and [getattr(e, "id", None) for e in node.slice.elts] == names]
    return found


def test_walks_take_children_from_alive_atoms():
    """A walk reads each atom's children from the (k, b, kids) that `alive_atoms` yields.

    No package module subscripts `child_map` with the (k, b) names of an
    enclosing walk (`child_map_refetches`).  The second walk and the
    helpers that read children beside `alive_atoms` are gone: no package
    module defines or imports `alive_children` or `atom_split`, and
    `Process` has no `jumps_at`.
    """
    assert [line for path in package_modules() for line in child_map_refetches(path)] == []
    modules = [importlib.import_module(f"driftlab.{path.stem}") for path in package_modules()]
    assert [f"{mod.__name__}.{name}" for mod in modules
            for name in ("alive_children", "atom_split") if hasattr(mod, name)] == []
    assert not hasattr(Process, "jumps_at")


def test_cond_expect_serves_only_cond_prob_and_the_crosschecks():
    """`cond_expect(` is called only by `basis.cond_prob` and the two `models` cross-checks.

    Every other conditional mean in the engine is a per-child sum through
    `calculus.jump_mean`; the Jacod and Azema cross-checks stay per outcome
    because they are independent recomputations.
    """
    callers = {f"{path.stem}.{fn.name}" for path in package_modules()
               for fn in ast.walk(parse(path)) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "cond_expect"}
    assert sorted(callers) == ["basis.cond_prob", "models.azema_phi_crosscheck",
                               "models.jacod_phi_crosscheck"]


def test_atom_weights_is_the_connector_programs_one_home():
    """Within `viability`, `solve_lp(` is called only by `_atom_weights`.

    The atom program's optimum, closed form or simplex, has one home; the
    connector search reads q from it.
    """
    callers = [fn.name for fn in ast.walk(parse(SRC / "viability.py"))
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "solve_lp"]
    assert callers == ["_atom_weights"]


def test_global_simplex_is_off_the_verdict_path():
    """In the package, `lp_deflator_oracle(` is called only from `oracle`, `cli` and `verify`.

    A false verdict's certificate is written in closed form
    (`oracle.arbitrage_certificate`); `viability` never runs the global
    simplex, which stays the independent cross-check of the `deflator`
    command and the batteries.
    """
    callers = {path.stem for path in package_modules() for node in ast.walk(parse(path))
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None))
               == "lp_deflator_oracle"}
    assert callers <= {"oracle", "cli", "verify"}


def test_represent_serves_no_package_module():
    """No package module calls `represent(`.

    The enlarged connector integrand reads D's jumps per child through the
    weights q_h = p_h (1 - jump_h(D)); `represent` stays public API and the
    tests' reference.
    """
    calls = [f"{path.stem}:{node.lineno}" for path in package_modules()
             for node in ast.walk(parse(path)) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "represent"]
    assert calls == []


def test_stoch_integral_serves_only_represent():
    """In the package, `stoch_integral(` is called only by `representation.represent`.

    The enlarged connector is built from its closed form, jumps
    1 - q_h / pbar_h per atom; the general integral stays for `represent`,
    the tests' reference path.
    """
    callers = [f"{path.stem}.{fn.name}" for path in package_modules()
               for fn in ast.walk(parse(path)) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "stoch_integral"]
    assert callers == ["representation.represent"]


def test_enlarged_split_has_one_home():
    """An enlarged atom's split is `SampleSpace.split` of its intersections, cached on the space.

    No package module calls `.mass(` on an intersection: the intersections
    `kid & c` are formed once, in `EnlargedBasis._atoms`, and their
    readers take `space.split` of them.
    """
    callers = [f"{path.stem}:{node.lineno}" for path in package_modules()
               for node in ast.walk(parse(path)) if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "mass"
               and any(isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.BitAnd)
                       for arg in node.args)]
    assert callers == []


def names_base(node) -> bool:
    """Whether node is the name `base` or an attribute `<x>.base`."""
    return getattr(node, "id", getattr(node, "attr", None)) == "base"


def base_partition_call(node) -> bool:
    """Whether node is a call `base.pre(...)` or `base.at(...)`, base as in names_base."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
        and node.func.attr in ("pre", "at") and names_base(node.func.value)


def base_atom_lookups(path):
    """module.function (or module.Class.method) for each enlarged-to-base lookup in a module.

    A lookup is a subscript of `child_map` on `base` or `<x>.base`, or a
    call of `block_of` on `base.pre(...)`, `base.at(...)` or their `<x>.base`
    forms, directly or through a local name bound to one.  Nested functions
    count for the top-level one that holds them.
    """
    tree = parse(path)
    tops = [(f"{path.stem}.{node.name}", node) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    tops += [(f"{path.stem}.{cls.name}.{fn.name}", fn) for cls in tree.body
             if isinstance(cls, ast.ClassDef) for fn in cls.body
             if isinstance(fn, ast.FunctionDef)]
    found = []
    for name, top in tops:
        partitions = {target.id for node in ast.walk(top) if isinstance(node, ast.Assign)
                      and base_partition_call(node.value)
                      for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(top):
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "child_map" and names_base(node.value.value):
                found.append(name)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "block_of":
                part = node.func.value
                if base_partition_call(part) or getattr(part, "id", None) in partitions:
                    found.append(name)
    return found


def test_enlarged_atoms_meet_their_base_atom_in_one_place():
    """Only `EnlargedBasis._atoms` maps an enlarged atom to its base atom and its children.

    No other package function subscripts `child_map` on a `base` name or
    attribute, or calls `block_of` on `base.pre(...)` or `base.at(...)`,
    directly or through a local (`base_atom_lookups`); every enlarged
    computation reads the basis's atom table instead.
    """
    found = [name for path in package_modules() for name in base_atom_lookups(path)]
    assert sorted(found) == ["enlargement.EnlargedBasis._atoms"] * 2


def cache_writers(module: str, class_name: str, scanned) -> dict:
    """Cache name -> the functions that write it, for one class's cache dicts.

    The caches are the class's `cached_property`s that start as `{}`, and
    their writes are as in `attribute_writers`.  The set of caches is read
    from the class, so a new cache shows up with its writers.
    """
    cls = next(node for node in parse(SRC / f"{module}.py").body
               if isinstance(node, ast.ClassDef) and node.name == class_name)
    caches = {fn.name for fn in cls.body if isinstance(fn, ast.FunctionDef)
              and any(getattr(d, "id", None) == "cached_property" for d in fn.decorator_list)
              and isinstance(fn.body[-1], ast.Return) and isinstance(fn.body[-1].value, ast.Dict)}
    return attribute_writers(caches, scanned)


def attribute_writers(attrs, scanned) -> dict:
    """Attribute name -> the functions that write into `<x>.<name>`, for each name in attrs.

    A write is a subscript store or delete on `<x>.<name>[...]`, or a call
    to one of a dict's mutating methods on `<x>.<name>`, in a package module
    whose stem `scanned` accepts.
    """
    mutators = {"clear", "pop", "popitem", "setdefault", "update"}
    writers = {name: set() for name in attrs}
    for path in package_modules():
        if not scanned(path.stem):
            continue
        for fn in ast.walk(parse(path)):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                    target = node.value
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in mutators:
                    target = node.func.value
                else:
                    continue
                if isinstance(target, ast.Attribute) and target.attr in attrs:
                    writers[target.attr].add(f"{path.stem}.{fn.name}")
    return writers


def test_enlarged_caches_have_one_writer():
    """Each `EnlargedBasis` cache dict is written by exactly one function.

    The caches and their writes are as in `cache_writers`.  Scanned are
    `enlargement` and the modules that import it (`basis` sits below and
    has caches of its own).  A new cache needs its one writer named here.
    The atom table `_atoms` is built whole by its cached property, and
    no package function writes into it.
    """
    writers = cache_writers("enlargement", "EnlargedBasis",
                            lambda stem: stem == "enlargement"
                            or "enlargement" in package_imports(stem))
    assert writers == {"_factors": {"enlargement.solve_factors"},
                       "_connectors": {"viability._bare_connector"}}
    assert attribute_writers({"_atoms"}, lambda stem: True) == {"_atoms": set()}


def test_filtration_caches_have_one_writer():
    """Each `Filtration` cache dict is written by exactly one function.

    The caches and their writes are as in `cache_writers`; every package
    module is scanned.  A new cache needs its one writer named here.
    """
    assert cache_writers("basis", "Filtration", lambda stem: True) == \
        {"_alive": {"basis.alive_atoms"}}


def test_children_have_one_home():
    """An atom's children come from `child_map`, their probabilities from `SampleSpace.split`.

    No package module reads a second copy (an attribute named `children`
    or `probs`).  W-slot rows are padded past an atom's last child only
    by `representation.padded`, called in `representation`, in
    `enlargement.solve_factors` and in `viability._integrand`.
    """
    reads = [f"{path.stem}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(parse(path))
             if isinstance(node, ast.Attribute) and node.attr in ("children", "probs")]
    assert reads == []
    callers = {f"{path.stem}.{getattr(top, 'name', '<module>')}" for path in package_modules()
               for top in parse(path).body for node in ast.walk(top)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "padded"}
    assert {c for c in callers if not c.startswith("representation.")} == \
        {"enlargement.solve_factors", "viability._integrand"}


def sums_of_products(path):
    """Lines calling `sum(` over a generator or list of products, or over `map(operator.mul, ...)`."""
    found = []
    for node in ast.walk(parse(path)):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum"
                and node.args):
            continue
        arg = node.args[0]
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            hit = isinstance(arg.elt, ast.BinOp) and isinstance(arg.elt.op, ast.Mult)
        elif isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "map" and arg.args:
            fn = arg.args[0]
            hit = getattr(fn, "id", getattr(fn, "attr", None)) == "mul"
        else:
            hit = False
        if hit:
            found.append(f"{path.stem}:{node.lineno}")
    return found


def test_sums_of_products_have_one_home():
    """No package module but `rational` sums products itself.

    Dot products and conditional jump means go through `rational._dot`,
    which adds the products over one common denominator and reduces once;
    `linalg.vec_dot` and `calculus.jump_mean` are thin names for it.
    """
    found = [site for path in package_modules() if path.stem != "rational"
             for site in sums_of_products(path)]
    assert found == []


def test_rational_backend_is_chosen_in_one_place():
    """Only `rational` imports a number backend; every other module uses its `Q`."""
    backends = {"fractions", "gmpy2"}
    importers = {path.name for path in SRC.glob("*.py")
                 if absolute_imports(path) & backends}
    assert importers == {"rational.py"}


def test_package_starts_no_processes():
    """No package module imports a process, thread or pool module.

    Every command runs in the caller's process, so a seed's report never
    hangs on how work was spread.
    """
    spawners = {"concurrent", "multiprocessing", "subprocess", "threading"}
    importers = {path.name for path in SRC.glob("*.py")
                 if absolute_imports(path) & spawners}
    assert importers == set()


def test_oracle_path_is_independent():
    """The cross-check only shares the foundations with the engine.

    Everything above the raw structures (calculus, representation,
    enlargement, viability) must stay out of the oracle's import graph so
    that an engine bug cannot silently agree with itself.
    """
    assert package_imports("oracle") <= {"basis", "linfeas", "rational"}
    assert package_imports("linfeas") <= {"rational"}
    assert package_imports("basis") <= {"errors", "rational"}


@given(st.integers(min_value=0, max_value=300))
def test_oracle_agrees_with_connector_search(seed):
    rng = random.Random(f"oracle:{seed}")
    sp, filt = gen_single_filtration(rng, rng.randint(2, 10), rng.randint(1, 3), 3)
    horizon = None if rng.random() < 0.5 else random_stopping_time(rng, sp, filt)
    if rng.random() < 0.5:
        S, _, _ = random_viable_asset(rng, sp, filt)
    else:
        S = random_adapted(rng, sp, filt)
    search = find_structure_connector(sp, filt, S, horizon)
    res = lp_deflator_oracle(sp, filt, S, horizon)
    assert search.found == res.feasible
    if res.feasible:
        Z = res.deflator
        assert check_deflator(sp, filt, S, Z, horizon)
        assert all(Z.scalar(i, k) > ZERO
                   for i in range(sp.n) for k in range(filt.K + 1))
        assert is_martingale(sp, filt, Z, horizon)
        assert is_martingale(sp, filt,
                             pointwise_mul(Z, S if horizon is None else stop(S, horizon)),
                             horizon)
    else:
        assert verify_no_deflator(sp, filt, S, horizon, res.certificate)


@given(st.integers(min_value=0, max_value=300))
def test_known_viable_assets_are_accepted(seed):
    rng = random.Random(f"viable:{seed}")
    sp, filt = gen_single_filtration(rng, rng.randint(2, 9), rng.randint(1, 3), 3)
    S, D, Z = random_viable_asset(rng, sp, filt)
    assert check_deflator(sp, filt, S, Z)
    assert lp_deflator_oracle(sp, filt, S).feasible


def test_certificates_serialize():
    rng = random.Random("cert")
    sp, filt = gen_single_filtration(rng, 6, 2, 3)
    S, _, _ = random_viable_asset(rng, sp, filt)
    res = lp_deflator_oracle(sp, filt, S)
    blob = dumps(encode_exact(res.certificate))
    assert "status" in blob


@pytest.mark.parametrize("paths, reason", [
    ([[0, 1], [0, 2]], "martingale-system-infeasible"),
    ([[0, 1], [0, 0]], "positivity-unreachable"),
], ids=["infeasible", "zero-gap"])
def test_verify_no_deflator_refuses_other_certificates(paths, reason):
    """Only a no-deflator certificate with a known reason and its fields re-verifies.

    A feasible certificate, an unknown reason (its multiplier lengths still
    match) or a missing field is refused with False, not an exception.
    """
    sp = SampleSpace(("u", "d"), (Q(1, 2), Q(1, 2)))
    top = Partition([[0, 1]])
    filt = Filtration(top, ((top, Partition([[0], [1]])),))
    S = Process.from_scalar_paths(paths)
    cert = lp_deflator_oracle(sp, filt, S).certificate
    assert cert["reason"] == reason
    assert verify_no_deflator(sp, filt, S, None, cert)
    viable = Process.from_scalar_paths([[0, 1], [0, -1]])
    feasible = lp_deflator_oracle(sp, filt, viable).certificate
    assert feasible["status"] == "deflator"
    dropped = [{k: v for k, v in cert.items() if k != field} for field in
               sorted(set(cert) & {"gap_bound", "multipliers_eq", "multipliers_ub"})]
    for bad in [feasible, {**cert, "status": "deflator"}, {**cert, "reason": "other"}] + dropped:
        assert verify_no_deflator(sp, filt, S, None, bad) is False
    assert verify_no_deflator(sp, filt, viable, None, feasible) is False


@pytest.mark.parametrize("paths, reason", [
    ([[0, 1], [0, 2]], "martingale-system-infeasible"),
    ([[0, 1], [0, 0]], "positivity-unreachable"),
], ids=["infeasible", "zero-gap"])
def test_verify_no_deflator_refuses_malformed_multipliers(paths, reason):
    """Multipliers that are not lists of rat-parsable entries, a gap_bound that does
    not parse, or a certificate that is not a dict are refused with False, not an
    exception.

    A string is not read one character at a time: "12" is refused, not
    taken as [1, 2].
    """
    sp = SampleSpace(("u", "d"), (Q(1, 2), Q(1, 2)))
    top = Partition([[0, 1]])
    filt = Filtration(top, ((top, Partition([[0], [1]])),))
    S = Process.from_scalar_paths(paths)
    cert = lp_deflator_oracle(sp, filt, S).certificate
    assert cert["reason"] == reason
    assert verify_no_deflator(sp, filt, S, None, cert)
    ys = cert["multipliers_eq"]
    bad = [["x"] + ys[1:], [None] + ys[1:], ["1/0"] + ys[1:], 5, None, "12", tuple(ys)]
    for field in ("multipliers_eq", "multipliers_ub"):
        for value in bad:
            assert verify_no_deflator(sp, filt, S, None, {**cert, field: value}) is False
    if "gap_bound" in cert:
        for value in ("x", None, "1/0", [0]):
            assert verify_no_deflator(sp, filt, S, None, {**cert, "gap_bound": value}) is False
    for not_a_dict in (None, [], "x", 3, list(cert.items())):
        assert verify_no_deflator(sp, filt, S, None, not_a_dict) is False


@pytest.mark.parametrize("k", [1, 2])
def test_arbitrage_certificate_proves_a_one_period_arbitrage(k):
    """Unequal negative jumps on one atom: a* = max_e a_e gives a certificate that re-verifies.

    S is null until tick k and then jumps by -1, -2 or -3 on the three
    children of the whole space, with no information before.  The
    certificate is a Farkas vector at k = 1 and a bound at 0 after.  A
    jump of +1 on one child prices S, and the certificate's check refuses.
    """
    sp = SampleSpace(("a", "b", "c"), (Q(1, 2), Q(1, 3), Q(1, 6)))
    top, split = Partition([[0, 1, 2]]), Partition([[0], [1], [2]])
    filt = Filtration(top, ((top, top),) * (k - 1) + ((top, split),))
    horizon = StoppingTime.constant(3, k)
    c = frozenset(range(3))
    S = Process.from_scalar_paths([[0] * k + [-1], [0] * k + [-2], [0] * k + [-3]])
    cert = arbitrage_certificate(sp, filt, S, horizon, k, c)
    assert cert["reason"] == ("martingale-system-infeasible" if k == 1
                              else "positivity-unreachable")
    assert verify_no_deflator(sp, filt, S, horizon, cert)
    assert not lp_deflator_oracle(sp, filt, S, horizon).feasible
    priced = Process.from_scalar_paths([[0] * k + [1], [0] * k + [-1], [0] * k + [-1]])
    assert lp_deflator_oracle(sp, filt, priced, horizon).feasible
    with pytest.raises(InternalInvariant):
        arbitrage_certificate(sp, filt, priced, horizon, k, c)


def test_deflator_recheck_refuses_a_z_of_the_wrong_shape():
    """A Z with too few rows or ticks, or a vector Z, is refused with False.

    The vector Z's first component deflates S, so only its shape is wrong.
    """
    sp = SampleSpace(("u", "d"), (Q(1, 2), Q(1, 2)))
    top = Partition([[0, 1]])
    filt = Filtration(top, ((top, Partition([[0], [1]])),))
    S = Process.from_scalar_paths([[0, 1], [0, -1]])
    Z = lp_deflator_oracle(sp, filt, S).deflator
    assert check_deflator(sp, filt, S, Z)
    rows = [list(row) for row in Z.values]
    for wrong in (Process(1, rows[:1]), Process(1, [row[:1] for row in rows]),
                  Process(2, [[z + z for z in row] for row in rows])):
        assert check_deflator(sp, filt, S, wrong) is False


def test_failed_deflator_recheck_raises_internal_invariant(monkeypatch):
    rng = random.Random("oracle-recheck")
    sp, filt = gen_single_filtration(rng, 4, 2, 3)
    S, _, _ = random_viable_asset(rng, sp, filt)
    assert lp_deflator_oracle(sp, filt, S).feasible
    monkeypatch.setattr("driftlab.oracle.check_deflator", lambda *args: False)
    with pytest.raises(InternalInvariant):
        lp_deflator_oracle(sp, filt, S)


def stopped_deflators(count):
    """(space, filt, S, Z, horizon): Z from a found connector, with a random horizon."""
    for seed in range(count):
        rng = random.Random(f"recheck:{seed}")
        sp, filt = gen_single_filtration(rng, rng.randint(2, 10), rng.randint(1, 3), 3)
        horizon = random_stopping_time(rng, sp, filt)
        S, _, _ = random_viable_asset(rng, sp, filt, dim=rng.choice((1, 2)))
        search = find_structure_connector(sp, filt, S, horizon)
        yield sp, filt, S, deflator_from_connector(sp, filt, search.connector, horizon), horizon


def with_values(Z, k, values):
    """Z with its value at tick k replaced by values[i] for each outcome i in values."""
    rows = [list(row) for row in Z.values]
    for i, z in values.items():
        rows[i][k] = (z,)
    return Process(1, rows)


def test_deflator_recheck_requires_z_frozen_after_the_horizon():
    """Z doubled at the last tick on one atom past the horizon is refused.

    The atom is a whole at(K)-atom, so Z stays adapted, and it is dead at
    K, so no martingale row reads it: only the frozen row sees the move.
    """
    moved = 0
    for sp, filt, S, Z, horizon in stopped_deflators(60):
        assert check_deflator(sp, filt, S, Z, horizon)
        K = filt.K
        dead = [c for c in filt.at(K).blocks if not horizon.geq(min(c), K)]
        if dead:
            moved += 1
            doubled = with_values(Z, K, {i: 2 * Z.scalar(i, K) for i in dead[0]})
            assert not check_deflator(sp, filt, S, doubled, horizon)
    assert moved >= 10


def test_deflator_recheck_requires_z_adapted():
    """Z moved between two outcomes of one alive last-tick atom is refused.

    The move keeps sum P_i Z_i over the atom, and S takes one value on it,
    so every martingale row still balances: only the adapted row sees it.
    """
    moved = 0
    for sp, filt, S, Z, horizon in stopped_deflators(60):
        K = filt.K
        wide = [c for c in filt.at(K).blocks if len(c) > 1 and horizon.geq(min(c), K)]
        if wide:
            moved += 1
            i, j = sorted(wide[0])[:2]
            shift = sp.prob[j] * Z.scalar(j, K) / 2
            skewed = with_values(Z, K, {i: Z.scalar(i, K) + shift / sp.prob[i],
                                        j: Z.scalar(j, K) - shift / sp.prob[j]})
            assert not check_deflator(sp, filt, S, skewed, horizon)
    assert moved >= 10


def acc_one_markets(count):
    """(space, filt, S, horizon) of the first count `acc-one` connector-vs-oracle markets."""
    for seed in range(count):
        rng = random.Random(f"acc-one:{seed}")
        sp, filt = gen_single_filtration(rng, rng.randint(2, 12),
                                         rng.randint(1, 4), 3)
        horizon = (None if rng.random() < 0.7
                   else random_stopping_time(rng, sp, filt))
        if rng.random() < 0.45:
            S, _, _ = random_viable_asset(rng, sp, filt,
                                          dim=rng.choice((1, 1, 2)))
        else:
            S = random_adapted(rng, sp, filt, dim=rng.choice((1, 1, 2)))
        yield sp, filt, S, horizon


def dense_program(space, filt, S, horizon):
    """The deflator program with dense rows, formed one outcome at a time.

    The reference for oracle._build_lp: (c, A_eq, b_eq, A_ub, b_ub, the
    column table, the (tick, atom) of each Z column, rows_eq, rows_ub).
    """
    var_index = {}
    for k in range(1, filt.K + 1):
        for b in filt.at(k).blocks:
            if horizon.alive_block(b, k):
                var_index[(k, b)] = len(var_index)
    columns = []
    for i, T in enumerate(horizon.values):
        last = filt.K if T is None else min(filt.K, T)
        row = [None] + [var_index[(t, filt.at(t).block_of(i))] for t in range(1, last + 1)]
        columns.append(row + row[-1:] * (filt.K - last))
    nz = len(var_index)
    A_eq, b_eq, eq_desc = [], [], []
    for k, b, _ in alive_atoms(filt, horizon):
        for comp in range(S.dim + 1):
            row = [ZERO] * (nz + 1)
            rhs = ZERO
            for i in b:
                w_now = space.prob[i] * (ONE if comp == 0 else S.at(i, k)[comp - 1])
                w_prev = space.prob[i] * (ONE if comp == 0 else S.at(i, k - 1)[comp - 1])
                col = columns[i][k]
                if col is not None:
                    row[col] += w_now
                else:
                    rhs -= w_now
                col = columns[i][k - 1]
                if col is not None:
                    row[col] -= w_prev
                else:
                    rhs += w_prev
            A_eq.append(row)
            b_eq.append(rhs)
            eq_desc.append({"kind": "martingale" if comp == 0 else "deflated-asset",
                            "tick": k, "atom": sorted(b),
                            "component": comp - 1 if comp else None})
    A_ub, b_ub, ub_desc = [], [], []
    for (k, b), v in var_index.items():
        row = [ZERO] * (nz + 1)
        row[v] = -ONE
        row[nz] = ONE
        A_ub.append(row)
        b_ub.append(ZERO)
        ub_desc.append({"kind": "positivity", "tick": k, "atom": sorted(b)})
    A_ub.append([ZERO] * nz + [ONE])
    b_ub.append(ONE)
    ub_desc.append({"kind": "gap-cap"})
    return [ZERO] * nz + [ONE], A_eq, b_eq, A_ub, b_ub, columns, list(var_index), eq_desc, ub_desc


def assert_sparse_form(rows, dense_rows):
    """rows hold dense_rows' nonzero entries, entry for entry, as increasing (column, value) pairs.

    So no row holds a zero pair, and its columns increase.
    """
    assert len(rows) == len(dense_rows)
    for row, dense in zip(rows, dense_rows):
        assert row == [(j, a) for j, a in enumerate(dense) if a]
        assert all(a != ZERO for _, a in row)
        assert all(j < jj for (j, _), (jj, _) in zip(row, row[1:]))


def rows_markets():
    """The 40 pinned `acc-one` markets, then 40 markets under random horizons."""
    yield from acc_one_markets(40)
    for seed in range(40):
        rng = random.Random(f"rows:{seed}")
        sp, filt = gen_single_filtration(rng, rng.randint(2, 12), rng.randint(1, 4), 3)
        dim = rng.choice((1, 2))
        S = (random_viable_asset(rng, sp, filt, dim=dim)[0] if rng.random() < 0.5
             else random_adapted(rng, sp, filt, dim=dim))
        yield sp, filt, S, random_stopping_time(rng, sp, filt)


def test_build_lp_rows_are_the_dense_formula():
    """_build_lp emits the dense per-outcome program's rows, columns, order and values.

    Each row is the dense row's nonzeros as increasing (column, value)
    pairs; c, the right-hand sides, the column table and the row
    descriptors are unchanged.
    """
    for sp, filt, S, horizon in rows_markets():
        if horizon is None:
            horizon = StoppingTime.constant(sp.n, filt.K)
        c, A_eq, b_eq, A_ub, b_ub, columns, z_atoms = _build_lp(sp, filt, S, horizon)
        (dense_c, dense_eq, dense_b_eq, dense_ub, dense_b_ub, dense_columns, dense_atoms,
         eq_desc, ub_desc) = dense_program(sp, filt, S, horizon)
        assert (c, b_eq, b_ub, columns, list(z_atoms)) == \
            (dense_c, dense_b_eq, dense_b_ub, dense_columns, dense_atoms)
        assert_sparse_form(A_eq, dense_eq)
        assert_sparse_form(A_ub, dense_ub)
        assert _row_descriptors(filt, S.dim, horizon, z_atoms) == (eq_desc, ub_desc)


def test_oracle_results_are_pinned():
    """The oracle's certificates, gaps and deflators do not drift.

    The first 40 `acc-one` markets of the connector-vs-oracle acceptance
    test are hashed.  Any change to the simplex (row storage, scalar
    representation) must keep Bland's basis path, so the digest must not
    move.
    """
    records = []
    for sp, filt, S, horizon in acc_one_markets(40):
        res = lp_deflator_oracle(sp, filt, S, horizon)
        records.append([res.certificate, res.gap,
                        None if res.deflator is None else res.deflator.values])
    digest = hashlib.sha256(dumps(encode_exact(records)).encode("utf-8")).hexdigest()
    assert digest == PINNED_ORACLE_DIGEST
