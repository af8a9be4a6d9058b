"""Every name a module imports is used by that module, every private
top-level name is used somewhere in the package, every public one and
every defaulted parameter by the program outside its tests, and every
name the benchmark rebinds is where it looks for it.

The first checks parse each `rotated_tcf` module with `ast`, collect the
names its imports bind, or its top-level definitions, and fail on any
that is never looked up.  The last runs perfbench's `instrument` and
its `restore`.
"""
import ast
import importlib
import math
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from rotated_tcf.sampling import RngStream

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rotated_tcf"

# Imported but not called: perfbench/layers.py times a layer by rebinding
# the name in every module that imports it, so these must stay importable
# where they are until the benchmark stops looking them up.
PERFBENCH_REBINDS = {
    ("network", "honest_prover_round1"),
    ("network", "verifier_round1"),
    ("puzzle", "honest_prover_round1"),
    ("puzzle", "invert"),
    ("rsp", "invert"),
    ("rsp", "angle_sequence"),
    ("rsp", "simulate_ghz_measurement"),
    ("rsp", "simulate_basis_measurement"),
}


def _unused_imports(path: Path) -> set:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    unused = _unused_imports(SRC / f"{module}.py")
    exempt = {name for mod, name in PERFBENCH_REBINDS if mod == module}
    assert unused - exempt == set()
    # an exemption that the module now uses, or no longer imports, goes
    assert exempt <= unused


def _lookups(tree) -> Counter:
    """How often each name is read: as a variable or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if (isinstance(node, ast.Name)
                       and isinstance(node.ctx, ast.Load))
                   or isinstance(node, ast.Attribute))


def _top_level_definitions(tree):
    """(name, defining node) for each name the module binds at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node


def test_no_dead_private_helpers():
    """A private top-level name that nothing in the package reads, except
    its own definition, is dead code left behind."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in SRC.glob("*.py")}
    reads = sum((_lookups(tree) for tree in trees.values()), Counter())
    dead = {f"{module}.{name}"
            for module, tree in trees.items()
            for name, node in _top_level_definitions(tree)
            if name.startswith("_") and not name.startswith("__")
            and reads[name] == _lookups(node)[name]}
    assert dead == set()


# Public names that nothing in src, scripts/ or perfbench/ reads, each kept
# for its reason; a name that gains a reader leaves this map.
UNREAD_PUBLIC = {
    "protocol_q.rewinding_experiment": "pinned by tests/test_digests.py",
    "regev.distinguishing_game": "pinned by tests/test_digests.py",
    "rsp.blindness_sampler": "pinned by tests/test_digests.py",
    "sampling.sample_gaussian": "criterion 8's subject",
    "transcripts.load_transcripts": "awaits the audit command (item 10)",
    "regev.decrypt_bit": "awaits the audit command (item 10)",
    "protocol_q.deterministic_family": "awaits the games command (item 11)",
    "protocol_q.exact_ct_independent_win_prob":
        "awaits the games command (item 11)",
}


def _program_outside_src():
    """The program's files in scripts/ and perfbench/ (not its tests)."""
    return list((ROOT / "scripts").glob("*.py")) + [
        p for p in (ROOT / "perfbench").glob("*.py")
        if not p.name.startswith("test_")]


def test_every_public_name_has_a_reader():
    """A public top-level name that no program code reads, except its own
    definition, is code that only its test calls: aim (3) deletes it.
    Reads are counted as in test_no_dead_private_helpers, over src,
    scripts/ and perfbench/ (not its tests)."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in SRC.glob("*.py")}
    program = _program_outside_src()
    reads = sum((_lookups(ast.parse(p.read_text(), filename=str(p)))
                 for p in program), Counter())
    reads += sum((_lookups(tree) for tree in trees.values()), Counter())
    unread = {f"{module}.{name}"
              for module, tree in trees.items()
              for name, node in _top_level_definitions(tree)
              if not name.startswith("_")
              and reads[name] == _lookups(node)[name]}
    assert unread == UNREAD_PUBLIC.keys()


# Defaulted parameters that no call in src, scripts/ or perfbench/ sets,
# each kept for its reason; a parameter that gains a setter leaves this map.
UNSET_DEFAULTS = {
    "protocol_q.run_experiment.include_pk":
        "set only by tests/test_digests*.py",
    "network.connect_prover.timeout": "set only by tests/test_digests*.py",
    "regev.distinguishing_game.mode": "pinned by tests/test_digests.py",
    "regev.distinguishing_game.use_trapdoor_keys":
        "pinned by tests/test_digests.py",
    "sampling._SeedWords.generate_state.dtype":
        "numpy's SeedSequence interface",
}


def _functions(body, prefix="", method=False):
    """(qualified name, name, parameters a call can pass by position,
    defaulted parameters) for each function in `body`, methods and nested
    functions included; a method's self is never passed by position."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.", True)
        elif isinstance(node, ast.FunctionDef):
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
            yield (f"{prefix}{node.name}", node.name,
                   positional[method:], defaulted)
            yield from _functions(node.body, f"{prefix}{node.name}.")


def _calls(trees):
    """For each name called: the most arguments any call passes by
    position (all of them past a *args) and the keywords the calls pass
    (None for a **kwargs, which may pass any)."""
    reach, keywords = defaultdict(int), defaultdict(set)
    for node in (n for tree in trees for n in ast.walk(tree)
                 if isinstance(n, ast.Call)):
        func = node.func
        name = getattr(func, "id", getattr(func, "attr", None))
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        reach[name] = max(reach[name],
                          math.inf if starred else len(node.args))
        keywords[name] |= {k.arg for k in node.keywords}
    return reach, keywords


def test_every_defaulted_parameter_is_set_by_the_program():
    """A defaulted parameter that only tests pass is a setting that only
    tests use: each must be passed, by keyword or by position, by some
    call in src, scripts/ or perfbench/ (not its tests), save the listed
    exceptions in UNSET_DEFAULTS.  Calls are matched to functions by
    name, as reads are in test_every_public_name_has_a_reader."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in SRC.glob("*.py")}
    program = _program_outside_src()
    reach, keywords = _calls(list(trees.values()) + [
        ast.parse(p.read_text(), filename=str(p)) for p in program])

    def is_set(name, positional, param):
        return bool({param, None} & keywords[name]) or (
            param in positional and positional.index(param) < reach[name])

    unset = {f"{module}.{qualified}.{param}"
             for module, tree in trees.items()
             for qualified, name, positional, defaulted
             in _functions(tree.body)
             for param in defaulted
             if not is_set(name, positional, param)}
    assert unset == UNSET_DEFAULTS.keys()


def test_parameter_bounds_are_set_once():
    """Params holds every parameter set to one set of bounds, so each is
    assigned at top level in params.py and in no other module."""
    bounds = {"MAX_Q_BITS", "MAX_N", "MAX_SIGMA", "MAX_LAMBDA"}
    owners = {(p.stem, name)
              for p in SRC.glob("*.py")
              for name, _ in _top_level_definitions(
                  ast.parse(p.read_text(), filename=str(p)))
              if name in bounds}
    assert owners == {("params", name) for name in bounds}


def test_chunk_count_is_set_once():
    """Every chunked driver plays protocol_q.chunk_size(params) instances
    at a time, so CHUNK is assigned at top level in protocol_q.py and in
    no other module."""
    owners = {p.stem
              for p in SRC.glob("*.py")
              for name, _ in _top_level_definitions(
                  ast.parse(p.read_text(), filename=str(p)))
              if name == "CHUNK"}
    assert owners == {"protocol_q"}



def test_stacked_min_is_set_once():
    """zq.canonical and sampling's guide-table lookup leave their lone
    forms at one size, so STACKED_MIN is assigned at top level in zq.py
    and in no other module."""
    owners = {p.stem
              for p in SRC.glob("*.py")
              for name, _ in _top_level_definitions(
                  ast.parse(p.read_text(), filename=str(p)))
              if name == "STACKED_MIN"}
    assert owners == {"zq"}

def _names(owners) -> list:
    return [dict(vars(owner)) for owner in owners]


def test_benchmark_rebinds_and_restores_every_name(monkeypatch):
    """perfbench/layers.py times the layers by rebinding program names to
    wrappers: each name it looks up must be where it looks, and restoring
    must put back the very objects it found.  A refactor that moves one
    breaks `perfbench/run.py --trace 1`, so it fails here first."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers, spans = map(importlib.import_module, ("layers", "spans"))
    owners = [importlib.import_module(
        "rotated_tcf" if p.stem == "__init__" else f"rotated_tcf.{p.stem}")
        for p in sorted(SRC.glob("*.py"))] + [RngStream]
    before = _names(owners)
    try:
        layers.instrument(spans.Tracer())()
    finally:
        after = _names(owners)
        # undo whatever an instrument() that failed half-way left rebound
        for owner, names in zip(owners, before):
            for name, value in names.items():
                if vars(owner).get(name) is not value:
                    setattr(owner, name, value)
    moved = {f"{owner.__name__}.{name}"
             for owner, old, new in zip(owners, before, after)
             for name in old.keys() | new.keys()
             if old.get(name) is not new.get(name)}
    assert moved == set()
