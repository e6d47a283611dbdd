"""List the names in src/ that nothing calls, reads or sets; print one a line.

    python3 tools/callers.py

The check behind "no function exists without a caller".  It parses every
module of src/nbbmlab and reports:

- a top-level function, class or constant, a method or a class attribute
  (dataclass and NamedTuple fields included) whose name nothing reads;
- a parameter with a default that its own body never reads, or that no
  call passes, by keyword or by position.

The callers are the code in src/, bench/ and tools/ and the acceptance
suite (tests/test_acceptance.py); the unit tests do not count, since a
name whose only caller is its own test has no caller.  Names are matched
by name, not by owner: an attribute read anywhere (``x.dx``) counts as a
read of every member of that name, and a function passed as a value (not
called) counts as having every parameter set.  So the check can miss a
dead name that shares its name with a live one, but what it prints has no
reader.  Dunder names and the KEEP entries below are not reported.
Exits 1 when it prints anything.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ["src", "bench", "tools", "tests/test_acceptance.py"]

# name -> why it stays without a caller
KEEP = {
    "nbbm.from_checkpoint": "the checkpoint contract: restores what "
                            "simulate's checkpoint.json saves",
}


def _trees():
    for entry in CALLERS:
        path = ROOT / entry
        for p in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            yield ast.parse(p.read_text(), str(p))


def _targets(node) -> list:
    """Names bound by an assignment statement, else none."""
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _reads(trees):
    """Names read (bare, imported or as identifier strings), attributes read
    (as ``x.name`` or as identifier strings) and attributes assigned to."""
    names, attrs, stored = set(), set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                (attrs if isinstance(node.ctx, ast.Load) else stored).add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
                attrs.add(node.value)
    return names | attrs, attrs, stored


def _calls(trees) -> dict:
    """Callee name -> its Call nodes; a name used as a value maps to None."""
    calls, callees = {}, set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if name:
                    calls.setdefault(name, []).append(node)
                    callees.add(id(f))
        for node in ast.walk(tree):   # annotations name types, not values
            notes = [getattr(node, "annotation", None),
                     getattr(node, "returns", None)]
            callees.update(id(n) for note in notes if note
                           for n in ast.walk(note))
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name and isinstance(node.ctx, ast.Load) \
                    and id(node) not in callees:
                calls.setdefault(name, []).append(None)
    return calls


def _sets(call_nodes, position: int, keyword: str) -> bool:
    for call in call_nodes:
        if call is None or any(k.arg in (None, keyword) for k in call.keywords) \
                or any(isinstance(a, ast.Starred) for a in call.args) \
                or len(call.args) > position:
            return True
    return False


def _defaulted(fn: ast.FunctionDef, skip_self: bool):
    """(position in a call, name, whether the body reads it) of each
    parameter with a default; keyword-only ones get an unreachable position."""
    args = fn.args
    pos = args.posonlyargs + args.args
    body_reads = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Load)}
    offset = 1 if skip_self else 0
    for a in pos[len(pos) - len(args.defaults):]:
        yield pos.index(a) - offset, a.arg, a.arg in body_reads
    for a, d in zip(args.kwonlyargs, args.kw_defaults):
        if d is not None:
            yield 1 << 30, a.arg, a.arg in body_reads


def _is_record(cls: ast.ClassDef) -> bool:
    decorated = any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
    return decorated or any(ast.unparse(b) == "NamedTuple" for b in cls.bases)


def unused(module: str, tree: ast.Module, reads: set, attrs: set,
           stored: set, calls: dict):
    """Report lines for the module's names without a reader or setter."""
    def member(owner, name):
        return f"{module}.{owner + '.' if owner else ''}{name}"

    def params(owner, fn, callee, skip_self):
        for position, name, read in _defaulted(fn, skip_self):
            if not read:
                yield member(owner, fn.name) + f"({name}): its body never reads it"
            elif not _sets(calls.get(callee, []), position, name):
                yield member(owner, fn.name) + f"({name}): no call passes it"

    for node in tree.body:
        defined = isinstance(node, (ast.FunctionDef, ast.ClassDef))
        for name in [node.name] if defined else _targets(node):
            if not name.startswith("__") and name not in reads:
                yield member("", name)
        if isinstance(node, ast.FunctionDef):
            yield from params("", node, node.name, False)
        if not isinstance(node, ast.ClassDef):
            continue
        fields = []   # annotated class attributes, in order
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                if not item.name.startswith("__") and item.name not in attrs:
                    yield member(node.name, item.name)
                static = any(ast.unparse(d) == "staticmethod"
                             for d in item.decorator_list)
                callee = node.name if item.name == "__init__" else item.name
                yield from params(node.name, item, callee, not static)
            for name in _targets(item):
                if name not in attrs:
                    yield member(node.name, name)
                if isinstance(item, ast.AnnAssign):
                    fields.append((name, item.value))
        if not _is_record(node):
            continue
        # the generated constructor takes the fields in order
        for k, (name, default) in enumerate(fields):
            if default is not None and "init=False" not in ast.unparse(default) \
                    and name not in stored \
                    and not _sets(calls.get(node.name, []), k, name):
                yield member(node.name, name) + ": nothing sets it"


def main() -> int:
    trees = list(_trees())
    (reads, attrs, stored), calls = _reads(trees), _calls(trees)
    found = []
    for path in sorted((ROOT / "src" / "nbbmlab").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [line for line in unused(path.stem, tree, reads, attrs,
                                          stored, calls)
                  if line.partition("(")[0].partition(":")[0] not in KEEP]
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
