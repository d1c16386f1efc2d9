"""TM001-TM004: the original sanitizer lint rules, on the pass framework.

These four rules began life as the sanitizer's standalone AST lint and
run on the analyzer framework like every other rule (``repro analyze
--rules TM001-TM004`` selects exactly them):

``TM001`` **determinism (scoped)** — no ambient entropy or wall-clock
    reads inside ``core/``, ``hw/``, ``cc/``, ``faults/``.
``TM002`` **mutable-default** — no mutable default arguments, anywhere.
``TM003`` **lock-discipline** — backend mutations of shared state on
    the read/write path must be declared in ``_sanitizer_locked``.
``TM004`` **frozen-dataclass** — record dataclasses (``*View``,
    ``*Read``, ``*Write``, ``*Event``, ``*Op``, ``*Trace``) in the
    record directories must be ``frozen=True``.

The repo-wide determinism extension lives in TM101
(:mod:`repro.analysis.passes.determinism`), which deliberately skips
TM001's directories to avoid double-reporting.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from ..findings import Finding
from .common import attr_root, path_parts, string_elements

#: directories whose files the scoped determinism rule governs.
DETERMINISM_SCOPE = {"core", "hw", "cc", "faults"}
#: directories whose record types must be frozen.
FROZEN_SCOPE = {"cc", "semantics", "runtime", "sanitizer"}
#: dataclass-name suffixes that mark a record (trace/view/event) type.
FROZEN_SUFFIXES = ("View", "Read", "Write", "Event", "Op", "Trace")

BANNED_MODULES = ("time", "datetime")
MUTATOR_METHODS = {
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popitem", "popleft", "remove", "setdefault",
    "update",
}
MUTABLE_DEFAULT_CALLS = {
    "list", "dict", "set", "defaultdict", "deque", "OrderedDict", "Counter",
}


def is_backend_class(cls: ast.ClassDef) -> bool:
    if cls.name.endswith("Backend"):
        return True
    for base in cls.bases:
        name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        if name == "TMBackend" or name.endswith("Backend"):
            return True
    return False


# ----------------------------------------------------------------------
# TM001 — determinism (scoped to the validator directories)
# ----------------------------------------------------------------------
def check_determinism(tree: ast.Module, path: str, ctx) -> Iterable[Finding]:
    if not (path_parts(path) & DETERMINISM_SCOPE):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in BANNED_MODULES:
                    yield Finding(
                        path, node.lineno, node.col_offset, "TM001",
                        f"module '{alias.name}' is banned here: validators "
                        "must be deterministic (no wall-clock reads)",
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in BANNED_MODULES:
                yield Finding(
                    path, node.lineno, node.col_offset, "TM001",
                    f"import from '{node.module}' is banned here "
                    "(determinism)",
                )
            elif root == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        yield Finding(
                            path, node.lineno, node.col_offset, "TM001",
                            f"'from random import {alias.name}' uses ambient "
                            "entropy; inject a random.Random(seed) instead",
                        )
        elif isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "random"
                and node.attr != "Random"
            ):
                yield Finding(
                    path, node.lineno, node.col_offset, "TM001",
                    f"module-level 'random.{node.attr}' breaks replay "
                    "determinism; use an injected random.Random(seed)",
                )
            elif isinstance(node.value, ast.Name) and node.value.id in BANNED_MODULES:
                yield Finding(
                    path, node.lineno, node.col_offset, "TM001",
                    f"'{node.value.id}.{node.attr}' is banned here "
                    "(determinism)",
                )


# ----------------------------------------------------------------------
# TM002 — mutable defaults
# ----------------------------------------------------------------------
def check_mutable_defaults(tree: ast.Module, path: str, ctx) -> Iterable[Finding]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            bad = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in MUTABLE_DEFAULT_CALLS
            )
            if bad:
                yield Finding(
                    path, default.lineno, default.col_offset, "TM002",
                    f"mutable default argument in '{node.name}' aliases "
                    "state across calls; default to None and construct "
                    "inside the body",
                )


# ----------------------------------------------------------------------
# TM003 — backend lock discipline
# ----------------------------------------------------------------------
def check_lock_discipline(tree: ast.Module, path: str, ctx) -> Iterable[Finding]:
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        if not is_backend_class(cls):
            continue
        methods = {
            m.name: m for m in cls.body if isinstance(m, ast.FunctionDef)
        }
        declared: Set[str] = set()
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "_sanitizer_locked":
                        declared.update(string_elements(stmt.value))

        shared: Set[str] = set()
        for init_name in ("__init__", "attach"):
            init = methods.get(init_name)
            if init is None:
                continue
            for node in ast.walk(init):
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                for target in targets:
                    root = attr_root(target)
                    if root:
                        shared.add(root)

        for name in sorted(reachable_methods(methods, ("read", "write"))):
            for node in ast.walk(methods[name]):
                target = None
                if isinstance(node, ast.Assign):
                    target = node.targets[0]
                elif isinstance(node, ast.AugAssign):
                    target = node.target
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATOR_METHODS
                ):
                    target = node.func.value
                if target is None:
                    continue
                root = attr_root(target)
                if root and root in shared and root not in declared:
                    yield Finding(
                        path, node.lineno, node.col_offset, "TM003",
                        f"{cls.name}.{name} mutates shared backend state "
                        f"'self.{root}' on the read/write path without "
                        "declaring it in _sanitizer_locked — assert the "
                        "lock/commit discipline or move the mutation",
                    )


def reachable_methods(methods, roots) -> Set[str]:
    """Method names reachable from *roots* through ``self.x()`` calls.

    Shared by TM003 (lock discipline from read/write) and TM106 (store
    effects from read) — the same syntactic call graph, different
    effect predicate.
    """
    reachable: Set[str] = set()
    frontier = [name for name in roots if name in methods]
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        for node in ast.walk(methods[name]):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
                and node.func.attr in methods
            ):
                frontier.append(node.func.attr)
    return reachable


# ----------------------------------------------------------------------
# TM004 — frozen record dataclasses
# ----------------------------------------------------------------------
def _dataclass_decorator(cls: ast.ClassDef) -> Optional[ast.AST]:
    for deco in cls.decorator_list:
        name = None
        if isinstance(deco, ast.Name):
            name = deco.id
        elif isinstance(deco, ast.Attribute):
            name = deco.attr
        elif isinstance(deco, ast.Call):
            func = deco.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "dataclass":
            return deco
    return None


def _is_frozen(deco: ast.AST) -> bool:
    if not isinstance(deco, ast.Call):
        return False
    for kw in deco.keywords:
        if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
            return bool(kw.value.value)
    return False


def check_frozen_records(tree: ast.Module, path: str, ctx) -> Iterable[Finding]:
    if not (path_parts(path) & FROZEN_SCOPE):
        return
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        if not cls.name.endswith(FROZEN_SUFFIXES):
            continue
        deco = _dataclass_decorator(cls)
        if deco is not None and not _is_frozen(deco):
            yield Finding(
                path, cls.lineno, cls.col_offset, "TM004",
                f"record dataclass '{cls.name}' must be frozen=True: the "
                "semantics oracles assume recorded footprints are immutable",
            )


PASSES = (
    ("TM001", check_determinism),
    ("TM002", check_mutable_defaults),
    ("TM003", check_lock_discipline),
    ("TM004", check_frozen_records),
)
