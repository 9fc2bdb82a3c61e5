"""Lock discipline: guarded attributes mutate only under their lock.

The contract is *inferred per class* rather than registered centrally: a
class that assigns ``self.<name> = threading.Lock()`` (or ``RLock``)
owns that lock, and any instance attribute it mutates at least once
inside a ``with self.<lock>`` block is considered *guarded* — the
class's own locked code is the declaration of intent.  Every other
mutation of a guarded attribute outside a lock block is a finding
(**LCK001**), except in construction/pickling methods (``__init__``,
``__new__``, ``__getstate__``, ``__setstate__``, ``__reduce__``) where
the instance is not yet shared.

This is exactly the invariant ``BoundedPairCache`` relies on: its
``_data`` LRU map is shared by every engine view of one corpus, whatever
thread scores through them, and one unlocked ``self._data[key] = value``
added in a refactor is a data race that corrupts cached
Generalized-Jaccard scores silently.

The rule is *alias-aware*: within one function scope, ``data =
self._data`` makes ``data`` a known alias, and a later ``data[k] = v``
(or ``data.update(...)``, ``data += ...``, ``del data[k]``) outside the
lock is attributed to ``self._data`` — the classic laundering pattern
where the read happens under the lock but the alias escapes it.
Aliases track in document order per function: rebinding the name
(``data = other``, ``for data in ...``, ``del data``) ends the alias,
and aliases never cross function boundaries (a nested function is its
own scope).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.module import ModuleInfo
from repro.analysis.rules import Rule, register

_LOCK_TYPES = {"threading.Lock", "threading.RLock"}

_MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "sort",
    "reverse",
}

_CONSTRUCTION_METHODS = {
    "__init__",
    "__new__",
    "__getstate__",
    "__setstate__",
    "__reduce__",
    "__copy__",
    "__deepcopy__",
}


def _self_attribute(node: ast.AST) -> str | None:
    """``self.<attr>`` → attr name, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


_SCOPE_BOUNDARIES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.ClassDef,
)


def _iter_scope(root: ast.AST) -> Iterator[ast.AST]:
    """Document-order nodes of one scope, nested scopes excluded.

    Document order matters: alias registration (``data = self._data``)
    must be seen before the alias's later mutations, and a rebind must
    end the alias exactly where the source does.
    """
    for child in ast.iter_child_nodes(root):
        if isinstance(child, _SCOPE_BOUNDARIES):
            continue
        yield child
        yield from _iter_scope(child)


def _scope_roots(class_node: ast.ClassDef) -> Iterator[ast.AST]:
    """The class body plus every (arbitrarily nested) function in it."""
    yield class_node
    for node in ast.walk(class_node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node


def _scope_mutations(scope: ast.AST) -> list[tuple[str, ast.AST, str | None]]:
    """``(attr, node, alias)`` mutations of ``self.<attr>`` in one scope.

    ``alias`` is the local name the mutation went through (``data =
    self._data; data[k] = v``) or ``None`` for a direct ``self.<attr>``
    mutation.
    """
    found: list[tuple[str, ast.AST, str | None]] = []
    aliases: dict[str, str] = {}

    def base_attr(node: ast.AST) -> tuple[str | None, str | None]:
        attr = _self_attribute(node)
        if attr is not None:
            return attr, None
        if isinstance(node, ast.Name) and node.id in aliases:
            return aliases[node.id], node.id
        return None, None

    def record_target(node: ast.AST, target: ast.AST) -> None:
        attr = _self_attribute(target)
        if attr is not None:
            found.append((attr, node, None))
        elif isinstance(target, ast.Subscript):
            attr, via = base_attr(target.value)
            if attr is not None:
                found.append((attr, node, via))

    for node in _iter_scope(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record_target(node, target)
            # Alias bookkeeping after the mutation scan: a plain-name
            # target is a (re)bind — `name = self.<attr>` opens an
            # alias, anything else closes one.
            for target in node.targets:
                if isinstance(target, ast.Name):
                    attr = _self_attribute(node.value)
                    if attr is not None:
                        aliases[target.id] = attr
                    else:
                        aliases.pop(target.id, None)
        elif isinstance(node, ast.AnnAssign):
            record_target(node, node.target)
            if isinstance(node.target, ast.Name) and node.value is not None:
                attr = _self_attribute(node.value)
                if attr is not None:
                    aliases[node.target.id] = attr
                else:
                    aliases.pop(node.target.id, None)
        elif isinstance(node, ast.AugAssign):
            record_target(node, node.target)
            if (
                isinstance(node.target, ast.Name)
                and node.target.id in aliases
            ):
                found.append((aliases[node.target.id], node, node.target.id))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    attr, via = base_attr(target.value)
                    if attr is not None:
                        found.append((attr, node, via))
                    continue
                attr = _self_attribute(target)
                if attr is not None:
                    found.append((attr, node, None))
                elif isinstance(target, ast.Name):
                    # `del data` unbinds the local, the attribute is
                    # untouched — the alias just ends here.
                    aliases.pop(target.id, None)
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
            ):
                attr, via = base_attr(node.func.value)
                if attr is not None:
                    found.append((attr, node, via))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.target, ast.Name):
                aliases.pop(node.target.id, None)
        elif isinstance(node, ast.withitem):
            if isinstance(node.optional_vars, ast.Name):
                aliases.pop(node.optional_vars.id, None)
    return found


def _mutations(
    class_node: ast.ClassDef,
) -> list[tuple[str, ast.AST, str | None]]:
    """All ``(attr, node, alias)`` mutations of ``self.<attr>`` in the class."""
    found: list[tuple[str, ast.AST, str | None]] = []
    for scope in _scope_roots(class_node):
        found.extend(_scope_mutations(scope))
    return found


@register
class GuardedMutationRule(Rule):
    rule_id = "LCK001"
    title = "guarded attribute mutated outside its lock"
    hint = (
        "wrap the mutation in `with self.<lock>:` — the class mutates "
        "this attribute under the lock elsewhere, so this site races"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: ModuleInfo, class_node: ast.ClassDef
    ) -> Iterator[Finding]:
        lock_names = self._lock_attributes(module, class_node)
        if not lock_names:
            return
        mutations = _mutations(class_node)
        guarded = {
            attr
            for attr, node, _ in mutations
            if attr not in lock_names
            and self._under_lock(module, node, lock_names)
        }
        if not guarded:
            return
        for attr, node, alias in mutations:
            if attr not in guarded:
                continue
            if self._under_lock(module, node, lock_names):
                continue
            method = module.enclosing_function(node)
            if (
                method is not None
                and method.name in _CONSTRUCTION_METHODS
                and module.enclosing_class(method) is class_node
            ):
                continue
            where = method.name if method is not None else "<class body>"
            via = f" (via local alias `{alias}`)" if alias else ""
            yield self.finding(
                module,
                node,
                f"`self.{attr}` is lock-guarded in `{class_node.name}` but "
                f"mutated without the lock in `{where}`{via}",
            )

    @staticmethod
    def _lock_attributes(
        module: ModuleInfo, class_node: ast.ClassDef
    ) -> set[str]:
        locks: set[str] = set()
        for node in ast.walk(class_node):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            if module.resolve(node.value.func) not in _LOCK_TYPES:
                continue
            for target in node.targets:
                attr = _self_attribute(target)
                if attr is not None:
                    locks.add(attr)
        return locks

    @staticmethod
    def _under_lock(
        module: ModuleInfo, node: ast.AST, lock_names: set[str]
    ) -> bool:
        for ancestor in module.ancestors(node):
            if not isinstance(ancestor, ast.With):
                continue
            for item in ancestor.items:
                expr = item.context_expr
                attr = _self_attribute(expr)
                if attr in lock_names:
                    return True
        return False
