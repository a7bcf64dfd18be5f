"""Hook-purity family: ``on_event`` observers must only read.

The engine guarantees that attaching an observer (auditor, telemetry,
tracing) cannot perturb a run — which holds only if every observer is
pure observation.  These rules find the functions installed on an
``on_event`` hook (by name convention or by assignment) and flag state
writes into the engine/cluster, calls to known-mutating engine
methods, and the same violations one call level deep in helpers the
hook invokes.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from .core import Diagnostic, FileContext
from .registry import rule

__all__: list[str] = []

_FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef

#: Functions with these names are observers by convention.
_HOOK_NAMES = frozenset({"on_event", "_on_event"})

#: Attribute names through which an observer reaches shared engine
#: state; writes *through* these are writes into the engine.
_ENGINE_ATTRS = frozenset({
    "sim", "engine", "cluster", "simulator", "servers", "frontend",
    "policy", "cache", "replicator",
})

#: Methods that mutate engine/cluster/cache state when called on
#: anything that is not a hook-local object.
_MUTATORS = frozenset({
    "schedule", "schedule_at", "reserve_sequences", "submit", "inject",
    "install", "put", "evict", "promote", "close_connection", "run",
    "step", "add_server", "remove_server",
})


@dataclass(frozen=True)
class _Violation:
    node: ast.AST
    kind: str  # "write" | "call"
    detail: str


def _root_name(node: ast.expr) -> str | None:
    """Root ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _chain_attrs(node: ast.expr) -> list[str]:
    """Attribute names along a target chain, outermost last."""
    attrs: list[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            attrs.append(node.attr)
        node = node.value
    attrs.reverse()
    return attrs


def _is_fresh_value(value: ast.expr) -> bool:
    """True when the expression builds a *new* object rather than
    reaching into existing state: literals, comprehensions, and
    constructor-style calls (a plain ``Name(...)``, e.g. ``dict()`` or
    ``Window(...)``).  ``self.cluster.servers[0].cache`` or
    ``obj.method()`` results stay tainted — they may alias engine
    state."""
    if isinstance(value, (
        ast.List, ast.Dict, ast.Set, ast.Tuple,
        ast.ListComp, ast.DictComp, ast.SetComp, ast.Constant,
        ast.JoinedStr,
    )):
        return True
    if isinstance(value, ast.Call):
        return isinstance(value.func, ast.Name)
    return False


def _fresh_locals(fn: _FunctionNode) -> set[str]:
    """Names bound in the function to freshly constructed objects —
    writes to (and mutating calls on) these are hook-private.

    Parameters, loop targets, and locals assigned from attribute
    chains are deliberately *excluded*: a name aliasing the cluster is
    still shared state no matter where it was bound.  The first
    parameter of a method (``self``/``cls``) is handled separately by
    the caller.
    """
    fresh: set[str] = set()
    tainted: set[str] = set()
    for node in _walk_own(fn):
        pairs: list[tuple[ast.expr, ast.expr]] = []
        if isinstance(node, ast.Assign):
            pairs = [(t, node.value) for t in node.targets]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            pairs = [(node.target, node.value)]
        for target, value in pairs:
            if isinstance(target, ast.Name):
                (fresh if _is_fresh_value(value) else tainted).add(target.id)
    # A name ever bound to possibly-shared state is shared everywhere:
    # flow order doesn't matter for a conservative check.
    return fresh - tainted


def _self_name(fn: _FunctionNode, in_class: bool) -> str | None:
    if in_class and fn.args.args:
        return fn.args.args[0].arg
    return None


def _walk_own(fn: _FunctionNode) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs (a
    nested function runs in its own context, and becomes a hook itself
    if installed)."""
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _scan_body(
    fn: _FunctionNode, *, in_class: bool
) -> Iterator[_Violation]:
    """Yield purity violations in one function body (non-recursive:
    nested defs are scanned only for their own installation)."""
    self_name = _self_name(fn, in_class)
    fresh = _fresh_locals(fn)

    def is_private_target(target: ast.expr) -> bool:
        root = _root_name(target)
        if root is None:
            # e.g. subscript of a call result — can't prove, stay quiet.
            return True
        attrs = _chain_attrs(target)
        if root == self_name:
            # The observer's own counters are fair game, but a chain
            # that passes through an engine-ish attribute
            # (self.cluster.x = ...) writes shared state.
            return not any(a in _ENGINE_ATTRS for a in attrs[:-1])
        return root in fresh

    for node in _walk_own(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            if isinstance(node, ast.AnnAssign) and node.value is None:
                continue  # a bare annotation binds nothing
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    if not is_private_target(target):
                        yield _Violation(
                            node, "write",
                            f"writes {ast.unparse(target)}",
                        )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    if not is_private_target(target):
                        yield _Violation(
                            node, "write",
                            f"deletes {ast.unparse(target)}",
                        )
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                root = _root_name(func.value)
                receiver_private = root is not None and root in fresh
                if not receiver_private:
                    yield _Violation(
                        node, "call",
                        f"calls mutating {ast.unparse(func)}(...)",
                    )


@dataclass(frozen=True)
class _Hook:
    fn: _FunctionNode
    in_class: bool
    how: str  # how it became a hook, for messages


def _collect_hooks(ctx: FileContext) -> list[_Hook]:
    """Find every function installed as an ``on_event`` observer."""
    functions: dict[ast.AST, bool] = {}  # node -> defined inside a class
    by_name: dict[str, list[_FunctionNode]] = {}
    class_methods: dict[str, dict[str, _FunctionNode]] = {}

    class Indexer(ast.NodeVisitor):
        def __init__(self) -> None:
            self.class_stack: list[str] = []

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            self.class_stack.append(node.name)
            class_methods.setdefault(node.name, {})
            self.generic_visit(node)
            self.class_stack.pop()

        def _index_fn(self, node: _FunctionNode) -> None:
            in_class = bool(self.class_stack) and isinstance(
                ctx.parents.get(node), ast.ClassDef
            )
            functions[node] = in_class
            by_name.setdefault(node.name, []).append(node)
            if in_class:
                class_methods[self.class_stack[-1]][node.name] = node
            self.generic_visit(node)

        visit_FunctionDef = _index_fn
        visit_AsyncFunctionDef = _index_fn

    Indexer().visit(ctx.tree)

    hooks: dict[ast.AST, _Hook] = {}

    def add(fn: _FunctionNode, how: str) -> None:
        if fn not in hooks:
            hooks[fn] = _Hook(fn, functions.get(fn, False), how)

    # (a) by naming convention
    for name in _HOOK_NAMES:
        for fn in by_name.get(name, []):
            add(fn, f"named {name}")

    # (b) by assignment to <anything>.on_event
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if not (
                isinstance(target, ast.Attribute)
                and target.attr == "on_event"
            ):
                continue
            value = node.value
            if isinstance(value, ast.Name):
                for fn in by_name.get(value.id, []):
                    add(fn, "assigned to .on_event")
            elif isinstance(value, ast.Attribute) and isinstance(
                value.value, ast.Name
            ):
                # self._method / cls._method: resolve within the class
                # enclosing the assignment.
                cls = ctx.enclosing(node, ast.ClassDef)
                if isinstance(cls, ast.ClassDef):
                    method = class_methods.get(cls.name, {}).get(value.attr)
                    if method is not None:
                        add(method, "assigned to .on_event")
    return list(hooks.values())


def _callees(
    ctx: FileContext, hook: _Hook
) -> Iterator[tuple[ast.Call, _FunctionNode, bool, str]]:
    """Same-module functions/methods a hook calls directly."""
    module_fns: dict[str, _FunctionNode] = {}
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module_fns[node.name] = node
    cls = ctx.enclosing(hook.fn, ast.ClassDef)
    methods: dict[str, _FunctionNode] = {}
    if isinstance(cls, ast.ClassDef):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods[node.name] = node
    self_name = _self_name(hook.fn, hook.in_class)
    for node in _walk_own(hook.fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in module_fns:
            yield node, module_fns[func.id], False, func.id
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == self_name
            and func.attr in methods
        ):
            yield node, methods[func.attr], True, f"self.{func.attr}"


_BAD_EXAMPLE_WRITE = (
    "class Watcher:\n"
    "    def attach(self, cluster):\n"
    "        self.cluster = cluster\n"
    "        cluster.sim.on_event = self._on_event\n"
    "    def _on_event(self, time):\n"
    "        self.cluster.warmup_fraction = 0.0\n"
)

_GOOD_EXAMPLE = (
    "class Watcher:\n"
    "    def attach(self, cluster):\n"
    "        self.cluster = cluster\n"
    "        self.events = 0\n"
    "        cluster.sim.on_event = self._on_event\n"
    "    def _on_event(self, time):\n"
    "        self.events += 1\n"
)


@rule(
    "hook-state-write",
    "hooks",
    "an on_event observer must not write engine/cluster attributes — "
    "only its own counters",
    bad_example=_BAD_EXAMPLE_WRITE,
    bad_lines=(6,),
    good_example=_GOOD_EXAMPLE,
)
def check_hook_state_write(ctx: FileContext) -> Iterator[Diagnostic]:
    for hook in _collect_hooks(ctx):
        for v in _scan_body(hook.fn, in_class=hook.in_class):
            if v.kind == "write":
                yield ctx.diagnostic(
                    v.node, "hook-state-write",
                    f"observer {hook.fn.name} ({hook.how}) {v.detail}; "
                    "hooks are pure observation",
                )


@rule(
    "hook-mutating-call",
    "hooks",
    "an on_event observer must not call mutating engine methods "
    "(schedule*, inject, install, put, evict, ...)",
    bad_example=(
        "class Watcher:\n"
        "    def __init__(self, sim):\n"
        "        self.sim = sim\n"
        "        sim.on_event = self._on_event\n"
        "    def _on_event(self, time):\n"
        "        self.sim.schedule(1.0, lambda: None)\n"
    ),
    bad_lines=(6,),
    good_example=_GOOD_EXAMPLE,
)
def check_hook_mutating_call(ctx: FileContext) -> Iterator[Diagnostic]:
    for hook in _collect_hooks(ctx):
        for v in _scan_body(hook.fn, in_class=hook.in_class):
            if v.kind == "call":
                yield ctx.diagnostic(
                    v.node, "hook-mutating-call",
                    f"observer {hook.fn.name} ({hook.how}) {v.detail}; "
                    "hooks are pure observation",
                )


@rule(
    "hook-transitive",
    "hooks",
    "a helper called from an on_event observer must itself be pure "
    "(checked one call level deep)",
    bad_example=(
        "class Watcher:\n"
        "    def attach(self, cluster):\n"
        "        self.cluster = cluster\n"
        "        cluster.sim.on_event = self._on_event\n"
        "    def _on_event(self, time):\n"
        "        self._sweep()\n"
        "    def _sweep(self):\n"
        "        self.cluster.trace = None\n"
    ),
    bad_lines=(6,),
    good_example=(
        "class Watcher:\n"
        "    def attach(self, cluster):\n"
        "        self.cluster = cluster\n"
        "        cluster.sim.on_event = self._on_event\n"
        "    def _on_event(self, time):\n"
        "        self._sweep()\n"
        "    def _sweep(self):\n"
        "        self.seen = len(self.cluster.servers)\n"
    ),
)
def check_hook_transitive(ctx: FileContext) -> Iterator[Diagnostic]:
    hooks = _collect_hooks(ctx)
    hook_fns = {h.fn for h in hooks}
    for hook in hooks:
        for call, callee, in_class, label in _callees(ctx, hook):
            if callee in hook_fns or callee is hook.fn:
                continue  # already checked as a hook in its own right
            for v in _scan_body(callee, in_class=in_class):
                yield ctx.diagnostic(
                    call, "hook-transitive",
                    f"observer {hook.fn.name} calls {label}(), which "
                    f"{v.detail} at line {v.node.lineno}; helpers "
                    "reached from a hook must be pure observation",
                )
