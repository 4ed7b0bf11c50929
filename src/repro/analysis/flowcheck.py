"""Dataflow checkers (``FM30x``) over the :mod:`repro.analysis.flow` CFG.

Two checker families run on every function of a linted file:

* **Resource lifecycle** (FM300–FM303, FM307, FM308) — a *must*
  analysis proving every locally created shared-memory segment
  (``SharedMemory`` / ``SharedCSRBuffers`` / ``share_array``),
  ``MinerPool`` and pool lease
  (``pool.acquire()`` / ``lease()`` / ``_leased_entry()``) reaches its
  release calls on **all** paths out of the function — the normal exit
  and the implicit raise exit.  Ownership hand-off (returning the
  handle, storing it into a field or container, passing it to a
  callee) ends the local obligation; a handle that is *both* handed
  off and released is flagged as ambiguous.
* **Lock discipline** (FM304–FM306, FM309) — a *must* lock-set
  analysis through ``with`` blocks and explicit
  ``acquire()``/``release()`` pairs, flagging blocking calls made
  while any lock is held and locks that survive to an exit.  A
  module-level aggregation pass (FM305) infers which ``self._field``
  each lock guards (two or more mutation sites under the same lock)
  and flags mutations of a guarded field made without it.

The analyses are intraprocedural and path-insensitive; states live on
the CFG from :func:`repro.analysis.flow.build_cfg`, whose separate
exception edges are what make "the ``close()`` that raises skips the
``unlink()``" expressible at all.  Nested ``def``/``lambda`` bodies
are skipped when classifying a statement — a closure capturing a
handle is not an ownership transfer, and its calls do not run here.

:func:`flow_findings` is the entry point :mod:`repro.analysis.fmlint`
wraps into per-code :class:`~repro.analysis.fmlint.LintRule` instances,
so suppression comments, baselines and the CLI exit contract all apply
unchanged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .diagnostics import register_code
from .flow import (
    CFG,
    FlowNode,
    ForwardAnalysis,
    build_cfg,
    dotted_name,
    function_defs,
    root_name,
    run_forward,
)

__all__ = ["FLOW_CODES", "check_functions", "flow_findings"]

FM300 = register_code(
    "FM300", "shared resource may leak on a normal path", "error",
    "close/unlink (or hand off) the segment before every return; wrap "
    "the use in try/finally",
)
FM301 = register_code(
    "FM301", "shared resource leaks on an exception path", "error",
    "an exception between creation and release (or between close and "
    "unlink) abandons the segment; release it in a finally or except "
    "block",
)
FM302 = register_code(
    "FM302", "pool lease is not released on every path", "error",
    "pair acquire()/lease() with release() in a finally block, or "
    "return the leased handle so the caller owns it",
)
FM303 = register_code(
    "FM303", "ambiguous resource ownership", "warning",
    "the handle is both handed off (stored/returned/passed) and "
    "released locally depending on the path; pick one owner",
)
FM304 = register_code(
    "FM304", "blocking call while a lock is held", "error",
    "release the lock before queue.get/Future.result/join/wait/"
    "sleep/shutdown; holding it across a blocking call can deadlock "
    "every other thread",
)
FM305 = register_code(
    "FM305", "guarded field mutated without its lock", "warning",
    "other methods mutate this field under a lock; take the same lock "
    "here (or document the single-threaded phase with a suppression)",
)
FM306 = register_code(
    "FM306", "lock leaks on an exception path", "error",
    "an exception after acquire() skips release(); use 'with lock:' "
    "or a try/finally",
)
FM307 = register_code(
    "FM307", "release without a matching acquire", "warning",
    "the handle is already released on this path; a second release "
    "raises or corrupts the refcount",
)
FM308 = register_code(
    "FM308", "live resource rebound", "warning",
    "reassigning the only name holding an unreleased resource leaks "
    "it; release the old handle first",
)
FM309 = register_code(
    "FM309", "lock still held at function exit", "error",
    "an explicitly acquired lock must be released before returning "
    "unless handing it off is the documented contract",
)

#: every code :func:`flow_findings` can emit, in report order.
FLOW_CODES: Tuple[str, ...] = (
    FM300, FM301, FM302, FM303, FM304,
    FM305, FM306, FM307, FM308, FM309,
)

Finding = Tuple[int, str]

_SHM_CTORS = frozenset({"SharedMemory", "SharedCSRBuffers"})
_POOL_CTORS = frozenset({"MinerPool"})
_LEASE_CALLS = frozenset({"lease", "_leased_entry"})
_MUTATING_METHODS = frozenset(
    {
        "append", "add", "clear", "discard", "extend", "insert",
        "pop", "popitem", "remove", "setdefault", "update",
    }
)

# resource status lattice, least-released first
_RANK = {"live": 0, "closed": 1, "done": 2, "transferred": 3}

# var -> (kind, status, creation line)
ResourceState = Tuple[Tuple[str, Tuple[str, str, int]], ...]
# held locks as (lock id, "with" | "explicit")
LockState = FrozenSet[Tuple[str, str]]


def _shallow_walk(stmt: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into deferred bodies
    (nested functions, lambdas, classes) or into compound-statement
    sub-blocks (the CFG visits those as their own nodes)."""
    queue: List[ast.AST] = [stmt]
    while queue:
        node = queue.pop()
        yield node
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue
        if isinstance(node, (ast.If, ast.While)):
            queue.append(node.test)
            continue
        if isinstance(node, (ast.For, ast.AsyncFor)):
            queue.extend([node.target, node.iter])
            continue
        if isinstance(node, (ast.With, ast.AsyncWith)):
            queue.extend(item.context_expr for item in node.items)
            continue
        if isinstance(node, (ast.Try, ast.Match)):
            continue
        queue.extend(ast.iter_child_nodes(node))


def _calls(stmt: ast.AST) -> List[ast.Call]:
    return [n for n in _shallow_walk(stmt) if isinstance(n, ast.Call)]


def _call_leaf(call: ast.Call) -> str:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return ""


def _receiver_root(call: ast.Call) -> str:
    if isinstance(call.func, ast.Attribute):
        return root_name(call.func.value)
    return ""


def _assign_name_targets(stmt: ast.AST) -> List[str]:
    """Plain-``Name`` binding targets of an assignment-ish statement."""
    out: List[str] = []
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    for target in targets:
        if isinstance(target, ast.Name):
            out.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            out.extend(
                e.id for e in target.elts if isinstance(e, ast.Name)
            )
    return out


_STORING_METHODS = frozenset(
    {"append", "add", "insert", "put", "push", "register", "setdefault",
     "store", "submit"}
)


def _captures(call: ast.Call) -> bool:
    """Calls that take ownership of their arguments: constructors
    (CamelCase leaf) and container/queue storing methods."""
    leaf = _call_leaf(call).lstrip("_")
    return bool(leaf) and (
        leaf[:1].isupper() or leaf in _STORING_METHODS
    )


def _value_stores(value: ast.AST, var: str) -> bool:
    """Is the bare name ``var`` stored by this value expression —
    directly, inside a tuple/list/dict literal, a conditional, or a
    capturing call's arguments?  Attribute/subscript reads rooted at
    ``var`` do not count."""
    stack: List[ast.AST] = [value]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            if node.id == var:
                return True
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            stack.extend(node.elts)
        elif isinstance(node, ast.Dict):
            stack.extend(node.values)
            stack.extend(k for k in node.keys if k is not None)
        elif isinstance(node, ast.IfExp):
            stack.extend([node.body, node.orelse])
        elif isinstance(node, ast.Starred):
            stack.append(node.value)
        elif isinstance(node, ast.Call) and _captures(node):
            stack.extend(node.args)
            stack.extend(kw.value for kw in node.keywords)
    return False


def _for_targets(stmt: ast.AST) -> List[str]:
    if not isinstance(stmt, (ast.For, ast.AsyncFor)):
        return []
    target = stmt.target
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [e.id for e in target.elts if isinstance(e, ast.Name)]
    return []


# ----------------------------------------------------------------------
# Resource lifecycle (FM300-FM303, FM307, FM308)
# ----------------------------------------------------------------------
def _pair_vars(func: ast.AST) -> Set[str]:
    """Local names that see both ``.close()`` and ``.unlink()`` —
    duck-typed shared-memory owners (e.g. the teardown loop variable)."""
    closed: Set[str] = set()
    unlinked: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            root = root_name(node.func.value)
            if not root or root == "self":
                continue
            if node.func.attr == "close":
                closed.add(root)
            elif node.func.attr == "unlink":
                unlinked.add(root)
    return closed & unlinked


@dataclass
class _ResourceEffects:
    """Outcome of abstractly executing one statement."""

    normal: Dict[str, Tuple[str, str, int]]
    onraise: Dict[str, Tuple[str, str, int]]
    findings: List[Tuple[str, int, str]]


class _ResourceAnalysis(ForwardAnalysis[ResourceState]):
    def __init__(self, func: ast.AST) -> None:
        self.pairs = _pair_vars(func)

    # -- lattice -------------------------------------------------------
    def initial(self) -> ResourceState:
        return ()

    def join(self, a: ResourceState, b: ResourceState) -> ResourceState:
        da, db = dict(a), dict(b)
        out: Dict[str, Tuple[str, str, int]] = {}
        for var in set(da) | set(db):
            if var not in da:
                out[var] = db[var]
            elif var not in db:
                out[var] = da[var]
            else:
                out[var] = self._join_one(da[var], db[var])
        return tuple(sorted(out.items()))

    @staticmethod
    def _join_one(
        a: Tuple[str, str, int], b: Tuple[str, str, int]
    ) -> Tuple[str, str, int]:
        kind = a[0]
        line = min(a[2], b[2])
        sa, sb = a[1], b[1]
        if sa == sb:
            return (kind, sa, line)
        ranked = sorted((sa, sb), key=lambda s: _RANK.get(s, 9))
        if ranked == ["done", "transferred"]:
            # both outcomes are terminal-safe; keep "transferred" so a
            # later release on the merged path still raises FM303
            return (kind, "transferred", line)
        return (kind, ranked[0], line)

    # -- transfer ------------------------------------------------------
    def transfer(
        self, node: FlowNode, state: ResourceState
    ) -> Tuple[ResourceState, ResourceState]:
        fx = self.apply(node, state)
        return (
            tuple(sorted(fx.normal.items())),
            tuple(sorted(fx.onraise.items())),
        )

    def apply(
        self, node: FlowNode, state: ResourceState
    ) -> _ResourceEffects:
        """Abstractly execute ``node``; also yields the per-node
        findings (double release, live rebind) for the reporting pass."""
        env: Dict[str, Tuple[str, str, int]] = dict(state)
        findings: List[Tuple[str, int, str]] = []
        stmt = node.stmt
        if stmt is None or node.kind in (
            "with-enter", "with-exit", "with-unwind",
            "except-dispatch", "handler-bind", "finally-unwind",
        ):
            return _ResourceEffects(env, dict(env), findings)
        line = node.line

        # fresh loop bindings kill the previous iteration's state; they
        # sit on the body edge only (never the zero-iteration exit)
        if node.kind == "loop-bind":
            for name in _for_targets(stmt):
                env.pop(name, None)
                if name in self.pairs:
                    env[name] = ("shm", "live", line)
            return _ResourceEffects(env, dict(env), findings)
        if node.kind == "loop-head":
            return _ResourceEffects(env, dict(env), findings)

        # 1. releases advance state on the normal AND exception edge:
        #    if close() itself raises, the segment still counts closed
        #    (so a missing unlink surfaces as FM301, and the blessed
        #    try/finally close() pattern stays clean).
        for call in _calls(stmt):
            leaf = _call_leaf(call)
            root = _receiver_root(call)
            if not root or root == "self" or root not in env:
                if (
                    leaf == "release"
                    and root
                    and root != "self"
                    and "lock" not in dotted_name(call.func).lower()
                    and root not in env
                ):
                    env[root] = ("lease", "done", line)
                continue
            kind, status, born = env[root]
            if leaf not in ("close", "unlink", "release"):
                continue
            if leaf == "unlink" and kind != "shm":
                continue
            if status == "transferred" and not node.in_cleanup:
                # releasing a handle someone else now owns — outside
                # the except/finally-unwind cleanup idiom this is a
                # double-ownership hazard
                findings.append(
                    (
                        FM303,
                        line,
                        f"'{root}' was handed off but is released "
                        f"here too",
                    )
                )
            if leaf == "close":
                if status in ("live", "transferred"):
                    env[root] = (
                        kind, "closed" if kind == "shm" else "done", born
                    )
            elif leaf == "unlink":
                if status in ("live", "closed", "transferred"):
                    env[root] = (kind, "done", born)
            elif leaf == "release":
                if status == "done":
                    findings.append(
                        (FM307, line, f"'{root}' is already released")
                    )
                else:
                    env[root] = (kind, "done", born)

        # 2. ownership transfers (return / store / pass / alias)
        for var in [v for v, (_, s, _) in env.items() if s in ("live", "closed")]:
            if self._transfers(stmt, var):
                kind, _, born = env[var]
                env[var] = (kind, "transferred", born)

        # 3. new bindings (after the RHS consumed the old values)
        exc_env = dict(env)  # a raising RHS never bound the resource
        for name, kind in self._creations(stmt):
            old = env.get(name)
            if old is not None and old[1] in ("live", "closed"):
                findings.append(
                    (
                        FM308,
                        line,
                        f"'{name}' still holds an unreleased {old[0]} "
                        f"resource from line {old[2]}",
                    )
                )
            env[name] = (kind, "live", line)
        if not self._creations(stmt):
            exc_env = dict(env)
        # plain rebinds of a tracked name drop the old handle
        for name in _assign_name_targets(stmt):
            if name in env and env[name][1] not in ("live", "closed"):
                if (name, env[name][0]) not in [
                    (n, k) for n, k in self._creations(stmt)
                ]:
                    env.pop(name)
                    exc_env.pop(name, None)
        return _ResourceEffects(env, exc_env, findings)

    # -- statement classification --------------------------------------
    def _creations(self, stmt: ast.AST) -> List[Tuple[str, str]]:
        out: List[Tuple[str, str]] = []
        if isinstance(stmt, ast.Assign) and isinstance(
            stmt.value, ast.Call
        ):
            leaf = _call_leaf(stmt.value)
            names = _assign_name_targets(stmt)
            first: Optional[str] = None
            target = stmt.targets[0] if len(stmt.targets) == 1 else None
            if isinstance(target, ast.Name):
                first = target.id
            elif isinstance(target, (ast.Tuple, ast.List)) and target.elts:
                head = target.elts[0]
                if isinstance(head, ast.Name):
                    first = head.id
            if leaf in _SHM_CTORS and first is not None:
                out.append((first, "shm"))
            elif leaf == "share_array" and first is not None:
                out.append((first, "shm"))
            elif leaf in _POOL_CTORS and first is not None:
                out.append((first, "pool"))
            elif leaf in _LEASE_CALLS and first is not None:
                out.append((first, "lease"))
            elif first is not None and first in self.pairs:
                out.append((first, "shm"))
            return out
        if isinstance(stmt, ast.Assign):
            for name in _assign_name_targets(stmt):
                if name in self.pairs and not isinstance(
                    stmt.value, ast.Constant
                ):
                    out.append((name, "shm"))
        # bare-expression acquire: entry.pool.acquire() leases `entry`
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Call
        ):
            call = stmt.value
            root = _receiver_root(call)
            if (
                _call_leaf(call) == "acquire"
                and root
                and root != "self"
                and "lock" not in dotted_name(call.func).lower()
            ):
                out.append((root, "lease"))
        return out

    @staticmethod
    def _transfers(stmt: ast.AST, var: str) -> bool:
        """Does ``stmt`` move ownership of ``var`` out of the function?

        Transfers are the *handle itself* escaping: returned/yielded
        (bare or inside a tuple), aliased or stored by assignment, or
        passed into a capturing call (a constructor, or a container
        ``append``/``add``/...).  Attribute reads (``entry.name``) and
        borrowing calls (``self._run(entry)``) are not transfers.
        """
        if isinstance(stmt, ast.Return):
            return stmt.value is not None and _value_stores(
                stmt.value, var
            )
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, (ast.Yield, ast.YieldFrom)
        ):
            inner = stmt.value.value
            return inner is not None and _value_stores(inner, var)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            value = stmt.value
            return value is not None and _value_stores(value, var)
        for call in _calls(stmt):
            if _captures(call) and any(
                _value_stores(arg, var)
                for arg in list(call.args)
                + [kw.value for kw in call.keywords]
            ):
                return True
        return False


def _check_resources(
    func: "ast.FunctionDef | ast.AsyncFunctionDef", cfg: CFG
) -> List[Tuple[str, int, str]]:
    analysis = _ResourceAnalysis(func)
    result = run_forward(cfg, analysis)
    findings: List[Tuple[str, int, str]] = []
    seen: Set[Tuple[str, int, str]] = set()
    for node in cfg.nodes:
        state = result.in_states.get(node.index)
        if state is None:
            continue
        for item in analysis.apply(node, state).findings:
            if item not in seen:
                seen.add(item)
                findings.append(item)

    def exit_findings(state: Optional[ResourceState], raising: bool) -> None:
        if state is None:
            return
        where = "an exception path" if raising else "a normal path"
        for var, (kind, status, born) in state:
            if status in ("done", "transferred"):
                continue
            if kind == "lease":
                findings.append(
                    (
                        FM302,
                        born,
                        f"lease '{var}' reaches the end of "
                        f"{func.name}() unreleased on {where}",
                    )
                )
                continue
            code = FM301 if raising else FM300
            detail = (
                "is never released"
                if status == "live"
                else "is closed but never unlinked"
            )
            findings.append(
                (
                    code,
                    born,
                    f"{kind} resource '{var}' {detail} on {where} "
                    f"out of {func.name}()",
                )
            )

    exit_findings(result.exit_state, raising=False)
    exit_findings(result.raise_state, raising=True)
    return findings


# ----------------------------------------------------------------------
# Lock discipline (FM304-FM306, FM309) + guarded fields (FM305)
# ----------------------------------------------------------------------
_BLOCKING_LEAVES = frozenset(
    {"result", "wait", "shutdown", "sleep", "join", "get", "put"}
)


def _lock_ids_of_with(
    stmt: "ast.With | ast.AsyncWith", lockvars: Set[str]
) -> Tuple[str, ...]:
    ids: List[str] = []
    for item in stmt.items:
        name = dotted_name(item.context_expr)
        if name and _is_lock_name(name, lockvars):
            ids.append(name)
    return tuple(ids)


def _is_lock_name(name: str, lockvars: Set[str]) -> bool:
    leaf = name.rsplit(".", 1)[-1].lower()
    return "lock" in leaf or name in lockvars


def _local_lockvars(func: ast.AST) -> Set[str]:
    out: Set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and _call_leaf(node.value) in ("Lock", "RLock", "Condition")
        ):
            out.update(_assign_name_targets(node))
    return out


def _blocking_call(stmt: ast.AST) -> Optional[str]:
    """Dotted name of the first blocking call in ``stmt``, if any."""
    for call in _calls(stmt):
        leaf = _call_leaf(call)
        if leaf not in _BLOCKING_LEAVES:
            continue
        name = dotted_name(call.func) or leaf
        lower = name.lower()
        if leaf in ("get", "put") and "queue" not in lower:
            continue
        if leaf == "join" and not any(
            hint in lower for hint in ("proc", "thread", "worker")
        ):
            continue
        if leaf == "sleep" and not (
            name == "sleep" or lower.startswith("time.")
        ):
            continue
        if leaf == "wait" and "lock" in lower:
            continue  # Condition.wait releases the lock it wraps
        return name
    return None


class _LockAnalysis(ForwardAnalysis[LockState]):
    def __init__(self, func: ast.AST) -> None:
        self.lockvars = _local_lockvars(func)

    def initial(self) -> LockState:
        return frozenset()

    def join(self, a: LockState, b: LockState) -> LockState:
        return a & b  # must-held

    def transfer(
        self, node: FlowNode, state: LockState
    ) -> Tuple[LockState, LockState]:
        stmt = node.stmt
        if node.kind == "with-enter" and isinstance(
            stmt, (ast.With, ast.AsyncWith)
        ):
            held = state | {
                (lock, "with")
                for lock in _lock_ids_of_with(stmt, self.lockvars)
            }
            # if __enter__ raises the lock was never taken
            return held, state
        if node.kind in ("with-exit", "with-unwind") and isinstance(
            stmt, (ast.With, ast.AsyncWith)
        ):
            dropped = set(_lock_ids_of_with(stmt, self.lockvars))
            out = frozenset(
                (lock, mode)
                for lock, mode in state
                if not (mode == "with" and lock in dropped)
            )
            return out, out
        if stmt is not None:
            # The exception edge keeps the *pre-release* state: a raise
            # out of release() means the lock may still be held, and
            # optimistically dropping it would let the must-held join
            # wash a genuine FM306 leak out at the raise exit.
            exc_state = state
            for call in _calls(stmt):
                leaf = _call_leaf(call)
                if leaf not in ("acquire", "release"):
                    continue
                if not isinstance(call.func, ast.Attribute):
                    continue
                lock = dotted_name(call.func.value)
                if not lock or not _is_lock_name(lock, self.lockvars):
                    continue
                if leaf == "acquire":
                    state = state | {(lock, "explicit")}
                    exc_state = exc_state | {(lock, "explicit")}
                else:
                    state = frozenset(
                        pair for pair in state if pair[0] != lock
                    )
                    if node.in_cleanup:
                        # a release already running as cleanup is the
                        # blessed finally idiom; trust it on both edges
                        exc_state = frozenset(
                            pair for pair in exc_state if pair[0] != lock
                        )
            return state, exc_state
        return state, state


@dataclass
class _FieldAccess:
    """One ``self._field`` touch, for the class-level FM305 pass."""

    cls: str
    method: str
    field: str
    line: int
    mutates: bool
    held: FrozenSet[str]


def _field_accesses(
    cls: str,
    method: str,
    node: FlowNode,
    held: FrozenSet[str],
) -> List[_FieldAccess]:
    stmt = node.stmt
    if stmt is None or node.kind not in ("stmt", "branch", "loop-head"):
        return []
    out: List[_FieldAccess] = []

    def self_field(expr: ast.AST) -> Optional[str]:
        base = expr
        if isinstance(base, ast.Subscript):
            base = base.value
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            return base.attr
        return None

    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = list(stmt.targets)
    for target in targets:
        field = self_field(target)
        if field is not None:
            out.append(
                _FieldAccess(cls, method, field, node.line, True, held)
            )
    for call in _calls(stmt):
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _MUTATING_METHODS
        ):
            field = self_field(call.func.value)
            if field is not None:
                out.append(
                    _FieldAccess(cls, method, field, node.line, True, held)
                )
    return out


def _check_locks(
    qual: str,
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
    cfg: CFG,
) -> Tuple[List[Tuple[str, int, str]], List[_FieldAccess]]:
    analysis = _LockAnalysis(func)
    result = run_forward(cfg, analysis)
    findings: List[Tuple[str, int, str]] = []
    accesses: List[_FieldAccess] = []
    parts = qual.split(".")
    cls = parts[0] if len(parts) == 2 else ""
    method = parts[-1]
    for node in cfg.nodes:
        state = result.in_states.get(node.index)
        if state is None:
            continue
        held_ids = frozenset(lock for lock, _ in state)
        if cls:
            accesses.extend(_field_accesses(cls, method, node, held_ids))
        if not held_ids or node.stmt is None:
            continue
        if node.kind in ("stmt", "branch", "loop-head"):
            blocking = _blocking_call(node.stmt)
            if blocking is not None and not blocking.endswith(
                (".acquire", ".release")
            ):
                findings.append(
                    (
                        FM304,
                        node.line,
                        f"{blocking}() called while holding "
                        f"{', '.join(sorted(held_ids))}",
                    )
                )
    for state_opt, code, where in (
        (result.exit_state, FM309, "returns"),
        (result.raise_state, FM306, "unwinds"),
    ):
        if not state_opt:
            continue
        explicit = sorted(
            lock for lock, mode in state_opt if mode == "explicit"
        )
        for lock in explicit:
            findings.append(
                (
                    code,
                    func.lineno,
                    f"{func.name}() {where} with {lock} still held",
                )
            )
    return findings, accesses


def _guarded_field_findings(
    accesses: Sequence[_FieldAccess],
) -> List[Tuple[str, int, str]]:
    """Class-level FM305: fields with >= 2 mutation sites under the same
    lock are 'guarded'; mutations elsewhere without it are flagged."""
    guards: Dict[Tuple[str, str], Dict[str, Set[Tuple[str, int]]]] = {}
    for acc in accesses:
        if not acc.mutates or acc.method in ("__init__", "__del__"):
            continue
        for lock in acc.held:
            guards.setdefault((acc.cls, acc.field), {}).setdefault(
                lock, set()
            ).add((acc.method, acc.line))
    findings: List[Tuple[str, int, str]] = []
    for acc in accesses:
        if not acc.mutates or acc.method in ("__init__", "__del__"):
            continue
        by_lock = guards.get((acc.cls, acc.field), {})
        for lock, sites in sorted(by_lock.items()):
            others = {s for s in sites if s[0] != acc.method}
            if len(sites) >= 2 and len(others) >= 1 and lock not in acc.held:
                findings.append(
                    (
                        FM305,
                        acc.line,
                        f"{acc.cls}.{acc.field} is mutated under "
                        f"{lock} at {len(sites)} site(s) but without "
                        f"it in {acc.method}()",
                    )
                )
                break
    return findings


# ----------------------------------------------------------------------
# Driver + fmlint bridge
# ----------------------------------------------------------------------
def check_functions(tree: ast.AST) -> Dict[str, List[Finding]]:
    """Run every FM30x dataflow checker over a parsed module."""
    out: Dict[str, List[Finding]] = {code: [] for code in FLOW_CODES}
    accesses: List[_FieldAccess] = []
    for qual, func in function_defs(tree):
        cfg = build_cfg(func)
        for code, line, msg in _check_resources(func, cfg):
            out[code].append((line, msg))
        lock_findings, fields = _check_locks(qual, func, cfg)
        accesses.extend(fields)
        for code, line, msg in lock_findings:
            out[code].append((line, msg))
    for code, line, msg in _guarded_field_findings(accesses):
        out[code].append((line, msg))
    for code in out:
        out[code] = sorted(set(out[code]))
    return out


_CACHE: List[Tuple[int, ast.AST, Dict[str, List[Finding]]]] = []


def flow_findings(tree: ast.AST) -> Dict[str, List[Finding]]:
    """Memoized :func:`check_functions` — fmlint calls one rule per
    FM30x code against the same parsed tree, so a single-entry cache
    makes the ten rules cost one analysis run per file."""
    if _CACHE and _CACHE[0][0] == id(tree) and _CACHE[0][1] is tree:
        return _CACHE[0][2]
    result = check_functions(tree)
    _CACHE.clear()
    _CACHE.append((id(tree), tree, result))
    return result
