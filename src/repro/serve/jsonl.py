"""JSON-lines front end for :class:`~repro.serve.MiningService`.

``flexminer serve`` reads one JSON object per line from stdin and
writes one JSON object per line to stdout — the simplest transport that
lets any language (or a shell ``printf`` loop) drive the resident
service.  Ops::

    {"op": "register", "name": "as", "dataset": "As"}
    {"op": "register", "name": "g", "path": "graph.mtx"}
    {"op": "mine", "graph": "as", "app": "TC"}
    {"op": "mine", "graph": "as", "pattern": "4-cycle"}
    {"op": "mine", "graph": "as", "app": "k-CL", "k": 4}
    {"op": "mine", "graph": "as", "app": "k-MC", "k": 3}
    {"op": "unregister", "graph": "as"}
    {"op": "stats"}
    {"op": "close"}

Every response carries ``"ok"``; failures are *data*, not stream
deaths: ``{"ok": false, "error": "...", "kind": "<ExceptionName>"}``,
with ``"retry": true`` added for admission-control rejections
(:class:`~repro.errors.ServiceOverloaded`) so clients can back off.
The loop itself only terminates on end-of-input or an explicit
``close`` op.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Optional, TextIO

from ..errors import ReproError, ServiceOverloaded
from ..graph.datasets import load_dataset
from ..graph.io import load_graph
from ..patterns import from_name
from .service import MineRequest, MiningService

__all__ = ["handle_request", "serve_stream"]


def _mine_request(payload: Dict[str, object]) -> MineRequest:
    pattern_spec = payload.get("pattern")
    pattern = (
        from_name(str(pattern_spec)) if pattern_spec is not None else None
    )
    matching_order = payload.get("matching_order")
    return MineRequest(
        graph=str(payload["graph"]),
        app=payload.get("app"),  # type: ignore[arg-type]
        pattern=pattern,
        k=int(payload.get("k", 3)),
        motif_k=(
            int(payload["motif_k"])
            if payload.get("motif_k") is not None
            else None
        ),
        induced=bool(payload.get("induced", False)),
        matching_order=(
            tuple(int(v) for v in matching_order)  # type: ignore[union-attr]
            if matching_order is not None
            else None
        ),
        split_degree=payload.get("split_degree"),  # type: ignore[arg-type]
        use_cache=not payload.get("no_cache", False),
    )


def handle_request(
    service: MiningService, payload: Dict[str, object]
) -> Dict[str, object]:
    """Serve one decoded request object; always returns a response."""
    op = payload.get("op", "mine")
    try:
        if op == "mine":
            if "graph" not in payload:
                raise KeyError("graph")
            response = service.request(_mine_request(payload))
            return dict(response.as_dict(), ok=True, op="mine")
        if op == "register":
            if "path" in payload:
                graph = load_graph(str(payload["path"]))
                name = payload.get("name") or str(payload["path"])
            else:
                dataset = str(
                    payload.get("dataset") or payload.get("graph") or "As"
                )
                graph = load_dataset(dataset)
                name = payload.get("name") or dataset
            epoch = service.register_graph(str(name), graph)
            return {
                "ok": True,
                "op": "register",
                "graph": str(name),
                "epoch": epoch,
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
            }
        if op == "unregister":
            service.unregister_graph(str(payload["graph"]))
            return {
                "ok": True,
                "op": "unregister",
                "graph": str(payload["graph"]),
            }
        if op == "stats":
            return {"ok": True, "op": "stats", "stats": service.stats()}
        if op == "close":
            return {"ok": True, "op": "close", "closing": True}
        raise ValueError(f"unknown op {op!r}")
    except ServiceOverloaded as exc:
        return {
            "ok": False,
            "op": op,
            "error": str(exc),
            "kind": type(exc).__name__,
            "retry": True,
            "active": exc.active,
            "max_active": exc.max_active,
        }
    except (ReproError, KeyError, ValueError, TypeError, OSError) as exc:
        return {
            "ok": False,
            "op": op,
            "error": str(exc),
            "kind": type(exc).__name__,
        }


def serve_stream(
    service: MiningService,
    lines: Iterable[str],
    out: TextIO,
    *,
    echo_errors_to: Optional[TextIO] = None,
) -> int:
    """Drive the service from an iterable of JSON lines.

    Writes one JSON response per request line (blank lines are
    skipped), flushing after each so pipe-connected clients see
    responses immediately.  Returns the number of requests handled.
    Stops at end-of-input or after a ``close`` op.
    """
    handled = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            response = {
                "ok": False,
                "error": f"bad request line: {exc}",
                "kind": "ValueError",
            }
        else:
            response = handle_request(service, payload)
            if echo_errors_to is not None and not response.get("ok"):
                print(
                    f"serve: {response.get('error')}", file=echo_errors_to
                )
        handled += 1
        out.write(json.dumps(response, sort_keys=True) + "\n")
        out.flush()
        if response.get("op") == "close" and response.get("ok"):
            break
    return handled
