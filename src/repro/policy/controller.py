"""The Policy Controller: request validation and translation.

In the paper's architecture the Policy Controller "manages communication
between the web interface and the policy engine".  Here it is the layer
that accepts JSON-able dict payloads (from the REST frontend or any other
transport), validates them, delegates to :class:`PolicyService`, and
returns JSON-able dict responses.

:data:`ROUTES` is the one declaration of the wire surface: the frontend
routes through :meth:`PolicyController.dispatch`, the HTTP client takes
each operation's verb and path from it, and the in-process client
generates its methods from it.
"""

from __future__ import annotations

import json
import math
from typing import Any, NamedTuple, Optional
from urllib.parse import quote, unquote

from repro.policy.service import PolicyService

__all__ = ["ROUTES", "PolicyController", "PolicyRequestError", "PolicyRouteError", "Route"]


class PolicyRequestError(ValueError):
    """A malformed request payload (maps to HTTP 400)."""


class PolicyRouteError(LookupError):
    """Nothing to answer with: 404 (unknown path or record), or 405 with
    the verbs the path does accept in ``allow``."""

    def __init__(self, status: int, message: str, allow: tuple = ()):
        super().__init__(message)
        self.status = status
        self.allow = allow


class Route(NamedTuple):
    """One operation of the wire surface.

    ``path`` may end in one typed segment, ``<name:int>`` or
    ``<name:str>``, whose decoded value is the operation's only
    argument; otherwise a GET takes none and a POST the JSON body.
    ``op`` names the method on :class:`PolicyController` and on both
    clients, ``service_op`` the service method behind it where that is
    named differently.
    """

    verb: str
    path: str
    op: str
    service_op: str = ""

    def url(self, arg=None) -> str:
        """The request path, ``arg`` quoted into the typed segment."""
        if arg is None:
            return self.path
        return self.path.partition("<")[0] + quote(str(arg), safe="")


ROUTES: tuple[Route, ...] = (
    Route("POST", "/policy/transfers", "submit_transfers"),
    Route("POST", "/policy/transfers/complete", "complete_transfers"),
    Route("GET", "/policy/transfers/<tid:int>", "transfer_state"),
    Route("GET", "/policy/explain/<tid:int>", "explain"),
    Route("POST", "/policy/staging", "staging_state"),
    Route("POST", "/policy/cleanups", "submit_cleanups"),
    Route("POST", "/policy/cleanups/complete", "complete_cleanups"),
    Route("POST", "/policy/staged/reconcile", "reconcile_staged"),
    Route("POST", "/policy/priorities", "register_priorities"),
    Route("POST", "/policy/workflows/unregister", "unregister_workflow"),
    Route("POST", "/policy/denials", "deny_host"),
    Route("POST", "/policy/denials/remove", "allow_host"),
    Route("POST", "/policy/quotas", "set_quota"),
    Route("POST", "/policy/tenants", "register_tenant"),
    Route("POST", "/policy/tenants/remove", "unregister_tenant"),
    Route("POST", "/policy/tenants/bind", "bind_workflow"),
    Route("GET", "/policy/tenants", "tenants"),
    Route("GET", "/policy/catalog", "catalog_census"),
    Route("GET", "/policy/catalog/replicas/<lfn:str>", "catalog_replicas"),
    Route("POST", "/policy/catalog/sites", "set_site_capacity"),
    Route("POST", "/policy/catalog/pins", "catalog_pin"),
    Route("GET", "/policy/status", "status", "snapshot"),
    Route("GET", "/policy/metrics", "metrics_text"),
)

#: request path -> verb -> route; a typed route is keyed by the path up
#: to and including the "/" before its segment
_BY_PATH: dict[str, dict[str, Route]] = {}
for _route in ROUTES:
    _BY_PATH.setdefault(_route.path.partition("<")[0], {})[_route.verb] = _route


def _require(payload: dict, key: str, types: tuple = (str,)) -> Any:
    if not isinstance(payload, dict):
        raise PolicyRequestError(f"payload must be an object, got {type(payload).__name__}")
    if key not in payload:
        raise PolicyRequestError(f"missing required field {key!r}")
    value = payload[key]
    if not isinstance(value, types):
        raise PolicyRequestError(
            f"field {key!r} must be {'/'.join(t.__name__ for t in types)}, "
            f"got {type(value).__name__}"
        )
    return value


def _is_int(value: Any) -> bool:
    """A JSON integer: ``true``/``false`` decode to ``bool``, an ``int``
    subclass, and would pass a bare ``isinstance(value, int)``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _json_object(body: bytes) -> dict:
    try:
        doc = json.loads(body or b"{}")
    except json.JSONDecodeError as exc:
        raise PolicyRequestError(f"invalid JSON body: {exc}") from exc
    if not isinstance(doc, dict):
        raise PolicyRequestError("request body must be a JSON object")
    return doc


def _finite_nonneg(value: float, name: str) -> float:
    """Reject NaN/inf byte counts: ``json.loads`` happily parses ``NaN`` and
    ``Infinity``, and ``NaN < 0`` is False — so a plain ``< 0`` guard lets
    a poisoned quota into policy memory."""
    if isinstance(value, bool) or not math.isfinite(value) or value < 0:
        raise PolicyRequestError(f"{name} must be a finite number >= 0")
    return float(value)


class PolicyController:
    """Dict-in / dict-out facade over a :class:`PolicyService`."""

    def __init__(self, service: PolicyService):
        self.service = service

    def dispatch(self, verb: str, path: str, body: bytes = b""):
        """Route one request through :data:`ROUTES`; returns the response
        document (``str`` for the metrics text exposition).

        Raises :exc:`PolicyRequestError` (400) or :exc:`PolicyRouteError`
        (404 unknown path or record, 405 known path under another verb).
        The JSON body is decoded only once a route is found, so a bad
        body on an unknown path is still a 404.
        """
        head, _, segment = path.rpartition("/")
        routes = {**_BY_PATH.get(head + "/", {}), **_BY_PATH.get(path, {})}
        route = routes.get(verb)
        if route is None:
            if routes:
                raise PolicyRouteError(
                    405, f"method {verb} not allowed on {path!r}", tuple(sorted(routes))
                )
            raise PolicyRouteError(404, f"no such endpoint {path!r}")
        # Looked up per request, so a method replaced on a live
        # controller (tests, operators) is the one that runs.
        handler = getattr(self, route.op)
        if route.path.endswith(":int>"):
            if not segment.isdigit():
                raise PolicyRequestError(f"{route.path.rpartition('/')[2]} must be an integer")
            result = handler(int(segment))
        elif route.path.endswith(":str>"):
            result = handler(unquote(segment))
        elif verb == "GET":
            result = handler()
        else:
            result = handler(_json_object(body))
        if result is None:
            raise PolicyRouteError(404, f"no {route.op} record for {segment}")
        return result

    # -- transfers ---------------------------------------------------------
    def submit_transfers(self, payload: dict) -> dict:
        workflow = _require(payload, "workflow")
        job = _require(payload, "job")
        transfers = _require(payload, "transfers", (list,))
        specs = []
        for idx, item in enumerate(transfers):
            if not isinstance(item, dict):
                raise PolicyRequestError(f"transfers[{idx}] must be an object")
            for field in ("lfn", "src_url", "dst_url"):
                _require(item, field)
            nbytes = item.get("nbytes", 0)
            if not isinstance(nbytes, (int, float)):
                raise PolicyRequestError(f"transfers[{idx}].nbytes must be >= 0")
            _finite_nonneg(nbytes, f"transfers[{idx}].nbytes")
            streams = item.get("streams")
            if streams is not None and (not _is_int(streams) or streams < 1):
                raise PolicyRequestError(f"transfers[{idx}].streams must be int >= 1")
            specs.append(item)
        advice = self.service.submit_transfers(workflow, job, specs)
        return {"workflow": workflow, "job": job, "advice": [a.to_dict() for a in advice]}

    def complete_transfers(self, payload: dict) -> dict:
        done = payload.get("done", [])
        failed = payload.get("failed", [])
        for name, ids in (("done", done), ("failed", failed)):
            if not isinstance(ids, list) or not all(_is_int(i) for i in ids):
                raise PolicyRequestError(f"field {name!r} must be a list of transfer ids")
        return self.service.complete_transfers(done=done, failed=failed)

    def transfer_state(self, tid: int) -> dict:
        if not isinstance(tid, int):
            raise PolicyRequestError("transfer id must be an integer")
        return {"tid": tid, "state": self.service.transfer_state(tid)}

    def explain(self, tid: int) -> Optional[dict]:
        """The decision-provenance record for a transfer (None = unknown)."""
        if not isinstance(tid, int):
            raise PolicyRequestError("transfer id must be an integer")
        return self.service.explain(tid)

    def staging_state(self, payload: dict) -> dict:
        lfn = _require(payload, "lfn")
        url = _require(payload, "url")
        return {"lfn": lfn, "url": url, "state": self.service.staging_state(lfn, url)}

    # -- cleanups ------------------------------------------------------------
    def submit_cleanups(self, payload: dict) -> dict:
        workflow = _require(payload, "workflow")
        job = _require(payload, "job")
        files = _require(payload, "files", (list,))
        pairs = []
        for idx, item in enumerate(files):
            if not isinstance(item, dict):
                raise PolicyRequestError(f"files[{idx}] must be an object")
            pairs.append((_require(item, "lfn"), _require(item, "url")))
        advice = self.service.submit_cleanups(workflow, job, pairs)
        return {"workflow": workflow, "job": job, "advice": [a.to_dict() for a in advice]}

    def complete_cleanups(self, payload: dict) -> dict:
        ids = _require(payload, "ids", (list,))
        if not all(_is_int(i) for i in ids):
            raise PolicyRequestError("field 'ids' must be a list of cleanup ids")
        return self.service.complete_cleanups(ids)

    # -- reconciliation -------------------------------------------------------
    def reconcile_staged(self, payload: dict) -> dict:
        """Adopt files staged while the service was down (degraded clients)."""
        workflow = _require(payload, "workflow")
        files = _require(payload, "files", (list,))
        entries = []
        for idx, item in enumerate(files):
            if not isinstance(item, dict):
                raise PolicyRequestError(f"files[{idx}] must be an object")
            entry = [_require(item, "lfn"), _require(item, "url")]
            nbytes = item.get("nbytes")
            if nbytes is not None:
                if not isinstance(nbytes, (int, float)):
                    raise PolicyRequestError(
                        f"files[{idx}].nbytes must be a number"
                    )
                entry.append(_finite_nonneg(nbytes, f"files[{idx}].nbytes"))
            entries.append(tuple(entry))
        return self.service.reconcile_staged(workflow, entries)

    # -- staged-data catalog --------------------------------------------------
    def catalog_census(self) -> dict:
        """The staged-data catalog census (replicas + site budgets)."""
        try:
            return self.service.catalog_census()
        except RuntimeError as exc:
            raise PolicyRequestError(str(exc)) from exc

    def catalog_replicas(self, lfn: str) -> dict:
        """Known replicas of one dataset, sorted by (site, url)."""
        if not isinstance(lfn, str) or not lfn:
            raise PolicyRequestError("lfn must be a non-empty string")
        try:
            return {"lfn": lfn, "replicas": self.service.catalog_replicas(lfn)}
        except RuntimeError as exc:
            raise PolicyRequestError(str(exc)) from exc

    def set_site_capacity(self, payload: dict) -> dict:
        """Set (or lift, with null) one site's byte budget at runtime."""
        site = _require(payload, "site")
        if not site:
            raise PolicyRequestError("site must be a non-empty string")
        capacity = payload.get("capacity_bytes")
        if capacity is not None:
            if not isinstance(capacity, (int, float)):
                raise PolicyRequestError("capacity_bytes must be a number or null")
            capacity = _finite_nonneg(capacity, "capacity_bytes")
        try:
            return self.service.set_site_capacity(site, capacity)
        except RuntimeError as exc:
            raise PolicyRequestError(str(exc)) from exc

    def catalog_pin(self, payload: dict) -> dict:
        """Pin (pinned=true, the default) or unpin a replica by url."""
        url = _require(payload, "url")
        pinned = payload.get("pinned", True)
        if not isinstance(pinned, bool):
            raise PolicyRequestError("pinned must be a boolean")
        try:
            return self.service.catalog_pin(url, pinned)
        except (RuntimeError, KeyError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            raise PolicyRequestError(str(message)) from exc

    # -- access control -------------------------------------------------------
    def deny_host(self, payload: dict) -> dict:
        host = _require(payload, "host")
        direction = payload.get("direction", "any")
        if direction not in ("src", "dst", "any"):
            raise PolicyRequestError("direction must be src/dst/any")
        try:
            self.service.deny_host(host, direction, payload.get("reason", ""))
        except RuntimeError as exc:
            raise PolicyRequestError(str(exc)) from exc
        return {"host": host, "direction": direction, "denied": True}

    def allow_host(self, payload: dict) -> dict:
        host = _require(payload, "host")
        return {"host": host, "removed": self.service.allow_host(host)}

    def set_quota(self, payload: dict) -> dict:
        workflow = _require(payload, "workflow")
        max_bytes = _finite_nonneg(
            _require(payload, "max_bytes", (int, float)), "max_bytes"
        )
        try:
            self.service.set_quota(workflow, max_bytes)
        except RuntimeError as exc:
            raise PolicyRequestError(str(exc)) from exc
        return {"workflow": workflow, "max_bytes": max_bytes}

    # -- tenants -------------------------------------------------------------
    def register_tenant(self, payload: dict) -> dict:
        tenant = _require(payload, "tenant")
        if not tenant:
            raise PolicyRequestError("tenant must be a non-empty string")
        weight = payload.get("weight", 1.0)
        if not isinstance(weight, (int, float)) or isinstance(weight, bool) \
                or not math.isfinite(weight) or weight <= 0:
            raise PolicyRequestError("weight must be a finite number > 0")
        priority_class = payload.get("priority_class", 0)
        if not _is_int(priority_class):
            raise PolicyRequestError("priority_class must be an integer")
        max_bytes: Optional[float] = payload.get("max_bytes")
        if max_bytes is not None:
            if not isinstance(max_bytes, (int, float)):
                raise PolicyRequestError("max_bytes must be a number or null")
            max_bytes = _finite_nonneg(max_bytes, "max_bytes")
        caps: dict[str, Optional[int]] = {}
        for name in ("max_streams", "max_concurrent"):
            value = payload.get(name)
            if value is not None and (not _is_int(value) or value < 1):
                raise PolicyRequestError(f"{name} must be an integer >= 1 or null")
            caps[name] = value
        self.service.register_tenant(
            tenant,
            weight=float(weight),
            priority_class=priority_class,
            max_bytes=max_bytes,
            max_streams=caps["max_streams"],
            max_concurrent=caps["max_concurrent"],
        )
        return {"tenant": tenant, "registered": True}

    def unregister_tenant(self, payload: dict) -> dict:
        tenant = _require(payload, "tenant")
        return {"tenant": tenant, "removed": self.service.unregister_tenant(tenant)}

    def bind_workflow(self, payload: dict) -> dict:
        workflow = _require(payload, "workflow")
        tenant = _require(payload, "tenant")
        try:
            self.service.bind_workflow(workflow, tenant)
        except RuntimeError as exc:
            raise PolicyRequestError(str(exc)) from exc
        return {"workflow": workflow, "tenant": tenant, "bound": True}

    def tenants(self) -> dict:
        return {"tenants": self.service.tenants()}

    # -- workflows ----------------------------------------------------------
    def register_priorities(self, payload: dict) -> dict:
        workflow = _require(payload, "workflow")
        priorities = _require(payload, "priorities", (dict,))
        for job, value in priorities.items():
            if not isinstance(value, int):
                raise PolicyRequestError(f"priority for {job!r} must be an integer")
        count = self.service.register_priorities(workflow, priorities)
        return {"workflow": workflow, "registered": count}

    def unregister_workflow(self, payload: dict) -> dict:
        workflow = _require(payload, "workflow")
        retain = payload.get("retain_staged", False)
        if not isinstance(retain, bool):
            raise PolicyRequestError("retain_staged must be a boolean")
        self.service.unregister_workflow(workflow, retain_staged=retain)
        return {"workflow": workflow, "unregistered": True}

    # -- status ---------------------------------------------------------------
    def status(self) -> dict:
        return self.service.snapshot()

    def metrics_text(self) -> str:
        """Prometheus text exposition of the service's metrics registry."""
        return self.service.metrics_text()
