"""The Policy Controller: request validation and translation.

In the paper's architecture the Policy Controller "manages communication
between the web interface and the policy engine".  Here it is the layer
that accepts JSON-able dict payloads (from the REST frontend or any other
transport), validates them, delegates to :class:`PolicyService`, and
returns JSON-able dict responses.

:data:`ROUTES` is the one declaration of the wire surface.  Each
:class:`Route` names an operation's verb and path, its request fields
(how each is checked, what it defaults to, which service argument it
becomes) and the envelope its response travels in; the controller's
handlers, both clients' methods and the shard router's broadcasts are
generated from it.  Adding an endpoint is one entry here plus the
service method (plus a router method when the operation is keyed).
"""

from __future__ import annotations

import json
import math
from functools import partial
from typing import Any, Callable, NamedTuple, Optional
from urllib.parse import quote, unquote

from repro.net.urls import parse_url
from repro.policy.model import CleanupAdvice, TransferAdvice
from repro.policy.service import PolicyRefusedError, PolicyService

__all__ = [
    "REQUIRED", "ROUTES", "Field", "PolicyController", "PolicyRequestError", "PolicyRouteError",
    "Route",
]


class PolicyRequestError(ValueError):
    """A malformed request payload (maps to HTTP 400)."""


class PolicyRouteError(LookupError):
    """Nothing to answer with: 404 (unknown path or record), or 405 with
    the verbs the path does accept in ``allow``."""

    def __init__(self, status: int, message: str, allow: tuple = ()):
        super().__init__(message)
        self.status = status
        self.allow = allow


# ---------------------------------------------------------------- checks
# A check is ``check(value, where) -> value``: it returns the value the
# service takes, or raises PolicyRequestError naming ``where``.
def _typed(value: Any, where: str, kind: type) -> Any:
    if not isinstance(value, kind):
        raise PolicyRequestError(
            f"field {where!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _str(value: Any, where: str) -> str:
    return _typed(value, where, str)


def _nonempty(value: Any, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise PolicyRequestError(f"{where} must be a non-empty string")
    return value


def _url(value: Any, where: str) -> str:
    try:
        parse_url(_str(value, where))
    except ValueError as exc:
        raise PolicyRequestError(f"{where}: {exc}") from exc
    return value


def _int(value: Any, where: str, minimum: Optional[int] = None) -> int:
    """A JSON integer: ``true``/``false`` decode to ``bool``, an ``int``
    subclass, and would pass a bare ``isinstance(value, int)``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise PolicyRequestError(f"{where} must be an integer")
    if minimum is not None and value < minimum:
        raise PolicyRequestError(f"{where} must be an integer >= {minimum}")
    return value


def _number(value: Any, where: str, positive: bool = False) -> float:
    """Reject NaN/inf: ``json.loads`` happily parses ``NaN`` and
    ``Infinity``, and ``NaN < 0`` is False — so a plain ``< 0`` guard lets
    a poisoned quota into policy memory."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        number = float(value) if is_number else math.nan
    except OverflowError:  # an integer beyond any float
        number = math.inf
    if not math.isfinite(number) or number < 0 or (positive and number == 0):
        raise PolicyRequestError(
            f"{where} must be a finite number {'> 0' if positive else '>= 0'}"
        )
    return number


_positive_int = partial(_int, minimum=1)
_positive_number = partial(_number, positive=True)


def _bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise PolicyRequestError(f"{where} must be a boolean")
    return value


def _one_of(*options: str) -> Callable:
    def check(value: Any, where: str) -> str:
        if value not in options:
            raise PolicyRequestError(f"{where} must be {'/'.join(options)}")
        return value

    return check


def _nullable(check: Callable) -> Callable:
    return lambda value, where: None if value is None else check(value, where)


def _object_of(check: Callable) -> Callable:
    def checked(value: Any, where: str) -> dict:
        return {
            key: check(item, f"{where}[{key!r}]")
            for key, item in _typed(value, where, dict).items()
        }

    return checked


def _list_of(check: Callable) -> Callable:
    def checked(value: Any, where: str) -> list:
        return [
            check(entry, f"{where}[{idx}]")
            for idx, entry in enumerate(_typed(value, where, list))
        ]

    return checked


#: :attr:`Field.default` of a field the request must carry
REQUIRED: Any = object()
#: :attr:`Field.default` of an optional record member that stays absent:
#: the service has its own fallback (``spec.get("cluster", job)``)
OMIT: Any = object()


class Field(NamedTuple):
    """One request field: its wire key, its check, what it is when the
    request omits it, and the service keyword it is passed as where that
    is not the wire key."""

    name: str
    check: Callable[[Any, str], Any]
    default: Any = REQUIRED
    arg: str = ""


def _check_members(fields: tuple, doc: Any, prefix: str = "") -> dict:
    """Every declared member of the JSON object ``doc``, checked."""
    if not isinstance(doc, dict):
        raise PolicyRequestError(
            f"{prefix or 'payload'} must be an object, got {type(doc).__name__}"
        )
    checked = {}
    for field in fields:
        where = f"{prefix}.{field.name}" if prefix else field.name
        if field.name in doc:
            checked[field.name] = field.check(doc[field.name], where)
        elif field.default is REQUIRED:
            raise PolicyRequestError(f"missing required field {where!r}")
        elif field.default is not OMIT:
            checked[field.name] = field.default
    return checked


class _Records:
    """A JSON array of objects with declared members.  The service takes
    each as a dict, or — ``as_tuple`` — as the tuple of its non-null
    members (``(lfn, url[, nbytes])``); :meth:`to_wire` is the way back."""

    def __init__(self, *fields: Field, as_tuple: bool = False):
        self.fields = fields
        self.as_tuple = as_tuple
        self._check = _list_of(partial(_check_members, fields))

    def __call__(self, value: Any, where: str) -> list:
        records = self._check(value, where)
        if self.as_tuple:
            return [tuple(v for v in r.values() if v is not None) for r in records]
        return records

    def to_wire(self, items) -> list:
        if self.as_tuple:
            names = [field.name for field in self.fields]
            return [dict(zip(names, item)) for item in items]
        return list(items)


_TRANSFERS = _Records(
    Field("lfn", _str),
    Field("src_url", _url),
    Field("dst_url", _url),
    Field("nbytes", _number, OMIT),
    Field("streams", _nullable(_positive_int), OMIT),
    Field("priority", _int, OMIT),
    Field("cluster", _str, OMIT),
)
_FILES = _Records(Field("lfn", _str), Field("url", _url), as_tuple=True)
_SIZED_FILES = _Records(
    *_FILES.fields, Field("nbytes", _nullable(_number), OMIT), as_tuple=True
)
_WORKFLOW = Field("workflow", _str)


class Route(NamedTuple):
    """One operation of the wire surface.

    ``path`` may end in one typed segment, ``<name:int>`` or
    ``<name:str>``, whose decoded value is the route's single field;
    otherwise a GET takes none and a POST the JSON body.  ``op`` names
    the method on :class:`PolicyController` and on both clients,
    ``service_op`` the service method behind it where that is named
    differently.  ``fields`` are in the service method's positional
    order.

    The response repeats the request fields named in ``echo`` and
    carries the service's value under ``result`` (``advice`` is the
    class of an advice list's items), or ``true`` under ``ack`` when the
    service returns nothing; with none of the three the value *is* the
    response.  ``broadcast`` marks an admin mutation the shard router
    applies to every shard unchanged.
    """

    verb: str
    path: str
    op: str
    fields: tuple = ()
    echo: tuple = ()
    result: str = ""
    ack: str = ""
    advice: Optional[type] = None
    service_op: str = ""
    broadcast: bool = False

    def url(self, arg=None) -> str:
        """The request path, ``arg`` quoted into the typed segment."""
        if arg is None:
            return self.path
        return self.path.partition("<")[0] + quote(str(arg), safe="")


ROUTES: tuple[Route, ...] = (
    Route("POST", "/policy/transfers", "submit_transfers",
          (_WORKFLOW, Field("job", _str), Field("transfers", _TRANSFERS)),
          echo=("workflow", "job"), result="advice", advice=TransferAdvice),
    Route("POST", "/policy/transfers/complete", "complete_transfers",
          (Field("done", _list_of(_int), ()), Field("failed", _list_of(_int), ()))),
    Route("GET", "/policy/transfers/<tid:int>", "transfer_state", (Field("tid", _int),),
          echo=("tid",), result="state"),
    Route("GET", "/policy/explain/<tid:int>", "explain", (Field("tid", _int),)),
    Route("POST", "/policy/staging", "staging_state",
          (Field("lfn", _str), Field("url", _url, arg="dst_url")),
          echo=("lfn", "url"), result="state"),
    Route("POST", "/policy/cleanups", "submit_cleanups",
          (_WORKFLOW, Field("job", _str), Field("files", _FILES)),
          echo=("workflow", "job"), result="advice", advice=CleanupAdvice),
    Route("POST", "/policy/cleanups/complete", "complete_cleanups",
          (Field("ids", _list_of(_int)),)),
    Route("POST", "/policy/staged/reconcile", "reconcile_staged",
          (_WORKFLOW, Field("files", _SIZED_FILES))),
    Route("POST", "/policy/priorities", "register_priorities",
          (_WORKFLOW, Field("priorities", _object_of(_int))),
          echo=("workflow",), result="registered", broadcast=True),
    Route("POST", "/policy/workflows/unregister", "unregister_workflow",
          (_WORKFLOW, Field("retain_staged", _bool, False)),
          echo=("workflow",), ack="unregistered"),
    Route("POST", "/policy/denials", "deny_host",
          (Field("host", _str), Field("direction", _one_of("src", "dst", "any"), "any"),
           Field("reason", _str, "")),
          echo=("host", "direction"), ack="denied", broadcast=True),
    Route("POST", "/policy/denials/remove", "allow_host", (Field("host", _str),),
          echo=("host",), result="removed", broadcast=True),
    Route("POST", "/policy/quotas", "set_quota",
          (_WORKFLOW, Field("max_bytes", _number)),
          echo=("workflow", "max_bytes"), broadcast=True),
    Route("POST", "/policy/tenants", "register_tenant",
          (Field("tenant", _nonempty),
           Field("weight", _positive_number, 1.0),
           Field("priority_class", _int, 0),
           Field("max_bytes", _nullable(_number), None),
           Field("max_streams", _nullable(_positive_int), None),
           Field("max_concurrent", _nullable(_positive_int), None)),
          echo=("tenant",), ack="registered", broadcast=True),
    Route("POST", "/policy/tenants/remove", "unregister_tenant", (Field("tenant", _str),),
          echo=("tenant",), result="removed", broadcast=True),
    Route("POST", "/policy/tenants/bind", "bind_workflow", (_WORKFLOW, Field("tenant", _str)),
          echo=("workflow", "tenant"), ack="bound", broadcast=True),
    Route("GET", "/policy/tenants", "tenants", result="tenants"),
    Route("GET", "/policy/catalog", "catalog_census"),
    Route("GET", "/policy/catalog/replicas/<lfn:str>", "catalog_replicas",
          (Field("lfn", _nonempty),), echo=("lfn",), result="replicas"),
    Route("POST", "/policy/catalog/sites", "set_site_capacity",
          (Field("site", _nonempty),
           Field("capacity_bytes", _nullable(_number), None))),
    Route("POST", "/policy/catalog/pins", "catalog_pin",
          (Field("url", _url), Field("pinned", _bool, True))),
    Route("GET", "/policy/status", "status", service_op="snapshot"),
    Route("GET", "/policy/metrics", "metrics_text"),
)

#: request path -> verb -> route; a typed route is keyed by the path up
#: to and including the "/" before its segment
_BY_PATH: dict[str, dict[str, Route]] = {}
for _route in ROUTES:
    _BY_PATH.setdefault(_route.path.partition("<")[0], {})[_route.verb] = _route


def _json_object(body: bytes) -> dict:
    try:
        doc = json.loads(body or b"{}")
    except json.JSONDecodeError as exc:
        raise PolicyRequestError(f"invalid JSON body: {exc}") from exc
    if not isinstance(doc, dict):
        raise PolicyRequestError("request body must be a JSON object")
    return doc


class PolicyController:
    """Dict-in / dict-out facade over a :class:`PolicyService`.

    One handler per :data:`ROUTES` operation, generated below the class:
    ``op(payload)`` for a POST, ``op(value)`` for a typed path segment,
    ``op()`` for a plain GET.
    """

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
            # anything but digits is left for the field's check to refuse
            result = handler(int(segment) if segment.isdigit() else segment)
        elif route.path.endswith(":str>"):
            result = handler(unquote(segment))
        elif verb == "GET":
            result = handler()
        else:
            result = handler(_json_object(body))
        if result is None:
            raise PolicyRouteError(404, f"no {route.op} record for {segment}")
        return result

    def _respond(self, route: Route, checked: dict):
        """Call the service with the checked fields; wrap its value in
        the route's envelope."""
        kwargs = {field.arg or field.name: checked[field.name] for field in route.fields}
        try:
            value = getattr(self.service, route.service_op or route.op)(**kwargs)
        except PolicyRefusedError as exc:
            raise PolicyRequestError(str(exc.args[0])) from exc
        if route.advice is not None:
            value = [item.to_dict() for item in value]
        doc = {name: checked[name] for name in route.echo}
        if route.result:
            doc[route.result] = value
        elif route.ack:
            doc[route.ack] = True
        return doc or value  # no envelope declared: the value is the response


def _handler(route: Route):
    if route.path.endswith(">"):
        (field,) = route.fields

        def handler(self, value):
            return self._respond(route, {field.name: field.check(value, field.name)})
    elif route.verb == "GET":
        def handler(self):
            return self._respond(route, {})
    else:
        def handler(self, payload):
            return self._respond(route, _check_members(route.fields, payload))

    handler.__name__ = route.op
    handler.__qualname__ = f"PolicyController.{route.op}"
    handler.__doc__ = f"``{route.verb} {route.path}``, checked per :data:`ROUTES`."
    return handler


for _route in ROUTES:
    setattr(PolicyController, _route.op, _handler(_route))
