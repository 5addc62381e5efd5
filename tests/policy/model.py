"""A plain-dict reference model of policy memory: the paper's Tables I-III.

The model knows no rule engine, no salience and no fact ids.  It states
what the shipped rule packs promise, one call at a time:

* Table I — a batch keeps the first request per ``(lfn, dst_url)``; a
  file already ``staged`` is skipped and one another transfer is staging
  is waited for, both making the requester a *reader* of the staged
  file; a cleanup detaches its workflow and deletes only a file no
  reader is left on.  While a delete of the url is outstanding, a second
  one is skipped, every transfer into the url waits (duplicates
  included) and the file reads ``"deleting"``;
* Tables II and III — grants against a ledger per host pair (greedy,
  ``pair_thresholds`` over ``max_streams``) or per (pair, cluster)
  (balanced, ``cluster_threshold``), by
  :func:`repro.policy.allocation.greedy_allocate`: the request if it
  fits, the rest below the threshold if not, one stream once it is
  reached;
* leases — every sweeping call first fails each grant past its deadline,
  which releases both ledgers like a reported failure;
* tenants — a transfer is clamped to what is left of its tenant's stream
  budget (one stream when nothing is), and refunded what its ledger did
  not grant;
* the catalog — completed transfers register replicas, a cleanup of a
  replica on a site under budget is retained, and a site over budget
  evicts its least recently used unpinned replicas without a reader.

Transfers and cleanups are keyed by the model's own sequence numbers,
so the machine that drives it maps them to each system's ids.
"""

from __future__ import annotations

from collections import Counter

from repro.policy.allocation import greedy_allocate

#: advice action -> the ``event`` label the service counts it under
EVENTS = {"transfer": "approved", "skip": "skipped", "wait": "waited", "deny": "denied",
          "delete": "approved"}


def host(url: str) -> str:
    return url.split("://", 1)[1].split("/", 1)[0]


class Refused(Exception):
    """The call must raise in every system and change nothing."""


class PolicyModel:
    def __init__(self, policy="greedy", default_streams=4, max_streams=10,
                 pair_thresholds=None, cluster_count=2, cluster_threshold=None,
                 lease_seconds=40.0, tenants=None, capacity=None, catalog=False):
        self.policy, self.default_streams = policy, default_streams
        self.max_streams, self.pair_thresholds = max_streams, dict(pair_thresholds or {})
        self.cluster_share = cluster_threshold or max(1, max_streams // cluster_count)
        self.lease_seconds, self.catalog, self.capacity = lease_seconds, catalog, capacity
        self.inflight: dict[int, dict] = {}       # transfer key -> grant
        self.staged: dict[tuple, dict] = {}       # (lfn, url) -> status, users, owner
        self.ledger: dict[tuple, int] = {}        # pair or (pair, cluster) -> streams
        self.tenants = {name: 0 for name in (tenants or {})}  # tenant -> streams held
        self.budgets = dict(tenants or {})
        self.bindings: dict[str, str] = {}        # workflow -> tenant
        self.denied: dict[str, int] = {}          # host -> denials
        self.deleting: dict[int, dict] = {}       # cleanup key -> url, deadline
        self.replicas: dict[str, dict] = {}       # url -> lfn, nbytes, last_used, pins
        self.used = 0.0                           # the one site's catalog bytes
        self.finished: dict[int, str] = {}        # transfer key -> done / failed
        self.counts: Counter = Counter()          # ("transfers" | "cleanups", event)
        self._keys = 0

    def _key(self) -> int:
        self._keys += 1
        return self._keys

    # ------------------------------------------------------------------ ledgers
    def _budget(self, grant: dict):
        """The ledger a grant counts against and its threshold (None: fifo)."""
        pair = (grant["src_host"], grant["dst_host"])
        if self.policy == "greedy":
            return pair, self.pair_thresholds.get(pair, self.max_streams)
        if self.policy == "balanced":
            return (pair, grant["cluster"]), self.cluster_share
        return None, None

    def _finish(self, key: int, outcome: str) -> None:
        grant = self.inflight.pop(key)
        self.finished[key] = outcome
        if grant["tenant"] in self.tenants:
            self.tenants[grant["tenant"]] = max(0, self.tenants[grant["tenant"]] - grant["reserved"])
        if grant["ledger"] in self.ledger:
            self.ledger[grant["ledger"]] = max(0, self.ledger[grant["ledger"]] - grant["streams"])
        file = self.staged.get((grant["lfn"], grant["url"]))
        if file is not None and file["status"] == "staging":
            if outcome == "done":
                file["status"] = "staged"
            elif file["owner"] == key:
                del self.staged[(grant["lfn"], grant["url"])]

    def sweep(self, now: float) -> None:
        """The lease sweep every throttled call starts with."""
        if self.lease_seconds is None:
            return
        for key in sorted(k for k, g in self.inflight.items() if g["deadline"] <= now):
            self._finish(key, "failed")
            self.counts["transfers", "reaped"] += 1
        for key in [k for k, c in self.deleting.items() if c["deadline"] <= now]:
            del self.deleting[key]
            self.counts["cleanups", "reaped"] += 1

    # ------------------------------------------------------------------ transfers
    def submit(self, workflow, job, specs, now):
        """Advice per spec, in order: ``(key or None, action, streams)``."""
        self.sweep(now)
        for spec in specs:
            if "src_url" not in spec or "dst_url" not in spec or "lfn" not in spec:
                raise Refused(spec)
        # A wait for a url being deleted first (it is decided on insertion),
        # then denied hosts, then the first request per file in the batch.
        items, first, deleting = [], set(), self._deleting_urls()
        for spec in specs:
            file = (spec["lfn"], spec["dst_url"])
            item = {"file": file, "spec": spec, "action": "transfer", "key": self._key()}
            if spec["dst_url"] in deleting:
                item["action"] = "wait"
            elif host(spec["src_url"]) in self.denied or host(spec["dst_url"]) in self.denied:
                item["action"] = "deny"
            elif file in first:
                item["action"] = "skip"
            else:
                first.add(file)
            items.append(item)
        # Already staged: skip.  Staging by another transfer: wait.  Both
        # make the workflow a reader.
        live = [item for item in items if item["action"] == "transfer"]
        for item in live:
            staged = self.staged.get(item["file"])
            if staged is not None and staged["status"] == "staged":
                item["action"] = "skip"
                staged["users"].add(workflow)
                if item["file"][1] in self.replicas:
                    self.replicas[item["file"][1]]["last_used"] = now
        for item in live:
            if item["action"] == "transfer" and item["file"] in self.staged and self._in_flight(item["file"]):
                item["action"] = "wait"
                self.staged[item["file"]]["users"].add(workflow)
        # A new resource, owned by the request; a transfer still in flight
        # into a file whose resource is gone turns the request into a wait.
        for item in live:
            if item["action"] == "transfer" and item["file"] not in self.staged:
                self.staged[item["file"]] = {"status": "staging", "users": {workflow}, "owner": item["key"]}
                if self._in_flight(item["file"]):
                    item["action"] = "wait"
        for item in live:
            if item["action"] == "transfer":
                self.staged[item["file"]]["users"].add(workflow)
        # Streams: the request (at least one), clamped to the tenant's
        # budget for the whole batch, then granted against the ledger in
        # batch order, the tenant refunded what the ledger did not grant.
        granted = [item for item in live if item["action"] == "transfer"]
        for item in granted:
            spec = item["spec"]
            requested = spec.get("streams", self.default_streams)
            item["grant"] = {
                "lfn": spec["lfn"], "url": spec["dst_url"], "workflow": workflow,
                "src_host": host(spec["src_url"]), "dst_host": host(spec["dst_url"]),
                "cluster": spec.get("cluster", job), "nbytes": float(spec.get("nbytes", 0.0)),
                "requested": max(1, requested), "tenant": self.bindings.get(workflow),
                "reserved": 0, "deadline": now + (self.lease_seconds or 0.0),
                "floor": False, "tenant_floor": False, "departed": False,
            }
        for item in granted:
            grant = item["grant"]
            budget = self.budgets.get(grant["tenant"])
            if budget is not None:
                left = budget - self.tenants[grant["tenant"]]
                grant["requested"] = grant["reserved"] = max(1, min(grant["requested"], left))
                grant["tenant_floor"] = left < 1
                self.tenants[grant["tenant"]] += grant["reserved"]
        for item in granted:
            grant = item["grant"]
            ledger, threshold = grant["ledger"], grant["threshold"] = self._budget(grant)
            if ledger is None:
                grant["streams"] = grant["requested"]
            else:
                held = self.ledger.get(ledger, 0)
                grant["streams"] = greedy_allocate(grant["requested"], held, threshold)
                grant["floor"] = held >= threshold
                self.ledger[ledger] = held + grant["streams"]
                if grant["tenant"] in self.budgets and grant["reserved"] > grant["streams"]:
                    self.tenants[grant["tenant"]] -= grant["reserved"] - grant["streams"]
                    grant["reserved"] = grant["streams"]
            self.inflight[item["key"]] = grant
        self.counts["transfers", "submitted"] += len(items)
        self.counts.update(("transfers", EVENTS[item["action"]]) for item in items)
        return [
            (item["key"] if item["action"] == "transfer" else None, item["action"],
             item["grant"]["streams"] if item["action"] == "transfer" else None)
            for item in items
        ]

    def _deleting_urls(self) -> set:
        return {c["url"] for c in self.deleting.values()}

    def _in_flight(self, file) -> bool:
        return any((g["lfn"], g["url"]) == file for g in self.inflight.values())

    def complete(self, done, failed, now) -> int:
        self.sweep(now)
        outcomes, registered = {}, []
        for keys, outcome in ((done, "done"), (failed, "failed")):
            for key in keys:
                if key in self.inflight and key not in outcomes:
                    outcomes[key] = outcome
                    if outcome == "done":
                        grant = self.inflight[key]
                        registered.append((grant["lfn"], grant["url"], grant["nbytes"]))
        for key in sorted(outcomes):
            self._finish(key, outcomes[key])
        if self.catalog:
            for lfn, url, nbytes in registered:
                self._register(lfn, url, nbytes, now)
            self._evict()
        return len(outcomes)

    def state(self, key, now) -> str:
        self.sweep(now)
        if key in self.inflight:
            return "in_progress"
        return self.finished.get(key, "unknown")

    def staging_state(self, lfn, url, now) -> str:
        self.sweep(now)
        if url in self._deleting_urls():
            return "deleting"
        file = self.staged.get((lfn, url))
        return "unknown" if file is None else file["status"]

    # ------------------------------------------------------------------ cleanups
    def readers(self, url: str) -> set:
        return {w for (_lfn, u), file in self.staged.items() if u == url for w in file["users"]}

    def cleanup(self, workflow, files, now):
        """Advice per file, in order: ``(key or None, action)``."""
        self.sweep(now)
        if any(len(f) != 2 for f in files):
            raise Refused(files)
        items = [{"url": url, "status": "new"} for _lfn, url in files]
        deleting = self._deleting_urls()
        for item in items:
            if item["url"] in deleting:
                item["status"] = "skip"
        for item in items:
            if item["status"] == "new":
                for (_lfn, url), file in self.staged.items():
                    if url == item["url"] and workflow in file["users"]:
                        file["users"].discard(workflow)
                        item["status"] = "detached"
                        break
        for grant in self.inflight.values():  # the workflow gives up its claims
            if grant["workflow"] == workflow and any(grant["url"] == url for _lfn, url in files):
                grant["departed"] = True
        approved: set = set()
        for item in items:
            if item["status"] == "skip":
                continue
            if self.readers(item["url"]):
                item["status"] = "skip"
            elif item["url"] in self.replicas and (self.capacity is None or self.used <= self.capacity):
                item["status"] = "skip"
            elif item["status"] == "new" and item["url"] in approved:
                item["status"] = "skip"
            else:
                approved.add(item["url"])
                item["key"] = self._key()
                self.deleting[item["key"]] = {"url": item["url"], "deadline": now + (self.lease_seconds or 0.0)}
        advice = [(item.get("key"), "delete" if "key" in item else "skip") for item in items]
        self.counts["cleanups", "submitted"] += len(items)
        self.counts.update(("cleanups", EVENTS[action]) for _key, action in advice)
        return advice

    def cleaned(self, keys, now) -> int:
        self.sweep(now)
        acknowledged = 0
        for key in sorted(set(keys)):
            if key in self.deleting:
                url = self.deleting.pop(key)["url"]
                for file in [f for f in self.staged if f[1] == url]:
                    del self.staged[file]
                if url in self.replicas:
                    self.used = max(0.0, self.used - self.replicas.pop(url)["nbytes"])
                acknowledged += 1
        return acknowledged

    # ------------------------------------------------------------------ everything else
    def reconcile(self, workflow, files, now):
        if any(len(f) not in (2, 3) for f in files):
            raise Refused(files)
        registered = joined = 0
        for lfn, url, *size in files:
            file = self.staged.get((lfn, url))
            if file is None:
                self.staged[(lfn, url)] = {"status": "staged", "users": {workflow}, "owner": 0}
                registered += 1
            else:
                file["status"] = "staged"
                file["users"].add(workflow)
                joined += 1
            if self.catalog:
                self._register(lfn, url, float(size[0]) if size else 0.0, now)
        return {"registered": registered, "joined": joined}

    def unregister(self, workflow, retain) -> None:
        for grant in self.inflight.values():
            if grant["workflow"] == workflow:
                grant["departed"] = True
        for file in list(self.staged):
            users = self.staged[file]["users"]
            if workflow in users:
                users.discard(workflow)
                if not users and not (retain or file[1] in self.replicas):
                    del self.staged[file]
        self.bindings.pop(workflow, None)

    def deny(self, name) -> None:
        self.denied[name] = self.denied.get(name, 0) + 1

    def allow(self, name) -> int:
        return self.denied.pop(name, 0)

    def bind(self, workflow, tenant) -> None:
        if tenant not in self.tenants:
            raise Refused(tenant)
        self.bindings[workflow] = tenant

    def pin(self, url, pinned) -> int:
        if url not in self.replicas:
            raise Refused(url)
        replica = self.replicas[url]
        replica["pins"] = replica["pins"] + 1 if pinned else max(0, replica["pins"] - 1)
        return replica["pins"]

    def _register(self, lfn, url, nbytes, now) -> None:
        replica = self.replicas.setdefault(url, {"lfn": lfn, "nbytes": 0.0, "pins": 0})
        self.used += nbytes - replica["nbytes"]
        replica.update(nbytes=nbytes, last_used=now)

    def _evict(self) -> None:
        if self.capacity is None or self.used <= self.capacity:
            return
        freed = 0.0
        order = sorted(self.replicas.items(), key=lambda r: (r[1]["last_used"], r[1]["lfn"], r[0]))
        for url, replica in order:
            if self.used - freed <= self.capacity:
                break
            if replica["pins"] or self.readers(url) or any(
                f[1] == url and s["status"] == "staging" for f, s in self.staged.items()
            ):
                continue
            freed += replica["nbytes"]
            for file in [f for f in self.staged if f[1] == url]:
                del self.staged[file]
            del self.replicas[url]
        self.used = max(0.0, self.used - freed)
