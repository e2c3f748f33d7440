"""Per-tenant session state: named, resumable sessions and warm caches.

The gateway's performance story is the same as the in-process one — the
:class:`~repro.kernel.caches.KernelCaches` content-keyed warm starts — made
durable across HTTP requests.  Each tenant owns exactly one
:class:`KernelCaches` store; every :class:`~repro.api.session.Session` the
gateway materialises for that tenant adopts it, so the second submission of
a similar spec resumes from warm table slices and solver memos no matter
which named session (or none) it lands on.

Named sessions add spec-level reuse on top: submitting with
``{"session": "warm-1"}`` keeps the materialised ``Session`` object —
platform and resolved tables included — alive under that name, so repeat
submissions of the *same* spec skip table resolution entirely.  A named
session whose spec changes is transparently rebuilt (the caches persist;
they are keyed by content, not by name).  Fresh sessions, anonymous ones
included, resolve named and DSE table sets through the per-process memo of
:func:`repro.dse.tables.design_tables`, so no submission re-runs the DSE.

Tenants are isolated from each other by construction: nothing in one
tenant's caches is reachable from another's.  Every tenant's
:class:`KernelCaches` stays in process; a gateway configured with a
persistent :class:`~repro.store.ContentStore` uses it only behind the
activation memo of batch submissions (see
:class:`~repro.gateway.server.GatewayServer`), where entries are keyed
purely by problem content, never by tenant.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any


@dataclass
class TenantState:
    """Everything the gateway keeps for one tenant."""

    name: str
    kernel_caches: Any = None  # KernelCaches, built lazily
    #: Named sessions: name → (spec, Session), LRU-bounded.
    sessions: OrderedDict = field(default_factory=OrderedDict)
    lock: threading.Lock = field(default_factory=threading.Lock)


class SessionStore:
    """Thread-safe registry of :class:`TenantState` keyed by tenant name.

    ``session_for`` is called from executor threads (one per in-flight
    run), so every mutation happens under the tenant's lock; the returned
    ``Session`` objects are themselves safe for the gateway's use because
    each ``run`` builds a fresh manager and the shared ``KernelCaches`` is
    thread-safe by design.
    """

    #: Named sessions kept per tenant before the least recently used drops.
    MAX_NAMED_SESSIONS = 32

    def __init__(self) -> None:
        self._tenants: dict[str, TenantState] = {}
        self._lock = threading.Lock()

    def tenant(self, name: str) -> TenantState:
        """The (created-on-first-use) state of one tenant."""
        with self._lock:
            state = self._tenants.get(name)
            if state is None:
                state = self._tenants[name] = TenantState(name=name)
            return state

    def tenants(self) -> list[str]:
        """Names of every tenant seen so far (sorted, for /metrics)."""
        with self._lock:
            return sorted(self._tenants)

    def caches_for(self, tenant: str):
        """The tenant's shared :class:`KernelCaches` (built on first use)."""
        state = self.tenant(tenant)
        with state.lock:
            if state.kernel_caches is None:
                from repro.kernel.caches import KernelCaches

                state.kernel_caches = KernelCaches()
            return state.kernel_caches

    def session_for(self, tenant: str, session_name: str | None, spec):
        """A :class:`~repro.api.session.Session` for one submission.

        Anonymous submissions get a fresh session wired to the tenant's
        warm caches.  Named submissions reuse the stored session when its
        spec matches (specs are frozen dataclasses, so equality is
        structural); otherwise the name is rebound to a new session.
        """
        from repro.api.session import Session

        caches = self.caches_for(tenant)
        if session_name is None:
            return Session.from_spec(spec, kernel_caches=caches)
        state = self.tenant(tenant)
        with state.lock:
            entry = state.sessions.get(session_name)
            if entry is not None and entry[0] == spec:
                state.sessions.move_to_end(session_name)
                return entry[1]
            session = Session.from_spec(spec, kernel_caches=caches)
            state.sessions[session_name] = (spec, session)
            state.sessions.move_to_end(session_name)
            while len(state.sessions) > self.MAX_NAMED_SESSIONS:
                state.sessions.popitem(last=False)
            return session

    def named_sessions(self, tenant: str) -> list[str]:
        """The live named sessions of one tenant (oldest first)."""
        state = self.tenant(tenant)
        with state.lock:
            return list(state.sessions)


__all__ = ["SessionStore", "TenantState"]
