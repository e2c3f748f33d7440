"""Gateway session state: named, resumable sessions over one set of warm caches.

The gateway's performance story is the same as the in-process one — the
:class:`~repro.kernel.caches.KernelCaches` content-keyed warm starts — made
durable across HTTP requests.  The daemon keeps exactly one
:class:`KernelCaches`; every :class:`~repro.api.session.Session` the gateway
materialises adopts it, so the second submission of a similar spec resumes
from warm table slices and solver memos whichever client sent it and
whichever named session (or none) it lands on.  Its memos are keyed by
problem content, so sharing them changes no result.

Named sessions add spec-level reuse on top: submitting with
``{"session": "warm-1"}`` keeps the materialised ``Session`` object —
platform and resolved tables included — alive under that name, so repeat
submissions of the *same* spec skip table resolution entirely.  A named
session whose spec changes is transparently rebuilt (the caches persist;
they are keyed by content, not by name).  The submission's tenant label
namespaces the names: sessions are keyed by ``(tenant, name)``, so two
clients that pick the same name never share a session.  Fresh sessions,
anonymous ones included, resolve named and DSE table sets through the
per-process memo of :func:`repro.dse.tables.design_tables`, so no
submission re-runs the DSE.

The :class:`KernelCaches` stays in process; a gateway configured with a
persistent :class:`~repro.store.ContentStore` uses it only behind the
activation memo of batch submissions (see
:class:`~repro.gateway.server.GatewayServer`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class SessionStore:
    """Thread-safe registry of named sessions over one :class:`KernelCaches`.

    ``session_for`` is called from executor threads (one per in-flight
    run), so the registry changes only under its lock; the returned
    ``Session`` objects are themselves safe for the gateway's use because
    each ``run`` builds a fresh manager and the shared ``KernelCaches`` is
    thread-safe by design.
    """

    #: Named sessions kept, over all tenants, before the least recently
    #: used drops.
    MAX_NAMED_SESSIONS = 32

    def __init__(self) -> None:
        from repro.kernel.caches import KernelCaches

        self.kernel_caches = KernelCaches()
        #: (tenant, name) → (spec, Session), least recently used first.
        self._sessions: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def session_for(self, tenant: str, session_name: str | None, spec):
        """A :class:`~repro.api.session.Session` for one submission.

        Anonymous submissions get a fresh session wired to the daemon's
        warm caches.  Named submissions reuse the stored session when its
        spec matches (specs are frozen dataclasses, so equality is
        structural); otherwise the name is rebound to a new session.
        """
        from repro.api.session import Session

        if session_name is None:
            return Session.from_spec(spec, kernel_caches=self.kernel_caches)
        key = (tenant, session_name)
        with self._lock:
            entry = self._sessions.get(key)
            if entry is not None and entry[0] == spec:
                self._sessions.move_to_end(key)
                return entry[1]
            session = Session.from_spec(spec, kernel_caches=self.kernel_caches)
            self._sessions[key] = (spec, session)
            self._sessions.move_to_end(key)
            while len(self._sessions) > self.MAX_NAMED_SESSIONS:
                self._sessions.popitem(last=False)
            return session

    def named_sessions(self, tenant: str) -> list[str]:
        """The live named sessions of one tenant (oldest first)."""
        with self._lock:
            return [name for owner, name in self._sessions if owner == tenant]


__all__ = ["SessionStore"]
