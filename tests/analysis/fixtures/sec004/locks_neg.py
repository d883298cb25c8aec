"""SEC004 negative corpus: the discipline done right."""

import threading
from collections import OrderedDict


class SessionRegistry:
    def __init__(self):
        # construction happens-before sharing: __init__ is exempt
        self._lock = threading.Lock()
        self._states = OrderedDict()
        self.resident_bytes = 0
        self.evictions = 0

    def save(self, key, state):
        with self._lock:
            self._states[key] = state
            self.resident_bytes += 1
            while len(self._states) > 4:
                self._evict_lru_locked()

    def _evict_lru_locked(self):
        # the *_locked suffix declares "caller holds the lock"
        self._states.popitem(last=False)
        self.evictions += 1

    def lookup(self, key):
        with self._lock:
            # reads are allowed anywhere; only writes are disciplined
            return self._states.get(key)

    def read_without_lock(self):
        return self.resident_bytes


class ServerSupervisor:
    def __init__(self):
        self._lock = threading.Lock()
        self._child = None
        self._stopping = False
        self._gave_up = False
        self._restarts = 0

    def restart(self, child):
        with self._lock:
            if not self._stopping:
                self._child = child
                self._restarts += 1

    def stop(self):
        with self._lock:
            self._shutdown_locked()

    def _shutdown_locked(self):
        self._stopping = True
        self._child = None

    def gave_up(self):
        return self._gave_up


class StateStore:
    def __init__(self):
        self._lock = threading.Lock()
        self._conn = object()

    def close(self):
        with self._lock:
            self._conn = None


class MetricsRegistry:
    def __init__(self):
        self._lock = threading.Lock()
        self._metrics = OrderedDict()
        self._kinds = {}

    def register(self, name, instrument):
        with self._lock:
            stored = self._metrics.setdefault(name, instrument)
            self._kinds[name] = type(instrument).__name__
            return stored


class Unrelated:
    """Same attribute names, undeclared class: not this rule's business."""

    def write(self):
        self._states = {}
        self.evictions = 0
