"""SEC004 positive corpus: guarded writes outside the declared lock.

The class names here match the default lock-guard declarations
(:class:`repro.analysis.config.AnalysisConfig.lock_guards`), exactly as
the real classes in the tree do.
"""

import threading
from collections import OrderedDict


class SessionRegistry:
    def __init__(self):
        self._lock = threading.Lock()
        self._states = OrderedDict()
        self.resident_bytes = 0
        self.evictions = 0

    def save(self, key, state):
        self._states[key] = state  # EXPECT: SEC004

    def bump(self):
        self.evictions += 1  # EXPECT: SEC004

    def forget(self, key):
        self._states.pop(key, None)  # EXPECT: SEC004

    def half_guarded(self, key):
        with self._lock:
            self._states[key] = object()
        self.resident_bytes -= 1  # EXPECT: SEC004

    def wrong_lock(self, key):
        with self.other_lock:
            self._states[key] = object()  # EXPECT: SEC004


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount=1):
        self._value += amount  # EXPECT: SEC004


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._totals = {}

    def record(self, name):
        self._totals[name] = self._totals.get(name, 0) + 1  # EXPECT: SEC004


class ServerSupervisor:
    def __init__(self):
        self._lock = threading.Lock()
        self._child = None
        self._stopping = False
        self._gave_up = False
        self._restarts = 0

    def give_up(self):
        self._gave_up = True  # EXPECT: SEC004

    def stop(self):
        with self._lock:
            self._stopping = True
        self._child = None  # EXPECT: SEC004

    def restart(self, child):
        self._restarts += 1  # EXPECT: SEC004


class MetricsRegistry:
    def __init__(self):
        self._lock = threading.Lock()
        self._metrics = OrderedDict()
        self._kinds = {}

    def register(self, name, instrument):
        self._metrics[name] = instrument  # EXPECT: SEC004

    def unregister(self, name):
        self._kinds.pop(name, None)  # EXPECT: SEC004
