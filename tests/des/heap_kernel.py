"""A minimal one-heap DES kernel: the ordering oracle for ``repro.des``.

Every event goes through one binary heap of ``(time, priority, sequence,
event)`` entries, the design the kernel started from.  It implements just
what ``tests/des/test_lane_order.py`` drives (events, timeouts, processes,
``run``) so that the laned kernel can be checked against the plain
``(time, priority, sequence)`` order it claims to keep.
"""

from heapq import heappop, heappush

NORMAL = 1
URGENT = 0


class Event:
    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = None
        self._triggered = False
        self._defused = False

    @property
    def triggered(self):
        return self._triggered

    def _trigger(self, ok, value, priority=NORMAL, delay=0.0):
        self._triggered = True
        self._ok = ok
        self._value = value
        self.env._schedule(self, priority, delay)
        return self

    def succeed(self, value=None):
        assert not self._triggered
        return self._trigger(True, value)

    def fail(self, exception):
        assert not self._triggered
        return self._trigger(False, exception)

    def defuse(self):
        self._defused = True


class Process(Event):
    def __init__(self, env, generator):
        super().__init__(env)
        self._generator = generator
        kick = Event(env)
        kick.callbacks.append(self._resume)
        kick._trigger(True, None, URGENT)

    def _resume(self, event):
        try:
            if event._ok:
                result = self._generator.send(event._value)
            else:
                event._defused = True
                result = self._generator.throw(event._value)
        except StopIteration as stop:
            self._trigger(True, stop.value)
            return
        except BaseException as exc:
            self._trigger(False, exc)
            return
        if result.callbacks is None:
            follow = Event(self.env)
            follow._defused = not result._ok
            follow.callbacks.append(self._resume)
            follow._trigger(result._ok, result._value, URGENT)
        else:
            result.callbacks.append(self._resume)


class Environment:
    def __init__(self, initial_time=0.0):
        self.now = float(initial_time)
        self._queue = []
        self._seq = 0

    def event(self):
        return Event(self)

    def timeout(self, delay, value=None):
        return Event(self)._trigger(True, value, NORMAL, delay)

    def process(self, generator):
        return Process(self, generator)

    def _schedule(self, event, priority, delay):
        self._seq += 1
        heappush(self._queue, (self.now + delay, priority, self._seq, event))

    def step(self):
        self.now, _priority, _seq, event = heappop(self._queue)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event._defused:
            raise event._value

    def run(self, until=None):
        if until is None:
            while self._queue:
                self.step()
            return
        while self._queue and self._queue[0][0] <= until:
            self.step()
        self.now = max(self.now, until)
