"""Tests for the discrete-event simulator core."""

import pytest

from repro.runtime.events import Event, EventQueue
from repro.runtime import simulator
from repro.runtime.simulator import SimNode, Simulator
from tests.network.shapes import line, ring


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        order = []
        q.push(2.0, lambda: order.append("b"))
        q.push(1.0, lambda: order.append("a"))
        q.push(3.0, lambda: order.append("c"))
        while q:
            q.pop().action()
        assert order == ["a", "b", "c"]

    def test_ties_resolve_in_schedule_order(self):
        q = EventQueue()
        order = []
        q.push(1.0, lambda: order.append(1))
        q.push(1.0, lambda: order.append(2))
        q.pop().action()
        q.pop().action()
        assert order == [1, 2]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, lambda: None)



class _Recorder(SimNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = []

    def on_message(self, src, message):
        assert self.sim is not None
        self.received.append((self.sim.now, src, message))


class _Echo(SimNode):
    def on_message(self, src, message):
        if message == "ping":
            self.send(src, "pong")


class TestSimulator:
    def test_message_delay_follows_network(self):
        net = line(3, delay=0.01)
        sim = Simulator(net)
        recv = _Recorder(2)
        sim.register(_Recorder(0))
        sim.register(_Recorder(1))
        sim.register(recv)
        sim.send(0, 2, "hello")
        sim.run()
        assert [t for t, _, _ in recv.received] == [pytest.approx(0.02)]

    def test_request_response_round_trip(self):
        net = line(2, delay=0.005)
        sim = Simulator(net)
        a = _Recorder(0)
        sim.register(a)
        sim.register(_Echo(1))
        sim.send(0, 1, "ping")
        sim.run()
        assert a.received[0][2] == "pong"
        assert a.received[0][0] == pytest.approx(0.01)

    def test_self_send_zero_delay(self):
        net = line(2)
        sim = Simulator(net)
        a = _Recorder(0)
        sim.register(a)
        sim.register(_Recorder(1))
        sim.send(0, 0, "self")
        sim.run()
        assert a.received[0][0] == 0.0

    def test_schedule_local_work(self):
        net = line(2)
        sim = Simulator(net)
        fired = []
        sim.schedule(0.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.5]

    def test_duplicate_registration_rejected(self):
        net = line(2)
        sim = Simulator(net)
        sim.register(_Recorder(0))
        with pytest.raises(ValueError):
            sim.register(_Recorder(0))

    def test_send_to_unregistered_node(self):
        net = line(2)
        sim = Simulator(net)
        sim.register(_Recorder(0))
        with pytest.raises(KeyError):
            sim.send(0, 1, "x")

    def test_runaway_guard(self, monkeypatch):
        monkeypatch.setattr(simulator, "MAX_EVENTS", 100)
        net = ring(3)
        sim = Simulator(net)

        class Bouncer(SimNode):
            def on_message(self, src, message):
                self.send(src, message)  # ping-pong forever

        sim.register(Bouncer(0))
        sim.register(Bouncer(1))
        sim.register(Bouncer(2))
        sim.send(0, 1, "go")
        with pytest.raises(RuntimeError, match="runaway"):
            sim.run()
