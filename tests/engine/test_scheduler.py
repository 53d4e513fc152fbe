"""Tests for the admission queue, its arrival order and shedding."""

import pytest

from repro.engine import Scheduler
from repro.engine.scheduler import SHED_DEADLINE, SHED_QUEUE_FULL
from repro.serving.arrivals import Request


def drain(scheduler, now=0.0):
    out = []
    while (request := scheduler.next_ready(now)) is not None:
        out.append(request.id)
    return out


class TestValidation:
    def test_bad_queue_bound_rejected(self):
        with pytest.raises(ValueError, match="max_queue"):
            Scheduler(max_queue=0)


class TestOrder:
    def test_dispatch_is_arrival_order(self):
        s = Scheduler()
        for request in [Request(2.0, 4, id=2), Request(0.0, 4, id=0), Request(1.0, 4, id=1)]:
            s.submit(request, now=request.arrival)
        assert drain(s, now=5.0) == [0, 1, 2]

    def test_priority_and_deadline_do_not_reorder(self):
        s = Scheduler(shed_on_deadline=False)
        s.submit(Request(0.0, 4, id=0, priority=0), now=0.0)
        s.submit(Request(1.0, 4, id=1, priority=5, deadline=2.0), now=1.0)
        s.submit(Request(1.0, 4, id=2, priority=9, deadline=1.5), now=1.0)
        assert drain(s, now=2.0) == [0, 1, 2]

    def test_requeued_request_keeps_its_arrival_position(self):
        s = Scheduler()
        s.submit(Request(1.0, 4, id=1), now=1.0)
        s.submit(Request(2.0, 4, id=2), now=2.0)
        s.requeue(Request(0.5, 4, id=0))
        assert drain(s, now=3.0) == [0, 1, 2]


class TestShedding:
    def test_queue_bound_sheds_with_backpressure_reason(self):
        s = Scheduler(max_queue=2)
        assert s.submit(Request(0.0, 4, id=0), now=0.0) is None
        assert s.submit(Request(0.0, 4, id=1), now=0.0) is None
        record = s.submit(Request(0.0, 4, id=2), now=0.0)
        assert record is not None and record.reason == SHED_QUEUE_FULL
        assert [r.request.id for r in s.shed] == [2]
        assert s.depth == 2

    def test_requeue_bypasses_the_bound(self):
        """Preempted requests must never bounce off a full queue — that
        would turn preemption into silent request loss."""
        s = Scheduler(max_queue=1)
        s.submit(Request(0.0, 4, id=0), now=0.0)
        s.requeue(Request(0.0, 4, id=1))
        assert s.depth == 2
        assert s.shed == []

    def test_expired_deadline_shed_at_dispatch(self):
        s = Scheduler()
        s.submit(Request(0.0, 4, id=0, deadline=1.0), now=0.0)
        s.submit(Request(0.0, 4, id=1), now=0.0)
        assert drain(s, now=2.0) == [1]
        assert [r.reason for r in s.shed] == [SHED_DEADLINE]

    def test_service_estimate_sheds_hopeless_requests_early(self):
        s = Scheduler(service_estimate=lambda r: 5.0)
        s.submit(Request(0.0, 4, id=0, deadline=2.0), now=0.0)  # 0 + 5 > 2
        s.submit(Request(0.0, 4, id=1, deadline=9.0), now=0.0)
        assert drain(s, now=0.0) == [1]
        assert s.shed[0].request.id == 0
        assert s.shed[0].reason == SHED_DEADLINE

    def test_shed_on_deadline_false_dispatches_late_requests(self):
        s = Scheduler(shed_on_deadline=False)
        s.submit(Request(0.0, 4, id=0, deadline=1.0), now=0.0)
        assert drain(s, now=2.0) == [0]
        assert s.shed == []
