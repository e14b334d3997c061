"""Unit tests for the message router."""

import pytest

from repro.machine.costs import Counts
from repro.machine.errors import CommError
from repro.machine.network import Message, Router


def msg(src, dst, tag=0, payload="x", words=1):
    return Message(
        source=src,
        dest=dst,
        tag=tag,
        payload=payload,
        words=words,
        clock=Counts(),
        incarnation=0,
    )


class TestRouterBasics:
    def test_post_collect(self):
        r = Router(2)
        r.post(msg(0, 1, tag=7, payload="hello"))
        got = r.take(1, 0, 7)
        assert got.payload == "hello"
        assert r.take(1, 0, 7) is None

    def test_matching_by_source_and_tag(self):
        r = Router(3)
        r.post(msg(0, 2, tag=1, payload="a"))
        r.post(msg(1, 2, tag=1, payload="b"))
        r.post(msg(0, 2, tag=2, payload="c"))
        assert r.take(2, 1, 1).payload == "b"
        assert r.take(2, 0, 2).payload == "c"
        assert r.take(2, 0, 1).payload == "a"

    def test_fifo_within_match(self):
        r = Router(2)
        for i in range(4):
            r.post(msg(0, 1, tag=5, payload=i))
        assert [r.take(1, 0, 5).payload for _ in range(4)] == [0, 1, 2, 3]

    def test_take_without_match_returns_none(self):
        r = Router(2)
        assert r.take(1, 0, 9) is None

    def test_rank_bounds(self):
        r = Router(2)
        with pytest.raises(CommError):
            r.post(msg(0, 5))
        with pytest.raises(CommError):
            r.take(5, 0, 0)
        with pytest.raises(CommError):
            r.take(0, 5, 0)
        with pytest.raises(ValueError):
            Router(0)

    def test_pending_and_purge(self):
        r = Router(2)
        r.post(msg(0, 1))
        r.post(msg(0, 1))
        assert r.pending(1) == 2
        assert r.purge(1) == 2
        assert r.pending(1) == 0

    def test_wrong_tag_left_queued(self):
        r = Router(2)
        r.post(msg(0, 1, tag=1))
        assert r.take(1, 0, 2) is None
        assert r.pending(1) == 1
