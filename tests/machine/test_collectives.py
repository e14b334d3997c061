"""Tests for collective operations, including Lemma 2.5 cost verification."""

import math

import pytest

from repro.machine import collectives as coll
from repro.machine.engine import Machine
from repro.machine.errors import DeadlockError, HardFault, MachineError
from repro.machine.fault import FaultEvent, FaultSchedule
from repro.machine.tags import TAG_T_REDUCE


def run(size, program, **kw):
    return Machine(size, **kw).run(program)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8])
@pytest.mark.parametrize("root", [0, "last"])
class TestBroadcast:
    def test_value_reaches_all(self, size, root):
        r = size - 1 if root == "last" else root

        def program(comm):
            value = "payload" if comm.rank == r else None
            return coll.broadcast(comm, value, root=r)

        assert run(size, program).results == ["payload"] * size


class TestBroadcastErrors:
    def test_bad_root(self):
        with pytest.raises(MachineError):
            run(2, lambda comm: coll.broadcast(comm, 1, root=5))


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
class TestReduce:
    def test_sum_at_root(self, size):
        def program(comm):
            return coll.reduce(comm, comm.rank + 1, root=0)

        res = run(size, program)
        assert res.results[0] == size * (size + 1) // 2
        assert all(v is None for v in res.results[1:])

    def test_nonzero_root(self, size):
        r = size - 1

        def program(comm):
            return coll.reduce(comm, comm.rank, root=r)

        assert run(size, program).results[r] == size * (size - 1) // 2

    def test_custom_op(self, size):
        def program(comm):
            return coll.reduce(comm, comm.rank + 1, op=max, root=0)

        assert run(size, program).results[0] == size


class TestAllreduceGatherScatter:
    def test_allreduce_everyone_gets_sum(self):
        res = run(5, lambda comm: coll.allreduce(comm, comm.rank))
        assert res.results == [10] * 5

    def test_gather_ordered(self):
        res = run(4, lambda comm: coll.gather(comm, comm.rank * 2, root=1))
        assert res.results[1] == [0, 2, 4, 6]
        assert res.results[0] is None

    def test_allgather(self):
        res = run(3, lambda comm: coll.allgather(comm, chr(65 + comm.rank)))
        assert res.results == [["A", "B", "C"]] * 3

    def test_scatter(self):
        def program(comm):
            values = [10, 20, 30] if comm.rank == 0 else None
            return coll.scatter(comm, values, root=0)

        assert run(3, program).results == [10, 20, 30]

    def test_scatter_requires_exact_count(self):
        def program(comm):
            coll.scatter(comm, [1] if comm.rank == 0 else None, root=0)

        with pytest.raises(MachineError):
            run(2, program)

    def test_gather_bad_root(self):
        with pytest.raises(MachineError):
            run(2, lambda comm: coll.gather(comm, 1, root=9))

    def test_reduce_bad_root(self):
        with pytest.raises(MachineError):
            run(2, lambda comm: coll.reduce(comm, 1, root=-1))

    def test_scatter_bad_root(self):
        with pytest.raises(MachineError):
            run(2, lambda comm: coll.scatter(comm, [1, 2], root=7))


@pytest.mark.parametrize("size", [2, 3, 5])
class TestAlltoall:
    def test_exchange(self, size):
        def program(comm):
            blocks = [f"{comm.rank}->{d}" for d in range(size)]
            return coll.alltoall(comm, blocks)

        res = run(size, program)
        for dest in range(size):
            assert res.results[dest] == [f"{src}->{dest}" for src in range(size)]


class TestAlltoallErrors:
    def test_block_count_checked(self):
        with pytest.raises(MachineError):
            run(2, lambda comm: coll.alltoall(comm, [1]))


class TestBarrier:
    def test_barrier_completes(self):
        def program(comm):
            coll.barrier(comm)
            return "past"

        assert run(5, program).results == ["past"] * 5

    def test_single_rank_barrier(self):
        assert run(1, lambda comm: coll.barrier(comm) or "ok").results == ["ok"]


class TestSubcommCollectives:
    def test_row_broadcast(self):
        def program(comm):
            row = [0, 1, 2] if comm.rank < 3 else [3, 4, 5]
            sub = comm.sub(row)
            value = comm.rank * 100 if sub.rank == 0 else None
            return coll.broadcast(sub, value, root=0)

        res = run(6, program)
        assert res.results == [0, 0, 0, 300, 300, 300]


class TestTReduce:
    def test_values_correct(self):
        def program(comm):
            # Two simultaneous reductions, rooted at 0 and 2; rank r
            # contributes r+1 to the first and 10*(r+1) to the second.
            contributions = {0: comm.rank + 1, 2: 10 * (comm.rank + 1)}
            return coll.t_reduce(comm, contributions)

        res = run(4, program)
        assert res.results[0] == 10
        assert res.results[2] == 100
        assert res.results[1] is None and res.results[3] is None

    def test_empty_contributions(self):
        assert run(2, lambda comm: coll.t_reduce(comm, {})).results == [None, None]

    def test_modeled_costs_match_lemma(self):
        # Lemma 2.5: t reduces of W words over P procs cost
        # F = t*W, BW = t*W, L = O(log P + t) per rank.
        P, t, W = 8, 3, 50

        def program(comm):
            contributions = {
                root: [1] * W for root in (0, 1, 2)
            }
            coll.t_reduce(comm, contributions)

        res = run(P, program)
        logp = math.ceil(math.log2(P))
        for c in res.per_rank:
            assert c.f == t * W
            assert c.bw == t * W
            assert c.l == logp + t

    def test_contributor_killed_before_contributing_is_skipped(self):
        # Rank 2's first machine op is its contribution's send: the
        # fault kills it before it contributes, and the root sums the
        # survivors (1 + 2 + 4).
        schedule = FaultSchedule([FaultEvent(rank=2, phase="*", op_index=0)])

        def program(comm):
            try:
                return coll.t_reduce(comm, {0: comm.rank + 1})
            except HardFault:
                return "killed"

        res = run(4, program, fault_schedule=schedule)
        assert res.results == [7, None, "killed", None]
        assert [(e.rank, e.kind) for e in res.fault_log.entries] == [(2, "hard")]

    def test_finished_contributor_is_a_deadlock_not_skipped(self):
        # A contributor that returns without contributing is alive: the
        # modeled transport fails over on death only, so the root waits
        # it out and names it, with the machine's (scaled) timeout.
        machine = Machine(3, timeout=5.0)

        def program(comm):
            if comm.rank == 2:
                return None
            return coll.t_reduce(comm, {0: comm.rank + 1})

        res = machine.run(program, raise_on_error=False)
        assert sorted(res.errors) == [0]
        error = res.errors[0]
        assert isinstance(error, DeadlockError)
        assert str(error) == (
            f"rank 0: no message from 2 tag {TAG_T_REDUCE} "
            f"after {machine.timeout:.1f}s"
        )


class TestTBroadcast:
    def test_values_correct(self):
        def program(comm):
            values = {
                0: "from0" if comm.rank == 0 else None,
                3: "from3" if comm.rank == 3 else None,
            }
            return coll.t_broadcast(comm, values)

        res = run(4, program)
        for r in range(4):
            assert res.results[r] == {0: "from0", 3: "from3"}

    def test_empty(self):
        assert run(2, lambda comm: coll.t_broadcast(comm, {})).results == [{}, {}]

    def test_modeled_costs_match_corollary(self):
        # Corollary 2.6: F = 0, BW = t*W, L = O(log P).
        P, W = 8, 40

        def program(comm):
            values = {0: [1] * W if comm.rank == 0 else None}
            coll.t_broadcast(comm, values)

        res = run(P, program)
        logp = math.ceil(math.log2(P))
        for c in res.per_rank:
            assert c.f == 0
            assert c.bw == W
            assert c.l == logp


class TestClockPropagationThroughCollectives:
    def test_broadcast_propagates_dependency(self):
        def program(comm):
            if comm.rank == 0:
                comm.charge_flops(1000)  # work before the bcast
            coll.broadcast(comm, "x", root=0)
            return comm.clock.f

        res = run(4, program)
        # Every rank's clock must reflect the root's prior work.
        assert all(f >= 1000 for f in res.results)

    def test_modeled_treduce_propagates_dependency(self):
        def program(comm):
            if comm.rank == 3:
                comm.charge_flops(500)
            coll.t_reduce(comm, {0: 1})
            return comm.clock.f

        res = run(4, program)
        assert res.results[0] >= 500
