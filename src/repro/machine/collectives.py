"""Collective communication operations (paper Section 2.4).

Two families live here:

**Counted collectives** (``broadcast``, ``reduce``, ``allreduce``,
``gather``, ``allgather``, ``scatter``, ``alltoall``, ``barrier``) are real
message-passing algorithms (binomial trees / direct exchanges) whose costs
are *measured* — every message goes through the charged ``send``/``recv``
path.  The parallel Toom-Cook algorithm only ever applies these within
processor-grid **rows** of ``2k-1`` ranks (a constant), where a binomial
tree is already bandwidth-optimal up to constants.

**Modeled collectives** (``t_reduce``, ``t_broadcast``) implement the
simultaneous-reduction primitive of Lemma 2.5 / Corollary 2.6 (Sanders &
Sibeyn 2003; Birnbaum & Schwartz 2018):

    t simultaneous reduces of W words over P processors cost
    ``F = t*W``, ``BW = t*W``, ``L = O(log P + t)``.

Fully pipelining Sanders-Sibeyn trees in a thread simulator would obscure
the algorithms under test, so these two primitives move the data directly
(uncharged transport through the communicator's one receive loop) and
*charge the proven costs explicitly* — exactly as the paper takes Lemma 2.5
as given.  The charging is verified against the lemma's formulas in the
collective benchmarks.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

from repro.machine.errors import CommError, PeerDead
from repro.machine.sizes import payload_words
from repro.machine.tags import (
    TAG_ALLGATHER,
    TAG_ALLREDUCE,
    TAG_ALLTOALL,
    TAG_BARRIER,
    TAG_BROADCAST,
    TAG_GATHER,
    TAG_REDUCE,
    TAG_SCATTER,
    TAG_T_BROADCAST,
    TAG_T_REDUCE,
)

__all__ = [
    "broadcast",
    "reduce",
    "allreduce",
    "gather",
    "allgather",
    "scatter",
    "alltoall",
    "barrier",
    "t_reduce",
    "t_broadcast",
]

_ADD: Callable[[Any, Any], Any] = lambda a, b: a + b


def _trace_collective(
    comm: Any, op: str, fan_in: int, payload: Any = None, words: int = 0,
    modeled: bool = False,
) -> None:
    """Record a collective marker event (no-op when tracing is off).

    ``fan_in`` > 0 marks the aggregating end of the tree (root of a
    reduce/gather, every rank of an all-to-all); contributing leaves pass
    0 so the fan-in histogram isn't inflated by group size.  Payload
    sizing is deferred behind the enabled check.
    """
    tracer = comm._state.tracer
    if not tracer.enabled:
        return
    if payload is not None:
        words = payload_words(payload, comm.word_bits)
    tracer.on_collective(
        comm.world_rank,
        comm.current_phase,
        comm.clock.snapshot(),
        comm.incarnation,
        op=op,
        group_size=comm.size,
        fan_in=fan_in,
        words=words,
        modeled=modeled,
    )


def _vrank(rank: int, root: int, size: int) -> int:
    return (rank - root) % size


def _prank(vrank: int, root: int, size: int) -> int:
    return (vrank + root) % size


def broadcast(comm: Any, value: Any, root: int = 0, tag: int = TAG_BROADCAST) -> Any:
    """Binomial-tree broadcast; returns the value at every rank."""
    size = comm.size
    if not (0 <= root < size):
        raise CommError(f"broadcast root {root} out of range")
    if size == 1:
        return value
    if comm.rank == root:
        _trace_collective(comm, "broadcast", fan_in=size - 1, payload=value)
    me = _vrank(comm.rank, root, size)
    # MPICH-style binomial tree: receive once from the parent (the rank
    # differing in my lowest set bit), then forward down remaining bits.
    mask = 1
    while mask < size:
        if me & mask:
            value = comm.recv(_prank(me ^ mask, root, size), tag=tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        child = me | mask
        if child != me and child < size:
            comm.send(_prank(child, root, size), value, tag=tag)
        mask >>= 1
    return value


def reduce(
    comm: Any,
    value: Any,
    op: Callable[[Any, Any], Any] = _ADD,
    root: int = 0,
    tag: int = TAG_REDUCE,
) -> Any:
    """Binomial-tree reduction; the result is returned at ``root``
    (other ranks get ``None``)."""
    size = comm.size
    if not (0 <= root < size):
        raise CommError(f"reduce root {root} out of range")
    if comm.rank == root and size > 1:
        _trace_collective(comm, "reduce", fan_in=size - 1, payload=value)
    me = _vrank(comm.rank, root, size)
    acc = value
    mask = 1
    while mask < size:
        if me & mask:
            comm.send(_prank(me ^ mask, root, size), acc, tag=tag)
            return None
        partner = me | mask
        if partner < size:
            acc = op(acc, comm.recv(_prank(partner, root, size), tag=tag))
        mask <<= 1
    return acc


def allreduce(
    comm: Any, value: Any, op: Callable[[Any, Any], Any] = _ADD, tag: int = TAG_ALLREDUCE
) -> Any:
    """Reduce-to-0 then broadcast (every rank gets the result)."""
    acc = reduce(comm, value, op=op, root=0, tag=tag)
    return broadcast(comm, acc, root=0, tag=tag + 1)


def gather(comm: Any, value: Any, root: int = 0, tag: int = TAG_GATHER) -> list | None:
    """Gather one value per rank at ``root`` (group order)."""
    size = comm.size
    if not (0 <= root < size):
        raise CommError(f"gather root {root} out of range")
    if comm.rank == root:
        if size > 1:
            _trace_collective(comm, "gather", fan_in=size - 1, payload=value)
        out: list[Any] = [None] * size
        out[root] = value
        for r in range(size):
            if r != root:
                out[r] = comm.recv(r, tag=tag)
        return out
    comm.send(root, value, tag=tag)
    return None


def allgather(comm: Any, value: Any, tag: int = TAG_ALLGATHER) -> list:
    """Gather at 0, broadcast the list (ring/doubling costs don't matter
    for the constant-size groups this project uses)."""
    collected = gather(comm, value, root=0, tag=tag)
    return broadcast(comm, collected, root=0, tag=tag + 1)


def scatter(
    comm: Any, values: Sequence[Any] | None, root: int = 0, tag: int = TAG_SCATTER
) -> Any:
    """Scatter ``values[i]`` to rank ``i`` from ``root``."""
    size = comm.size
    if not (0 <= root < size):
        raise CommError(f"scatter root {root} out of range")
    if comm.rank == root:
        if values is None or len(values) != size:
            raise CommError(f"scatter requires exactly {size} values at root")
        if size > 1:
            _trace_collective(comm, "scatter", fan_in=size - 1, payload=values)
        for r in range(size):
            if r != root:
                comm.send(r, values[r], tag=tag)
        return values[root]
    return comm.recv(root, tag=tag)


def alltoall(comm: Any, send_blocks: Sequence[Any], tag: int = TAG_ALLTOALL) -> list:
    """Direct-exchange all-to-all: rank ``i`` receives ``send_blocks[i]``
    from every rank.  Cost per rank: ``size-1`` messages each way."""
    size = comm.size
    if len(send_blocks) != size:
        raise CommError(f"alltoall requires exactly {size} blocks")
    if size > 1:
        _trace_collective(comm, "alltoall", fan_in=size - 1, payload=send_blocks)
    out: list[Any] = [None] * size
    out[comm.rank] = send_blocks[comm.rank]
    # Rotated schedule avoids everyone hammering rank 0 first.
    for shift in range(1, size):
        dest = (comm.rank + shift) % size
        src = (comm.rank - shift) % size
        comm.send(dest, send_blocks[dest], tag=tag)
        out[src] = comm.recv(src, tag=tag)
    return out


def barrier(comm: Any, tag: int = TAG_BARRIER) -> None:
    """Dissemination barrier (log-round synchronization)."""
    size = comm.size
    rounds = max(1, math.ceil(math.log2(size))) if size > 1 else 0
    if rounds and comm.rank == 0:
        _trace_collective(comm, "barrier", fan_in=size - 1)
    for r in range(rounds):
        dist = 1 << r
        comm.send((comm.rank + dist) % size, None, tag=tag + r)
        comm.recv((comm.rank - dist) % size, tag=tag + r)


# ---------------------------------------------------------------------------
# Modeled t-reduce / t-broadcast (Lemma 2.5, Corollary 2.6)
# ---------------------------------------------------------------------------


def _charge_lemma25(
    comm: Any, t: int, total_words: int, with_flops: bool, name: str = "lemma25"
) -> None:
    """Charge one rank the Lemma 2.5 critical-path costs."""
    logp = max(1, math.ceil(math.log2(max(2, comm.size))))
    comm.clock.charge_flops(total_words if with_flops else 0)
    comm.clock.bw += total_words
    comm.clock.l += logp + t
    comm.ledger.charge(
        f=total_words if with_flops else 0, bw=total_words, l=logp + t
    )
    tracer = comm._state.tracer
    if tracer.enabled:
        tracer.on_modeled_charge(
            comm.world_rank, comm.current_phase, comm.incarnation, name,
            list(comm.ranks), total_words, logp + t,
        )


def _uncharged_send(comm: Any, dest: int, payload: Any, tag: int) -> None:
    """Transport without cost charging (modeled collectives pay in bulk)
    to *global* rank ``dest`` (callers translate through ``comm.ranks``).

    Clock propagation still happens on the receive side, so critical-path
    dependencies survive.
    """
    comm.fault_point()
    tracer = comm._state.tracer
    if tracer.enabled:
        tracer.on_modeled_send(
            comm.world_rank, comm.current_phase, comm.incarnation, dest, tag
        )
    comm._post(dest, payload, tag, 0)


def _uncharged_recv(comm: Any, source: int, tag: int) -> Any:
    """The receiving end of :func:`_uncharged_send`, from *global* rank
    ``source``: merge the sender's clock, charge nothing.  Fails over only
    when the source dies."""
    comm.fault_point()
    msg = comm._collect_matched(source, tag, None, None, modeled=True)
    comm.clock.merge(msg.clock)
    return msg.payload


def t_reduce(
    comm: Any,
    contributions: dict[int, Any],
    op: Callable[[Any, Any], Any] = _ADD,
    tag: int = TAG_T_REDUCE,
) -> Any:
    """``t`` simultaneous reductions (Lemma 2.5).

    ``contributions`` maps *root rank* → this rank's contribution to the
    reduction rooted there.  Every participating rank must pass the same
    set of roots.  Returns the reduced value at each root (``None``
    elsewhere for non-roots).

    Costs charged per rank (modeled, per Lemma 2.5): ``F = t*W``,
    ``BW = t*W``, ``L = O(log P + t)`` where ``W`` is this rank's total
    contribution size.

    A contributor that dies before contributing is skipped; one that is
    alive but never contributes leaves the root raising
    :class:`~repro.machine.errors.DeadlockError`.
    """
    roots = sorted(contributions)
    t = len(roots)
    if t == 0:
        return None
    targets = comm._to_globals(roots)
    total_words = sum(
        payload_words(contributions[r], comm.word_bits) for r in roots
    )
    _charge_lemma25(comm, t, total_words, with_flops=True, name="t_reduce")
    _trace_collective(
        comm,
        "t_reduce",
        fan_in=(comm.size - 1) if comm.rank in roots else 0,
        words=total_words,
        modeled=True,
    )
    group = comm.ranks
    result = None
    for i, root in enumerate(roots):
        mytag = tag + 3 * i
        if comm.rank == root:
            acc = contributions[root]
            for r, member in enumerate(group):
                if r != root:
                    try:
                        acc = op(acc, _uncharged_recv(comm, member, mytag))
                    except PeerDead:
                        # Dead contributors are skipped; callers whose
                        # semantics need every summand must exclude dead
                        # ranks from the group themselves.
                        continue
            result = acc
        else:
            _uncharged_send(comm, targets[i], contributions[root], mytag)
    return result


def t_broadcast(
    comm: Any,
    values: dict[int, Any],
    tag: int = TAG_T_BROADCAST,
) -> dict[int, Any]:
    """``t`` simultaneous broadcasts (Corollary 2.6).

    ``values`` maps *root rank* → the value to broadcast (meaningful at the
    root; other ranks pass ``None`` placeholders for the same keys).
    Returns root → received value at every rank.

    Costs (modeled): ``F = 0``, ``BW = t*W``, ``L = O(log P)``.
    """
    roots = sorted(values)
    t = len(roots)
    if t == 0:
        return {}
    sources = comm._to_globals(roots)
    group = comm.ranks
    out: dict[int, Any] = {}
    total_words = 0
    for i, root in enumerate(roots):
        mytag = tag + 2 * i
        if comm.rank == root:
            total_words += payload_words(values[root], comm.word_bits)
            for r, member in enumerate(group):
                if r != root:
                    _uncharged_send(comm, member, values[root], mytag)
            out[root] = values[root]
        else:
            out[root] = _uncharged_recv(comm, sources[i], mytag)
            total_words += payload_words(out[root], comm.word_bits)
    _charge_lemma25(comm, 0, total_words, with_flops=False, name="t_broadcast")
    _trace_collective(
        comm,
        "t_broadcast",
        fan_in=(comm.size - 1) if comm.rank in roots else 0,
        words=total_words,
        modeled=True,
    )
    return out
