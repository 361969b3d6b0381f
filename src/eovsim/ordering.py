"""Single logical ordering service: FIFO accumulation and block cutting.

size_with_timeout cuts when the queue reaches block_size or when the timeout
since the first enqueue of the current accumulation elapses, whichever comes
first. dynamic_timeout drains the whole queue every timeout seconds (the
coordination scenario's rule). Block-creation time is cut_at minus the first
enqueue of the accumulation. Every peer receives a block ordering_overhead
seconds after its cut.
"""

from __future__ import annotations

from array import array

import numpy as np

from .kernel import EventKind

__all__ = ["Block", "Orderer"]


class Block:
    __slots__ = ("block_num", "txs", "first_enqueued_at", "cut_at",
                 "creation_time", "holders", "first_commit_at")

    def __init__(self, block_num: int, txs: array,
                 first_enqueued_at: float, cut_at: float):
        self.block_num = block_num
        self.txs = txs
        self.first_enqueued_at = first_enqueued_at
        self.cut_at = cut_at
        self.creation_time = cut_at - first_enqueued_at
        self.holders = 0  # bit p: peer p holds every tx's private data
        self.first_commit_at = -1.0

    @property
    def size(self) -> int:
        return len(self.txs)


class Orderer:
    """The ordering service: the FIFO queue of endorsed transactions' ids,
    the ledger of cut blocks, and their delivery to the peers.

    held is the AND of the queued transactions' holders masks (-1 for an
    empty queue): every ack lands before its transaction finishes
    endorsement, so a transaction's holders are final once it is enqueued,
    and a peer has a block's private data locally iff its bit is set in
    every one."""

    def __init__(self, sim):
        self.sim = sim
        self.rule = sim.config.cut_rule
        self.overhead = sim.config.ordering_overhead
        self.queue = array("i")
        self.held = -1
        self.blocks: list[Block] = []
        self._timeout_handle = None

    def start(self) -> None:
        if self.rule.kind == "dynamic_timeout":
            self._schedule_dynamic()

    # -- enqueue -----------------------------------------------------------

    def enqueue_endorsed(self, tx: int, holders: int) -> None:
        """Queue endorsed tx, whose winning round's holders mask is holders."""
        if not self.queue and self.rule.kind == "size_with_timeout":
            sim = self.sim
            # the orderer holds this entry until the cut, so the entry's
            # callback reaches the orderer only through the run's weak proxy
            self._timeout_handle = sim.kernel.schedule(
                sim.kernel.now + self.rule.timeout, EventKind.BLOCK_CUT,
                lambda sim=sim: sim.orderer.cut_block())
        self.queue.append(tx)
        self.held &= holders
        if self.rule.kind == "size_with_timeout" and len(self.queue) >= self.rule.block_size:
            self.cut_block()

    def _schedule_dynamic(self) -> None:
        self.sim.kernel.schedule(self.sim.kernel.now + self.rule.timeout,
                                 EventKind.BLOCK_CUT, self._on_dynamic_tick)

    def _on_dynamic_tick(self) -> None:
        if self.queue:
            self.cut_block()
        # keep ticking while anything can still reach the queue
        if not self.sim.drained():
            self._schedule_dynamic()

    # -- cutting -----------------------------------------------------------

    def cut_block(self) -> None:
        """Cut the whole queue, which is never empty here, into the next block,
        and deliver it to every peer after the ordering overhead.

        The size rule cuts as soon as the queue reaches block_size, so no cut
        leaves a remainder. Every cut cancels the armed timeout, so the
        timeout fires only on a non-empty queue. The first transaction was
        enqueued the instant its endorsement ended.
        """
        sim = self.sim
        if self._timeout_handle is not None:
            sim.kernel.cancel(self._timeout_handle)
            self._timeout_handle = None
        now = sim.kernel.now
        queue, store = self.queue, sim.source.txs
        block = Block(len(self.blocks) + 1, queue, store.endorse_end[queue[0]], now)
        self.blocks.append(block)
        # temporary views of the columns: TxStore.add grows them, and a view
        # that outlived the cut would pin their size
        ids = np.frombuffer(queue, np.intc)
        np.frombuffer(store.block_num, np.intc)[ids] = block.block_num
        np.frombuffer(store.block_pos, np.intc)[ids] = np.arange(len(ids))
        log = sim.source.log
        if log is not None:  # no longer dependency candidates
            log.frombytes(np.invert(ids).tobytes())
        block.holders = self.held
        self.queue = array("i")
        self.held = -1
        if self.overhead > 0:
            sim.kernel.schedule(now + self.overhead, EventKind.GENERIC,
                                lambda: self._deliver(block))
        else:
            self._deliver(block)

    def _deliver(self, block: Block) -> None:
        for peer in self.sim.peers:
            peer.on_block_delivered(block)
