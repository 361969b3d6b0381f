"""Single logical ordering service: FIFO accumulation and block cutting.

size_with_timeout cuts when the queue reaches block_size or when the timeout
since the first enqueue of the current accumulation elapses, whichever comes
first. dynamic_timeout drains the whole queue every timeout seconds (the
coordination scenario's rule). Block-creation time is cut_at minus the first
enqueue of the accumulation.
"""

from __future__ import annotations

from .kernel import EventKind
from .workload import Transaction

__all__ = ["Block", "Orderer"]


class Block:
    __slots__ = ("block_num", "txs", "first_enqueued_at", "cut_at",
                 "creation_time", "local_data", "first_commit_at")

    def __init__(self, block_num: int, txs: list[Transaction],
                 first_enqueued_at: float, cut_at: float):
        self.block_num = block_num
        self.txs = txs
        self.first_enqueued_at = first_enqueued_at
        self.cut_at = cut_at
        self.creation_time = cut_at - first_enqueued_at
        self.local_data: list[bool] = []  # per peer: holds every tx's private data
        self.first_commit_at = -1.0

    @property
    def size(self) -> int:
        return len(self.txs)


class Orderer:
    def __init__(self, sim, cut_rule, n_peers: int):
        self.sim = sim
        self.rule = cut_rule
        self.n_peers = n_peers
        self.queue: list[Transaction] = []
        self.first_enqueued_at = -1.0
        self.blocks: list[Block] = []
        self._timeout_handle = None

    def start(self) -> None:
        if self.rule.kind == "dynamic_timeout":
            self._schedule_dynamic()

    # -- enqueue -----------------------------------------------------------

    def enqueue_endorsed(self, tx: Transaction) -> None:
        now = self.sim.kernel.now
        if not self.queue:
            self.first_enqueued_at = now
            if self.rule.kind == "size_with_timeout":
                self._timeout_handle = self.sim.kernel.schedule(
                    now + self.rule.timeout, EventKind.BLOCK_CUT, self._on_timeout)
        self.queue.append(tx)
        if self.rule.kind == "size_with_timeout" and len(self.queue) >= self.rule.block_size:
            self.cut_block()

    def _on_timeout(self) -> None:
        self._timeout_handle = None
        if self.queue:
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

    def cut_block(self) -> Block | None:
        if not self.queue:
            return None
        if self._timeout_handle is not None:
            self._timeout_handle.cancel()
            self._timeout_handle = None
        now = self.sim.kernel.now
        if self.rule.kind == "size_with_timeout":
            take = min(len(self.queue), self.rule.block_size)
        else:
            take = len(self.queue)
        txs = self.queue[:take]
        leftover = self.queue[take:]
        block = Block(len(self.blocks) + 1, txs, self.first_enqueued_at, now)
        self.blocks.append(block)
        for pos, tx in enumerate(txs):
            tx.ordered_at = now
            tx.block_num = block.block_num
            tx.block_pos = pos
        self.queue = leftover
        self.first_enqueued_at = now if leftover else -1.0
        self._resolve_local_data(block)
        self.sim.on_block_cut(block)
        return block

    def _resolve_local_data(self, block: Block) -> None:
        """Freeze per-peer data availability at cut time.

        Every ack lands before its transaction finishes endorsement, so a
        transaction's holders are final once it is ordered: a peer has the
        block's data locally iff its bit is set in every holders mask.
        """
        held = -1
        for tx in block.txs:
            held &= tx.holders
        block.local_data = [bool(held >> p & 1) for p in range(self.n_peers)]
