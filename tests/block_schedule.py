"""Forces which thread runs each Monte-Carlo block, for the tests of the
block runner that simulate and validate share."""

import concurrent.futures
import threading

from leolink import montecarlo


class BlockSchedule:
    """Runs the passes that follow in blocks of 4096 replications, numbered
    in the order their generators are made, n_blocks in all, under one of
    three schedules:

    - "none": the calling thread, at hold_caller, waits until the side
      worker has run every block, so it runs none;
    - "all": the side worker is held on a task of its own until it is shut
      down, so the calling thread runs every block;
    - "some": the worker's first block waits until the calling thread has
      started one, and the calling thread, at hold_caller, waits until the
      worker has started one, so each runs some.

    Blocks in fail raise ArithmeticError("block i"). ran[i] says whether the
    calling thread ran block i, and alive holds the threads alive as each
    block started.
    """

    def __init__(self, monkeypatch, schedule: str, n_blocks: int, fail=frozenset()):
        self.schedule = schedule
        self.ran, self.alive = {}, []
        self.every_block_done, self.worker_started, self.caller_started = (
            threading.Event(), threading.Event(), threading.Event())
        caller = threading.get_ident()
        index, done = {}, []
        numbered, block = montecarlo._block_rngs, montecarlo._block

        def counted_rngs(seed, n_samples):
            blocks = numbered(seed, n_samples)
            for rng, _ in blocks:
                index[id(rng)] = len(index)
            return blocks

        def scheduled_block(*args):
            i = index[id(args[-2])]
            self.ran[i] = here = threading.get_ident() == caller
            self.alive.append(threading.active_count())
            try:
                (self.caller_started if here else self.worker_started).set()
                if schedule == "some" and i == 0:
                    assert self.caller_started.wait(30)
                if i in fail:
                    raise ArithmeticError(f"block {i}")
                return block(*args)
            finally:
                done.append(i)
                if len(done) == n_blocks:
                    self.every_block_done.set()

        release, pool = threading.Event(), concurrent.futures.ThreadPoolExecutor

        class HeldWorker(pool):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                # let go after 30 s, so that a schedule that waits for it fails
                self.submit(release.wait, 30)

            def shutdown(self, *args, **kwargs):
                release.set()
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "_BLOCK", 4096)
        monkeypatch.setattr(montecarlo, "_block_rngs", counted_rngs)
        monkeypatch.setattr(montecarlo, "_block", scheduled_block)
        if schedule == "all":
            monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", HeldWorker)

    def hold_caller(self) -> None:
        """Where the calling thread waits before it runs any block."""
        if self.schedule == "none":
            assert self.every_block_done.wait(30)
        elif self.schedule == "some":
            assert self.worker_started.wait(30)
