"""Parallel-unsafe constructs reachable from the chunk roots."""

from dataclasses import dataclass, field

COUNTER = 0
CACHE = {}
NEXT_ID = 0


def _next_id():
    global NEXT_ID
    NEXT_ID += 1
    return NEXT_ID


@dataclass
class Record:
    ident: int = field(default_factory=_next_id)

    def __post_init__(self):
        CACHE[self.ident] = self


class Runner:
    def run_chunk(self, chunk):
        global COUNTER
        COUNTER += 1
        Record()
        return tally(chunk)


def tally(chunk):
    CACHE[chunk] = 1
    return CACHE


class Executor:
    def execute(self, pool, chunks):
        futures = []
        for chunk in chunks:
            futures.append(pool.submit(lambda: tally(chunk)))
        return futures
