"""Test-only oracle: the per-access two-level LRU replay (L1 -> LLC) that
the stack-distance pricing of :mod:`repro.runtime.cache` must reproduce."""

from collections import OrderedDict


def _touch(cache: OrderedDict, line: int, capacity: int) -> bool:
    if line in cache:
        cache.move_to_end(line)
        return True
    cache[line] = None
    if len(cache) > capacity:
        cache.popitem(last=False)
    return False


class OracleThreadCache:
    """One thread's private L1 + non-inclusive LLC slice, access by access."""

    def __init__(self, config):
        self.config = config
        self.l1: OrderedDict = OrderedDict()
        self.llc: OrderedDict = OrderedDict()

    def load(self, lines) -> list[int]:
        """Levels (0 L1, 1 LLC, 2 DRAM) serving one coalescing load."""
        out, last = [], None
        for line in lines:
            if line == last:  # same line as the previous element: L1 replay
                out.append(0)
            elif _touch(self.l1, line, self.config.l1_lines):
                out.append(0)
            else:
                out.append(1 if _touch(self.llc, line, self.config.llc_lines) else 2)
            last = line
        return out
