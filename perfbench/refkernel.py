"""A fixed pure-Python kernel that measures how fast the host runs now.

On a shared host the speed of Python code changes by up to a factor of
two, for minutes at a time, as other tenants come and go; BLAS work and
numpy work on large vectors change far less.  The benchmark times this
kernel before and after every pass, and rescales the task times of its
Python-bound workloads and its set-up times by ``REFERENCE_S`` over the
kernel's time, so that a change of the host's speed cancels and a change
of the program's speed does not.  The kernel belongs to the benchmark and
calls nothing in stabbench, so no change to the package can move it.

Its work resembles the package's certificate searches, the code most
sensitive to the host: a breadth-first search over a signed Pauli group
with integer bit operations, tuple keys and a dictionary of 32768
entries, the size of one sector of ``soundness_profile(toric_code(4))``,
too large for a core's own cache.
"""

from __future__ import annotations

import random
import time
from collections import deque

# 14 generators on 32 qubits: 2**14 Pauli operators, each with 2 signs.
_rng = random.Random(20240101)
_GENERATORS = tuple((_rng.getrandbits(32), _rng.getrandbits(32))
                    for _ in range(14))
GROUP_SIZE = 2 ** 15
# About the fastest time of the kernel on a quiet 2-vCPU Xeon virtual
# machine: the host speed to which times are rescaled.
REFERENCE_S = 0.19


def _search() -> int:
    start = (0, 0, 1)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        depth = dist[cur] + 1
        x, z, sign = cur
        for gx, gz in _GENERATORS:
            flip = ((x & gz).bit_count() + (z & gx).bit_count()) & 2
            key = (x ^ gx, z ^ gz, -sign if flip else sign)
            if key not in dist:
                dist[key] = depth
                queue.append(key)
    return len(dist)


def warm_up() -> None:
    """Run the kernel until the allocator keeps its memory between runs.

    The first few runs of a process take twice as long, while the C
    library still returns the dictionary's memory to the system.
    """
    for _ in range(3):
        _search()


def kernel_s() -> float:
    """Seconds of one run of the kernel."""
    start = time.perf_counter()
    size = _search()
    elapsed = time.perf_counter() - start
    if size != GROUP_SIZE:
        raise RuntimeError(f"reference kernel found {size} elements, "
                           f"not {GROUP_SIZE}")
    return elapsed
