import numpy as np
import pytest

import pvcover as pv

PATH_TEXT = """\
p pvc 3 2 1
v 0 1
v 1 1
v 2 1
e 0 0 1 1
e 1 1 2 1
g 0 0 1
k 0 2
"""

LOPSIDED_EDGE_TEXT = """\
p pvc 2 1 1
v 0 3
v 1 5
e 0 0 1 1
g 0 0
k 0 1
"""


@pytest.fixture
def star5():
    return pv.generate_star(5)


@pytest.fixture
def path3():
    """a-b-c with one group that needs both edges covered."""
    return pv.parse_instance(PATH_TEXT)


@pytest.fixture
def lopsided_edge():
    """Single edge, endpoint costs 3 and 5, target 1."""
    return pv.parse_instance(LOPSIDED_EDGE_TEXT)


def random_instances(count, n, m, r, seed0=0, weight_max=1, overlap=0.0):
    """Deterministic family of generator outputs for seeded property tests."""
    cfg = pv.GeneratorConfig(weight_range=(1, weight_max))
    out = []
    for s in range(seed0, seed0 + count):
        inst = pv.generate_random(n, m, r, seed=s, config=cfg)
        if overlap > 0.0:
            inst = pv.with_overlapping_groups(inst, overlap, seed=s + 104729)
        out.append(inst)
    return out


def cube_set_cover_text(k):
    """The set cover gap family over F_2^k, as a set cover file.

    Element e and set s stand for the nonzero vectors x = e + 1 and
    a = s + 1; set a covers {x : a.x odd}, and every set costs 1.  Each
    element lies in half the sets, so the LP value is 2 - 2^(1-k), while a
    cover needs k sets, the fewest whose vectors span F_2^k.
    """
    size = 2**k - 1
    lines = [f"p sc {size} {size}"]
    for s in range(size):
        members = [e for e in range(size) if bin((s + 1) & (e + 1)).count("1") % 2]
        lines.append(f"s {s} 1 " + " ".join(map(str, members)))
    return "\n".join(lines) + "\n"


def brute_force_optimum(inst):
    """Reference optimum by full subset enumeration; keeps the lexicographic
    tie rule explicit so the branch-and-bound tie-breaking is pinned too."""
    n = inst.n
    best = None
    for mask in range(1 << n):
        chosen = tuple(v for v in range(n) if mask >> v & 1)
        if not pv.is_feasible(inst, chosen):
            continue
        key = (sum(inst.costs[v] for v in chosen), chosen)
        if best is None or key < best:
            best = key
    return best


def philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
