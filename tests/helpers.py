"""Plain helpers shared by the test modules (fixtures live in conftest.py)."""

import tracemalloc

import numpy as np

from gimirec import autodiff as ad
from gimirec.global_context import HopPairAccumulator, HopPairs
from gimirec.ingest import Sequences


def sequences_of(*pairs) -> Sequences:
    """One user per (items, timestamps) pair, in order."""
    cols = [[np.asarray(col, dtype=np.int64).reshape(-1) for col in pair] for pair in pairs]
    empty = np.zeros(0, dtype=np.int64)
    return Sequences(np.concatenate([empty, *(i for i, _ in cols)]),
                     np.concatenate([empty, *(t for _, t in cols)]),
                     [i.size for i, _ in cols])


def random_sequences(rng: np.random.Generator, n_users: int = 5,
                     n_items: int = 10, max_len: int = 12,
                     min_len: int = 5, max_gap: int = 5) -> Sequences:
    """Random dense-indexed user sequences with unit-second timestamps."""
    pairs = []
    for _ in range(n_users):
        n = int(rng.integers(min_len, max_len + 1))
        items = rng.integers(1, n_items + 1, size=n)
        pairs.append((items, 1 + np.cumsum(rng.integers(0, max_gap + 1, size=n))))
    return sequences_of(*pairs)


def hop_dicts(acc: HopPairAccumulator) -> dict:
    """The accumulator's per-hop arrays as {k: {(mu, nu): weight}} dicts."""
    return {k: {(r, c): v for r, c, v in zip(h.rows.tolist(), h.cols.tolist(),
                                              h.values.tolist())}
            for k, h in acc.hops.items()}


def acc_from_dicts(weights: dict) -> HopPairAccumulator:
    """An accumulator holding the given {k: {(mu, nu): weight}} hop dicts."""
    hops = {}
    for k in (1, 2, 3):
        pairs = sorted(weights.get(k, {}).items())
        hops[k] = HopPairs(np.array([p[0][0] for p in pairs], dtype=np.int64),
                           np.array([p[0][1] for p in pairs], dtype=np.int64),
                           np.array([p[1] for p in pairs], dtype=np.float64))
    return HopPairAccumulator(hops)


def traced_peak(fn, *args, **kw):
    """``fn(*args, **kw)`` and the peak bytes tracemalloc saw above the call's
    start; what the call's inputs already hold is not counted."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kw)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def tape_arrays(root: ad.Tensor) -> list[np.ndarray]:
    """The unique base arrays the graph under ``root`` holds, as node data
    or in backward closures (nested closures included); a view counts as
    the array it views."""
    bases, seen, stack = {}, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            bases[id(obj)] = obj
        elif isinstance(obj, ad.Tensor):
            stack += [obj.data, obj._backward, *obj._parents]
        elif callable(obj) and getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # a name left unbound, like matmul's a_rows
                    pass
        elif isinstance(obj, (tuple, list)):
            stack += list(obj)
    return list(bases.values())


def fd_check(build, tensors, h=1e-6, tol=1e-6):
    """Compare analytic gradients of sum(build(*tensors)) with central FD."""
    out = ad.sumt(build(*tensors))
    out.backward()
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]
    for t, ga in zip(tensors, analytic):
        flat = t.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with ad.no_grad():
                up = float(ad.sumt(build(*tensors)).data)
            flat[i] = orig - h
            with ad.no_grad():
                down = float(ad.sumt(build(*tensors)).data)
            flat[i] = orig
            num = (up - down) / (2 * h)
            assert abs(ga.ravel()[i] - num) <= tol * max(1.0, abs(num)), \
                f"element {i}: analytic {ga.ravel()[i]} vs numeric {num}"
