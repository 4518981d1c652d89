"""The general router: arbitrary fetch/store by computed address.

Any VP may read (``get``) or write (``send``) the memory of any other VP,
at roughly an order of magnitude the cost of a NEWS hop.  Sends support
*combining*: when several VPs target the same destination, the router
hardware merges the messages with a commutative-associative operation —
this is what makes histogram/rank computations fast on the CM and it is
what the UC reduction compiles to when operands scatter.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .errors import RouterError, VPSetMismatchError
from .faults import fault_point
from .field import Field

def _logical_combiner(
    ufunc: np.ufunc, name: str
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], None]:
    """Logical combining that stays type-safe on integer fields.

    ``np.logical_*.at`` on an int destination silently merges *bool*
    results into int storage, so e.g. ``5 logor 2`` would come out as 1
    while non-colliding lanes keep their raw values — a mixed-meaning
    field.  We accept bool and integer destinations (values combined as
    truth values, stored as 0/1) and reject anything else loudly.
    """

    def combine(tgt: np.ndarray, idx: np.ndarray, val: np.ndarray) -> None:
        if tgt.dtype.kind not in "bi":
            raise RouterError(
                f"logical combiner {name!r} needs a bool or integer "
                f"destination field, got dtype {tgt.dtype}"
            )
        ufunc.at(tgt, idx, val.astype(bool))

    return combine


#: combining operations the router supports (Paris send-with-*)
COMBINERS: Dict[str, Callable[[np.ndarray, np.ndarray, np.ndarray], None]] = {
    "overwrite": lambda tgt, idx, val: tgt.__setitem__(idx, val),
    "add": lambda tgt, idx, val: np.add.at(tgt, idx, val),
    "min": lambda tgt, idx, val: np.minimum.at(tgt, idx, val),
    "max": lambda tgt, idx, val: np.maximum.at(tgt, idx, val),
    "logand": _logical_combiner(np.logical_and, "logand"),
    "logor": _logical_combiner(np.logical_or, "logor"),
    "logxor": _logical_combiner(np.logical_xor, "logxor"),
    "mul": lambda tgt, idx, val: np.multiply.at(tgt, idx, val),
}


def has_duplicates(values: np.ndarray) -> bool:
    """True when two elements of ``values`` are equal — the one
    address-collision probe of the router and of every scatter/frontier
    uniqueness check in :mod:`repro.interp` (a sort and a neighbour
    compare; ``np.unique`` would import ``numpy.ma`` for the same answer)."""
    flat = np.sort(values, axis=None)
    return bool((flat[1:] == flat[:-1]).any())


def _check_addresses(addr: np.ndarray, n_vps: int) -> None:
    if not addr.size:
        return
    lo = addr.min()
    hi = addr.max()
    if lo < 0 or hi >= n_vps:
        raise RouterError(
            f"router address out of range [0, {n_vps}): min={lo}, max={hi}"
        )


def get(dest: Field, source: Field, address: np.ndarray) -> None:
    """``dest[vp] := source.data.flat[address[vp]]`` for active VPs.

    ``address`` holds, per destination VP, the linear self-address of the
    source VP to read.  Source and destination may live on different VP
    sets (the router spans the whole machine).  One ``router_get`` charge,
    scaled by the larger VP ratio involved.
    """
    vps = dest.vpset
    fault_point(vps.machine, "router.get")
    address = np.asarray(address, dtype=np.int64)
    if address.shape != vps.shape:
        raise RouterError(
            f"address shape {address.shape} != destination shape {vps.shape}"
        )
    mask = vps.context
    active_addr = address[mask]
    _check_addresses(active_addr, source.vpset.n_vps)
    ratio = max(vps.vp_ratio, source.vpset.vp_ratio)
    vps.machine.clock.charge("router_get", vp_ratio=ratio)
    dest.data[mask] = source.data.reshape(-1)[active_addr].astype(dest.dtype)


def send(
    dest: Field,
    source: Field,
    address: np.ndarray,
    *,
    combiner: str = "overwrite",
    rng: Optional[np.random.Generator] = None,
) -> None:
    """``dest.flat[address[vp]] OP= source[vp]`` for active source VPs.

    ``combiner`` names how colliding messages merge (see :data:`COMBINERS`);
    ``"arbitrary"`` delivers exactly one of the colliding messages, chosen
    by ``rng`` (or the machine RNG) — the semantics of UC's ``$,``.
    """
    vps = source.vpset
    fault_point(vps.machine, "router.send")
    address = np.asarray(address, dtype=np.int64)
    if address.shape != vps.shape:
        raise RouterError(
            f"address shape {address.shape} != source shape {vps.shape}"
        )
    mask = vps.context
    addr = address[mask]
    vals = source.data[mask]
    _check_addresses(addr, dest.vpset.n_vps)
    ratio = max(vps.vp_ratio, dest.vpset.vp_ratio)
    vps.machine.clock.charge("router_send", vp_ratio=ratio)

    flat = dest.data.reshape(-1)
    if combiner == "arbitrary":
        generator = rng if rng is not None else vps.machine.rng
        order = generator.permutation(len(addr))
        flat[addr[order]] = vals[order].astype(dest.dtype)
        return
    try:
        op = COMBINERS[combiner]
    except KeyError:
        raise RouterError(f"unknown combiner {combiner!r}") from None
    op(flat, addr, vals.astype(dest.dtype))


def permute(dest: Field, source: Field, address: np.ndarray) -> None:
    """Send where addresses are a permutation (layout remap).

    Identical to :func:`send` with overwrite but validates that no two
    active VPs collide, which is what a mapping remap guarantees.
    """
    vps = source.vpset
    address = np.asarray(address, dtype=np.int64)
    mask = vps.context
    addr = address[mask]
    if has_duplicates(addr):
        raise RouterError("permute called with colliding addresses")
    send(dest, source, address, combiner="overwrite")
