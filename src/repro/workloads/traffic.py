"""Synthetic IP network traffic for origin-destination traffic matrices.

The paper's motivating application is building origin-destination traffic
matrices from streaming network data: for IPv4 the matrix is
:math:`2^{32} \\times 2^{32}`, for IPv6 :math:`2^{64} \\times 2^{64}`, so a
hypersparse representation is mandatory.  Real traffic captures are not
available offline, so this module synthesises packet streams with the
statistical features that matter for the benchmark — heavy-tailed source and
destination popularity (supernodes), a small set of "background" flows, and
Poisson-like per-window volumes — and provides the conversions between dotted
IP strings, integers and subnets used by the analytics layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .powerlaw import _splitmix64, _zipf_ranks

__all__ = [
    "ipv4_to_int",
    "int_to_ipv4",
    "ipv6_to_int",
    "int_to_ipv6",
    "subnet_of",
    "PacketBatch",
    "synthetic_packets",
]


# --------------------------------------------------------------------------- #
# address conversions
# --------------------------------------------------------------------------- #


def ipv4_to_int(addresses) -> np.ndarray:
    """Convert dotted-quad IPv4 strings to uint64 integers (vectorised)."""
    if isinstance(addresses, str):
        addresses = [addresses]
    out = np.empty(len(addresses), dtype=np.uint64)
    for i, addr in enumerate(addresses):
        parts = addr.split(".")
        if len(parts) != 4:
            raise ValueError(f"not an IPv4 address: {addr!r}")
        value = 0
        for p in parts:
            octet = int(p)
            if octet < 0 or octet > 255:
                raise ValueError(f"invalid octet in {addr!r}")
            value = (value << 8) | octet
        out[i] = value
    return out


def int_to_ipv4(values) -> list:
    """Convert uint64 integers back to dotted-quad IPv4 strings."""
    arr = np.asarray(values, dtype=np.uint64).ravel()
    out = []
    for v in arr.tolist():
        out.append(".".join(str((v >> shift) & 0xFF) for shift in (24, 16, 8, 0)))
    return out


def ipv6_to_int(addresses) -> list:
    """Convert IPv6 strings to Python ints (128-bit values do not fit uint64).

    The traffic-matrix convention of the paper folds IPv6 into a
    :math:`2^{64} \\times 2^{64}` matrix by using the upper 64 bits (the routing
    prefix + subnet) as the coordinate; :func:`ipv6_upper64` does that fold.
    """
    import ipaddress

    if isinstance(addresses, str):
        addresses = [addresses]
    return [int(ipaddress.IPv6Address(a)) for a in addresses]


def int_to_ipv6(values) -> list:
    """Convert Python ints back to IPv6 strings."""
    import ipaddress

    return [str(ipaddress.IPv6Address(int(v))) for v in np.asarray(values, dtype=object).ravel()]


def ipv6_upper64(addresses) -> np.ndarray:
    """Fold IPv6 addresses to their upper 64 bits as uint64 coordinates."""
    ints = ipv6_to_int(addresses)
    return np.asarray([v >> 64 for v in ints], dtype=np.uint64)


def subnet_of(values, prefix_len: int = 16) -> np.ndarray:
    """Map IPv4 integer addresses to their /prefix_len subnet identifier."""
    arr = np.asarray(values, dtype=np.uint64)
    shift = np.uint64(32 - prefix_len)
    return (arr >> shift).astype(np.uint64)


# --------------------------------------------------------------------------- #
# synthetic packet streams
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PacketBatch:
    """One observation window of synthetic traffic.

    Attributes
    ----------
    window:
        0-based window index.
    sources, destinations:
        Per-packet IPv4 addresses as uint64 integers.
    bytes:
        Per-packet byte counts.
    """

    window: int
    sources: np.ndarray
    destinations: np.ndarray
    bytes: np.ndarray

    @property
    def npackets(self) -> int:
        """Number of packets in the window."""
        return int(self.sources.size)


def synthetic_packets(
    npackets: int,
    nwindows: int = 1,
    *,
    nsources: int = 2 ** 20,
    ndestinations: int = 2 ** 20,
    alpha: float = 1.2,
    supernode_fraction: float = 0.1,
    seed: Optional[int] = None,
) -> Iterator[PacketBatch]:
    """Generate a stream of synthetic packet windows.

    Source and destination popularity follow a power law (so a handful of
    "supernodes" dominate, as in real Internet traffic); a configurable
    fraction of packets is concentrated onto the single most popular pair to
    emulate background flows; byte counts are drawn from a log-normal.

    Parameters
    ----------
    npackets:
        Packets per window.
    nwindows:
        Number of windows to yield.
    nsources, ndestinations:
        Distinct address pools for each side.
    alpha:
        Power-law exponent of address popularity.
    supernode_fraction:
        Fraction of packets redirected to the top source/destination pair.
    seed:
        RNG seed.
    """
    rng = np.random.default_rng(seed)
    for w in range(nwindows):
        src_rank = _zipf_ranks(rng, npackets, alpha, nsources)
        dst_rank = _zipf_ranks(rng, npackets, alpha, ndestinations)
        if supernode_fraction > 0:
            hot = rng.random(npackets) < supernode_fraction
            src_rank[hot] = 0
            dst_rank[hot] = 0
        sources = _splitmix64(src_rank) % np.uint64(2 ** 32)
        destinations = _splitmix64(dst_rank + np.uint64(nsources)) % np.uint64(2 ** 32)
        nbytes = np.exp(rng.normal(6.0, 1.0, npackets)).astype(np.float64)
        yield PacketBatch(w, sources, destinations, nbytes)
