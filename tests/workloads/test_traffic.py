"""Tests for synthetic traffic generation and address conversions."""

import numpy as np
import pytest

from repro.workloads import (
    PacketBatch,
    int_to_ipv4,
    int_to_ipv6,
    ipv4_to_int,
    ipv6_to_int,
    subnet_of,
    synthetic_packets,
)
from repro.workloads.traffic import ipv6_upper64


class TestAddressConversions:
    def test_ipv4_roundtrip(self):
        addrs = ["192.168.1.1", "10.0.0.255", "0.0.0.0", "255.255.255.255"]
        ints = ipv4_to_int(addrs)
        assert int_to_ipv4(ints) == addrs

    def test_ipv4_known_value(self):
        assert ipv4_to_int("1.0.0.0")[0] == 2**24
        assert ipv4_to_int(["0.0.0.1"])[0] == 1

    def test_ipv4_invalid(self):
        with pytest.raises(ValueError):
            ipv4_to_int(["1.2.3"])
        with pytest.raises(ValueError):
            ipv4_to_int(["1.2.3.400"])

    def test_ipv6_roundtrip(self):
        addrs = ["2001:db8::1", "::1"]
        ints = ipv6_to_int(addrs)
        assert int_to_ipv6(ints) == ["2001:db8::1", "::1"]

    def test_ipv6_upper64_fits_uint64(self):
        vals = ipv6_upper64(["2001:db8::1"])
        assert vals.dtype == np.uint64
        assert vals[0] == (ipv6_to_int(["2001:db8::1"])[0] >> 64)

    def test_subnet_of(self):
        ip = ipv4_to_int(["10.1.2.3"])
        assert subnet_of(ip, 16)[0] == (10 << 8) | 1
        assert subnet_of(ip, 8)[0] == 10


class TestSyntheticPackets:
    def test_window_structure(self):
        batches = list(synthetic_packets(1000, 3, seed=0))
        assert len(batches) == 3
        assert all(isinstance(b, PacketBatch) for b in batches)
        assert all(b.npackets == 1000 for b in batches)
        assert [b.window for b in batches] == [0, 1, 2]

    def test_addresses_are_ipv4_range(self):
        batch = next(iter(synthetic_packets(500, seed=1)))
        assert batch.sources.max() < 2**32
        assert batch.destinations.max() < 2**32

    def test_reproducible(self):
        a = next(iter(synthetic_packets(100, seed=7)))
        b = next(iter(synthetic_packets(100, seed=7)))
        assert np.array_equal(a.sources, b.sources)

    def test_supernode_concentration(self):
        batch = next(iter(synthetic_packets(5000, supernode_fraction=0.3, seed=2)))
        _, counts = np.unique(batch.sources, return_counts=True)
        assert counts.max() > 0.25 * 5000  # the hot pair dominates

    def test_no_supernode_fraction(self):
        batch = next(iter(synthetic_packets(1000, supernode_fraction=0.0, seed=3)))
        assert batch.npackets == 1000

    def test_bytes_positive(self):
        batch = next(iter(synthetic_packets(100, seed=4)))
        assert np.all(batch.bytes > 0)
