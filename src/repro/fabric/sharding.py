"""Sharding policies: mapping one logical address space onto N banks.

The paper's controllers each wrap a *single* dual-ported BRAM; the fabric
(see :mod:`repro.fabric.fabric`) composes several of them behind one
logical address space of ``num_banks * WORDS_PER_BRAM`` words.  A sharding
policy is the pure address arithmetic of that composition — which physical
bank serves a logical word, and at which bank-local address:

* **interleaved** — ``bank = addr % N``, ``local = addr // N``: consecutive
  words round-robin across banks, spreading any access stream evenly (the
  classic low-order interleave);
* **range** — ``bank = addr // 512``, ``local = addr % 512``: each bank
  owns a contiguous slice, preserving locality so one thread's working set
  stays on one bank (the allocator balances threads across slices).

Both are bijections, so ``logical_address(bank_for(a), local_address(a))``
round-trips — the property the fabric's memory view and the tests rely on.
"""

from __future__ import annotations

import abc

from ..memory.allocation import WORDS_PER_BRAM


class ShardingPolicy(abc.ABC):
    """Pure address arithmetic mapping logical words to (bank, local)."""

    name = "abstract"

    def __init__(self, num_banks: int):
        if num_banks <= 0:
            raise ValueError("a fabric needs at least one bank")
        self.num_banks = num_banks
        self.words_per_bank = WORDS_PER_BRAM

    @property
    def capacity(self) -> int:
        """Logical words addressable through the fabric."""
        return self.num_banks * self.words_per_bank

    def check(self, logical: int) -> None:
        if not 0 <= logical < self.capacity:
            raise ValueError(
                f"logical address {logical} outside the fabric's "
                f"{self.capacity}-word space"
            )

    @abc.abstractmethod
    def bank_for(self, logical: int) -> int:
        """Physical bank index serving ``logical``."""

    @abc.abstractmethod
    def local_address(self, logical: int) -> int:
        """Bank-local word address of ``logical``."""

    @abc.abstractmethod
    def logical_address(self, bank: int, local: int) -> int:
        """Inverse mapping: the logical word at (bank, local)."""

    def bank_name(self, bank: int) -> str:
        return f"bank{bank}"

    def describe(self) -> str:
        return (
            f"{self.name}: {self.num_banks} banks x "
            f"{self.words_per_bank} words"
        )


class InterleavedSharding(ShardingPolicy):
    """Low-order interleave: word ``a`` lives on bank ``a % N``."""

    name = "interleaved"

    def bank_for(self, logical: int) -> int:
        self.check(logical)
        return logical % self.num_banks

    def local_address(self, logical: int) -> int:
        self.check(logical)
        return logical // self.num_banks

    def logical_address(self, bank: int, local: int) -> int:
        return local * self.num_banks + bank


class RangeSharding(ShardingPolicy):
    """Contiguous slices: bank ``a // words_per_bank`` owns word ``a``."""

    name = "range"

    def bank_for(self, logical: int) -> int:
        self.check(logical)
        return logical // self.words_per_bank

    def local_address(self, logical: int) -> int:
        self.check(logical)
        return logical % self.words_per_bank

    def logical_address(self, bank: int, local: int) -> int:
        return bank * self.words_per_bank + local


#: Registry consumed by the CLI's ``--shard-policy`` flag.
POLICIES = {
    InterleavedSharding.name: InterleavedSharding,
    RangeSharding.name: RangeSharding,
}


def make_policy(name: str, num_banks: int) -> ShardingPolicy:
    """Instantiate a sharding policy by name (``interleaved`` / ``range``)."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown sharding policy {name!r} "
            f"(expected one of {sorted(POLICIES)})"
        ) from None
    return cls(num_banks)
