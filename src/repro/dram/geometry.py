"""DRAM organisation (geometry) descriptions.

A :class:`DRAMGeometry` captures the hierarchy of Figure 1: channel -> rank
-> bank group -> bank -> subarray -> row -> cell.  The two presets mirror
Table 3: an 8 GB DDR4 module with 8 kB rows and 512 rows per subarray, and
an HMC-like 3D-stacked device with 256 B rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["DRAMGeometry", "DDR4_8GB", "HMC_3DS_GEOMETRY"]


@dataclass(frozen=True)
class DRAMGeometry:
    """Static organisation of a DRAM device.

    Attributes
    ----------
    channels, ranks, bank_groups, banks_per_group:
        Interface-level hierarchy (Table 3 uses 1 channel, 1 rank, 4 bank
        groups with 4 banks each).
    subarrays_per_bank:
        Number of subarrays in each bank.
    rows_per_subarray:
        Number of DRAM rows (wordlines) per subarray.
    row_size_bytes:
        Size of one DRAM row (the local row buffer width).
    """

    channels: int = 1
    ranks: int = 1
    bank_groups: int = 4
    banks_per_group: int = 4
    subarrays_per_bank: int = 128
    rows_per_subarray: int = 512
    row_size_bytes: int = 8192

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value <= 0:
                raise ConfigurationError(f"geometry field {name} must be positive")

    @property
    def banks(self) -> int:
        """Total number of banks per rank."""
        return self.bank_groups * self.banks_per_group

    @property
    def total_banks(self) -> int:
        """Total number of banks in the device."""
        return self.channels * self.ranks * self.banks

    @property
    def total_subarrays(self) -> int:
        """Total number of subarrays in the device."""
        return self.total_banks * self.subarrays_per_bank

    @property
    def row_size_bits(self) -> int:
        """Row size in bits."""
        return self.row_size_bytes * 8

    @property
    def rows_per_bank(self) -> int:
        """Number of rows in one bank."""
        return self.subarrays_per_bank * self.rows_per_subarray

    @property
    def bank_capacity_bytes(self) -> int:
        """Capacity of one bank in bytes."""
        return self.rows_per_bank * self.row_size_bytes

    @property
    def capacity_bytes(self) -> int:
        """Total device capacity in bytes."""
        return self.total_banks * self.bank_capacity_bytes

    @property
    def capacity_gib(self) -> float:
        """Total device capacity in GiB."""
        return self.capacity_bytes / float(1 << 30)

    def elements_per_row(self, bit_width: int) -> int:
        """Number of ``bit_width``-bit elements that fit in one row."""
        if bit_width <= 0:
            raise ConfigurationError("bit width must be positive")
        return self.row_size_bits // bit_width

    def rows_for(self, elements: int, bit_width: int) -> int:
        """Rows a register of ``elements`` ``bit_width``-bit elements spans.

        At least one: the allocator binds every row register to one or
        more whole rows.
        """
        return max(1, -(-elements // self.elements_per_row(bit_width)))

    def validate_row(self, subarray: int, row: int) -> None:
        """Raise :class:`ConfigurationError` if (subarray, row) is out of range."""
        if not 0 <= subarray < self.subarrays_per_bank:
            raise ConfigurationError(
                f"subarray {subarray} out of range [0, {self.subarrays_per_bank})"
            )
        if not 0 <= row < self.rows_per_subarray:
            raise ConfigurationError(
                f"row {row} out of range [0, {self.rows_per_subarray})"
            )


#: 8 GB DDR4 module (Table 3): 16 banks x 128 subarrays x 512 rows x 8 kB.
DDR4_8GB = DRAMGeometry()

#: HMC-like 3D-stacked geometry: many small subarrays with 256 B rows.
#: 16 banks (vault partitions) x 2048 subarrays x 512 rows x 256 B = 4 GiB,
#: matching the paper's "512 subarrays with 256 B row buffers" evaluation
#: granularity (512 subarrays are used per operation out of the total).
HMC_3DS_GEOMETRY = DRAMGeometry(
    channels=1,
    ranks=1,
    bank_groups=4,
    banks_per_group=4,
    subarrays_per_bank=2048,
    rows_per_subarray=512,
    row_size_bytes=256,
)
