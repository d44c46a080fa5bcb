"""DRAM substrate: organisation, timing, energy, and functional models."""

from repro.dram.address import RowAddress
from repro.dram.commands import Command, CommandTrace, CommandType
from repro.dram.energy import DDR4_ENERGY, HMC_ENERGY, EnergyParameters
from repro.dram.geometry import DDR4_8GB, HMC_3DS_GEOMETRY, DRAMGeometry
from repro.dram.refresh import RefreshModel, RowStepper
from repro.dram.scheduler import CommandScheduler, ScheduledCommand
from repro.dram.subarray import Subarray
from repro.dram.timing import DDR4_2400, HMC_3DS, TimingParameters

__all__ = [
    "RowAddress",
    "Command",
    "CommandTrace",
    "CommandType",
    "DDR4_ENERGY",
    "HMC_ENERGY",
    "EnergyParameters",
    "DDR4_8GB",
    "HMC_3DS_GEOMETRY",
    "DRAMGeometry",
    "RefreshModel",
    "RowStepper",
    "CommandScheduler",
    "ScheduledCommand",
    "Subarray",
    "DDR4_2400",
    "HMC_3DS",
    "TimingParameters",
]
