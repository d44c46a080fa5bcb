"""DRAM timing parameters.

All values are expressed in nanoseconds.  The defaults follow the evaluated
configuration of the paper (Table 3): DDR4-2400, 17-17-17 timings
(tRCD = tRP = tCL = 14.16 ns) with a nominal tFAW of 13.328 ns, and an
HMC-like 3D-stacked configuration with faster row activation and much
smaller rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

__all__ = [
    "TimingParameters",
    "DDR4_2400",
    "HMC_3DS",
]


@dataclass(frozen=True)
class TimingParameters:
    """Timing constants of a DRAM device (nanoseconds).

    Attributes
    ----------
    t_rcd:
        ACT-to-RD/WR delay; also the time for sense amplifiers to latch a row.
    t_rp:
        PRE-to-ACT delay (precharge time).
    t_ras:
        Minimum ACT-to-PRE delay.
    t_cl:
        CAS latency (RD command to first data).
    t_ccd:
        Column-to-column delay (back-to-back RD/WR bursts).
    t_ccd_l:
        Column-to-column delay between accesses to the *same* bank group
        (DDR4's long variant: the group's shared column circuitry needs
        extra turnaround time).
    t_ccd_s:
        Column-to-column delay between accesses to *different* bank
        groups (the short variant; equals the nominal burst spacing).
    t_faw:
        Four-activation window: at most four ACTs per rank per ``t_faw``.
    t_rrd:
        ACT-to-ACT delay between different banks.
    t_refi:
        Average refresh interval.
    t_rfc:
        Refresh cycle time.
    t_burst:
        Data burst duration for one column access.
    clock_ns:
        Clock period of the memory interface.
    """

    t_rcd: float = 14.16
    t_rp: float = 14.16
    t_ras: float = 32.0
    t_cl: float = 14.16
    t_ccd: float = 3.33
    t_ccd_l: float = 5.0
    t_ccd_s: float = 3.33
    t_faw: float = 13.328
    t_rrd: float = 3.33
    t_refi: float = 7800.0
    t_rfc: float = 350.0
    t_burst: float = 3.33
    clock_ns: float = 0.833

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0:
                raise ConfigurationError(f"timing parameter {name} must be >= 0")
        if self.clock_ns <= 0:
            raise ConfigurationError("clock period must be positive")
        if self.t_ccd_l < self.t_ccd_s:
            raise ConfigurationError(
                "tCCD_L (same bank group) cannot be shorter than tCCD_S"
            )

    @property
    def t_rc(self) -> float:
        """Row cycle time (ACT to next ACT on the same bank)."""
        return self.t_ras + self.t_rp

    @property
    def act_pre_cycle(self) -> float:
        """Cost of one ACT + PRE pair as used by the analytical model."""
        return self.t_rcd + self.t_rp

    def with_tfaw_fraction(self, fraction: float) -> "TimingParameters":
        """Return a copy with ``t_faw`` scaled to ``fraction`` of nominal.

        ``fraction == 0`` removes the constraint entirely (the paper's
        "unthrottled" configuration); ``fraction == 1`` keeps the nominal
        value.  Used by the Figure 13 sensitivity study.
        """
        if fraction < 0:
            raise ConfigurationError("tFAW fraction must be >= 0")
        return replace(self, t_faw=self.t_faw * fraction)


#: DDR4-2400 17-17-17 (Table 3).  tRCD = tRP = 14.16 ns.
DDR4_2400 = TimingParameters()

#: HMC-like 3D-stacked DRAM: faster activation on short bitlines.
#: The paper attributes the 3DS speedup (~38 % on average) to faster row
#: activations; we model this with ~30 % lower tRCD/tRP.
HMC_3DS = TimingParameters(
    t_rcd=10.2,
    t_rp=10.2,
    t_ras=24.0,
    t_cl=10.2,
    t_ccd=2.5,
    t_ccd_l=3.75,
    t_ccd_s=2.5,
    t_faw=9.6,
    t_rrd=2.5,
    t_refi=3900.0,
    t_rfc=260.0,
    t_burst=1.25,
    clock_ns=0.625,
)
