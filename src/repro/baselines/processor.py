"""Processor-centric baselines: CPU, GPU, and FPGA roofline models.

The paper's baselines are a Xeon Gold 5118 (SSE2/SSE4), a GeForce RTX 3080
Ti, and a Zynq UltraScale+ ZCU102 driven by HLS.  We model each as a
roofline machine:

``latency = fixed_overhead + max(compute_time, memory_time, transfer_time)``

* ``compute_time`` follows the recipe's per-element operation count scaled
  by the machine's usable throughput.  The CPU and GPU consume the
  *effective* operation count of the measured software implementation
  (``cpu_ops_per_element`` derated by ``simd_efficiency``); the FPGA
  consumes the *kernel* operation count because its HLS pipeline implements
  exactly the kernel.
* ``memory_time`` follows per-element traffic over the device's sustained
  memory bandwidth.
* ``transfer_time`` (GPU only) moves the working set over the host
  interconnect (PCIe), which is what pins discrete-GPU throughput on these
  streaming byte-granularity workloads.

Energy combines dynamic energy per byte/operation with busy power over the
run time.  The calibration targets the *relative* results of Figures 7-10;
``examples/run_all_experiments.py`` lists the deviations it causes in the
report it writes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import BaselineCost, BaselineSystem
from repro.core.recipe import WorkloadRecipe
from repro.errors import ConfigurationError

__all__ = [
    "ProcessorSpec",
    "ProcessorBaseline",
    "CPU_XEON_5118",
    "GPU_RTX_3080TI",
    "GPU_P100",
    "FPGA_ZCU102",
]


@dataclass(frozen=True)
class ProcessorSpec:
    """Roofline parameters of a processor-centric system."""

    name: str
    #: Sustained main-memory bandwidth in bytes per nanosecond (GB/s).
    memory_bandwidth_gbps: float
    #: Usable integer throughput in operations per nanosecond (Gops).
    compute_throughput_gops: float
    #: Busy power in watts (used for energy over time).
    busy_power_w: float
    #: Fixed per-invocation overhead (kernel launch, reconfiguration) in ns.
    fixed_overhead_ns: float
    #: Dynamic energy per byte of off-chip traffic (nJ/B).
    energy_per_byte_nj: float
    #: Dynamic energy per scalar operation (nJ/op).
    energy_per_op_nj: float
    #: Die / board area in mm^2 (performance-per-area figures).
    area_mm2: float
    #: Host-interconnect bandwidth the working set must cross (GB/s), or
    #: ``None`` when the device operates directly on host memory.
    host_transfer_bandwidth_gbps: float | None = None
    #: Whether the device executes the pure kernel (FPGA pipelines) rather
    #: than the measured software implementation (CPU/GPU libraries).
    uses_kernel_ops: bool = False
    #: Whether ``simd_efficiency`` applies (software baselines only).
    applies_simd_efficiency: bool = True

    def __post_init__(self) -> None:
        if self.memory_bandwidth_gbps <= 0 or self.compute_throughput_gops <= 0:
            raise ConfigurationError(f"{self.name}: rates must be positive")
        if self.busy_power_w < 0 or self.fixed_overhead_ns < 0:
            raise ConfigurationError(f"{self.name}: power/overhead must be >= 0")
        if (
            self.host_transfer_bandwidth_gbps is not None
            and self.host_transfer_bandwidth_gbps <= 0
        ):
            raise ConfigurationError(f"{self.name}: transfer bandwidth must be positive")


#: Intel Xeon Gold 5118: 12 cores @ 2.3 GHz.  The sustained scalar-equivalent
#: throughput of the measured (library/table-driven) implementations is
#: ~30 Gop/s before the per-workload SIMD-efficiency derating.
CPU_XEON_5118 = ProcessorSpec(
    name="CPU",
    memory_bandwidth_gbps=20.0,
    compute_throughput_gops=30.0,
    busy_power_w=105.0,
    fixed_overhead_ns=2_000.0,
    energy_per_byte_nj=0.15,
    energy_per_op_nj=0.25,
    area_mm2=485.0,
)

#: NVIDIA GeForce RTX 3080 Ti: massive on-board bandwidth and throughput,
#: but the working set of these streaming byte kernels crosses PCIe 3.0
#: (~12 GB/s effective), which bounds end-to-end throughput.
GPU_RTX_3080TI = ProcessorSpec(
    name="GPU",
    memory_bandwidth_gbps=800.0,
    compute_throughput_gops=15_000.0,
    busy_power_w=350.0,
    fixed_overhead_ns=20_000.0,
    energy_per_byte_nj=0.06,
    energy_per_op_nj=0.02,
    area_mm2=628.0,
    host_transfer_bandwidth_gbps=12.0,
)

#: NVIDIA Tesla P100 (Table 7's data-centre GPU): HBM2 on board, PCIe to host.
GPU_P100 = ProcessorSpec(
    name="GPU-P100",
    memory_bandwidth_gbps=550.0,
    compute_throughput_gops=10_000.0,
    busy_power_w=300.0,
    fixed_overhead_ns=20_000.0,
    energy_per_byte_nj=0.05,
    energy_per_op_nj=0.02,
    area_mm2=610.0,
    host_transfer_bandwidth_gbps=12.0,
)

#: Xilinx Zynq UltraScale+ ZCU102: the HLS designs are modest-clock
#: pipelines (one kernel operation per fabric cycle at ~120 MHz effective
#: after HLS initiation intervals); throughput is kernel-bound well below
#: the board's DDR4 bandwidth.
FPGA_ZCU102 = ProcessorSpec(
    name="FPGA",
    memory_bandwidth_gbps=19.2,
    compute_throughput_gops=0.12,
    busy_power_w=20.0,
    fixed_overhead_ns=5_000.0,
    energy_per_byte_nj=0.10,
    energy_per_op_nj=0.01,
    area_mm2=600.0,
    uses_kernel_ops=True,
    applies_simd_efficiency=False,
)


class ProcessorBaseline(BaselineSystem):
    """Roofline cost model of a processor-centric system."""

    def __init__(self, spec: ProcessorSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.area_mm2 = spec.area_mm2

    def evaluate(self, recipe: WorkloadRecipe, elements: int) -> BaselineCost:
        """Roofline latency plus busy-power energy for one workload run."""
        if elements <= 0:
            raise ConfigurationError("element count must be positive")
        spec = self.spec
        bytes_moved = elements * recipe.bytes_per_element
        if spec.uses_kernel_ops:
            operations = elements * recipe.effective_kernel_ops
        else:
            operations = elements * recipe.cpu_ops_per_element

        memory_time_ns = bytes_moved / spec.memory_bandwidth_gbps
        throughput = spec.compute_throughput_gops
        if spec.applies_simd_efficiency:
            throughput *= recipe.simd_efficiency
        compute_time_ns = operations / throughput
        transfer_time_ns = 0.0
        if spec.host_transfer_bandwidth_gbps is not None:
            transfer_time_ns = bytes_moved / spec.host_transfer_bandwidth_gbps

        latency = spec.fixed_overhead_ns + max(
            memory_time_ns, compute_time_ns, transfer_time_ns
        )
        dynamic_energy = (
            bytes_moved * spec.energy_per_byte_nj + operations * spec.energy_per_op_nj
        )
        static_energy = spec.busy_power_w * latency  # W * ns = nJ
        return BaselineCost(
            system=spec.name,
            workload=recipe.name,
            elements=elements,
            latency_ns=latency,
            energy_nj=dynamic_energy + static_energy,
        )
