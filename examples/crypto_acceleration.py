"""Cryptography example: Salsa20, VMPC, and CRC-32 on pLUTo.

Encrypts packets with the from-scratch Salsa20 and VMPC implementations,
verifies that the LUT-decomposed variants produce identical ciphertext,
computes packet CRCs, and prints the modelled speedups of the three pLUTo
designs over the CPU baseline for each workload.

With ``--optimize`` each cipher family's recorded pipeline (CRC byte-table
chain, Salsa20 add-rotate-xor lane, VMPC nested substitutions) also runs
through the program optimizer (:mod:`repro.opt`), printing the
:class:`~repro.opt.report.OptimizationReport` and verifying bit-identical
ciphertext.

Run with:  python examples/crypto_acceleration.py [--optimize]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.baselines import CPU_XEON_5118, ProcessorBaseline
from repro.core import PlutoConfig, PlutoDesign, PlutoEngine
from repro.utils.units import format_time
from repro.workloads import CrcWorkload, Salsa20Workload, VmpcWorkload


def run_optimized_pipelines(engine: PlutoEngine) -> None:
    """Run the recorded crypto pipelines through the pass pipeline."""
    from repro.plan import ExecutionPlan
    from repro.workloads.programs import workload_program

    for name in ("crc", "salsa20", "vmpc"):
        program = workload_program(name, elements=8192)
        print(f"--- {program.family} pipeline, optimized ---")
        print(f"({program.description})")
        plain = program.session.run(program.inputs, engine=engine)
        optimized = program.session.run(
            program.inputs, engine=engine, plan=ExecutionPlan(optimize=True)
        )
        for output in plain.outputs:
            assert np.array_equal(
                plain.outputs[output], optimized.outputs[output]
            ), output
        print(optimized.optimization.summary())
        print(f"modelled latency: {format_time(plain.latency_ns)} -> "
              f"{format_time(optimized.latency_ns)} "
              f"({plain.latency_ns / optimized.latency_ns:.2f}x), "
              "outputs bit-identical")
        print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--optimize", action="store_true",
                        help="also run each family's recorded pipeline "
                             "through the program optimizer")
    arguments = parser.parse_args()
    cpu = ProcessorBaseline(CPU_XEON_5118)
    workloads = [Salsa20Workload(), VmpcWorkload(), CrcWorkload(32)]

    for workload in workloads:
        print(f"--- {workload.name} ---")
        data = workload.generate_input(1024, seed=7)
        reference = workload.reference(data)
        via_luts = workload.lut_reference(data)
        assert np.array_equal(reference, via_luts), "LUT decomposition mismatch"
        if workload.name != "CRC-32":
            # Stream ciphers are involutions: decrypting restores the input.
            assert np.array_equal(workload.reference(reference), data)
        print(f"verified {data.size} bytes through the LUT decomposition")

        recipe = workload.recipe
        elements = workload.default_elements
        cpu_cost = cpu.evaluate(recipe, elements)
        print(f"CPU latency for {elements} bytes: {format_time(cpu_cost.latency_ns)}")
        for design in (PlutoDesign.GSA, PlutoDesign.BSA, PlutoDesign.GMC):
            engine = PlutoEngine(PlutoConfig(design=design))
            report = engine.execute(recipe, elements)
            total = report.total_latency_ns + recipe.serial_fraction * cpu_cost.latency_ns
            print(f"  {design.display_name:10s}: {format_time(total)}"
                  f"  ({cpu_cost.latency_ns / total:6.0f}x over CPU)")
        print()

    if arguments.optimize:
        run_optimized_pipelines(PlutoEngine(PlutoConfig(design=PlutoDesign.BSA)))


if __name__ == "__main__":
    main()
