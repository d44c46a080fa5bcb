"""Image-processing example: in-DRAM binarization and colour grading.

Generates a synthetic photograph-like image (the paper evaluates a
936,000-pixel, 3-channel image), runs the ImgBin and ColorGrade workloads
functionally through a pLUTo-enabled subarray, verifies the outputs against
the host references, and compares the modelled pLUTo execution time and
energy against the CPU and GPU baselines.

With ``--optimize`` the example additionally records the whole pipeline
(grade -> threshold -> invert) as one API program and runs it through the
program optimizer (:mod:`repro.opt`): the three chained 256-entry maps
fuse into a single composed LUT query with bit-identical outputs, and the
:class:`~repro.opt.report.OptimizationReport` is printed.

Run with:  python examples/image_pipeline.py [--pixels N] [--optimize]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.baselines import CPU_XEON_5118, GPU_RTX_3080TI, ProcessorBaseline
from repro.core import PlutoConfig, PlutoDesign, PlutoEngine
from repro.utils.units import format_energy, format_time
from repro.workloads import ColorGrading, ImageBinarization


def run_workload(workload, elements: int, engine: PlutoEngine) -> None:
    print(f"--- {workload.name} ---")
    # Functional check on a row-sized slice through the real LUT-query path.
    data = workload.generate_input(min(elements, 4096), seed=1)
    subarray = engine.create_subarray(workload._lut)  # noqa: SLF001 - example introspection
    sample = data[: subarray.elements_per_query()]
    in_dram = subarray.query_indices(sample.astype(np.uint64))
    expected = workload.reference(sample)
    assert np.array_equal(in_dram, expected), "in-DRAM result differs from reference"
    print(f"functional check  : {sample.size} pixels match the host reference")

    # Cost comparison at the full image size.
    recipe = workload.recipe
    report = engine.execute(recipe, elements)
    cpu = ProcessorBaseline(CPU_XEON_5118).evaluate(recipe, elements)
    gpu = ProcessorBaseline(GPU_RTX_3080TI).evaluate(recipe, elements)
    print(f"pLUTo-BSA latency : {format_time(report.total_latency_ns)}"
          f"  energy {format_energy(report.total_energy_nj)}")
    print(f"CPU latency       : {format_time(cpu.latency_ns)}"
          f"  energy {format_energy(cpu.energy_nj)}")
    print(f"GPU latency       : {format_time(gpu.latency_ns)}"
          f"  energy {format_energy(gpu.energy_nj)}")
    print(f"speedup over CPU  : {cpu.latency_ns / report.total_latency_ns:.0f}x, "
          f"energy saving {cpu.energy_nj / report.total_energy_nj:.0f}x")
    print()


def run_optimized_pipeline(engine: PlutoEngine) -> None:
    """Record the full image pipeline and show the optimizer's savings."""
    from repro.plan import ExecutionPlan
    from repro.workloads.programs import workload_program

    print("--- optimized pipeline (grade -> threshold -> invert) ---")
    program = workload_program("image", elements=16384)
    plain = program.session.run(program.inputs, engine=engine)
    optimized = program.session.run(
        program.inputs, engine=engine, plan=ExecutionPlan(optimize=True)
    )
    for name in plain.outputs:
        assert np.array_equal(plain.outputs[name], optimized.outputs[name]), name
    print(optimized.optimization.summary())
    print(f"modelled latency  : {format_time(plain.latency_ns)} -> "
          f"{format_time(optimized.latency_ns)} "
          f"({plain.latency_ns / optimized.latency_ns:.2f}x)")
    print(f"outputs           : bit-identical across {plain.outputs['inverted'].size} "
          "pixels")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pixels", type=int, default=936_000,
                        help="number of pixels (3 channel values each)")
    parser.add_argument("--optimize", action="store_true",
                        help="also run the recorded pipeline through the "
                             "program optimizer and print its report")
    arguments = parser.parse_args()
    elements = arguments.pixels * 3

    engine = PlutoEngine(PlutoConfig(design=PlutoDesign.BSA))
    run_workload(ImageBinarization(), elements, engine)
    run_workload(ColorGrading(), elements, engine)
    if arguments.optimize:
        run_optimized_pipeline(engine)


if __name__ == "__main__":
    main()
