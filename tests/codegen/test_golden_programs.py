"""Golden digests of emitted programs.

Every registry solver is composed and compiled on the full and the subset
machine at a few non-cubic shapes, and each resulting program is hashed
over everything that decides what the machine computes: the encoded
microwords, each image's resolved inputs and constant table, the control
script and the variable layout.  The digests were recorded from the
straightforward per-job compile path; any change to composition,
placement or code generation must leave them bit-identical.

To re-derive the table after a *deliberate* change to emitted code, run
``PYTHONPATH=src python tests/codegen/test_golden_programs.py`` from the
repository root and paste what it prints.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

import pytest

from repro.arch.node import NodeConfig
from repro.arch.params import DEFAULT_PARAMS, SUBSET_PARAMS
from repro.codegen.generator import MachineProgram, MicrocodeGenerator
from repro.compose.jacobi import build_jacobi_program
from repro.compose.registry import SOLVERS

MACHINES = {"full": DEFAULT_PARAMS, "subset": SUBSET_PARAMS}
SHAPES: Tuple[Tuple[int, int, int], ...] = ((5, 6, 7), (8, 5, 6), (7, 9, 5))


def program_digest(program: MachineProgram) -> str:
    """SHA-256 over microwords, resolved inputs, constants, control and
    variable layout — the parts of a program its results depend on."""
    digest = hashlib.sha256()
    for image in program.images:
        digest.update(image.microword.encode())
        digest.update(repr(sorted(image.inputs.items())).encode("utf-8"))
        digest.update(repr(sorted(image.fu_ops.items())).encode("utf-8"))
    digest.update(repr(program.control).encode("utf-8"))
    digest.update(repr(sorted(program.variable_layout.items())).encode("utf-8"))
    return digest.hexdigest()


def _case_id(method: str, machine: str, shape: Tuple[int, int, int]) -> str:
    return f"{method}-{machine}-{'x'.join(map(str, shape))}"


def _build(method: str, machine: str, shape: Tuple[int, int, int]) -> MachineProgram:
    node = NodeConfig(MACHINES[machine])
    if method == "jacobi-step":  # the multinode SPMD program (no loop)
        program = build_jacobi_program(node, shape, eps=1e-3, loop=False).program
    else:
        program = SOLVERS[method].build_setup(
            node, shape, eps=1e-3, max_iterations=40, omega=1.5
        ).program
    return MicrocodeGenerator(node).generate(program)


METHODS = tuple(SOLVERS) + ("jacobi-step",)
CASES = [
    (method, machine, shape)
    for method in METHODS
    for machine in MACHINES
    for shape in SHAPES
]

GOLDEN: Dict[str, str] = {
    "jacobi-full-5x6x7": "a4d0afc3f01cbd276ea7664737dea40630090be139d1c7df29e6b9e75581841c",
    "jacobi-full-8x5x6": "076364246e0543d13b35c538021a6ea28638fa17c826e0a144c31b76d450c6cb",
    "jacobi-full-7x9x5": "f525fc05a9cf6e6898de8744a4eae226a54e56128aa205d25cce9d44762b4523",
    "jacobi-subset-5x6x7": "95d2761c4240602872c08c808bbc13eeb266985238d9cd4ca1649e39906b4677",
    "jacobi-subset-8x5x6": "a9a1a468bda5e629c1290763b36e6e91dbc34f4602b5a45e46c9ec9ac6e135c3",
    "jacobi-subset-7x9x5": "229e49257a43db6d1cb612831cc60c1a587ff8f048cc3b7e34e12710ffa2c361",
    "rb-gs-full-5x6x7": "f4def7ee82ce8d3d976f21e655ff4947f222fa65ed5f72dafa2594225d05cf3f",
    "rb-gs-full-8x5x6": "13f5eb7959761ee99c990fbb507c31eed5002ede9ac9d9184480f830b20c691e",
    "rb-gs-full-7x9x5": "922209a4b748c0df6268e418e952d1417076894e0deea8ab99639ebe42e0bdfb",
    "rb-gs-subset-5x6x7": "7f766f8d07bf9ba66629c110525a3a0da7e42206b12c8b596843f8cbe7b36f22",
    "rb-gs-subset-8x5x6": "84bf9ebfb1adc5ea73247797695ccd9bf4c76c935057349ec8a3dd74e9987905",
    "rb-gs-subset-7x9x5": "6e37bb9dfe866b113e1fb9a5362f740f8ff1c1ba23d22e072c05c805d10da88b",
    "rb-sor-full-5x6x7": "e5077f56d9cd0f6128d37582cbef0b9a120707eff4f1c4ca38351bf7fa25e7c8",
    "rb-sor-full-8x5x6": "01494926c4b78e4c92fde9b9ae7ee8d62bd5eaf6a709c7fb0dc53461a94f8594",
    "rb-sor-full-7x9x5": "cb77da5b23f36b4ce4c126d0d9c379e8bcd4321843380dab13d787fd0dea8a7f",
    "rb-sor-subset-5x6x7": "2d786a25a36c13f307e51d3a6c99f1dc9bbaeb58619bf84234e78269a4858965",
    "rb-sor-subset-8x5x6": "812158358d8578570b15585402132eb9465c7f4440eed01c4cc8081146b5aab1",
    "rb-sor-subset-7x9x5": "711f818f3964cc5b70a4b712dbc5ff142b825baaa35ece2a1a4c954ea8397d6c",
    "jacobi-step-full-5x6x7": "1bd6fcf0e721ae8b8b313df4c9d5800371930a585046f2f33f0142470d1bd7d3",
    "jacobi-step-full-8x5x6": "5477b4c289bb6c7b45b15e78a7c75691288fa7eb464ce5b9e441103fe2ff1410",
    "jacobi-step-full-7x9x5": "fca8d816bd71b8b00c24284b9d7a13479b1a09dcd3f10fc5110ed019bbe01e74",
    "jacobi-step-subset-5x6x7": "78d54ece3f25de03b7847d2e04548c48c23afe08544d8bda0d3a75667a2d2ac3",
    "jacobi-step-subset-8x5x6": "d5800a2553430be8eb80c2a27302fc851b3b28a1ad2dcc2d24db33ec42ebe210",
    "jacobi-step-subset-7x9x5": "f2e2d3d08686a6d66d33b4bff6a440fbcbb496f2f7c2645f393af64219b48b10",
}


def test_golden_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(_case_id(*case) for case in CASES)


@pytest.mark.parametrize(
    "method,machine,shape", CASES, ids=[_case_id(*case) for case in CASES]
)
def test_emitted_program_matches_golden(method, machine, shape):
    program = _build(method, machine, shape)
    assert program_digest(program) == GOLDEN[_case_id(method, machine, shape)]


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{_case_id(*case)}": "{program_digest(_build(*case))}",')
