"""Multi-node simulation: the hypercube system of §2.

The paper scopes its environment to single-node programming and quotes the
system-level numbers (64 nodes, 40 GFLOPS, 128 GB) without evaluation; this
layer supplies the substrate to measure them.  A 3-D grid is decomposed
into z-slabs, one per node; slabs map to hypercube nodes by Gray code so
adjacent slabs are physical neighbours; each node runs the *same* Jacobi
update program on its slab (SPMD); ghost planes are exchanged through the
hyperspace router between sweeps, with compute and communication cycle
counts tracked separately.

``MultiNodeStencil(..., backend="fast")`` drives the whole sweep/halo/
convergence loop from one compiled schedule (see ``docs/BACKENDS.md``);
multi-node runs are schedulable as service jobs via
``SimJob(hypercube_dim=...)`` (see ``docs/SERVICE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.arch.node import shared_node
from repro.arch.params import NSCParameters
from repro.arch.router import HyperspaceRouter, Message
from repro.codegen.generator import MicrocodeGenerator
from repro.compose.jacobi import build_jacobi_program, grid_shape
from repro.obs import tracer as obs
from repro.sim.machine import NSCMachine
from repro.sim.pipeline_exec import execute_image


class DecompositionError(Exception):
    """The grid cannot be split across the requested node count."""


def gray_code(i: int) -> int:
    """Gray encoding: consecutive integers differ in one bit, so adjacent
    slabs land on neighbouring hypercube nodes."""
    return i ^ (i >> 1)


@dataclass
class MultiNodeResult:
    """Aggregate outcome of a multi-node stencil run."""

    n_nodes: int
    iterations: int
    converged: bool
    compute_cycles: int
    comm_cycles: int
    words_exchanged: int
    flops: int
    clock_mhz: float
    peak_gflops: float
    residual_history: List[float] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.comm_cycles

    @property
    def elapsed_us(self) -> float:
        return self.total_cycles / self.clock_mhz

    @property
    def achieved_gflops(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.flops / self.elapsed_us / 1000.0

    @property
    def comm_fraction(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.comm_cycles / self.total_cycles

    @property
    def efficiency(self) -> float:
        if self.peak_gflops == 0:
            return 0.0
        return self.achieved_gflops / self.peak_gflops


class MultiNodeStencil:
    """Domain-decomposed Jacobi across a simulated hypercube.

    The global grid is ``(nx, ny, nz)``; ``nz`` must divide evenly by the
    node count.  Every node's local grid carries two ghost z-planes.
    """

    def __init__(
        self,
        params: Optional[NSCParameters] = None,
        hypercube_dim: Optional[int] = None,
        shape: Tuple[int, int, int] = (8, 8, 8),
        eps: float = 1e-6,
        precompiled: Optional[tuple] = None,
        backend: str = "reference",
    ) -> None:
        from repro.sim.fastpath import validate_backend

        self.backend = validate_backend(backend)
        self.params = params if params is not None else NSCParameters()
        dim = (
            hypercube_dim
            if hypercube_dim is not None
            else self.params.hypercube_dim
        )
        self.params = self.params.subset(hypercube_dim=dim)
        self.n_nodes = 1 << dim
        self.shape = shape
        self.eps = eps
        nx, ny, nz = shape
        if nz % self.n_nodes != 0:
            raise DecompositionError(
                f"nz={nz} does not divide across {self.n_nodes} nodes"
            )
        self.nz_local = nz // self.n_nodes
        if self.nz_local < 1:
            raise DecompositionError("fewer than one z-plane per node")
        self.local_shape = (nx, ny, self.nz_local + 2)  # with ghost planes
        self.router = HyperspaceRouter(self.params)
        self.machines: List[NSCMachine] = []
        self.node_of_slab: List[int] = [gray_code(i) for i in range(self.n_nodes)]
        self._precompiled = precompiled
        # every node is the same machine: one shared description serves all
        self.node = shared_node(self.params)
        self._setup_nodes()

    # ------------------------------------------------------------------
    def _setup_nodes(self) -> None:
        if self._precompiled is not None:
            # a (JacobiSetup, MachineProgram) pair from the service's
            # ProgramCache — every node runs the same SPMD program, so one
            # compile serves arbitrarily many stencil instances
            setup, machine_program = self._precompiled
            if tuple(setup.shape) != self.local_shape:
                raise DecompositionError(
                    f"precompiled program targets local shape {setup.shape}, "
                    f"decomposition needs {self.local_shape}"
                )
            self.setup = setup
            self.machine_program = machine_program
        else:
            generator = MicrocodeGenerator(self.node)
            setup = build_jacobi_program(
                self.node, self.local_shape, eps=self.eps, loop=False
            )
            self.setup = setup
            self.machine_program = generator.generate(setup.program)
        nx, ny, _ = self.shape
        n_local = nx * ny * (self.nz_local + 2)
        mask, invmask = self._slab_masks()
        for _slab in range(self.n_nodes):
            machine = NSCMachine(self.node)
            machine.load_program(self.machine_program)
            machine.set_variable("mask", mask[_slab])
            machine.set_variable("invmask", invmask[_slab])
            machine.set_variable("u", np.zeros(n_local))
            machine.set_variable("f", np.zeros(n_local))
            machine.set_variable("u_new", np.zeros(n_local))
            self.machines.append(machine)

    def _slab_masks(self) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Per-slab interior masks: ghost planes and global boundaries are
        never updated; interior z-planes adjacent to another slab are."""
        nx, ny, nz = self.shape
        masks: List[np.ndarray] = []
        invmasks: List[np.ndarray] = []
        for slab in range(self.n_nodes):
            m = np.zeros((self.nz_local + 2, ny, nx), dtype=np.float64)
            z0 = slab * self.nz_local  # global index of first real plane
            for local_k in range(1, self.nz_local + 1):
                gk = z0 + (local_k - 1)
                if 0 < gk < nz - 1:
                    m[local_k, 1:-1, 1:-1] = 1.0
            flat = m.reshape(-1)
            masks.append(flat)
            invmasks.append(1.0 - flat)
        return masks, invmasks

    # ------------------------------------------------------------------
    # data distribution
    # ------------------------------------------------------------------
    def scatter(self, name: str, grid: np.ndarray) -> None:
        """Distribute a global ``(nz, ny, nx)`` grid into slab variables,
        filling ghost planes from neighbouring slabs."""
        nx, ny, nz = self.shape
        g = np.asarray(grid, dtype=np.float64).reshape(grid_shape(self.shape))
        for slab, machine in enumerate(self.machines):
            local = np.zeros((self.nz_local + 2, ny, nx))
            z0 = slab * self.nz_local
            local[1:-1] = g[z0 : z0 + self.nz_local]
            if z0 > 0:
                local[0] = g[z0 - 1]
            if z0 + self.nz_local < nz:
                local[-1] = g[z0 + self.nz_local]
            machine.set_variable(name, local.reshape(-1))

    def gather(self, name: str = "u") -> np.ndarray:
        """Reassemble the global grid from slab variables (ghosts dropped)."""
        nx, ny, nz = self.shape
        out = np.zeros(grid_shape(self.shape))
        for slab, machine in enumerate(self.machines):
            local = machine.get_variable(name).reshape(
                self.nz_local + 2, ny, nx
            )
            z0 = slab * self.nz_local
            out[z0 : z0 + self.nz_local] = local[1:-1]
        return out

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _load_caches(self, backend: str = "reference") -> int:
        """Run the mask-cache load pipeline on every node (and swap the
        double buffers to expose the loaded masks); returns cycles."""
        worst = 0
        for machine in self.machines:
            res = execute_image(
                self.machine_program.images[0], machine, backend=backend
            )
            machine.caches[0].swap()
            machine.caches[1].swap()
            worst = max(worst, res.cycles)
        return worst

    def _sweep(self, backend: str = "reference") -> Tuple[int, float, int]:
        """One Jacobi sweep on every node plus the halo exchange.

        Returns (cycles, global residual, words exchanged this sweep)."""
        compute = 0
        residual = 0.0
        flops = 0
        for machine in self.machines:
            res = execute_image(
                self.machine_program.images[1], machine, backend=backend
            )
            machine.swap_vars("u", "u_new")
            compute = max(compute, res.cycles)
            if res.condition_value is not None:
                residual = max(residual, res.condition_value)
            flops += res.flops
        self._sweep_flops = flops
        words = self._exchange_halos()
        return compute, residual, words

    def _halo_messages(self) -> List[Message]:
        """Router messages for one ghost-plane exchange (both directions)."""
        nx, ny, _nz = self.shape
        plane_words = nx * ny
        messages: List[Message] = []
        for slab in range(self.n_nodes - 1):
            lo, hi = self.node_of_slab[slab], self.node_of_slab[slab + 1]
            messages.append(Message(src=lo, dst=hi, words=plane_words, tag="up"))
            messages.append(Message(src=hi, dst=lo, words=plane_words, tag="down"))
        return messages

    def _exchange_halos(self) -> int:
        """Ghost-plane exchange between adjacent slabs through the router."""
        nx, ny, _nz = self.shape
        plane_words = nx * ny
        messages = self._halo_messages()
        if messages:
            self._comm_cycles_last = self.router.exchange(messages)
        else:
            self._comm_cycles_last = 0
        # move the actual data
        for slab in range(self.n_nodes - 1):
            left = self.machines[slab]
            right = self.machines[slab + 1]
            u_left = left.get_variable("u").reshape(self.nz_local + 2, ny, nx)
            u_right = right.get_variable("u").reshape(self.nz_local + 2, ny, nx)
            u_right[0] = u_left[-2]   # left's last real plane -> right's low ghost
            u_left[-1] = u_right[1]   # right's first real plane -> left's high ghost
            left.set_variable("u", u_left.reshape(-1))
            right.set_variable("u", u_right.reshape(-1))
        return 2 * (self.n_nodes - 1) * plane_words

    def _per_issue_stepper(self, backend: str = "reference"):
        """(load, sweep, finish) callables walking node by node.

        ``backend="reference"`` is the interpreter tier;
        ``backend="fast"`` is the middle tier — the same walk, but every
        instruction issues through the compiled per-image plans
        (:func:`repro.sim.fastpath.execute_image_fast`): identical
        results at per-node fast-path speed."""
        def load():
            return self._load_caches(backend=backend)

        def sweep():
            cycles, residual, sweep_words = self._sweep(backend=backend)
            return (cycles, residual, self._comm_cycles_last, sweep_words,
                    self._sweep_flops)

        return load, sweep, lambda: None

    def _reference_stepper(self):
        """(load, sweep, finish) callables for the per-node interpreter."""
        obs.count("tier.reference")
        obs.annotate("tier", "reference")
        return self._per_issue_stepper("reference")

    def _fast_stepper(self):
        """(load, sweep, finish) callables for the compiled engine.

        Programs the whole-system compiler declines (an exotic build the
        batched :class:`~repro.sim.progplan.FastMultiNodeEngine` cannot
        prove fusable — residual-skew ablation builds fuse as of the
        coverage work, so this is now rare) fall back to the *per-issue
        fast* stepper, not the reference interpreter: identical results,
        per-node fast-path speed.  Either way the selected tier (and any
        decline's reason) lands in the active tracer."""
        from repro.sim.progplan import FusionUnsupported, fused_stepper

        try:
            stepper = fused_stepper(self)
        except FusionUnsupported as exc:
            obs.count("tier.per_issue")
            obs.count("fusion.fallback")
            obs.annotate("tier", "per_issue")
            obs.annotate("fallback_reason", str(exc))
            obs.event("fusion_fallback", scope="multinode", reason=str(exc))
            return self._per_issue_stepper("fast")
        obs.count("tier.fused")
        obs.annotate("tier", "fused")
        return stepper

    def run(self, max_iterations: int = 1000) -> MultiNodeResult:
        """Iterate to convergence (or the bound); returns aggregate results.

        With ``backend="fast"`` the whole system executes through the
        batched :class:`~repro.sim.progplan.FastMultiNodeEngine` — mask
        load, fused compute sweeps, and route-once halo replay driven
        from one compiled schedule, state pulled once and pushed back at
        the end.  Both backends share this one accumulation loop, so
        they cannot drift apart in accounting; only the three stepper
        callables differ.
        """
        load, sweep, finish = (
            self._fast_stepper() if self.backend == "fast"
            else self._reference_stepper()
        )
        compute_cycles = load()
        comm_cycles = 0
        words = 0
        flops = 0
        history: List[float] = []
        converged = False
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            sweep_cycles, residual, comm, sweep_words, sweep_flops = sweep()
            compute_cycles += sweep_cycles
            comm_cycles += comm
            words += sweep_words
            flops += sweep_flops
            history.append(residual)
            if residual < self.eps:
                converged = True
                break
        finish()
        return MultiNodeResult(
            n_nodes=self.n_nodes,
            iterations=iterations,
            converged=converged,
            compute_cycles=compute_cycles,
            comm_cycles=comm_cycles,
            words_exchanged=words,
            flops=flops,
            clock_mhz=self.params.clock_mhz,
            peak_gflops=self.params.peak_mflops_per_node * self.n_nodes / 1000.0,
            residual_history=history,
        )


__all__ = [
    "MultiNodeStencil",
    "MultiNodeResult",
    "DecompositionError",
    "gray_code",
]
