"""Algorithm 1 — the deadlock-removal driver.

The outer loop of the paper's method:

1. build the channel dependency graph from the current routes;
2. find the smallest cycle (breaking the smallest cycle first often also
   breaks larger cycles sharing edges with it);
3. evaluate the cost of breaking the cycle in the forward and in the
   backward direction (Algorithm 2) and apply the cheaper break;
4. update topology and routes and repeat until the CDG is acyclic.

On top of the paper's algorithm this module exposes two ablation knobs used
by the benchmark harness: the cycle-selection heuristic (smallest / largest
/ random) and the direction policy (best-of-both / forward-only /
backward-only).

Interchangeable engines drive the loop, looked up by name in the pluggable
:data:`repro.api.registry.removal_engines` registry (new engines register
with a decorator and become valid ``engine=`` values everywhere, including
:class:`~repro.api.spec.RunSpec` and the CLI).  Built-ins:

* ``engine="context"`` (default) — the CDG is maintained from the route
  deltas each break reports, on the shared per-design state of
  :class:`~repro.perf.design_context.DesignContext`.  The smallest-cycle
  search is SCC-pruned and cached per component, re-searching only the
  dirty region, and each BFS is depth-limited to where a strictly shorter
  cycle can still exist.  Cost tables for both break directions come from
  one pass over interned channel-id arrays (:mod:`repro.perf.cost_index`),
  and the affected flows of a break are read from the indexed per-edge
  flow sets instead of scanning every route.  Identical
  :class:`~repro.core.report.BreakAction` sequences to the rebuild engine.
* ``engine="rebuild"`` — the seed behaviour: ``build_cdg(work)`` from
  scratch and a full BFS sweep per iteration.  Kept as the reference for
  cross-checks, ablation selections (largest / random) and benchmarking.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional

from repro.api.registry import removal_engines
from repro.core.breaker import RESOURCE_PHYSICAL, RESOURCE_VIRTUAL, break_cycle
from repro.core.cdg import build_cdg
from repro.core.cost import BACKWARD, FORWARD, find_dependency_to_break
from repro.core.cycles import (
    count_cycles,
    find_all_cycles,
    find_largest_cycle,
    find_smallest_cycle,
)
from repro.core.report import RemovalResult
from repro.errors import ConvergenceError, RemovalError
from repro.model.design import NocDesign
from repro.model.validation import validate_design
from repro.perf.cycle_search import IncrementalCycleSearch, count_cycles_indexed
from repro.perf.design_context import DesignContext

SELECT_SMALLEST = "smallest"
SELECT_LARGEST = "largest"
SELECT_RANDOM = "random"
_SELECTIONS = (SELECT_SMALLEST, SELECT_LARGEST, SELECT_RANDOM)

POLICY_BEST = "best"
POLICY_FORWARD = "forward"
POLICY_BACKWARD = "backward"
_POLICIES = (POLICY_BEST, POLICY_FORWARD, POLICY_BACKWARD)

ENGINE_CONTEXT = "context"
ENGINE_REBUILD = "rebuild"
#: Engine used when callers do not choose one explicitly.
DEFAULT_REMOVAL_ENGINE = ENGINE_CONTEXT


class DeadlockRemover:
    """Configurable implementation of Algorithm 1.

    Parameters
    ----------
    cycle_selection:
        Which cycle to break at every iteration.  ``"smallest"`` is the
        paper's heuristic; ``"largest"`` and ``"random"`` exist for the
        ablation benchmark.
    direction_policy:
        ``"best"`` compares forward and backward costs (the paper);
        ``"forward"`` / ``"backward"`` force a single direction.
    resource_mode:
        ``"virtual"`` (default) duplicates channels as extra VCs on the same
        physical link; ``"physical"`` adds parallel physical links instead,
        for NoC architectures without VC support (Section 1 of the paper).
    max_iterations:
        Safety cap; ``None`` derives a generous bound from the CDG size.
    count_initial_cycles:
        When true the initial number of elementary cycles is counted (can be
        expensive on dense CDGs) and stored in the result.
    seed:
        Random seed, only used with ``cycle_selection="random"``.
    on_iteration:
        Optional callback invoked with each
        :class:`~repro.core.report.BreakAction` as it happens.
    validate:
        Validate the design before and after removal (recommended).
    engine:
        ``"context"`` (default) maintains the CDG from route deltas on the
        shared :class:`~repro.perf.design_context.DesignContext` state and
        runs the SCC-pruned, depth-limited indexed cycle search with
        one-pass int-indexed cost tables and indexed affected-flow lookup;
        ``"rebuild"`` is the seed behaviour (full ``build_cdg`` + full BFS
        sweep per iteration).  Both produce identical break sequences; the
        context engine only speeds up the paper's ``"smallest"`` selection
        and transparently falls back to rebuilding for the ablation
        selections.
    cross_check:
        Debug flag: after every route-delta update of the CDG index,
        rebuild the CDG from scratch and assert the index matches it
        exactly (slow — for tests and debugging only), and re-derive every
        cost table (and break choice) with the reference builder, raising
        on any mismatch; the CDG verification covers the per-edge flow sets
        the affected-flow lookup is served from.  Ignored by the rebuild
        engine.
    """

    def __init__(
        self,
        *,
        cycle_selection: str = SELECT_SMALLEST,
        direction_policy: str = POLICY_BEST,
        resource_mode: str = RESOURCE_VIRTUAL,
        max_iterations: Optional[int] = None,
        count_initial_cycles: bool = True,
        seed: int = 0,
        on_iteration: Optional[Callable] = None,
        validate: bool = True,
        engine: str = DEFAULT_REMOVAL_ENGINE,
        cross_check: bool = False,
    ):
        if cycle_selection not in _SELECTIONS:
            raise RemovalError(f"unknown cycle selection {cycle_selection!r}")
        if direction_policy not in _POLICIES:
            raise RemovalError(f"unknown direction policy {direction_policy!r}")
        if resource_mode not in (RESOURCE_VIRTUAL, RESOURCE_PHYSICAL):
            raise RemovalError(f"unknown resource mode {resource_mode!r}")
        if engine not in removal_engines:
            raise RemovalError(
                f"unknown removal engine {engine!r}; "
                f"available: {', '.join(removal_engines.names())}"
            )
        self.cycle_selection = cycle_selection
        self.direction_policy = direction_policy
        self.resource_mode = resource_mode
        self.max_iterations = max_iterations
        self.count_initial_cycles = count_initial_cycles
        self.seed = seed
        self.on_iteration = on_iteration
        self.validate = validate
        self.engine = engine
        self.cross_check = cross_check

    # ------------------------------------------------------------------
    def _select_cycle(self, cdg, rng: random.Random):
        if self.cycle_selection == SELECT_SMALLEST:
            return find_smallest_cycle(cdg)
        if self.cycle_selection == SELECT_LARGEST:
            return find_largest_cycle(cdg, limit=2000)
        cycles = find_all_cycles(cdg, limit=2000)
        if not cycles:
            return None
        return cycles[rng.randrange(len(cycles))]

    def _choose_break(self, cycle, routes):
        if self.direction_policy == POLICY_FORWARD:
            cost, pos, table = find_dependency_to_break(cycle, routes, FORWARD)
            return FORWARD, cost, pos, table
        if self.direction_policy == POLICY_BACKWARD:
            cost, pos, table = find_dependency_to_break(cycle, routes, BACKWARD)
            return BACKWARD, cost, pos, table
        f_cost, f_pos, f_table = find_dependency_to_break(cycle, routes, FORWARD)
        b_cost, b_pos, b_table = find_dependency_to_break(cycle, routes, BACKWARD)
        if f_cost <= b_cost:
            return FORWARD, f_cost, f_pos, f_table
        return BACKWARD, b_cost, b_pos, b_table

    # ------------------------------------------------------------------
    def remove(self, design: NocDesign, *, in_place: bool = False) -> RemovalResult:
        """Run Algorithm 1 on ``design`` and return the removal result.

        By default the input design is left untouched and the result carries
        a modified copy; pass ``in_place=True`` to mutate the input.
        """
        start = time.perf_counter()
        if self.validate:
            validate_design(design)
        if self.engine == ENGINE_CONTEXT and not in_place:
            # Warm the *source* design's CDG index before copying: copy()
            # then forks it into the work design's context, so repeated
            # removal runs on the same design clone the index per run
            # instead of rebuilding it from the routes per run.
            DesignContext.of(design).cdg_index()
        work = design if in_place else design.copy()

        rng = random.Random(self.seed)
        engine = removal_engines.get(self.engine)
        result = engine(self, work, rng)

        result.runtime_seconds = time.perf_counter() - start
        if self.validate:
            validate_design(work)
        return result

    def _remove_rebuild(self, work: NocDesign, rng: random.Random) -> RemovalResult:
        """The seed loop: full CDG rebuild and full cycle re-search per break."""
        cdg = build_cdg(work)
        initial_cycles = 0
        initially_free = cdg.is_acyclic()
        if self.count_initial_cycles and not initially_free:
            initial_cycles = count_cycles(cdg, limit=2000)

        max_iterations = self.max_iterations
        if max_iterations is None:
            max_iterations = 100 + 10 * max(cdg.edge_count, 1)

        result = RemovalResult(
            design=work,
            initially_deadlock_free=initially_free,
            initial_cycle_count=initial_cycles,
        )

        iteration = 0
        while True:
            cycle = self._select_cycle(cdg, rng)
            if cycle is None:
                break
            iteration += 1
            if iteration > max_iterations:
                remaining = count_cycles(cdg, limit=100)
                raise ConvergenceError(iteration - 1, remaining)
            action = self._apply_break(work, cycle, iteration, result)
            # The CDG is a pure function of the routes, so rebuilding it after
            # every break keeps it consistent by construction (Step 12).
            cdg = build_cdg(work)

        result.iterations = iteration
        if not cdg.is_acyclic():  # pragma: no cover - defensive
            raise RemovalError("internal error: CDG still cyclic after removal loop")
        return result

    def _remove_context(self, work: NocDesign) -> RemovalResult:
        """The design-context loop: shared state + one-pass cost tables.

        Same break sequence as :meth:`_remove_rebuild` with
        ``cycle_selection="smallest"`` (enforced by ``cross_check=True``,
        the hypothesis suites and the per-benchmark action-equality tests):
        the CDG index follows each break's route delta instead of being
        rebuilt, the cost tables of both directions come from one pass over
        interned channel-id arrays, the affected flows of each break are
        read from the indexed per-edge flow sets, and the cycle search is
        SCC-pruned, cached per component and depth-limited.
        """
        context = DesignContext.of(work)
        index = context.cdg_index()
        cost_engine = context.cost_engine()
        initially_free = index.is_acyclic()
        initial_cycles = 0
        if self.count_initial_cycles and not initially_free:
            initial_cycles = count_cycles_indexed(index, limit=2000)

        max_iterations = self.max_iterations
        if max_iterations is None:
            max_iterations = 100 + 10 * max(index.edge_count, 1)

        result = RemovalResult(
            design=work,
            initially_deadlock_free=initially_free,
            initial_cycle_count=initial_cycles,
        )

        policy = {
            POLICY_BEST: "best",
            POLICY_FORWARD: FORWARD,
            POLICY_BACKWARD: BACKWARD,
        }[self.direction_policy]
        search = IncrementalCycleSearch(index)
        iteration = 0
        while True:
            cycle = search.find_smallest()
            if cycle is None:
                break
            iteration += 1
            if iteration > max_iterations:
                remaining = count_cycles_indexed(index, limit=100)
                raise ConvergenceError(iteration - 1, remaining)
            direction, cost, position, table = cost_engine.best_break(cycle, policy)
            if self.cross_check:
                self._verify_indexed_choice(work, cycle, direction, position, table)
            action = break_cycle(
                work,
                cycle,
                position,
                direction,
                iteration=iteration,
                cost_table=table,
                resource_mode=self.resource_mode,
                context=context,
            )
            result.actions.append(action)
            if self.on_iteration is not None:
                self.on_iteration(action)
            for flow_name, old_route in (action.previous_routes or {}).items():
                context.apply_route_change(
                    flow_name, old_route, work.routes.route(flow_name)
                )
            if self.cross_check:
                index.verify_against(build_cdg(work))

        result.iterations = iteration
        if not index.is_acyclic():  # pragma: no cover - defensive
            raise RemovalError("internal error: CDG still cyclic after removal loop")
        return result

    def _verify_indexed_choice(self, work, cycle, direction, position, table) -> None:
        """Cross-check: the indexed cost engine must match the reference."""
        ref_direction, ref_cost, ref_position, ref_table = self._choose_break(
            cycle, work.routes
        )
        if (
            (direction, table.best_cost, position)
            != (ref_direction, ref_cost, ref_position)
            or table != ref_table
        ):
            raise RemovalError(
                "indexed cost engine diverged from the reference builder: "
                f"chose {direction!r} cost {table.best_cost} at position "
                f"{position}, reference chose {ref_direction!r} cost "
                f"{ref_cost} at position {ref_position}"
            )

    def _apply_break(self, work: NocDesign, cycle, iteration: int, result: RemovalResult):
        """Cost both directions, break the cheaper one, record the action."""
        direction, cost, position, table = self._choose_break(cycle, work.routes)
        action = break_cycle(
            work,
            cycle,
            position,
            direction,
            iteration=iteration,
            cost_table=table,
            resource_mode=self.resource_mode,
        )
        result.actions.append(action)
        if self.on_iteration is not None:
            self.on_iteration(action)
        return action


@removal_engines.register(ENGINE_CONTEXT)
def _context_engine(
    remover: DeadlockRemover, work: NocDesign, rng: random.Random
) -> RemovalResult:
    """Default engine: design-context shared state + one-pass cost tables.

    Only accelerates the paper's ``"smallest"`` selection; the ablation
    selections transparently fall back to the rebuild loop.
    """
    if remover.cycle_selection != SELECT_SMALLEST:
        return remover._remove_rebuild(work, rng)
    return remover._remove_context(work)


@removal_engines.register(ENGINE_REBUILD)
def _rebuild_engine(
    remover: DeadlockRemover, work: NocDesign, rng: random.Random
) -> RemovalResult:
    """Seed engine: full ``build_cdg`` + full BFS sweep per iteration."""
    return remover._remove_rebuild(work, rng)


def remove_deadlocks(design: NocDesign, **options) -> RemovalResult:
    """Convenience wrapper: ``DeadlockRemover(**options).remove(design)``."""
    in_place = options.pop("in_place", False)
    remover = DeadlockRemover(**options)
    return remover.remove(design, in_place=in_place)


def is_deadlock_free(design: NocDesign) -> bool:
    """True when the design's CDG is already acyclic (no removal needed)."""
    return build_cdg(design).is_acyclic()
