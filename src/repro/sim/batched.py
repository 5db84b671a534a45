"""Batched event substrate: the million-request simulator.

:class:`BatchedWorkflowSystem` is a drop-in subclass of
:class:`repro.sim.system.MicroserviceWorkflowSystem` that replaces the
object-per-request hot path with array-backed state:

- requests live in a :class:`repro.sim.requests.RequestPool`
  (struct-of-arrays, integer-indexed),
- queues are :class:`repro.sim.queueing.IndexFifo` index buffers,
- events are typed integer rows on a :class:`repro.sim.events.TypedEventLoop`,
- dependency routing runs on a
  :class:`repro.sim.tds.CompiledDependencyTable`.

The control surface (``apply_allocation``, ``run_window``, ``drain``,
``inject_burst``, observations, conservation checks) is inherited
unchanged.  Semantics are *event-for-event identical* to the serial
substrate: same seed, same scenario -> byte-identical traces and equal
:func:`repro.sim.substrate.substrate_snapshot` results.  The contract
is written down in docs/SIMULATOR.md and pinned by
tests/sim/test_batched_substrate.py.

There is one execution tier: the typed event loop pops one event at a
time and drives :class:`repro.sim.microservice.BatchedMicroservice`
executors, so tracing, scaling, faults and arrivals all take the same
path.  The speed comes from array state — no per-request objects, no
per-event closures, a heap instead of the serial O(consumers) idle
scan — not from skipping events.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import numpy as np

from repro.sim.events import TypedEventLoop
from repro.sim.microservice import BatchedMicroservice
from repro.sim.requests import RequestPool
from repro.sim.system import MicroserviceWorkflowSystem
from repro.sim.tds import CompiledDependencyTable, TaskDependencyService

__all__ = ["BatchedWorkflowSystem", "BatchedInvoker"]


class BatchedInvoker:
    """Integer-indexed workflow invoker (Fig. 1 steps 1, 2 and 4).

    Mirrors :class:`repro.sim.invoker.WorkflowInvoker` exactly —
    submission order, TDS read accounting, AND-join publish points,
    completion detection — but addresses workflow instances by pool row
    and tasks by compiled-table indices.  The AND-join test is a
    countdown (``wf_pred_remaining`` hits zero) instead of the serial
    set-membership scan; both fire at the same completion event.
    """

    def __init__(
        self,
        loop: TypedEventLoop,
        tds: TaskDependencyService,
        table: CompiledDependencyTable,
        pool: RequestPool,
        services: List[BatchedMicroservice],
        on_workflow_complete=None,
    ):
        self.loop = loop
        self.tds = tds
        self.table = table
        self.pool = pool
        self.services = services
        self.on_workflow_complete = on_workflow_complete
        self.submitted_total = 0
        self.completed_total = 0
        self._workflow_index = {
            name: i for i, name in enumerate(table.workflow_names)
        }
        self._task_names = list(table.ensemble.task_names())

    def workflow_index(self, workflow_type: str) -> int:
        try:
            return self._workflow_index[workflow_type]
        except KeyError:
            raise KeyError(f"unknown workflow type {workflow_type!r}") from None

    # Submission ------------------------------------------------------------
    def submit(self, workflow_type: str, arrival_window: int) -> int:
        """Steps 1–2 of Fig. 1; returns the workflow's pool row index."""
        w = self.workflow_index(workflow_type)
        table = self.table
        pool = self.pool
        now = self.loop.now
        wfi = pool.add_workflow(
            w, now, table.size[w], arrival_window, table.pred_counts[w]
        )
        self.submitted_total += 1
        self.tds.account_reads(1)  # entry-tasks query
        for _local, g in table.entries[w]:
            ti = pool.add_task(g, wfi, now)
            self.services[g].publish(ti)
        return wfi

    # Completion routing ------------------------------------------------------
    def handle_task_completion(self, task: int, now: float) -> None:
        """Step 4 of Fig. 1: publish ready successors; detect completion."""
        pool = self.pool
        table = self.table
        wfi = int(pool.task_workflow[task])
        g = int(pool.task_type[task])
        w = int(pool.wf_type[wfi])
        local = int(table.local_of_task[w][g])
        if pool.wf_task_done[wfi, local]:
            raise RuntimeError(
                f"task {self._task_names[g]!r} completed twice for "
                f"workflow request {wfi}"
            )
        pool.wf_task_done[wfi, local] = 1

        self.tds.account_reads(1)  # successors query
        for s_local, s_g in table.successors[w][local]:
            self.tds.account_reads(1)  # predecessors query (AND-join check)
            remaining = int(pool.wf_pred_remaining[wfi, s_local]) - 1
            pool.wf_pred_remaining[wfi, s_local] = remaining
            if remaining == 0:
                ti = pool.add_task(s_g, wfi, self.loop.now)
                self.services[s_g].publish(ti)
            elif remaining < 0:  # pragma: no cover - double-completion guard
                raise RuntimeError(
                    f"AND-join counter underflow for workflow request {wfi}"
                )

        done = int(pool.wf_done_count[wfi]) + 1
        pool.wf_done_count[wfi] = done
        if done == int(pool.wf_total_tasks[wfi]):
            pool.wf_completion[wfi] = now
            self.completed_total += 1
            if self.on_workflow_complete is not None:
                self.on_workflow_complete(wfi)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchedInvoker(submitted={self.submitted_total}, "
            f"completed={self.completed_total})"
        )


class BatchedWorkflowSystem(MicroserviceWorkflowSystem):
    """Array-backed workflow system, semantics-equal to the serial one.

    Construction, control surface and observations are inherited; only
    the substrate (:meth:`_build_substrate`) and the request-handling
    entry points (:meth:`submit`, :meth:`inject_burst`) differ.

    API deltas (documented in docs/SIMULATOR.md): :meth:`submit` and
    :meth:`inject_burst` return integer pool row indices instead of
    :class:`repro.sim.requests.WorkflowRequest` objects.
    """

    # Substrate wiring ----------------------------------------------------
    def _build_substrate(self) -> None:
        self.loop = TypedEventLoop(profiler=self.profiler)
        self.table = CompiledDependencyTable(self.ensemble)
        self.pool = RequestPool(self.table.max_tasks)
        self.microservices: Dict[str, BatchedMicroservice] = {}
        self._services: List[BatchedMicroservice] = []
        # Same insertion and RNG-fork order as the serial substrate:
        # ensemble.task_types order IS global task-index order.
        for g, task_type in enumerate(self.ensemble.task_types):
            ms = BatchedMicroservice(
                task_type,
                index=g,
                loop=self.loop,
                cluster=self.cluster,
                rng=self._rngs["service_times"].fork(task_type.name),
                pool=self.pool,
                on_task_complete=self._on_batched_task_complete,
                startup_delay_range=self.config.startup_delay_range,
                scale_down_mode=self.config.scale_down_mode,
                tracer=self.tracer,
            )
            self.microservices[task_type.name] = ms
            self._services.append(ms)
        self.invoker = BatchedInvoker(
            self.loop,
            self.tds,
            self.table,
            self.pool,
            self._services,
            on_workflow_complete=self._on_batched_workflow_complete,
        )
        self.loop.bind_executors(self._execute_finish, self._execute_ready)
        self._task_names = list(self.ensemble.task_names())

    def _execute_finish(self, ms_index: int, slot: int) -> None:
        self._services[ms_index].on_finished(slot)

    def _execute_ready(self, ms_index: int, slot: int) -> None:
        self._services[ms_index].on_ready(slot)

    # Workload interface -------------------------------------------------
    def submit(self, workflow_type: str) -> int:
        """Submit one workflow request now; returns its pool row index."""
        wfi = self.invoker.submit(workflow_type, self.window_index)
        self._window_arrivals[workflow_type] = (
            self._window_arrivals.get(workflow_type, 0) + 1
        )
        self.delay_tracker.record_arrival(self.window_index, workflow_type)
        if self.tracer.enabled:
            self._trace_request_ids[wfi] = self._requests_traced
            self.tracer.emit(
                "event.arrival",
                workflow=workflow_type,
                request_id=self._requests_traced,
            )
            self._requests_traced += 1
        return wfi

    def inject_burst(self, counts: Mapping[str, int]) -> List[int]:
        """Submit a burst immediately; returns pool row indices.

        Submissions that can trigger immediate dispatch (an entry queue
        has an idle consumer) or must emit per-request trace events go
        through the exact per-request path; the remainder is appended as
        whole arrays — workflow rows, task rows, TDS read accounting and
        queue contents land exactly as the per-request loop would leave
        them (see docs/SIMULATOR.md on burst-order equivalence).
        """
        self._check_burst(counts)
        pool = self.pool
        table = self.table
        requests: List[int] = []
        for workflow_type, count in counts.items():
            w = self.invoker.workflow_index(workflow_type)
            entry_services = [self._services[g] for _l, g in table.entries[w]]
            remaining = count
            while remaining and (
                self.tracer.enabled
                or any(ms.has_idle() for ms in entry_services)
            ):
                requests.append(self.submit(workflow_type))
                remaining -= 1
            if not remaining:
                continue
            now = self.loop.now
            first = pool.add_workflows(
                remaining, w, now, table.size[w], self.window_index,
                table.pred_counts[w],
            )
            wfis = np.arange(first, first + remaining, dtype=np.int64)
            self.invoker.submitted_total += remaining
            self.tds.account_reads(remaining)  # one entry-tasks query each
            for _local, g in table.entries[w]:
                tis = pool.add_tasks(
                    np.full(remaining, g, dtype=np.int32), wfis, now
                )
                self._services[g].publish_many(tis)
            self._window_arrivals[workflow_type] = (
                self._window_arrivals.get(workflow_type, 0) + remaining
            )
            self.delay_tracker.record_arrivals(
                remaining, self.window_index, workflow_type
            )
            requests.extend(wfis.tolist())
        return requests

    # Completion bookkeeping ----------------------------------------------
    def _on_batched_task_complete(self, task: int, now: float) -> None:
        pool = self.pool
        name = self._task_names[pool.task_type[task]]
        self._window_task_completions[name] = (
            self._window_task_completions.get(name, 0) + 1
        )
        if self.tracer.enabled:
            # Same emit point as the serial substrate's _on_task_complete:
            # after event.task_complete, before successor publishes.
            self.tracer.emit(
                "event.task_span",
                service=name,
                request_id=self._trace_request_ids.get(
                    int(pool.task_workflow[task]), -1
                ),
                published=float(pool.task_published_at[task]),
                started=float(pool.task_started_at[task]),
                deliveries=int(pool.task_deliveries[task]),
                wasted=float(pool.task_wasted_work[task]),
            )
        self.invoker.handle_task_completion(task, now)

    def _on_batched_workflow_complete(self, wfi: int) -> None:
        pool = self.pool
        wf_type = self.table.workflow_names[int(pool.wf_type[wfi])]
        self._window_completions[wf_type] = (
            self._window_completions.get(wf_type, 0) + 1
        )
        delay = float(pool.wf_completion[wfi] - pool.wf_arrival[wfi])
        self._window_response_times.append(delay)
        self._window_response_by_type.setdefault(wf_type, []).append(delay)
        self.delay_tracker.record_completion(
            int(pool.wf_arrival_window[wfi]), wf_type, delay
        )
        if self.tracer.enabled:
            self.tracer.emit(
                "event.workflow_complete",
                workflow=wf_type,
                request_id=self._trace_request_ids.pop(wfi, -1),
                response_time=delay,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchedWorkflowSystem({self.ensemble.name!r}, "
            f"t={self.loop.now:.0f}s, window={self.window_index})"
        )
