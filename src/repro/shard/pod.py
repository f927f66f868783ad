"""One pod: a self-contained testbed advanced in lockstep windows.

A :class:`Pod` wraps a :class:`~repro.experiments.runner.PreparedRun`
— the exact build/collect code path of ``run_scenario`` — and adds
the three things the shard coordinator needs between windows:

* **passive signals** (:meth:`signals`): window request counts and
  p95, per-server free memory, the throttleable-VM inventory, the
  fleet controller's stranded evacuees and the live capacity bill.
  Collection drains the pod's own response-time window sink and reads
  cumulative counters through cursors; it never schedules an event or
  draws randomness, so a pod that receives no commands stays
  bit-identical to a plain one-shot run;
* **command application** (:meth:`apply`): throttles, commanded
  migrations and cross-pod evacuations, applied at the window
  boundary in list order;
* **cross-pod evacuation** (export/import): a stranded *ballast* VM —
  the only species with no in-flight driver state — leaves this pod's
  placement engine and hypervisor entirely (its image charged to the
  source NIC) and is re-created in another pod under the name
  ``<vm>@<source pod>`` (charged to the destination NIC).

Everything a pod reports across process boundaries is plain data.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from repro.control.actuation import CapacityActuator
from repro.errors import ConfigurationError
from repro.experiments.runner import prepare_run
from repro.monitoring.export import trace_set_sha256
from repro.placement.fleet import FleetController
from repro.placement.migration import MIN_IMAGE_BYTES
from repro.placement.spec import VmRequest
from repro.shard.spec import FleetScenario, PodSpec
from repro.units import GB
from repro.virt.io_backend import DOM0_OWNER
from repro.workloads import BallastWorkload
from repro.workloads.base import BALLAST, TenantSpec


class Pod:
    """A named testbed stepping to coordinator-chosen boundaries."""

    def __init__(self, spec: PodSpec, fleet: FleetScenario) -> None:
        self.name = spec.name
        # The pod seed derives from the fleet seed + pod name (never
        # the shard), and the fleet's horizon overrides the config's.
        config = replace(
            spec.config,
            seed=fleet.pod_seed(spec.name),
            duration_s=fleet.duration_s,
        )
        self.config = config
        self.scenario = config.to_scenario()
        self.prepared = prepare_run(self.scenario)
        self.sim = self.prepared.sim
        self.testbed = self.prepared.testbed
        #: Plain-data log of every command this pod applied.
        self.command_log: List[dict] = []
        #: Evacuation bookkeeping (``{vm, peer}`` dicts).
        self.exported: List[dict] = []
        self.imported: List[dict] = []
        # A live sink, not a cursor into the capped response-time
        # reservoir, so the window p95 survives long runs.
        self._window: list = []
        self.testbed.web.stats.add_window_sink(self._window)
        self._requests_cursor = 0
        self._result = None

    # -- internals ---------------------------------------------------------

    @property
    def engine(self):
        return self.testbed.engine

    @property
    def fleet_controller(self) -> Optional[FleetController]:
        for controller in self.testbed.controllers:
            if isinstance(controller, FleetController):
                return controller
        return None

    def _ballast_tenant(self, vm_name: str) -> Optional[BallastWorkload]:
        tenant_name = (
            vm_name[: -len("-vm")] if vm_name.endswith("-vm") else vm_name
        )
        for tenant in self.testbed.tenants:
            if tenant.name == tenant_name and isinstance(
                tenant, BallastWorkload
            ):
                return tenant
        return None

    # -- lockstep lifecycle ------------------------------------------------

    def start(self) -> None:
        self.prepared.start()

    def advance_to(self, horizon_s: float) -> None:
        self.prepared.run_until(horizon_s)

    def finish(self) -> dict:
        """Collect the run and return the plain-data pod summary."""
        result = self.prepared.collect()
        self._result = result
        fleet_controller = self.fleet_controller
        return {
            "pod": self.name,
            "scenario": self.scenario.name,
            "seed": self.scenario.seed,
            "servers": self.config.servers,
            "vms": 2 + len(self.config.tenants)
            + len(self.imported) - len(self.exported),
            "requests_completed": result.requests_completed,
            "throughput_rps": result.throughput_rps,
            "mean_ms": result.mean_response_time_s * 1000.0,
            "p95_ms": result.p95_response_time_s * 1000.0,
            "events_fired": result.events_fired,
            "trace_sha256": trace_set_sha256(result.traces),
            "billing": self.testbed.billing_report(),
            "fleet": (
                fleet_controller.report()
                if fleet_controller is not None
                else None
            ),
            "tenant_reports": result.tenant_reports,
            "commands": list(self.command_log),
            "exported": list(self.exported),
            "imported": list(self.imported),
            "phases_s": result.phases_s,
        }

    # -- window signals (passive reads only) -------------------------------

    def signals(self) -> dict:
        """This window's coordinator-facing state (plain data)."""
        stats = self.testbed.web.stats
        window = self._window
        p95_ms = (
            float(np.percentile(np.asarray(window), 95.0)) * 1000.0
            if window
            else 0.0
        )
        # Drain in place: the registered sink reference must stay alive.
        window.clear()
        requests_total = stats.responses_received
        requests_delta = requests_total - self._requests_cursor
        self._requests_cursor = requests_total

        signal = {
            "pod": self.name,
            "time_s": self.sim.now,
            "requests_total": requests_total,
            "requests_delta": requests_delta,
            "p95_ms": p95_ms,
            "billing": self.testbed.billing_report(),
            "migration_busy": False,
            "failed_servers": [],
            "stranded": [],
            "free_memory": {},
            "vms": [],
        }
        engine = self.engine
        if engine is None:
            return signal
        fleet_controller = self.fleet_controller
        failed = (
            list(fleet_controller.failed_servers)
            if fleet_controller is not None
            else []
        )
        signal["failed_servers"] = failed
        signal["free_memory"] = {
            load.name: load.free_memory_bytes
            for load in engine.server_loads()
            if load.name not in failed
        }
        if fleet_controller is not None:
            signal["migration_busy"] = (
                fleet_controller._active is not None
                or bool(fleet_controller._evac_queue)
            )
            signal["stranded"] = [
                self._export_descriptor(vm)
                for vm in fleet_controller.stranded_guests()
            ]
        vms = []
        for vm_name, server in sorted(engine.assignment().items()):
            request = engine.request_for(vm_name)
            if request.priority > 0:
                continue  # the web pair is never a throttle/move target
            domain = engine.hypervisors[server].domain(vm_name)
            vms.append({
                "name": vm_name,
                "server": server,
                "movable": request.movable,
                "vcpus": domain.online_vcpus,
                "cap_cores": domain.cap_cores,
                "mem_used": engine.hypervisors[server].vm_memory_used(
                    domain
                ),
            })
        signal["vms"] = vms
        return signal

    def _export_descriptor(self, vm_name: str) -> dict:
        """The shippable description of one stranded guest."""
        hypervisor = self.engine.hypervisor_for(vm_name)
        domain = hypervisor.domain(vm_name)
        request = self.engine.request_for(vm_name)
        return {
            "name": vm_name,
            # Only a ballast VM may leave the pod: its whole state is
            # its reservation (no driver events in flight).
            "shippable": self._ballast_tenant(vm_name) is not None,
            "vcpus": len(domain.vcpus),
            "memory_bytes": domain.memory_bytes,
            "weight": domain.weight,
            "cap_cores": domain.cap_cores,
            "priority": request.priority,
            "mem_used": hypervisor.vm_memory_used(domain),
        }

    # -- command application ------------------------------------------------

    def apply(self, commands: List[dict]) -> None:
        """Apply a window's commands in list order at the boundary."""
        for command in commands:
            op = command["op"]
            if op == "throttle":
                self._apply_throttle(command)
            elif op == "migrate":
                self._apply_migrate(command)
            elif op == "evacuate":
                self._apply_evacuate(command)
            elif op == "import":
                self._apply_import(command)
            else:
                raise ConfigurationError(
                    f"pod {self.name!r}: unknown command op {op!r}"
                )

    def _log(self, command: dict, outcome: str) -> None:
        entry = dict(command)
        entry["time_s"] = self.sim.now
        entry["outcome"] = outcome
        self.command_log.append(entry)

    def _apply_throttle(self, command: dict) -> None:
        vm_name = command["vm"]
        hypervisor = self.engine.hypervisor_for(vm_name)
        domain = hypervisor.domain(vm_name)
        CapacityActuator(hypervisor, domain).throttle(
            command["cap_cores"]
        )
        self._log(command, "applied")

    def _apply_migrate(self, command: dict) -> None:
        controller = self.fleet_controller
        if controller is None:
            self._log(command, "no-fleet-controller")
            return
        started = controller.request_migration(command["vm"])
        self._log(command, "started" if started else "declined")

    def _apply_evacuate(self, command: dict) -> None:
        """Export a stranded ballast VM out of this pod entirely."""
        vm_name = command["vm"]
        tenant = self._ballast_tenant(vm_name)
        if tenant is None:
            raise ConfigurationError(
                f"pod {self.name!r}: only ballast VMs are cross-pod "
                f"evacuable, not {vm_name!r}"
            )
        controller = self.fleet_controller
        if controller is not None:
            controller.cancel_evacuation(vm_name)
        hypervisor = self.engine.hypervisor_for(vm_name)
        domain = hypervisor.domain(vm_name)
        # Ship the image off this pod's NIC (the failed server's wire
        # still runs — crash faults starve the scheduler, not dom0).
        image_bytes = max(
            hypervisor.vm_memory_used(domain), MIN_IMAGE_BYTES
        )
        hypervisor.server.nic.transmit(
            self.sim.now, DOM0_OWNER, image_bytes
        )
        hypervisor.server.cpu.charge(
            DOM0_OWNER,
            image_bytes * hypervisor.overhead.net_cycles_per_byte,
        )
        hypervisor.detach_domain(vm_name)
        self.engine.remove_vm(vm_name)
        tenant.mark_evacuated(command["dest_pod"])
        self.exported.append(
            {"vm": vm_name, "peer": command["dest_pod"]}
        )
        self._log(command, "exported")

    def _apply_import(self, command: dict) -> None:
        """Re-create an evacuated ballast VM shipped from a peer pod."""
        image = command["image"]
        src_pod = command["src_pod"]
        new_name = f"{image['name']}@{src_pod}"
        request = VmRequest(
            name=new_name,
            vcpus=image["vcpus"],
            memory_bytes=image["memory_bytes"],
            priority=image["priority"],
            movable=True,
        )
        self.engine.place([request])
        hypervisor = self.engine.hypervisor_for(new_name)
        domain = hypervisor.create_domain(
            new_name,
            vcpu_count=image["vcpus"],
            memory_bytes=image["memory_bytes"],
            weight=image["weight"],
            cap_cores=image["cap_cores"],
        )
        hypervisor.set_vm_memory(domain, image["mem_used"])
        image_bytes = max(image["mem_used"], MIN_IMAGE_BYTES)
        hypervisor.server.nic.receive(
            self.sim.now, DOM0_OWNER, image_bytes
        )
        hypervisor.server.cpu.charge(
            DOM0_OWNER,
            image_bytes * hypervisor.overhead.net_cycles_per_byte,
        )
        # Record the adoptee as a ballast tenant so per-tenant reports
        # cover it (no probes, no events — reservation only).
        spec = TenantSpec(
            name=_tenant_name_for(image["name"], src_pod),
            workload=BALLAST,
            vcpus=image["vcpus"],
            memory_gb=image["memory_bytes"] / GB,
            weight=image["weight"],
            cap_cores=image["cap_cores"],
        )
        self.testbed.tenants.append(
            BallastWorkload(
                self.sim, None, spec, [], self.scenario.duration_s
            )
        )
        self.imported.append({"vm": new_name, "peer": src_pod})
        self._log(command, "imported")


def _tenant_name_for(vm_name: str, src_pod: str) -> str:
    base = vm_name[: -len("-vm")] if vm_name.endswith("-vm") else vm_name
    return f"{base}@{src_pod}"
