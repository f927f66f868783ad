"""Property test: the credit scheduler's epoch memo is invisible.

``CreditScheduler.allocate`` returns the previous decision when every
input equals the previous call's.  This drives one long-lived
scheduler through random sequences of the changes a run makes between
epochs — worker gauges, VCPU hotplug through the domain and through a
single VCPU, cap and weight actuations, live-migration detach/attach,
and the crash fault's direct ``total_cores`` assignment — and checks,
call by call, that it answers exactly what a fresh scheduler computes
from scratch.
"""

from hypothesis import given, settings, strategies as st

from repro.virt.domain import Domain
from repro.virt.scheduler import CreditScheduler

POOL = 5

domain_index = st.integers(min_value=0, max_value=POOL - 1)

operations = st.one_of(
    st.tuples(st.just("noop")),
    st.tuples(st.just("workers"), domain_index, st.integers(0, 6)),
    st.tuples(st.just("worker_started"), domain_index),
    st.tuples(st.just("worker_finished"), domain_index),
    st.tuples(st.just("hotplug"), domain_index, st.integers(1, 4)),
    st.tuples(
        st.just("vcpu_set_online"), domain_index, st.integers(0, 3),
        st.booleans(),
    ),
    st.tuples(
        st.just("vcpu_assign_online"), domain_index, st.integers(0, 3),
        st.booleans(),
    ),
    st.tuples(
        st.just("cap"), domain_index,
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0]),
    ),
    st.tuples(
        st.just("weight"), domain_index,
        st.sampled_from([64.0, 256.0, 1024.0]),
    ),
    st.tuples(st.just("detach_or_attach"), domain_index),
    st.tuples(st.just("replace"), domain_index, domain_index),
    st.tuples(
        st.just("total_cores"), st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0])
    ),
)


def _apply(op, pool, attached, scheduler):
    kind = op[0]
    if kind == "noop":
        return
    if kind == "total_cores":
        scheduler.total_cores = op[1]
        return
    domain = pool[op[1]]
    if kind == "workers":
        domain.active_workers = op[2]
    elif kind == "worker_started":
        domain.worker_started()
    elif kind == "worker_finished":
        if domain.active_workers > 0:
            domain.worker_finished()
    elif kind == "hotplug":
        domain.set_online_vcpus(op[2])
    elif kind == "vcpu_set_online":
        domain.vcpus[op[2] % len(domain.vcpus)].set_online(op[3])
    elif kind == "vcpu_assign_online":
        domain.vcpus[op[2] % len(domain.vcpus)].online = op[3]
    elif kind == "cap":
        domain.cap_cores = op[2]
    elif kind == "weight":
        domain.weight = op[2]
    elif kind == "detach_or_attach":
        # Detach, or re-attach at the end of the domain table — the
        # order a hypervisor's dict gives a migrated-back guest.
        if domain in attached:
            attached.remove(domain)
        else:
            attached.append(domain)
    elif kind == "replace":
        # Another guest takes this one's place in the domain table.
        newcomer = pool[op[2]]
        if domain in attached and newcomer not in attached:
            attached[attached.index(domain)] = newcomer


@given(
    ops=st.lists(
        st.lists(operations, min_size=0, max_size=3),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_memoized_allocation_matches_a_fresh_scheduler(ops):
    # Pairs of identical domains, so that a replacement can leave every
    # input but a name unchanged.
    pool = [Domain(f"d{i}", vcpu_count=1 + i % 2) for i in range(POOL)]
    for domain in pool:
        domain.active_workers = 1
    attached = pool[:3]
    scheduler = CreditScheduler(total_cores=2)
    for calls, batch in enumerate(ops, start=1):
        for op in batch:
            _apply(op, pool, attached, scheduler)
        for domain in pool:
            assert domain.online_vcpus == sum(
                1 for vcpu in domain.vcpus if vcpu.online
            )
        decision = scheduler.allocate(attached)
        fresh = CreditScheduler(scheduler.total_cores)
        expected = fresh.allocate(attached)
        assert list(decision.granted_cores.items()) == list(
            expected.granted_cores.items()
        )
        assert list(decision.demand_cores.items()) == list(
            expected.demand_cores.items()
        )
        assert decision.total_cores == expected.total_cores
        for domain in pool:
            assert scheduler.speed_fraction(
                domain.name
            ) == fresh.speed_fraction(domain.name)
        assert scheduler.epochs == calls
