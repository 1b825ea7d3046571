"""Change-proportional rate solving: only dirty components, by class.

Max-min fairness has no coupling across connected components of the
bipartite flow/link graph: a flow's rate is decided only by the links it
can reach through shared links.  :class:`ComponentSolver` keeps that
graph incrementally.  Each :meth:`~ComponentSolver.admit` /
:meth:`~ComponentSolver.drain` marks the touched links dirty, and
:meth:`~ComponentSolver.solve` re-solves only the components reachable
from dirty state; every other flow keeps its rate bit-for-bit.

The graph is kept at the granularity of *constraint classes*: flows with
the same link set and the same rate cap.  Under max-min they always get
the same rate, so a component is solved by one
:func:`~repro.network.fairshare.max_min_fair_rates` call over its
classes, each weighted by its member count — bit-identical to solving
the flows one by one (see that module's docstring).  Any other allocator
sees one class per flow: it is called once per dirty component with the
component's flows in admission order, so it must be separable by
component (see :class:`~repro.network.allocators.RateAllocator`).

Each class also carries a *service clock*, in the manner of fair
queuing: ``served``, the bytes every member has received, advanced by
:meth:`~ComponentSolver.solve` only when the class rate changes.  A
member is done when the clock reaches its fixed target (the reading at
its admission plus its size), so a rate change costs one clock update
per class whatever the member count.

Under max-min, a flow admitted onto links that no other flow uses gets a
class outside the graph (``key`` None).  :meth:`~ComponentSolver.solve`
prices it in one step, as the smallest of its cap and its links'
capacities, which is the allocator's one-class round without building
its input.  A flow admitted later onto one of its links makes it join the
graph just as if it had been admitted there.
"""
# lint: hot-path - solve() runs once per simulated instant with a change

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping

from repro.network.fairshare import max_min_fair_rates

_INF = float("inf")

#: Capacity of a link given how many flows currently use it.  The user
#: count matters because :class:`~repro.network.Link` applies an optional
#: concurrency penalty to its aggregate bandwidth.
CapacityFn = Callable[[Hashable, int], float]


def static_capacity(capacities: Mapping[Hashable, float]) -> CapacityFn:
    """A :data:`CapacityFn` over a fixed capacity table (no penalty)."""

    def capacity(link: Hashable, n_users: int) -> float:
        return capacities[link]

    return capacity


@dataclass
class SolverStats:
    """Work counters for one solver.

    ``solver_calls`` counts allocator invocations (one per re-solved
    component, or per class priced alone), ``links_touched``/
    ``flows_solved`` the total subproblem sizes (``flows_solved`` counts
    member flows, not classes).  ``alone`` counts flows admitted alone on
    their links, and ``joined`` those of them another flow joined later.
    """

    solver_calls: int = 0
    links_touched: int = 0
    flows_solved: int = 0
    alone: int = 0
    joined: int = 0


class _Class:
    """One constraint class: a link set, a rate cap, member flows, and
    the service clock the members share.

    ``by_target``, ``by_crossing`` and ``version`` hold the completion
    order kept by :class:`~repro.network.FlowNetwork`; the solver never
    reads them.
    """

    __slots__ = (
        "serial", "key", "links", "cap", "members", "rate", "served",
        "anchor", "by_target", "by_crossing", "version",
    )

    def __init__(self, serial: int, key, links: tuple, cap: float) -> None:
        self.serial = serial
        self.key = key
        self.links = links
        self.cap = cap
        #: Member flow ids in admission order (values unused).
        self.members: dict = {}
        self.rate = 0.0
        #: Bytes each member has received, as of ``anchor``.
        self.served = 0.0
        self.anchor = 0.0
        #: Member heaps in service space (clock readings, not times).
        self.by_target: list = []
        self.by_crossing: list = []
        self.version = 0

    def served_at(self, now: float) -> float:
        """The service clock at time ``now`` (at the current rate)."""
        return self.served + self.rate * (now - self.anchor)

    def advance(self, now: float) -> None:
        """Bring the clock up to ``now``, e.g. before the rate changes."""
        self.served = self.served_at(now)
        self.anchor = now


class ComponentSolver:
    """Per-component rate solver over identical-constraint classes.

    Parameters
    ----------
    capacity_fn:
        ``(link_id, n_users) -> capacity``.
    allocator:
        The :class:`~repro.network.allocators.RateAllocator` run on each
        dirty component.  With the default,
        :func:`~repro.network.fairshare.max_min_fair_rates`, identical
        flows share one weighted class; any other allocator gets one
        class per flow.
    """

    def __init__(
        self,
        capacity_fn: CapacityFn,
        allocator: Callable[..., list[float]] = max_min_fair_rates,
    ) -> None:
        self._capacity_fn = capacity_fn
        self._allocator = allocator
        self._grouped = allocator is max_min_fair_rates
        self._class_of: dict[Hashable, _Class] = {}
        self._classes: dict = {}
        self._link_classes: dict[Hashable, dict[_Class, None]] = {}
        self._link_users: dict[Hashable, int] = {}
        #: Link → the class alone on it; how many such classes; those
        #: not priced yet.
        self._alone: dict[Hashable, _Class] = {}
        self._n_alone = 0
        self._unpriced: dict[_Class, None] = {}
        self._serial = 0
        #: Links whose user set changed since the last solve.
        self._dirty_links: dict[Hashable, None] = {}
        #: Linkless classes with new members (no dirty link reaches them).
        self._dirty_classes: dict[_Class, None] = {}
        self.stats = SolverStats()

    # ------------------------------------------------------------------
    # Graph maintenance
    # ------------------------------------------------------------------
    def __contains__(self, fid: Hashable) -> bool:
        return fid in self._class_of

    def __len__(self) -> int:
        return len(self._class_of)

    def admit(
        self, fid: Hashable, links: Iterable[Hashable], cap: float = _INF
    ) -> _Class:
        """Add a flow; its links (or its linkless class) become dirty.

        Returns the flow's class: a new one outside the graph if the
        solver groups classes and no other flow uses its links.
        """
        if fid in self._class_of:
            raise ValueError(f"flow {fid!r} is already admitted")
        names = tuple(dict.fromkeys(links))
        if not names and cap == _INF:
            raise ValueError(
                f"flow {fid!r} has no links and no cap (infinite rate)"
            )
        if self._grouped and names:
            alone = self._alone
            contact = False
            for link in names:
                if link in alone:
                    self._adopt(alone[link])
                    contact = True
                elif link in self._link_users:
                    contact = True
            if not contact:
                self._serial += 1
                cls = _Class(self._serial, None, names, cap)
                cls.members[fid] = None
                self._class_of[fid] = cls
                for link in names:
                    alone[link] = cls
                self._n_alone += 1
                self._unpriced[cls] = None
                self.stats.alone += 1
                return cls
        key = (frozenset(names), cap) if self._grouped else fid
        cls = self._classes.get(key)
        if cls is None:
            self._serial += 1
            cls = _Class(self._serial, key, names, cap)
            self._classes[key] = cls
            for link in names:
                peers = self._link_classes.get(link)
                if peers is None:
                    self._link_classes[link] = {cls: None}  # lint: ignore[SIM061] - only when a new class appears
                else:
                    peers[cls] = None
        cls.members[fid] = None
        self._class_of[fid] = cls
        link_users = self._link_users
        for link in cls.links:
            link_users[link] = link_users.get(link, 0) + 1
            self._dirty_links[link] = None
        if not cls.links:
            self._dirty_classes[cls] = None
        return cls

    def _adopt(self, cls: _Class) -> None:
        """Another flow reaches the links of ``cls``, alone on them until
        now: it joins the graph as :meth:`admit` would have put it there.
        The links are not marked dirty here; the flow that reaches them
        marks them, and that solve prices ``cls`` too if it was not yet."""
        self._leave_alone(cls)
        self.stats.joined += 1
        cls.key = (frozenset(cls.links), cls.cap)
        self._classes[cls.key] = cls
        for link in cls.links:
            self._link_classes[link] = {cls: None}  # lint: ignore[SIM061] - only when a class joins
            self._link_users[link] = 1

    def _leave_alone(self, cls: _Class) -> None:
        for link in cls.links:
            del self._alone[link]
        self._n_alone -= 1
        self._unpriced.pop(cls, None)

    def drain(self, fid: Hashable) -> None:
        """Remove a flow; the links it leaves to other flows become dirty."""
        try:
            cls = self._class_of.pop(fid)
        except KeyError:
            raise KeyError(f"flow {fid!r} is not admitted") from None
        if cls.key is None:
            self._leave_alone(cls)  # nothing in the graph to update
            return
        del cls.members[fid]
        link_users = self._link_users
        for link in cls.links:
            users = link_users[link] - 1
            if users:
                link_users[link] = users
                self._dirty_links[link] = None
            else:
                # Nobody is left on the link to re-solve through it.
                del link_users[link]
        if not cls.members:
            del self._classes[cls.key]
            self._dirty_classes.pop(cls, None)
            for link in cls.links:
                peers = self._link_classes[link]
                del peers[cls]
                if not peers:
                    del self._link_classes[link]

    def class_of(self, fid: Hashable) -> _Class:
        """The admitted flow's class."""
        return self._class_of[fid]

    @property
    def n_classes(self) -> int:
        """How many classes have members."""
        return len(self._classes) + self._n_alone

    def rate(self, fid: Hashable) -> float:
        """The flow's rate as of the last :meth:`solve`."""
        return self._class_of[fid].rate

    @property
    def rates(self) -> dict[Hashable, float]:
        """Every admitted flow's rate as of the last solve (a copy)."""
        return {fid: cls.rate for fid, cls in self._class_of.items()}

    @property
    def dirty(self) -> bool:
        return bool(self._dirty_links or self._dirty_classes or self._unpriced)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, now: float = 0.0) -> list[_Class]:
        """Re-solve every component reachable from dirty state.

        Returns the classes whose rate changed, in solve order; each one's
        service clock is advanced to ``now`` at its old rate first.  A
        class whose rate did not change is not returned even if it gained
        members.  Classes elsewhere keep their rates bit-for-bit and are
        not visited.
        """
        changed: list[_Class] = []
        stats = self.stats
        capacity_fn = self._capacity_fn
        for cls in self._unpriced:
            # The allocator's one-class round: the cap or the tightest
            # link's capacity for its one user.
            rate = cls.cap
            for link in cls.links:
                capacity = capacity_fn(link, 1)
                if capacity <= 0:
                    raise ValueError(
                        f"link {link!r} has non-positive capacity {capacity}"
                    )
                if capacity < rate:
                    rate = capacity
            if rate != cls.rate:
                cls.advance(now)
                cls.rate = rate
                changed.append(cls)
            stats.solver_calls += 1
            stats.links_touched += len(cls.links)
            stats.flows_solved += 1
        self._unpriced.clear()
        if not (self._dirty_links or self._dirty_classes):
            return changed
        seeds: list[_Class] = []
        link_classes = self._link_classes
        for link in self._dirty_links:
            peers = link_classes.get(link)
            if peers:
                seeds.extend(peers)
        seeds.extend(self._dirty_classes)
        self._dirty_links.clear()
        self._dirty_classes.clear()

        visited: set = set()
        for seed in seeds:
            if seed in visited:
                continue
            component = self._component_of(seed)
            visited.update(component)
            self._solve_component(component, now, changed)
        return changed

    def _component_of(self, seed: _Class) -> list[_Class]:
        """Classes of the component containing ``seed``, by creation."""
        link_classes = self._link_classes
        if all(len(link_classes[link]) == 1 for link in seed.links):
            return [seed]  # alone on every link it uses
        component = {seed: None}
        frontier = [seed]
        seen_links: set = set()
        while frontier:
            cls = frontier.pop()
            for link in cls.links:
                if link in seen_links:
                    continue
                seen_links.add(link)
                for other in link_classes[link]:
                    if other not in component:
                        component[other] = None
                        frontier.append(other)
        return sorted(component, key=_serial)

    def _solve_component(
        self, component: list[_Class], now: float, changed: list[_Class]
    ) -> None:
        """Run the allocator on one component; record changed rates."""
        capacity_fn = self._capacity_fn
        link_users = self._link_users
        capacities: dict[Hashable, float] = {}
        for cls in component:
            for link in cls.links:
                if link not in capacities:
                    capacities[link] = capacity_fn(link, link_users[link])
        class_links = [cls.links for cls in component]
        class_caps = [cls.cap for cls in component]
        if self._grouped:
            weights = [len(cls.members) for cls in component]
            rates = max_min_fair_rates(
                class_links, capacities, class_caps, weights
            )
            members = sum(weights)
        else:
            rates = self._allocator(class_links, capacities, class_caps)
            members = len(component)
        for cls, rate in zip(component, rates):
            if rate != cls.rate:
                cls.advance(now)
                cls.rate = rate
                changed.append(cls)
        stats = self.stats
        stats.solver_calls += 1
        stats.links_touched += len(capacities)
        stats.flows_solved += members


def _serial(cls: _Class) -> int:
    return cls.serial
