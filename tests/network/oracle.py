"""The textbook max-min solver: the independent oracle for the tests.

Progressive filling one flow at a time, exactly as the simulator solved
it before :func:`repro.network.fairshare.max_min_fair_rates` learned to
fill identical-constraint classes as weighted entries.  The production
solver must return bit-identical rates; the differential suites compare
against this copy, which nothing in ``src/`` imports.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

_REL_TOL = 1e-9


def textbook_max_min_rates(
    flow_links: Sequence[Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    flow_caps: Sequence[float] | None = None,
) -> list[float]:
    """Compute max-min fair rates.

    Parameters
    ----------
    flow_links:
        For each flow, the (possibly empty) collection of link ids it
        traverses.  A flow traversing no capacity-bearing link is only
        limited by its own cap (infinite if uncapped).
    capacities:
        Link id → capacity (must be positive).
    flow_caps:
        Optional per-flow rate ceilings (``inf`` = uncapped).

    Returns
    -------
    list of rates, one per flow, in input order.

    Raises
    ------
    ValueError
        If a flow references an unknown link or a capacity is non-positive.
    """
    n = len(flow_links)
    if flow_caps is None:
        flow_caps = [float("inf")] * n
    if len(flow_caps) != n:
        raise ValueError("flow_caps length must match flow_links length")

    for link, cap in capacities.items():
        if cap <= 0:
            raise ValueError(f"link {link!r} has non-positive capacity {cap}")

    # Normalize to sets; validate link references.
    flow_sets: list[frozenset] = []
    for i, links in enumerate(flow_links):
        s = frozenset(links)
        for link in s:
            if link not in capacities:
                raise ValueError(f"flow {i} references unknown link {link!r}")
        flow_sets.append(s)

    rates = [0.0] * n
    remaining = dict(capacities)
    active = set(range(n))

    # Flows with no links and no cap would have infinite rate — callers
    # should never construct them, but guard against an endless loop.
    for i in list(active):
        if not flow_sets[i] and flow_caps[i] == float("inf"):
            raise ValueError(f"flow {i} has no links and no cap (infinite rate)")

    # Active flow count per link.
    link_users: dict[Hashable, int] = {}
    for i in active:
        for link in flow_sets[i]:
            link_users[link] = link_users.get(link, 0) + 1

    while active:
        # Smallest uniform increment that saturates a link or a flow cap.
        increment = float("inf")
        for link, users in link_users.items():
            if users > 0:
                increment = min(increment, remaining[link] / users)
        for i in active:
            headroom = flow_caps[i] - rates[i]
            increment = min(increment, headroom)
        if increment == float("inf"):  # pragma: no cover - guarded above
            break
        increment = max(increment, 0.0)

        # Apply the increment and spend link capacity.
        for i in active:
            rates[i] += increment
        for link, users in link_users.items():
            if users > 0:
                remaining[link] -= increment * users

        # Freeze flows on saturated links or at their cap.  Both tests are
        # cap/capacity-relative so that epsilon-sized caps (1e-12-ish) are
        # resolved exactly instead of being frozen together.
        frozen = set()
        for i in active:
            if rates[i] >= flow_caps[i] * (1.0 - _REL_TOL):
                frozen.add(i)
                continue
            for link in flow_sets[i]:
                if remaining[link] <= _REL_TOL * capacities[link]:
                    frozen.add(i)
                    break
        if not frozen:
            # Numerical stall: freeze everything touching the tightest
            # link.  "Tightest" must be judged by *relative* headroom —
            # ranking by absolute remaining capacity picks whichever link
            # is smallest in raw units, which for flows sharing links of
            # very different capacities is usually not the link actually
            # binding them.
            tightest = min(
                (link for link, users in link_users.items() if users > 0),
                key=lambda link: remaining[link] / capacities[link],
                default=None,
            )
            if tightest is None:
                break
            frozen = {i for i in active if tightest in flow_sets[i]}
            if not frozen:  # pragma: no cover - defensive
                break

        for i in frozen:
            active.discard(i)
            for link in flow_sets[i]:
                link_users[link] -= 1

    return rates
