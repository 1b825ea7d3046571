"""Max-min fair bandwidth allocation via progressive filling.

Given a set of flows, each traversing a set of links with finite
capacities (and optionally carrying a private rate cap), compute the
max-min fair rate vector: rates are raised uniformly for all unfrozen
flows until some link (or per-flow cap) saturates, flows crossing a
saturated resource are frozen, and the process repeats.  This is the
allocation SimGrid converges to for its default fluid network model with
equal flow weights.

The solver fills *constraint classes*, not flows.  Flows with the same
link set and the same cap are exchangeable: every round raises them by
the same increment, and every freeze test (cap reached, a link
saturated) gives them the same answer.  So a class of ``w`` flows is
filled as one entry that counts ``w`` times on each of its links.  The
per-link user count stays the same integer, so each round computes the
same floats in the same order as filling the flows one by one: the
result is bit-identical, not merely close.  ``tests/network/oracle.py``
keeps the textbook per-flow solver as the independent check.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

#: Relative tolerance for deciding that a flow sits at its cap or that a
#: link is saturated.  The tolerance MUST be relative (scaled by the cap
#: or capacity it is compared against): an absolute epsilon freezes every
#: flow whose cap is within epsilon of another's, which mis-allocates
#: whenever caps themselves are epsilon-sized (e.g. the tiny finish
#: thresholds the flow network produces for nearly-drained transfers).
_REL_TOL = 1e-9

_INF = float("inf")


def max_min_fair_rates(
    flow_links: Sequence[Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    flow_caps: Sequence[float] | None = None,
    weights: Sequence[int] | None = None,
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
    weights:
        Optional positive integer multiplicity per entry: entry ``i``
        stands for ``weights[i]`` identical flows (same links, same
        cap).  The result is what each of those flows would get.

    Returns
    -------
    list of rates, one per entry, in input order.

    Raises
    ------
    ValueError
        If a flow references an unknown link or a capacity is non-positive.
    """
    n = len(flow_links)
    if flow_caps is None:
        flow_caps = [_INF] * n
    if len(flow_caps) != n:
        raise ValueError("flow_caps length must match flow_links length")
    if weights is None:
        weights = [1] * n
    elif len(weights) != n:
        raise ValueError("weights length must match flow_links length")

    for link, cap in capacities.items():
        if cap <= 0:
            raise ValueError(f"link {link!r} has non-positive capacity {cap}")

    # Deduplicate each route (a link listed twice is traversed once);
    # validate link references.
    flow_sets: list[tuple] = []
    for i, links in enumerate(flow_links):
        s = tuple(dict.fromkeys(links))
        for link in s:
            if link not in capacities:
                raise ValueError(f"flow {i} references unknown link {link!r}")
        flow_sets.append(s)
    # Flows with no links and no cap would have infinite rate — callers
    # should never construct them, but guard against an endless loop.
    for i, s in enumerate(flow_sets):
        if not s and flow_caps[i] == _INF:
            raise ValueError(f"flow {i} has no links and no cap (infinite rate)")

    if n == 1:
        # One class fills in one round: the increment is the tightest
        # share (or the cap), and the round freezes the class — its
        # bottleneck link is left with at most a few ulps of capacity.
        rate = flow_caps[0]
        users = weights[0]
        for link in flow_sets[0]:
            share = capacities[link] / users
            if share < rate:
                rate = share
        return [rate if rate > 0.0 else 0.0]

    rates = [0.0] * n
    remaining = {}
    # Active user count per link; a link leaves the map when its last
    # user freezes, which is when the textbook loop starts skipping it.
    link_users: dict[Hashable, int] = {}
    for i in range(n):
        w = weights[i]
        for link in flow_sets[i]:
            if link in link_users:
                link_users[link] += w
            else:
                link_users[link] = w
                remaining[link] = capacities[link]
    active = list(range(n))

    while active:
        # Smallest uniform increment that saturates a link or a flow cap.
        increment = _INF
        for link, users in link_users.items():
            share = remaining[link] / users
            if share < increment:
                increment = share
        for i in active:
            headroom = flow_caps[i] - rates[i]
            if headroom < increment:
                increment = headroom
        if increment == _INF:  # pragma: no cover - guarded above
            break
        if increment < 0.0:
            increment = 0.0

        # Apply the increment and spend link capacity.
        for i in active:
            rates[i] += increment
        for link, users in link_users.items():
            remaining[link] -= increment * users

        # Freeze flows on saturated links or at their cap.  Both tests are
        # cap/capacity-relative so that epsilon-sized caps (1e-12-ish) are
        # resolved exactly instead of being frozen together.
        frozen = []
        for i in active:
            if rates[i] >= flow_caps[i] * (1.0 - _REL_TOL):
                frozen.append(i)
                continue
            for link in flow_sets[i]:
                if remaining[link] <= _REL_TOL * capacities[link]:
                    frozen.append(i)
                    break
        if not frozen:
            # Numerical stall: freeze everything touching the tightest
            # link.  "Tightest" must be judged by *relative* headroom —
            # ranking by absolute remaining capacity picks whichever link
            # is smallest in raw units, which for flows sharing links of
            # very different capacities is usually not the link actually
            # binding them.
            tightest = min(
                link_users,
                key=lambda link: remaining[link] / capacities[link],
                default=None,
            )
            if tightest is None:
                break
            frozen = [i for i in active if tightest in flow_sets[i]]
            if not frozen:  # pragma: no cover - defensive
                break

        for i in frozen:
            w = weights[i]
            for link in flow_sets[i]:
                users = link_users[link] - w
                if users:
                    link_users[link] = users
                else:
                    del link_users[link]
        frozen_set = set(frozen)
        active = [i for i in active if i not in frozen_set]

    return rates


def equal_split_rates(
    flow_links: Sequence[Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    flow_caps: Sequence[float] | None = None,
) -> list[float]:
    """Naive equal-split allocation (ablation baseline, not max-min).

    Each flow gets the minimum over its links of ``capacity / users`` —
    no redistribution of capacity freed by flows bottlenecked elsewhere.
    Always feasible, never work-conserving; used by the sharing-model
    ablation benchmark to quantify what max-min fairness buys.
    """
    n = len(flow_links)
    if flow_caps is None:
        flow_caps = [float("inf")] * n
    if len(flow_caps) != n:
        raise ValueError("flow_caps length must match flow_links length")

    users: dict[Hashable, int] = {}
    flow_sets = [frozenset(links) for links in flow_links]
    for i, s in enumerate(flow_sets):
        for link in s:
            if link not in capacities:
                raise ValueError(f"flow {i} references unknown link {link!r}")
            users[link] = users.get(link, 0) + 1

    rates = []
    for i, s in enumerate(flow_sets):
        if not s:
            if flow_caps[i] == float("inf"):
                raise ValueError(
                    f"flow {i} has no links and no cap (infinite rate)"
                )
            rates.append(flow_caps[i])
            continue
        share = min(capacities[link] / users[link] for link in s)
        rates.append(min(share, flow_caps[i]))
    return rates


def allocation_is_feasible(
    flow_links: Sequence[Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    rates: Sequence[float],
    tolerance: float = 1e-6,
) -> bool:
    """Check that ``rates`` respects every link capacity (for tests)."""
    load: dict[Hashable, float] = {link: 0.0 for link in capacities}
    for links, rate in zip(flow_links, rates):
        for link in set(links):
            load[link] += rate
    return all(
        load[link] <= capacities[link] * (1 + tolerance) + tolerance
        for link in capacities
    )
