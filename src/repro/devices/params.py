"""Array-space platform parameters: the substrate of every grid build.

:class:`PlatformParams` holds every float parameter of one platform's
``DeviceSpec``/``LinkSpec`` objects as ``(n_scenarios, ...)`` arrays, one row
per scenario.  Grid tables are always built from such a bundle (through
:func:`repro.devices.grid._fused_params`):

* a base platform plus a scenario grid broadcasts the base once
  (:meth:`PlatformParams.gather`) and lets each condition axis transform the
  rows in place through its ``scale_arrays`` hook (see
  :class:`~repro.scenarios.conditions.ConditionAxis`);
* a pre-derived platform sequence writes one platform per row
  (:meth:`PlatformParams.stack`), checking that every platform shares the
  first one's shape.

:meth:`~PlatformParams.platform` and :meth:`~PlatformParams.set_row` convert
one row to and from a ``Platform``, which is how axes without a vectorized
hook run their scalar ``apply`` inside the same build.

Elementwise NumPy float64 arithmetic rounds exactly like scalar Python float
arithmetic (both are IEEE-754 double operations), so a parameter array
transformed here is bitwise identical to gathering the same parameter from
the scalar-derived platforms -- the invariant the differential tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .platform import Platform

__all__ = ["PlatformParams"]

#: Every float field of a DeviceSpec, in declaration order.
DEVICE_FIELDS = (
    "peak_gflops",
    "half_saturation_flops",
    "memory_bandwidth_gbs",
    "kernel_launch_overhead_s",
    "task_startup_overhead_s",
    "power_active_w",
    "power_idle_w",
    "cost_per_hour",
)

#: Every float field of a LinkSpec.
LINK_FIELDS = ("bandwidth_gbs", "latency_s", "energy_per_byte_j")


@dataclass
class PlatformParams:
    """One platform's float parameters, broadcast across a scenario axis.

    ``device[field]`` is a writable ``(n_scenarios, n_devices)`` array over
    the platform's device insertion order; ``link[field]`` a writable
    ``(n_scenarios, n_links)`` array over the sorted canonical link pairs.
    Condition axes mutate these arrays in place (row ``i`` belongs to
    scenario ``i`` of whatever subset is being built).
    """

    base: Platform
    n_scenarios: int
    device_order: tuple[str, ...]
    link_pairs: tuple[tuple[str, str], ...]
    device: dict[str, np.ndarray] = field(default_factory=dict)
    link: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def gather(cls, platform: Platform, n_scenarios: int) -> "PlatformParams":
        """Broadcast every float parameter of ``platform`` over ``n_scenarios`` rows."""
        device_order = tuple(platform.devices)
        link_pairs = tuple(sorted(platform.links))
        # float64 even when a spec holds ints, so rows written later by
        # set_row or an axis are never truncated.
        device = {
            name: np.tile(
                np.array(
                    [getattr(platform.devices[alias], name) for alias in device_order],
                    dtype=float,
                ),
                (n_scenarios, 1),
            )
            for name in DEVICE_FIELDS
        }
        link = {
            name: np.tile(
                np.array([getattr(platform.links[pair], name) for pair in link_pairs], dtype=float),
                (n_scenarios, 1),
            )
            for name in LINK_FIELDS
        }
        return cls(
            base=platform,
            n_scenarios=n_scenarios,
            device_order=device_order,
            link_pairs=link_pairs,
            device=device,
            link=link,
        )

    @classmethod
    def stack(cls, platforms: Sequence[Platform]) -> "PlatformParams":
        """One row per platform; the first platform is the shape every row shares."""
        platforms = tuple(platforms)
        if not platforms:
            raise ValueError("at least one platform is required")
        params = cls.gather(platforms[0], len(platforms))
        for row, platform in enumerate(platforms[1:], start=1):
            params.set_row(row, platform)
        return params

    # -- row access --------------------------------------------------------
    def platform(self, row: int) -> Platform:
        """A ``Platform`` carrying row ``row``'s floats.

        Every other field -- spec names and kinds, the host, the platform
        name and its fault profile -- is the base platform's.
        """
        devices = {
            alias: replace(
                spec, **{name: float(self.device[name][row, d]) for name in DEVICE_FIELDS}
            )
            for d, (alias, spec) in enumerate(self.base.devices.items())
        }
        links = {
            pair: replace(
                self.base.links[pair],
                **{name: float(self.link[name][row, j]) for name in LINK_FIELDS},
            )
            for j, pair in enumerate(self.link_pairs)
        }
        return replace(self.base, devices=devices, links=links)

    def set_row(self, row: int, platform: Platform) -> None:
        """Write ``platform``'s floats into row ``row``.

        The platform must share the base platform's shape: the same device
        aliases (in the same order), the same host and the same link
        topology -- conditions re-parameterize a platform, they do not
        rewire it.
        """
        base = self.base
        if tuple(platform.devices) != self.device_order:
            raise ValueError(
                f"platform {platform.name!r} has devices {list(platform.devices)}, "
                f"expected {list(self.device_order)} -- scenario platforms must share "
                f"the base platform's device set"
            )
        if platform.host != base.host:
            raise ValueError(
                f"platform {platform.name!r} has host {platform.host!r}, expected {base.host!r}"
            )
        if set(platform.links) != set(self.link_pairs):
            raise ValueError(
                f"platform {platform.name!r} has links {sorted(platform.links)}, "
                f"expected {sorted(self.link_pairs)} -- conditions must not rewire the topology"
            )
        specs = [platform.devices[alias] for alias in self.device_order]
        for name in DEVICE_FIELDS:
            self.device[name][row] = [getattr(spec, name) for spec in specs]
        links = [platform.links[pair] for pair in self.link_pairs]
        for name in LINK_FIELDS:
            self.link[name][row] = [getattr(link, name) for link in links]

    # -- column selection (same validation errors as the scalar axis path) --
    def device_columns(self, devices: "tuple[str, ...] | None") -> np.ndarray:
        """Array columns of some device aliases (``None`` = every device)."""
        if devices is None:
            return np.arange(len(self.device_order), dtype=np.intp)
        self.base.validate_aliases(devices)
        index = {alias: i for i, alias in enumerate(self.device_order)}
        return np.array([index[alias] for alias in devices], dtype=np.intp)

    def link_columns(self, links: "tuple[tuple[str, str], ...] | None") -> np.ndarray:
        """Array columns of some link pairs (``None`` = every link)."""
        if links is None:
            return np.arange(len(self.link_pairs), dtype=np.intp)
        for a, b in links:
            self.base.link(a, b)  # raises with the usual message when absent
        index = {pair: i for i, pair in enumerate(self.link_pairs)}
        return np.array(
            [index[(a, b) if a <= b else (b, a)] for a, b in links], dtype=np.intp
        )
