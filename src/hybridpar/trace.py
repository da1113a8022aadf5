"""Virtual-clock event records produced by simulated runs.

The engine is a deterministic single-logical-thread simulation: device busy
intervals and message events are appended in execution order against a
virtual clock, never from real threads. Message arrival follows the affine
link model arrive = depart + base_latency + bytes / bandwidth; links are
contention-free. Events are read-only named tuples, cheaper to build than
frozen dataclasses, and traces, read-only too, are shared between runs.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParameterError


@dataclass(frozen=True)
class DeviceSpec:
    """One accelerator in a plan."""

    name: str
    branch_step_cost: float  # seconds for one full branch evaluation

    def __post_init__(self):
        if not (math.isfinite(self.branch_step_cost) and self.branch_step_cost > 0):
            raise ParameterError(f"branch_step_cost must be finite and > 0, "
                                 f"got {self.branch_step_cost}")


@dataclass(frozen=True)
class LinkSpec:
    """Affine point-to-point link; no contention modeling.

    base_latency_s may be zero so that ideal-interconnect arithmetic is exact;
    bandwidth may be math.inf for the same reason.
    """

    bandwidth_bytes_per_s: float
    base_latency_s: float
    message_bytes_latent: int
    message_bytes_activation: int

    def __post_init__(self):
        if not self.bandwidth_bytes_per_s > 0:
            raise ParameterError(f"bandwidth must be > 0, got {self.bandwidth_bytes_per_s}")
        if not (math.isfinite(self.base_latency_s) and self.base_latency_s >= 0):
            raise ParameterError(f"base_latency_s must be finite and >= 0, "
                                 f"got {self.base_latency_s}")
        for name in ("message_bytes_latent", "message_bytes_activation"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ParameterError(f"{name} must be an integer >= 1, got {v!r}")
            if v > sys.float_info.max:      # as the config bounds it: a transfer time exists
                raise ParameterError(f"{name} must lie within float range, got an integer "
                                     "past it")

    def transfer_time(self, nbytes: int) -> float:
        return self.base_latency_s + nbytes / self.bandwidth_bytes_per_s


class BusyInterval(NamedTuple):
    device: str
    start: float
    end: float
    step: int        # 1-based denoising step
    stage: str       # stage label, or "" for unstaged plans
    label: str       # what was computed


class MessageEvent(NamedTuple):
    src: str
    dst: str
    kind: str        # "latent" or "activation"
    nbytes: int
    depart: float
    arrive: float
    step: int


@dataclass(frozen=True)
class RunTrace:
    """Everything that happened on the virtual clock during one run.

    Read-only: runs of one schedule share one trace (see engine.ExactPath).
    """

    busy: tuple[BusyInterval, ...] = ()
    messages: tuple[MessageEvent, ...] = ()

    def makespan(self) -> float:
        ends = [b.end for b in self.busy] + [m.arrive for m in self.messages]
        return max(ends) if ends else 0.0


class Timeline:
    """Append-only trace builder. It keeps no device clocks: each caller
    starts a device's interval no earlier than that device's last end."""

    def __init__(self, link: LinkSpec):
        self.link = link
        self._busy: list[BusyInterval] = []
        self._messages: list[MessageEvent] = []
        # each message kind's size and transfer time, fixed by the link
        self._kinds = {kind: (n, link.transfer_time(n)) for kind, n in (
            ("latent", link.message_bytes_latent),
            ("activation", link.message_bytes_activation))}

    def busy(self, device: str, start: float, duration: float, step: int,
             stage: str, label: str) -> float:
        end = start + duration
        self._busy.append(BusyInterval(device, start, end, step, stage, label))
        return end

    def send(self, src: str, dst: str, kind: str, depart: float, step: int) -> float:
        try:
            nbytes, transfer = self._kinds[kind]
        except (KeyError, TypeError):          # TypeError: an unhashable kind
            raise ParameterError(f"message kind must be one of {list(self._kinds)}, "
                                 f"got {kind!r}") from None
        arrive = depart + transfer
        self._messages.append(MessageEvent(src, dst, kind, nbytes, depart, arrive, step))
        return arrive

    def trace(self) -> RunTrace:
        """The events so far, as a read-only trace."""
        return RunTrace(tuple(self._busy), tuple(self._messages))


def account_comm(trace: RunTrace) -> int:
    """Total bytes moved, each message counted once."""
    return sum(m.nbytes for m in trace.messages)
