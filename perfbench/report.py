"""Metric collection and process measurements shared by the workloads."""

from __future__ import annotations

import os
import statistics
from typing import Any


class Metrics:
    """Named metrics with unit and sample count, in insertion order."""

    def __init__(self) -> None:
        self.values: dict[str, dict[str, Any]] = {}

    def set(
        self, name: str, value: float, unit: str, samples: int = 1
    ) -> None:
        self.values[name] = {
            "value": float(value), "unit": unit, "samples": int(samples)
        }

    def median(self, name: str, values: list[float], unit: str) -> None:
        self.set(name, statistics.median(values), unit, len(values))

    def table(self) -> str:
        """Human-readable table: name, value, unit, samples."""
        width = max((len(n) for n in self.values), default=4)
        lines = [f"{'metric':<{width}}  {'value':>14}  {'unit':<8}  samples"]
        for name, m in self.values.items():
            lines.append(
                f"{name:<{width}}  {m['value']:>14.6g}  {m['unit']:<8}  "
                f"{m['samples']}"
            )
        return "\n".join(lines)


def _status_kib(pid: int | str, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise ValueError(f"/proc/{pid}/status has no {field}")


def peak_rss_mib(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    return _status_kib(pid, "VmHWM") / 1024.0


def cpu_seconds(pid: int | str = "self") -> float:
    """User + system CPU seconds a live process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of proc(5) (utime, stime) follow the command.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")
