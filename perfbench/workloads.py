"""Workload table and limits shared by the input generator and the harness.

Every recording is a seeded `random_scenario` on the nexus5 profile,
rendered under the `emulator` noise preset. Sizes are fixed here and
only `--smoke` changes them, so a change to the compiler never changes
what is measured.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Noise preset of every workload: the harshest shipped preset, so the
#: linking, fade-split and OverlapConflict paths all run.
NOISE = "emulator"
DEVICE = "nexus5"

#: Every child process the benchmark starts is stopped after this long.
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    name: str
    #: Ground-truth actions per recording (25 is a 30 s recording at
    #: 30 fps, 2000 a 40-minute one).
    actions: int
    #: Distinct recordings generated per seed.
    recordings: int
    #: "pipeline" compiles in memory like `tracereplay pipeline`;
    #: "two-command" writes classified.json and reads it back before
    #: generating, like `tracereplay classify` then `generate`.
    flow: str
    #: Also run `tracereplay pipeline --dry-run` child processes, and the
    #: dry-run replay in process, to compare with them.
    cli: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-30s", actions=25, recordings=100, flow="pipeline", cli=True),
        Workload("batch-30s", actions=25, recordings=200, flow="two-command", cli=False),
        Workload("long-40min", actions=2000, recordings=3, flow="pipeline", cli=False),
    )
}

#: Smoke sizes: enough to run every code path in a second or two.
SMOKE_ACTIONS = {"cli-30s": 4, "batch-30s": 4, "long-40min": 12}
SMOKE_RECORDINGS = 3


def sized(name: str, smoke: bool) -> Workload:
    """The workload called `name`, shrunk to smoke sizes if asked."""
    workload = WORKLOADS[name]
    if not smoke:
        return workload
    return Workload(
        workload.name,
        actions=SMOKE_ACTIONS[name],
        recordings=SMOKE_RECORDINGS,
        flow=workload.flow,
        cli=workload.cli,
    )


def scenario_seed(seed: int, index: int) -> int:
    """Scenario seed of recording `index` under benchmark seed `seed`."""
    return seed * 10_000 + index


def noise_seed(seed: int, index: int) -> int:
    """Noise seed of recording `index` under benchmark seed `seed`."""
    return seed * 10_000 + 5_000 + index
