"""The benchmark's workloads: which `ghzqss` commands each one sends.

Every workload is an endless sequence of cycles.  A cycle holds one command
of each kind the workload mixes (one session per attack, or one analysis
per (variant, attack) pair), so a run that stops between cycles always
measures the same mix.  All inputs come from ``random.Random(seed)``; the
program sees only the generated argv and message files.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass

ATTACKS = ("none", "intercept-resend", "collective-cnot", "collective-h-cnot")


@dataclass(frozen=True)
class Command:
    """One `ghzqss` invocation together with what its checker needs to know."""

    kind: str  # "run" or "analyze"
    parties: int
    attack: str
    key: str  # names the command in the reference digest table
    rounds: int = 0
    seed: int = 0
    message: str = ""
    exact: bool = False
    variant: int = 0

    def argv(self, out_dir: str, message_path: str) -> list[str]:
        if self.kind == "analyze":
            return [
                "analyze",
                "--parties", str(self.parties),
                "--variant", f"psi{self.variant}",
                "--attack", self.attack,
            ]
        argv = [
            "run",
            "--parties", str(self.parties),
            "--rounds", str(self.rounds),
            "--attack", self.attack,
            "--seed", str(self.seed),
            "--out", out_dir,
        ]
        if self.exact:
            argv += ["--mode", "exact"]
        if self.message:
            argv += ["--message-file", message_path]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    parties: int
    rounds: int = 0
    exact: bool = False
    message_attacks: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("session-n3", "run", 3, rounds=2000, message_attacks=("none",)),
        Workload("session-n9", "run", 9, rounds=500, exact=True, message_attacks=ATTACKS),
        Workload("analyze-n10", "analyze", 10),
    )
}


def message_capacity(rounds: int) -> int:
    """Message rounds left by the default check fraction of one half."""
    return rounds // 2


def cycles(workload: Workload, seed: int):
    """Yield the workload's command cycles, forever, from ``seed``."""
    rng = random.Random(seed)
    index = 0
    while True:
        if workload.kind == "analyze":
            cycle = [
                Command("analyze", workload.parties, attack, f"psi{k}/{attack}", variant=k)
                for attack in ATTACKS
                for k in range(1, workload.parties + 2)
            ]
            rng.shuffle(cycle)
        else:
            cycle = []
            for attack in ATTACKS:
                message = ""
                if attack in workload.message_attacks:
                    bits = message_capacity(workload.rounds)
                    message = format(rng.getrandbits(bits), f"0{bits}b")
                cycle.append(
                    Command(
                        "run",
                        workload.parties,
                        attack,
                        str(index),
                        rounds=workload.rounds,
                        seed=rng.randrange(1 << 32),
                        message=message,
                        exact=workload.exact,
                    )
                )
                index += 1
        yield cycle


def warm_up(workload_name: str, out_dir: str) -> None:
    """Load and exercise every code path the workload's commands use, at n=3.

    Both the measuring process and each fresh set-up probe run this, so the
    set-up time covers exactly the work done before timing starts.
    """
    from ghzqss import cli

    workload = WORKLOADS[workload_name]
    os.makedirs(out_dir, exist_ok=True)
    message_path = os.path.join(out_dir, "warmup_message.txt")
    with open(message_path, "w") as fh:
        fh.write("0110101001")
    for attack in ATTACKS:
        if workload.kind == "analyze":
            cmd = Command("analyze", 3, attack, "warmup", variant=2)
        else:
            message = "0110101001" if attack in workload.message_attacks else ""
            cmd = Command(
                "run", 3, attack, "warmup", rounds=20, seed=1, message=message,
                exact=workload.exact,
            )
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(cmd.argv(out_dir, message_path))
        if rc != 0:
            raise RuntimeError(f"warm-up command {cmd} exited with {rc}")
