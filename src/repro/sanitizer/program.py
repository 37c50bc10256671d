"""Analysis-side views of a compiled program.

The detector and the mutator must never touch the live
:class:`~repro.skeleton.scheduler.CompiledProgram` — its queues and
events are the objects the plan replays, and a mutated schedule must not
leak back into real execution.  So both operate on duck-typed *views*:
plain command lists plus the per-command step the scheduler froze
(``repro.skeleton.scheduler._Step``: kind, label, container, launch
view, rank, halo message and field).  The views keep the
interface the DES simulator reads (``commands`` / ``name`` / ``device``),
so a mutant can also be fed straight to :func:`repro.sim.des.simulate`
as a timing oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass
class QueueView:
    """A mutable copy of one command queue's list (original untouched)."""

    name: str
    device: object
    commands: list

    def __len__(self) -> int:
        return len(self.commands)


@dataclass
class ProgramView:
    """A compiled program as the analyses see it: queues + step metadata."""

    queues: list[QueueView]
    info: dict  # Command -> frozen scheduler step (commands hash by identity)
    label: str = ""
    extra_info: dict = field(default_factory=dict)

    @classmethod
    def from_compiled(cls, program, label: str = "") -> "ProgramView":
        """Snapshot a CompiledProgram's wiring and step metadata."""
        queues = [QueueView(q.name, q.device, list(q.commands)) for q in program.queues]
        return cls(queues=queues, info=dict(program.step_of), label=label)

    def clone(self) -> "ProgramView":
        """Independent command lists; shared (immutable) step metadata."""
        return ProgramView(
            queues=[QueueView(q.name, q.device, list(q.commands)) for q in self.queues],
            info=dict(self.info),
            label=self.label,
            extra_info=dict(self.extra_info),
        )

    def step_info(self, cmd):
        return self.extra_info.get(cmd) or self.info.get(cmd)

    def add_info(self, cmd, base, **changes) -> None:
        """Register metadata for a mutant-introduced replacement command."""
        self.extra_info[cmd] = replace(base, **changes)

    def commands(self):
        for q in self.queues:
            yield from q.commands
