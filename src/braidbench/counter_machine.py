"""Counter machines: Add / Subtract-and-Branch-if-zero / Halt programs.

Counters hold non-negative integers (Python ints, so no overflow to detect).
A program counter that walks past the last instruction halts implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass


class CMParseError(ValueError):
    """Raised for malformed `.cm` sources. Carries the offending line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class Add:
    counter: int


@dataclass(frozen=True)
class SubBranch:
    counter: int
    target: int


@dataclass(frozen=True)
class Halt:
    pass


@dataclass(frozen=True)
class CounterProgram:
    num_counters: int
    instructions: tuple
    # optional nonzero starting counters from the `.cm` `init` line
    init_counters: tuple = None

    def __post_init__(self):
        if self.num_counters < 1:
            raise ValueError("need at least one counter")
        if not self.instructions:
            raise ValueError("program must have at least one instruction")
        for i, ins in enumerate(self.instructions):
            if isinstance(ins, (Add, SubBranch)) and not (0 <= ins.counter < self.num_counters):
                raise ValueError(f"instruction {i}: counter index {ins.counter} out of range")
            if isinstance(ins, SubBranch) and not (0 <= ins.target < len(self.instructions)):
                raise ValueError(f"instruction {i}: goto target {ins.target} out of range")
        if self.init_counters is None:
            object.__setattr__(self, "init_counters", (0,) * self.num_counters)
        elif len(self.init_counters) != self.num_counters or any(v < 0 for v in self.init_counters):
            raise ValueError("init counters must list one non-negative value per counter")


@dataclass(frozen=True)
class CounterConfig:
    pc: int  # None once halted
    counters: tuple
    steps: int = 0

    @property
    def halted(self):
        return self.pc is None


@dataclass(frozen=True)
class RunResult:
    kind: str  # "halted" | "budget"
    config: CounterConfig


def initial_config(program: CounterProgram) -> CounterConfig:
    return CounterConfig(pc=0, counters=tuple(program.init_counters), steps=0)


def lower_program(program: CounterProgram) -> list:
    """One row per instruction, indexed by pc: (is_add, counter, next_pc,
    jump_pc) for Add and SubBranch, None for Halt. next_pc is None past the
    last instruction (the implicit halt); an Add's jump_pc is its next_pc."""
    n = len(program.instructions)
    rows = []
    for pc, ins in enumerate(program.instructions):
        nxt = pc + 1 if pc + 1 < n else None
        if isinstance(ins, Add):
            rows.append((True, ins.counter, nxt, nxt))
        elif isinstance(ins, SubBranch):
            rows.append((False, ins.counter, nxt, ins.target))
        else:
            rows.append(None)
    return rows


def cm_step(program: CounterProgram, c: CounterConfig) -> CounterConfig:
    """Execute one instruction. Pure; the input config is not modified."""
    if c.halted:
        raise ValueError("cannot step a halted configuration")
    return cm_run(program, c, 1).config


def cm_run(program: CounterProgram, init: CounterConfig, max_steps: int) -> RunResult:
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    rows = lower_program(program)
    pc, counters = init.pc, list(init.counters)
    steps = 0
    while steps < max_steps and pc is not None:
        row = rows[pc]
        steps += 1
        if row is None:
            pc = None
        elif row[0]:
            counters[row[1]] += 1
            pc = row[2]
        elif counters[row[1]]:
            counters[row[1]] -= 1
            pc = row[2]
        else:
            pc = row[3]
    c = init if steps == 0 else CounterConfig(pc, tuple(counters), init.steps + steps)
    return RunResult("budget" if pc is not None else "halted", c)


def parse_counter_program(text: str) -> CounterProgram:
    """Parse the `.cm` format.

    `#` comments; header `counters <k>`; optional `init <v0> <v1> ...`;
    body lines `<i>: add <c>`, `<i>: subb <c> <target>`, `<i>: halt`
    with consecutive indices from 0. Keywords are case-insensitive.
    """
    num_counters = None
    init = None
    instructions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.lower().split()
        if words[0] == "counters":
            if len(words) != 2 or not words[1].isdecimal():
                raise CMParseError(lineno, "expected `counters <k>`")
            num_counters = int(words[1])
            continue
        if words[0] == "init":
            try:
                init = tuple(int(w) for w in words[1:])
            except ValueError:
                raise CMParseError(lineno, "init values must be integers")
            continue
        # instruction line: "<i>: op ..."
        if not words[0].endswith(":") or not words[0][:-1].isdecimal():
            raise CMParseError(lineno, f"expected `<i>:` instruction label, got {words[0]!r}")
        idx = int(words[0][:-1])
        if idx != len(instructions):
            raise CMParseError(lineno, f"instruction index {idx} out of order (expected {len(instructions)})")
        op = words[1] if len(words) > 1 else ""
        args = words[2:]
        if op == "add":
            if len(args) != 1 or not args[0].isdecimal():
                raise CMParseError(lineno, "expected `add <counter>`")
            instructions.append(Add(int(args[0])))
        elif op == "subb":
            if len(args) != 2 or not all(a.isdecimal() for a in args):
                raise CMParseError(lineno, "expected `subb <counter> <target>`")
            instructions.append(SubBranch(int(args[0]), int(args[1])))
        elif op == "halt":
            if args:
                raise CMParseError(lineno, "halt takes no arguments")
            instructions.append(Halt())
        else:
            raise CMParseError(lineno, f"unknown operation {op!r}")
    if num_counters is None:
        raise CMParseError(0, "missing `counters <k>` header")
    if init is not None:
        if len(init) > num_counters:
            raise CMParseError(0, "init line has more values than counters")
        init = init + (0,) * (num_counters - len(init))
    try:
        return CounterProgram(num_counters, tuple(instructions), init)
    except ValueError as e:
        raise CMParseError(0, str(e))
