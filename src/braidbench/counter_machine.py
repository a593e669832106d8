"""Counter machines: Add / Subtract-and-Branch-if-zero / Halt programs.

Counters hold non-negative integers (Python ints, so no overflow to detect).
A program counter that walks past the last instruction halts implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub


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
    dips = [0] * len(counters)  # jump_loop's decrement count per counter
    steps = 0
    seen = {}
    while steps < max_steps and pc is not None:
        row = rows[pc]
        steps += 1
        if row is None:
            nxt = None
        elif row[0]:
            counters[row[1]] += 1
            nxt = row[2]
        elif counters[row[1]]:
            counters[row[1]] -= 1
            dips[row[1]] += 1
            nxt = row[2]
        else:
            nxt = row[3]
        if nxt is not None and nxt <= pc:  # a back edge
            steps = jump_loop(seen, nxt, steps, (counters,), (dips,), max_steps)
        pc = nxt
    c = init if steps == 0 else CounterConfig(pc, tuple(counters), init.steps + steps)
    return RunResult("budget" if pc is not None else "halted", c)


def jump_loop(seen: dict, at, count: int, vecs: tuple, dips: tuple, limit: int) -> int:
    """Jump whole iterations of the loop that has just come back to `at`:
    update the lists in vecs and dips in place and return the new count, at
    most limit.

    The lists in vecs hold every value a zero test reads. dips holds a list
    of the same length beside each, and the caller adds 1 to a value's entry
    there whenever the value goes down, by 1 at a time; a jump adds the
    decrements of the iterations it skips. seen maps each arrival point to
    the count, values and decrement counts of its last arrival, and is
    updated here. Say the last arrival at `at` was p steps ago at u, and the
    values are now v = u + d after D decrements. A value with d = 0 replays
    exactly. One with d != 0 never dipped below u - D in the iteration, so
    it stayed above zero if u > D, and it stays above zero through the next
    k if each starts above D, v + (j - 1) d > D for j = 1..k. Then no zero
    test can differ, so the next k iterations repeat this one: they add k d
    to each value, k D to its decrement count and k p to the count. The
    last iteration or so before a value reaches zero, and the budget's
    remainder, are left to the caller.

    The first arrival records only the count, and the values are first
    copied at the second, so a loop left after one iteration copies
    nothing and one left after two compares nothing; a comparison stops at
    the first value that may reach zero.
    """
    last = seen.get(at)
    if last is None:
        seen[at] = (count, None)
        return count
    lists = vecs + dips
    now = tuple(map(tuple, lists))  # the values, then their decrement counts
    seen[at] = (count, now)
    before, u = last
    if u is None:
        return count
    p = count - before
    k = (limit - count) // p
    if k <= 0:
        return count
    n = len(vecs)
    moved = []
    for j in range(n):
        vs, us = now[j], u[j]
        if us != vs:
            ds, dus = now[n + j], u[n + j]
            for i, d in enumerate(map(sub, vs, us)):
                if d:
                    v, dip = vs[i], ds[i] - dus[i]
                    if v <= dip or v - d <= dip:  # the next iteration may reach zero
                        return count
                    if d < 0:
                        k = min(k, (v - dip - 1) // -d + 1)
                    moved.append((vecs[j], i, d))
    for vec, i, d in moved:
        vec[i] += k * d
    for j in range(n, 2 * n):
        if now[j] != u[j]:
            ds = lists[j]
            for i, dip in enumerate(map(sub, now[j], u[j])):
                ds[i] += k * dip
    count += k * p
    seen[at] = (count, tuple(map(tuple, lists)))
    return count


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
