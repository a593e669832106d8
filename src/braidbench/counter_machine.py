"""Counter machines: Add / Subtract-and-Branch-if-zero / Halt programs.

Counters hold non-negative integers (Python ints, so no overflow to detect).
A program counter that walks past the last instruction halts implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

from .braidlike_tm import FieldError, ParseError, directives, is_digits


class CMParseError(ParseError):
    pass


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
        """Raise FieldError on a malformed field; the tag of instruction i
        is i."""
        if not is_int(self.num_counters):
            raise FieldError("num_counters", f"num_counters {self.num_counters!r} is not an integer")
        if self.num_counters < 1:
            raise FieldError("num_counters", "need at least one counter")
        if not self.instructions:
            raise FieldError("instructions", "program must have at least one instruction")
        for i, ins in enumerate(self.instructions):
            if not isinstance(ins, (Add, SubBranch, Halt)):
                raise FieldError(i, f"instruction {i}: {ins!r} is not an Add, SubBranch or Halt")
            if isinstance(ins, (Add, SubBranch)) and not (0 <= ins.counter < self.num_counters):
                raise FieldError(i, f"instruction {i}: counter index {ins.counter} out of range")
            if isinstance(ins, SubBranch) and not (0 <= ins.target < len(self.instructions)):
                raise FieldError(i, f"instruction {i}: goto target {ins.target} out of range")
        if self.init_counters is None:
            object.__setattr__(self, "init_counters", (0,) * self.num_counters)
        elif len(self.init_counters) != self.num_counters or not all(is_int(v) and v >= 0 for v in self.init_counters):
            raise FieldError("init_counters", "init counters must list one non-negative value per counter")


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


# Opcodes of a lowered step table, whose rows are (op, a, b, out, alt) over
# one list of counts, the places: GOAL (a is its cost in steps), ADD (one
# unit to place a), MOVE (one unit from place a to place b, if a has one),
# BRANCH (take one unit from place a to go to out, or go to alt if it has
# none) and STUCK (raise a(b): a is an exception class, b its message).
# Every row but a GOAL goes on to out, or alt, in one step.
GOAL, ADD, MOVE, BRANCH, STUCK = range(5)


def lower_program(program: CounterProgram) -> list:
    """The program as a step table over its counters, one row per pc: an
    Add is an ADD, a SubBranch a BRANCH to pc + 1 or its target, and a Halt
    a GOAL of cost 1. Row n, past the last instruction, is the implicit
    halt, a GOAL of cost 0."""
    rows = []
    for pc, ins in enumerate(program.instructions):
        if isinstance(ins, Add):
            rows.append((ADD, ins.counter, 0, pc + 1, 0))
        elif isinstance(ins, SubBranch):
            rows.append((BRANCH, ins.counter, 0, pc + 1, ins.target))
        else:
            rows.append((GOAL, 1, 0, 0, 0))
    rows.append((GOAL, 0, 0, 0, 0))
    return rows


def run_table(table: list, pos: int, places: list, dips: list, count: int, limit: int):
    """Step the table from row pos to a GOAL or to limit steps, count being
    the steps so far, updating places in place and jumping whole loop
    iterations (`jump_loop`). dips holds a decrement count per place, which
    the run adds to; a caller that runs on from where a call stopped
    passes the same list. Returns (pos, count, reached): a GOAL adds its
    cost, and one of cost 0 is reached at the limit too."""
    seen = {}
    while count < limit:
        op, a, b, out, alt = table[pos]
        if op == BRANCH:
            if places[a]:
                places[a] -= 1
                dips[a] += 1
                nxt = out
            else:
                nxt = alt
        elif op == MOVE:
            if places[a]:
                places[a] -= 1
                dips[a] += 1
                places[b] += 1
            nxt = out
        elif op == ADD:
            places[a] += 1
            nxt = out
        elif op == GOAL:
            return pos, count + a, True
        else:
            raise a(b)
        count += 1
        if nxt <= pos:  # a back edge
            count = jump_loop(seen, nxt, count, places, dips, limit)
        pos = nxt
    return pos, count, table[pos][:2] == (GOAL, 0)


def check_counters(counters, n: int):
    """Raise ValueError unless counters lists n non-negative integers."""
    if len(counters) != n or not all(is_int(v) and v >= 0 for v in counters):
        raise ValueError(f"counters {counters!r} must list one non-negative integer per counter, {n} in all")


def is_int(v):
    """True for an int that is not a bool: JSON's true would index counter 1."""
    return isinstance(v, int) and not isinstance(v, bool)


def cm_step(program: CounterProgram, c: CounterConfig) -> CounterConfig:
    """Execute one instruction. Pure; the input config is not modified."""
    if c.halted:
        raise ValueError("cannot step a halted configuration")
    return cm_run(program, c, 1).config


def cm_run(program: CounterProgram, init: CounterConfig, max_steps: int) -> RunResult:
    """Run from init to a halt or for max_steps more steps: a lowering
    (`lower_program`) and one `run_table` over the counters. Raises
    ValueError, naming the field, if the program cannot hold init."""
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    n = len(program.instructions)
    if init.pc is not None and not (is_int(init.pc) and 0 <= init.pc < n):
        raise ValueError(f"pc {init.pc!r} is not an instruction index in 0..{n - 1}, nor None")
    check_counters(init.counters, program.num_counters)
    if init.pc is None:
        return RunResult("halted", init)
    counters = list(init.counters)
    pc, steps, halted = run_table(lower_program(program), init.pc, counters, [0] * len(counters), 0, max_steps)
    c = init if steps == 0 else CounterConfig(None if halted else pc, tuple(counters), init.steps + steps)
    return RunResult("halted" if halted else "budget", c)


def jump_loop(seen: dict, at, count: int, values: list, dips: list, limit: int) -> int:
    """Jump whole iterations of the loop that has just come back to `at`:
    update values and dips in place and return the new count, at most
    limit.

    values holds every value a zero test reads, and dips, of the same
    length, a decrement count for each: the caller adds 1 to a value's
    entry whenever the value goes down, by 1 at a time, and only where a
    zero test has read it nonzero. A jump adds the decrements of the
    iterations it skips. seen maps each arrival point to the count, values
    and decrement counts of its last arrival, and is updated here. Say the
    last arrival at `at` was p steps ago at u, and the values are now
    v = u + d after D decrements. A value with d = 0 replays exactly. One
    with d != 0 never dipped below u - D in the iteration, so if u > D no
    zero test read it as zero, and every test in an iteration that starts
    at D or above reads it nonzero. So it stays above zero through the
    next k iterations if each starts at D or above, v + (j - 1) d >= D for
    j = 1..k. Then no zero test can differ, so the next k iterations repeat
    this one: they add k d to each value, k D to its decrement count and
    k p to the count. The iteration that starts below D, and the budget's
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
    v, dv = now = tuple(values), tuple(dips)
    seen[at] = (count, now)
    before, then = last
    if then is None:
        return count
    p = count - before
    k = (limit - count) // p
    if k <= 0:
        return count
    u, du = then
    moved = []
    if v != u:
        for i, d in enumerate(map(sub, v, u)):
            if d:
                x, dip = v[i], dv[i] - du[i]
                if x - d <= dip:  # the last iteration may have read zero
                    return count
                if d < 0:  # 0 if the next iteration starts below dip: a jump of nothing
                    k = min(k, (x - dip) // -d + 1)
                moved.append((i, d))
    for i, d in moved:
        values[i] += k * d
    if dv != du:
        for i, dip in enumerate(map(sub, dv, du)):
            dips[i] += k * dip
    count += k * p
    seen[at] = (count, (tuple(values), tuple(dips)))
    return count


# the .cm header keywords and the CounterProgram fields they give
CM_HEADERS = {"counters": "num_counters", "init": "init_counters"}


def parse_counter_program(text: str) -> CounterProgram:
    """Parse the `.cm` format, read by `directives`.

    Header lines `counters <k>` and optional `init <v0> <v1> ...`; body
    lines `<i>: add <c>`, `<i>: subb <c> <target>`, `<i>: halt` with
    consecutive indices from 0.
    """
    num_counters = init = None
    instructions = []
    where = {}  # a CounterProgram field tag -> the line that gave it
    for lineno, key, args in directives(text, CM_HEADERS, where, CMParseError):
        if key == "counters":
            if len(args) != 1 or not is_digits(args[0]):
                raise CMParseError(lineno, "expected `counters <k>`")
            num_counters = int(args[0])
        elif key == "init":
            if not is_digits("".join(args)):
                raise CMParseError(lineno, "init values must be non-negative integers")
            init = tuple(map(int, args))
        else:  # an instruction line, "<i>: op ..."
            if key == ":" or key[-1] != ":" or not is_digits(key[:-1]):
                raise CMParseError(lineno, f"expected `<i>:` instruction label, got {key!r}")
            idx = int(key[:-1])
            if idx != len(instructions):
                raise CMParseError(lineno, f"instruction index {idx} out of order (expected {len(instructions)})")
            op = args[0].lower() if args else ""
            if op == "add":
                if len(args) != 2 or not is_digits(args[1]):
                    raise CMParseError(lineno, "expected `add <counter>`")
                instructions.append(Add(int(args[1])))
            elif op == "subb":
                if len(args) != 3 or not is_digits(args[1] + args[2]):
                    raise CMParseError(lineno, "expected `subb <counter> <target>`")
                instructions.append(SubBranch(int(args[1]), int(args[2])))
            elif op == "halt":
                if len(args) != 1:
                    raise CMParseError(lineno, "halt takes no arguments")
                instructions.append(Halt())
            else:
                raise CMParseError(lineno, f"unknown operation {op!r}")
            where[idx] = lineno
    if num_counters is None:
        raise CMParseError(0, "missing `counters <k>` header")
    if init is not None:
        if len(init) > num_counters:
            raise CMParseError(where["init_counters"], "init line has more values than counters")
        init = init + (0,) * (num_counters - len(init))
    try:
        return CounterProgram(num_counters, tuple(instructions), init)
    except FieldError as e:
        raise CMParseError(where.get(e.field, 0), str(e)) from None
