"""Braidlike Turing machines: half-infinite tape, erase-right writes.

A machine performs exactly one of Write / MoveLeft / MoveRight per
transition. Writing at cell h replaces the tape with cells 0..h-1 plus the
written symbol: everything right of the head is erased. Symbol 0 is blank.
Tapes are kept canonical (no trailing blanks) so structural equality works
as set membership in the search modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

BLANK = 0


class BTMParseError(ValueError):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class Write:
    symbol: int


@dataclass(frozen=True)
class MoveLeft:
    pass


@dataclass(frozen=True)
class MoveRight:
    pass


MOVE_LEFT = MoveLeft()
MOVE_RIGHT = MoveRight()


@dataclass(frozen=True)
class MachineSpec:
    num_states: int
    num_symbols: int
    start_state: int
    accept_states: frozenset
    transitions: dict  # (state, symbol) -> tuple of (Action, next_state)
    target_state: int = None
    deterministic: bool = False

    def __post_init__(self):
        if self.num_states < 1 or self.num_symbols < 1:
            raise ValueError("need at least one state and one symbol")
        if not (0 <= self.start_state < self.num_states):
            raise ValueError("start state out of range")
        for q in self.accept_states:
            if not (0 <= q < self.num_states):
                raise ValueError(f"accept state {q} out of range")
        if self.target_state is not None and not (0 <= self.target_state < self.num_states):
            raise ValueError("target state out of range")
        for (q, a), succs in self.transitions.items():
            if not (0 <= q < self.num_states) or not (0 <= a < self.num_symbols):
                raise ValueError(f"transition key ({q}, {a}) out of range")
            if self.deterministic and len(succs) > 1:
                raise ValueError(f"deterministic machine has {len(succs)} transitions from ({q}, {a})")
            for action, nxt in succs:
                if not (0 <= nxt < self.num_states):
                    raise ValueError(f"transition from ({q}, {a}) to state {nxt} out of range")
                if isinstance(action, Write) and not (0 <= action.symbol < self.num_symbols):
                    raise ValueError(f"written symbol {action.symbol} out of range")

    @property
    def read_only(self):
        return not any(
            isinstance(action, Write) for succs in self.transitions.values() for action, _ in succs
        )


class Configuration(NamedTuple):
    """A plain tuple, so a configuration is its own key in a visited set."""

    state: int
    head: int  # may point past the end of the tape (blank region)
    tape: tuple  # canonical: no trailing blanks


def canonical_tape(cells) -> tuple:
    cells = tuple(cells)
    end = len(cells)
    while end > 0 and cells[end - 1] == BLANK:
        end -= 1
    return cells[:end]


def check_input(spec: MachineSpec, input_symbols) -> tuple:
    """The input word as a tuple; ValueError if a symbol is out of range."""
    input_symbols = tuple(input_symbols)
    for a in input_symbols:
        if not (0 <= a < spec.num_symbols):
            raise ValueError(f"input symbol {a} out of range")
    return input_symbols


def start_configuration(spec: MachineSpec) -> Configuration:
    return Configuration(state=spec.start_state, head=0, tape=())


def symbol_at(tape: tuple, cell: int) -> int:
    return tape[cell] if cell < len(tape) else BLANK


def write_tape(tape: tuple, head: int, symbol: int) -> tuple:
    """The erase-right write rule: keep cells 0..head-1 (blanks materialize
    if the head is past the end), place the symbol at the head, and erase
    everything to its right. Returns the canonical tape."""
    if symbol == BLANK:
        return canonical_tape(tape[:head])
    if head > len(tape):
        return tape + (BLANK,) * (head - len(tape)) + (symbol,)
    return tape[:head] + (symbol,)


class TapeStore:
    """Hash-consed cons lists of symbols, for searches that step a tape zipper.

    A list is an int and 0 is the empty list; `cons` interns, so equal lists
    are equal ints. A zipped configuration is a triple (state, left, right):
    `left` holds the cells left of the head, nearest first, and `right` holds
    the head cell onward with no trailing blanks. Each canonical
    Configuration has exactly one triple, so triples serve as search keys,
    and `apply` steps one in O(1) time and memory: an erase-right write keeps
    `left` and replaces `right` by one cell. One store serves one search.
    """

    def __init__(self, num_symbols: int):
        self.num_symbols = num_symbols
        self.car = [BLANK]
        self.cdr = [0]
        self.size = [0]
        self._ids = {}

    def cons(self, symbol: int, rest: int) -> int:
        key = rest * self.num_symbols + symbol
        node = self._ids.get(key)
        if node is None:
            node = self._ids[key] = len(self.car)
            self.car.append(symbol)
            self.cdr.append(rest)
            self.size.append(self.size[rest] + 1)
        return node

    def apply(self, z: tuple, action, next_state: int):
        """apply_action on a zipped configuration; None if the move is stuck."""
        _, left, right = z
        if isinstance(action, MoveLeft):
            if left == 0:
                return None
            cell = self.car[left]
            if cell != BLANK or right != 0:
                right = self.cons(cell, right)
            return (next_state, self.cdr[left], right)
        if isinstance(action, MoveRight):
            return (next_state, self.cons(self.car[right], left), self.cdr[right])
        return (next_state, left, self.cons(action.symbol, 0) if action.symbol != BLANK else 0)

    def successors(self, spec: MachineSpec, z: tuple) -> list:
        """`successors` on a zipped configuration, in the same order."""
        out = []
        for action, nxt in spec.transitions.get((z[0], self.car[z[2]]), ()):
            succ = self.apply(z, action, nxt)
            if succ is not None:
                out.append(succ)
        return out


def apply_action(c: Configuration, action, next_state: int):
    """Apply one action. Returns the successor Configuration, or None if the
    move is stuck (MoveLeft at the left endpoint)."""
    if isinstance(action, MoveLeft):
        if c.head == 0:
            return None
        return Configuration(next_state, c.head - 1, c.tape)
    if isinstance(action, MoveRight):
        return Configuration(next_state, c.head + 1, c.tape)
    return Configuration(next_state, c.head, write_tape(c.tape, c.head, action.symbol))


def successors(spec: MachineSpec, c: Configuration) -> list:
    """The step relation: one successor per enabled transition, in the
    spec's order, with stuck moves dropped. Successors are not deduplicated;
    every search's visited set already does that."""
    out = []
    for action, nxt in spec.transitions.get((c.state, symbol_at(c.tape, c.head)), ()):
        succ = apply_action(c, action, nxt)
        if succ is not None:
            out.append(succ)
    return out


def parse_btm(text: str) -> MachineSpec:
    """Parse the `.btm` format.

    `#` comments; `states N`, `symbols S`, `start q`, `accept q1 q2 ...`,
    optional `target q`, optional `deterministic true|false`; transition
    lines `trans <q> <a> write <b> <q'>`, `trans <q> <a> left <q'>`,
    `trans <q> <a> right <q'>`. All integers 0-based.
    """
    header = {}
    accept = []
    transitions = {}
    deterministic = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.lower().split()
        key = words[0]
        if key in ("states", "symbols", "start", "target"):
            if len(words) != 2 or not words[1].isdecimal():
                raise BTMParseError(lineno, f"expected `{key} <n>`")
            header[key] = int(words[1])
        elif key == "accept":
            if not all(w.isdecimal() for w in words[1:]):
                raise BTMParseError(lineno, "accept states must be integers")
            accept.extend(int(w) for w in words[1:])
        elif key == "deterministic":
            if len(words) != 2 or words[1] not in ("true", "false"):
                raise BTMParseError(lineno, "expected `deterministic true|false`")
            deterministic = words[1] == "true"
        elif key == "trans":
            if len(words) < 4:
                raise BTMParseError(lineno, "truncated transition")
            kind = words[3]
            if kind == "write":
                if len(words) != 6:
                    raise BTMParseError(lineno, "expected `trans <q> <a> write <b> <q'>`")
            elif kind in ("left", "right"):
                if len(words) != 5:
                    raise BTMParseError(lineno, f"expected `trans <q> <a> {kind} <q'>`")
            else:
                raise BTMParseError(lineno, f"unknown action {kind!r}")
            try:
                q, a, *rest = (int(w) for w in words[1:3] + words[4:])
            except ValueError:
                raise BTMParseError(lineno, "transition states and symbols must be integers")
            if kind == "write":
                action, nxt = Write(rest[0]), rest[1]
            else:
                action, nxt = (MOVE_LEFT if kind == "left" else MOVE_RIGHT), rest[0]
            transitions.setdefault((q, a), []).append((action, nxt))
        else:
            raise BTMParseError(lineno, f"unknown directive {key!r}")
    for field_name in ("states", "symbols", "start"):
        if field_name not in header:
            raise BTMParseError(0, f"missing `{field_name}` line")
    try:
        return MachineSpec(
            num_states=header["states"],
            num_symbols=header["symbols"],
            start_state=header["start"],
            accept_states=frozenset(accept),
            transitions={k: tuple(v) for k, v in transitions.items()},
            target_state=header.get("target"),
            deterministic=deterministic,
        )
    except ValueError as e:
        raise BTMParseError(0, str(e))


def format_btm(spec: MachineSpec) -> str:
    """Serialize a MachineSpec back to `.btm` text."""
    lines = [
        f"states {spec.num_states}",
        f"symbols {spec.num_symbols}",
        f"start {spec.start_state}",
        "accept " + " ".join(str(q) for q in sorted(spec.accept_states)),
    ]
    if spec.target_state is not None:
        lines.append(f"target {spec.target_state}")
    lines.append(f"deterministic {'true' if spec.deterministic else 'false'}")
    for (q, a) in sorted(spec.transitions):
        for action, nxt in spec.transitions[(q, a)]:
            if isinstance(action, Write):
                lines.append(f"trans {q} {a} write {action.symbol} {nxt}")
            elif isinstance(action, MoveLeft):
                lines.append(f"trans {q} {a} left {nxt}")
            else:
                lines.append(f"trans {q} {a} right {nxt}")
    return "\n".join(lines) + "\n"
