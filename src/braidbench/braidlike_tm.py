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


class ParseError(ValueError):
    """An error in the text of a line format (`.btm`, `.cm` or `.game`),
    at line `lineno`: 0 only when no line holds the fault, as for a
    missing header."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class BTMParseError(ParseError):
    pass


class FieldError(ValueError):
    """A constructor's check failed on `field`, a tag that its
    `__post_init__` documents, such as a field name or a tuple of a field
    name and the entry at fault. A parser maps the tag back to the line
    that gave the field."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


def directives(text: str, headers: dict, where: dict, error):
    """The reader of the line formats: (lineno, keyword, args) for each
    line that holds words once its `#` comment is cut, the keyword being
    the first word lowercased. headers maps each header keyword to the tag
    of the constructor field it gives, and where[tag] gets its line; a
    second line of it raises error(lineno, message)."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        words = line.split()
        if words:
            key = words[0].lower()
            tag = headers.get(key)
            if tag is not None:
                if tag in where:
                    raise error(lineno, f"second `{key}` line")
                where[tag] = lineno
            yield lineno, key, words[1:]


def is_digits(text: str) -> bool:
    """The number rule of the line formats and of `--input`: ASCII decimal
    digits only, so no sign, `_` or other script's digit. The empty text,
    an empty list of numbers joined, passes."""
    return text.isascii() and (text.isdecimal() or not text)


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
        """Raise FieldError on a field out of range; a transition's tag is
        ("transitions", (q, a), (action, next_state))."""
        if self.num_states < 1 or self.num_symbols < 1:
            field = "num_states" if self.num_states < 1 else "num_symbols"
            raise FieldError(field, "need at least one state and one symbol")
        if not (0 <= self.start_state < self.num_states):
            raise FieldError("start_state", "start state out of range")
        for q in self.accept_states:
            if not (0 <= q < self.num_states):
                raise FieldError(("accept_states", q), f"accept state {q} out of range")
        if self.target_state is not None and not (0 <= self.target_state < self.num_states):
            raise FieldError("target_state", "target state out of range")
        for key, succs in self.transitions.items():
            q, a = key
            if not (0 <= q < self.num_states) or not (0 <= a < self.num_symbols):
                raise FieldError(("transitions", key, *succs[:1]), f"transition key ({q}, {a}) out of range")
            if self.deterministic and len(succs) > 1:
                raise FieldError(("transitions", key, succs[1]),
                                 f"deterministic machine has {len(succs)} transitions from ({q}, {a})")
            for action, nxt in succs:
                if not (0 <= nxt < self.num_states):
                    raise FieldError(("transitions", key, (action, nxt)),
                                     f"transition from ({q}, {a}) to state {nxt} out of range")
                if isinstance(action, Write) and not (0 <= action.symbol < self.num_symbols):
                    raise FieldError(("transitions", key, (action, nxt)),
                                     f"written symbol {action.symbol} out of range")

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
    move is stuck (MoveLeft at the left endpoint). A write is the erase-right
    rule: keep cells 0..head-1 (blanks materialize if the head is past the
    end), place the symbol at the head, and erase everything to its right,
    leaving the tape canonical."""
    # tuple.__new__ skips the NamedTuple constructor's Python call, made once per step of a replay
    if type(action) is MoveLeft:
        return None if c.head == 0 else tuple.__new__(Configuration, (next_state, c.head - 1, c.tape))
    if type(action) is MoveRight:
        return tuple.__new__(Configuration, (next_state, c.head + 1, c.tape))
    head, tape, symbol = c.head, c.tape, action.symbol
    if symbol == BLANK:
        return tuple.__new__(Configuration, (next_state, head, canonical_tape(tape[:head])))
    if head > len(tape):
        tape += (BLANK,) * (head - len(tape))
    return tuple.__new__(Configuration, (next_state, head, tape[:head] + (symbol,)))


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


# the .btm header keywords and the MachineSpec fields they give
BTM_HEADERS = {"states": "num_states", "symbols": "num_symbols", "start": "start_state",
               "target": "target_state", "deterministic": "deterministic"}


def parse_btm(text: str) -> MachineSpec:
    """Parse the `.btm` format, read by `directives`.

    Header lines `states N`, `symbols S`, `start q`, optional `target q`
    and optional `deterministic true|false`; `accept q1 q2 ...` lines;
    transition lines `trans <q> <a> write <b> <q'>`, `trans <q> <a> left
    <q'>`, `trans <q> <a> right <q'>`. All numbers 0-based.
    """
    header = {}
    where = {}  # a MachineSpec field tag -> the line that gave it
    accept = []
    transitions = {}
    for lineno, key, args in directives(text, BTM_HEADERS, where, BTMParseError):
        if key == "trans":
            if len(args) < 3:
                raise BTMParseError(lineno, "truncated transition")
            kind = args[2].lower()
            if kind not in ("write", "left", "right"):
                raise BTMParseError(lineno, f"unknown action {kind!r}")
            if len(args) != (5 if kind == "write" else 4):
                form = "write <b>" if kind == "write" else kind
                raise BTMParseError(lineno, f"expected `trans <q> <a> {form} <q'>`")
            if not is_digits("".join(args[:2] + args[3:])):
                raise BTMParseError(lineno, "transition states and symbols must be integers")
            q, a, *symbol, nxt = map(int, args[:2] + args[3:])
            succ = (Write(*symbol) if kind == "write" else MOVE_LEFT if kind == "left" else MOVE_RIGHT, nxt)
            transitions.setdefault((q, a), []).append(succ)
            where["transitions", (q, a), succ] = lineno
        elif key == "accept":
            if not is_digits("".join(args)):
                raise BTMParseError(lineno, "accept states must be integers")
            for q in map(int, args):
                accept.append(q)
                where["accept_states", q] = lineno
        elif key == "deterministic":
            if len(args) != 1 or args[0].lower() not in ("true", "false"):
                raise BTMParseError(lineno, "expected `deterministic true|false`")
            header["deterministic"] = args[0].lower() == "true"
        elif key in BTM_HEADERS:
            if len(args) != 1 or not is_digits(args[0]):
                raise BTMParseError(lineno, f"expected `{key} <n>`")
            header[BTM_HEADERS[key]] = int(args[0])
        else:
            raise BTMParseError(lineno, f"unknown directive {key!r}")
    for key in ("states", "symbols", "start"):
        if BTM_HEADERS[key] not in header:
            raise BTMParseError(0, f"missing `{key}` line")
    try:
        return MachineSpec(accept_states=frozenset(accept),
                           transitions={k: tuple(v) for k, v in transitions.items()}, **header)
    except FieldError as e:
        raise BTMParseError(where.get(e.field, 0), str(e)) from None


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
