"""The four braidbench workloads: input generators and per-item checks.

An item is one input whose decider verdict is produced and compared with an
independent baseline. Each workload's inputs come in rounds of fixed
composition (the seed picks the content, not the mix), and a run always
ends on a round boundary, so that two runs of different seeds do the same
kind of work in the same proportions and the same order. A workload's
pool of rounds takes a few seconds, and a run goes through it several
times: the median over those passes gives each input a latency that a
stretch of slow machine time does not decide.

Every call into the package goes through `ctx.tracer`, which wraps it in a
span named `<module>.<function>` when tracing is on. Nothing in this module
imports braidbench at import time: `run.py` imports the package while it
times set-up and passes the modules in as `ctx.pkg`.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random


class ItemFailed(Exception):
    """An operation of the item failed: a verdict that disagrees with its
    independent baseline, or a CLI call that exited non-zero or raised.

    `incorrect` marks a wrong verdict, which makes the whole run incorrect.
    """

    def __init__(self, reason, detail="", incorrect=False):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail
        self.incorrect = incorrect


class ItemUnverified(Exception):
    """Every operation of the item completed, but its verdict could not be
    checked: the baseline gave no answer (an oracle out of budget) or the
    CLI pipeline lost a part of the input that it cannot carry (a level
    file has no initial counters). A search that raises
    SearchBudgetExceeded is counted the same way. Such items count against
    verified_frac, not as failed operations.
    """

    def __init__(self, reason, detail=""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


class Context:
    """What an item check needs: the package, the tracer, scratch files and
    the workload's property records."""

    def __init__(self, pkg, tracer, workdir):
        self.pkg = pkg
        self.tracer = tracer
        self.workdir = workdir
        self.props = {}

    def call(self, name, *args, **kwargs):
        module, function = name.split(".")
        fn = getattr(getattr(self.pkg, module), function)
        return self.tracer.call(name, fn, *args, **kwargs)

    def prop_max(self, key, value):
        self.props[key] = max(self.props.get(key, value), value)

    def prop_add(self, key, n=1):
        self.props[key] = self.props.get(key, 0) + n

    def cli(self, argv):
        """Run `braidbench.cli.main` in-process with output captured.

        Returns the parsed JSON payload of stdout (or None if stdout is not
        JSON). A non-zero exit or an exception fails the item.
        """
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.call("cli.main", argv)
        except Exception as e:  # the CLI contract is "never a traceback"
            self.tracer.count("cli.main.nonzero_exit")
            raise ItemFailed("cli-raised", f"{' '.join(argv)}: {type(e).__name__}: {e}")
        if code != 0:
            self.tracer.count("cli.main.nonzero_exit")
            raise ItemFailed(f"cli-exit-{code}", f"{' '.join(argv)}: {err.getvalue().strip()}")
        try:
            return json.loads(out.getvalue())
        except json.JSONDecodeError:
            return None

    def write(self, name, text):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as f:
            f.write(text)
        return path


# ---------------------------------------------------------------------------
# det-census: deterministic decider vs brute-force oracle. oracle_sim does
# over 99% of the work, most of it on the machines it leaves unresolved;
# tour_guide does under 1%.

ORACLE_MAX_STEPS = 10 ** 5  # the criterion-1 budgets
ORACLE_MAX_CELLS = 10 ** 3
CENSUS_PER_ROUND = 64
SAMPLE_PER_ROUND = 4  # 3-state machines per round
CENSUS_ROUNDS = 80
# The census is taken in a fixed golden-ratio stride order, the same for
# every seed: the CENSUS_ROUNDS * CENSUS_PER_ROUND machines in the pool are
# a spread-out slice of the whole census, and the unresolved machines
# (nearly all of the oracle's time) come in their census proportion. The
# seed drives the 3-state sample.
CENSUS_STRIDE = 16223  # coprime with 26 244 = 2^2 * 3^8
# The oracle's memory grows in steps as its visited set resizes, and one
# seeded 3-state machine in a few hundred reaches the 16 MB step that no
# machine of the census slice reaches. This unresolved 3-state machine,
# which reaches it, is in every pool, so that peak RSS measures that step
# and not whether a seed happened to draw such a machine.
HEAVY_DET3 = ("states 3\nsymbols 2\nstart 0\naccept\ndeterministic true\n"
              "trans 0 0 write 1 0\ntrans 0 1 write 0 2\ntrans 1 0 write 0 0\n"
              "trans 1 1 right 1\ntrans 2 0 write 1 1\ntrans 2 1 write 0 0\n")


def _census(pkg):
    tm = pkg.braidlike_tm
    options = [None] + [(a, n) for a in (tm.Write(0), tm.Write(1), tm.MOVE_LEFT, tm.MOVE_RIGHT) for n in (0, 1)]
    keys = ((0, 0), (0, 1), (1, 0), (1, 1))
    accept_sets = (frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1}))
    out = []
    for combo in itertools.product(options, repeat=4):
        trans = {k: (opt,) for k, opt in zip(keys, combo) if opt is not None}
        for accept in accept_sets:
            out.append(tm.MachineSpec(2, 2, 0, accept, trans, deterministic=True))
    return out


def _random_det3(pkg, rng):
    tm = pkg.braidlike_tm
    n = 3
    options = [None] + [(a, q) for a in (tm.Write(0), tm.Write(1), tm.MOVE_LEFT, tm.MOVE_RIGHT) for q in range(n)]
    trans = {}
    for key in ((q, a) for q in range(n) for a in range(2)):
        opt = rng.choice(options)
        if opt is not None:
            trans[key] = (opt,)
    accept = frozenset(q for q in range(n) if rng.random() < 0.25)
    return tm.MachineSpec(n, 2, 0, accept, trans, deterministic=True)


def make_det_census(pkg, seed, ctx):
    rng = random.Random(seed)
    census = _census(pkg)
    order = [(j * CENSUS_STRIDE) % len(census) for j in range(len(census))]
    rounds = []
    for r in range(CENSUS_ROUNDS):
        chunk = CENSUS_PER_ROUND // SAMPLE_PER_ROUND
        items = []
        for k in range(SAMPLE_PER_ROUND):
            start = r * CENSUS_PER_ROUND + k * chunk
            items.extend((f"c{i}", census[i]) for i in order[start:start + chunk])
            items.append((f"s{r}.{k}", _random_det3(pkg, rng)))
        cli = rng.randrange(len(items))  # one machine a round also goes through the CLI
        round_items = []
        for slot, (item_id, spec) in enumerate(items):
            path = ctx.write(f"{item_id}.btm", pkg.braidlike_tm.format_btm(spec)) if slot == cli else None
            round_items.append((item_id, check_det, (spec, path)))
        rounds.append(round_items)
    rounds[0].append(("heavy3", check_det, (pkg.braidlike_tm.parse_btm(HEAVY_DET3), None)))
    return rounds


def check_det(ctx, spec, path):
    verdict = ctx.call("tour_guide.decide_det_braidlike", spec)
    oracle = ctx.call("oracle_sim.det_behavior_oracle", spec, ORACLE_MAX_STEPS, ORACLE_MAX_CELLS)
    ctx.tracer.count("oracle_sim.det_behavior_oracle.explored", oracle.explored)
    ctx.prop_add("machines")
    if oracle.kind == "unresolved":
        ctx.tracer.count("oracle_sim.det_behavior_oracle.unresolved")
        ctx.prop_add("unresolved")
        raise ItemUnverified("unresolved", f"decider says {verdict}")
    if verdict != oracle.kind:
        raise ItemFailed("disagreement", f"decider {verdict}, oracle {oracle.kind}", incorrect=True)
    if path is not None:
        out = ctx.cli(["--format", "json", "btm-decide", path])
        if out is None or out.get("verdict") != verdict:
            raise ItemFailed("cli-disagreement", f"btm-decide {out}, library {verdict}", incorrect=True)


def det_census_records(props):
    return {"unresolved_share": props.get("unresolved", 0) / max(props.get("machines", 0), 1)}


# ---------------------------------------------------------------------------
# reach-deep: decide_reachability vs reach_bfs on write-heavy machines with
# long tapes, where time and memory grow quadratically with the cell cap
# because every configuration owns its whole tape.

SPEC_CAP = 128
SPEC_BUDGET = 2000  # explored configurations per spec search
SPECS_PER_ROUND = 360
# Write-heavy machines whose searches grow quadratically with the cap: a
# 2-state right-writer at 2k, 4k and 8k cells, and a single-symbol
# blank-writer, which drives the trailing-blank strip in
# decide_reachability. The fifteen rungs are the fifteen slowest items, and
# the 2k rung comes RW2048_COPIES times a round, so that the tail
# percentile (the eleventh-slowest item) always falls on a 2k rung, in the
# middle of ten equal items, and never on a seeded spec.
RIGHT_WRITER = "states 2\nsymbols 2\nstart 0\naccept\ntarget 1\ntrans 0 0 write 1 0\ntrans 0 1 right 0\n"
BLANK_WRITER = "states 3\nsymbols 1\nstart 0\naccept\ntarget 2\ntrans 0 0 write 0 1\ntrans 1 0 right 0\n"
RW2048_COPIES = 10
LADDER = tuple((f"rw2048.{k}", RIGHT_WRITER, 2048) for k in range(RW2048_COPIES)) \
    + tuple((f"rw{cap}", RIGHT_WRITER, cap) for cap in (4096, 8192)) \
    + tuple((f"bw{cap}", BLANK_WRITER, cap) for cap in (512, 768, 1024))
LADDER_BUDGET = 10 ** 5


def random_reach_spec(pkg, rng):
    """The criterion-2 spec generator of the acceptance suite."""
    tm = pkg.braidlike_tm
    n = rng.randint(1, 3)
    s = rng.randint(1, 2)
    actions = [tm.Write(0), tm.MOVE_LEFT, tm.MOVE_RIGHT]
    if s == 2:
        actions.append(tm.Write(1))
    transitions = {}
    for q in range(n):
        for a in range(s):
            k = rng.choice([0, 1, 1, 2])
            succs = tuple(dict.fromkeys((rng.choice(actions), rng.randrange(n)) for _ in range(k)))
            if succs:
                transitions[(q, a)] = succs
    return tm.MachineSpec(num_states=n, num_symbols=s, start_state=0, accept_states=frozenset(),
                          transitions=transitions, target_state=rng.randrange(n), deterministic=False)


def make_reach_deep(pkg, seed, ctx):
    """One round: SPECS_PER_ROUND specs with a ladder rung after every
    chunk of them, the rungs always in the same order."""
    rng = random.Random(seed)
    chunk = SPECS_PER_ROUND // len(LADDER)
    cli = set(rng.sample(range(SPECS_PER_ROUND), 2))
    items = []
    for j in range(SPECS_PER_ROUND):
        spec = random_reach_spec(pkg, rng)
        path = ctx.write(f"r{j}.btm", pkg.braidlike_tm.format_btm(spec)) if j in cli else None
        items.append((f"r{j}", check_reach, (spec, SPEC_CAP, SPEC_BUDGET, path)))
        if (j + 1) % chunk == 0:
            name, text, cap = LADDER[j // chunk]
            items.append((name, check_reach, (pkg.braidlike_tm.parse_btm(text), cap, LADDER_BUDGET, None)))
    return [items]


def check_reach(ctx, spec, cap, budget, path):
    res = ctx.call("tour_guide.decide_reachability", spec, cell_cap=cap, max_explored=budget)
    ctx.tracer.count("tour_guide.decide_reachability.explored", res.explored)
    ctx.tracer.count("tour_guide.decide_reachability.cap_hit", int(res.cap_hit))
    base = ctx.call("oracle_sim.reach_bfs", spec, cap, max_explored=budget)
    ctx.tracer.count("oracle_sim.reach_bfs.explored", base.explored)
    ctx.tracer.count("oracle_sim.reach_bfs.cap_hit", int(base.cap_hit))
    ctx.prop_add("specs")
    ctx.prop_add("cap_hit", int(base.cap_hit))
    if base.cap_hit:  # the right-writer's tape fills the cap
        ctx.prop_max("largest_cap_hit", cap)
    if res.kind != base.kind:
        raise ItemFailed("disagreement", f"decide_reachability {res.kind}, reach_bfs {base.kind}", incorrect=True)
    if path is not None:
        out = ctx.cli(["--format", "json", "--max-cells", str(cap), "btm-reach", path])
        if out is None or out.get("verdict") != res.kind:
            raise ItemFailed("cli-disagreement", f"btm-reach {out}, library {res.kind}", incorrect=True)


def reach_deep_records(props):
    return {"cap_hit_share": props.get("cap_hit", 0) / max(props.get("specs", 0), 1),
            "largest_cap_hit": props.get("largest_cap_hit", 0)}


# ---------------------------------------------------------------------------
# rewind-games: direct timeline search vs the braidlike encoding, plus
# lockstep record/seek replays. The same tape layer as reach-deep, but tapes
# are short, seeks dominate and successor fan-out is wide: a tape store that
# costs more per operation on short tapes loses here.

GAME_MAX_LEN = 9
GAME_BUDGET = 10 ** 5
REPLAY_OPS = 10_000
REPLAY_SPEED = 8
# Each round holds two not-winnable games whose speeds sum to 9, so every
# round costs about the same, plus two winnable games and two replays.
SPEED_PAIRS = ((1, 8), (2, 7), (3, 6), (4, 5))
GAME_ROUNDS = 8


def _game(pkg, rng, speed, winnable):
    """A game over three timed states of which moves record only two.

    A record from timed state t to t2 moves the player to immune state
    h(t, t2), a seeded map. The immune state is then a function of the
    timeline's last two snapshots, so a game's search space depends on its
    speed alone, and each round costs the same whatever the seed.
    Not-winnable games put the goal on the never-recorded state, so both
    searches exhaust every timeline up to the length cap; winnable games
    put it on a state one record away from the start.
    """
    rt = pkg.rewind_timeline
    timed = ("t0", "t1", "t2")
    immune = ("m0", "m1")
    h = {(t, t2): rng.choice(immune) for t in timed[:2] for t2 in timed[:2]}
    moves = {(m, t): tuple((h[t, t2], t2) for t2 in timed[:2]) for m in immune for t in timed[:2]}
    if winnable:
        goal = {rng.choice(moves["m0", "t0"])}
    else:
        goal = {(rng.choice(immune), "t2")}
    return rt.GameSpec(timed, immune, "m0", "t0", moves, frozenset(goal), max_speed=speed)


def _replay_ops(rng):
    """REPLAY_OPS operations, a quarter of them records: (True, symbol) or
    (False, seek delta)."""
    kinds = rng.choices((True, False), cum_weights=(1, 4), k=REPLAY_OPS)
    symbols = rng.choices(range(1, 6), k=REPLAY_OPS)
    deltas = rng.choices(range(-REPLAY_SPEED, REPLAY_SPEED + 1), k=REPLAY_OPS)
    return [(k, s if k else d) for k, s, d in zip(kinds, symbols, deltas)]


def make_rewind_games(pkg, seed, ctx):
    rng = random.Random(seed)
    rounds = []
    for r in range(GAME_ROUNDS):
        items = []
        cli_game = rng.randrange(2)
        for k, speed in enumerate(SPEED_PAIRS[r % len(SPEED_PAIRS)]):
            items.append((f"g{r}.{k}", check_game, (_game(pkg, rng, speed, False), None)))
            items.append((f"p{r}.{k}", check_replay, (_replay_ops(rng),)))
            game = _game(pkg, rng, speed, True)
            path = ctx.write(f"g{r}.{k}w.game", _format_game(game)) if k == cli_game else None
            items.append((f"g{r}.{k}w", check_game, (game, path)))
        rounds.append(items)
    return rounds


def _format_game(g):
    lines = ["timed " + " ".join(g.timed_states), "immune " + " ".join(g.immune_states),
             f"start {g.init_immune} {g.init_timed}", f"speed {g.max_speed}"]
    for (m, t), outs in g.moves.items():
        lines.extend(f"move {m} {t} {m2} {t2}" for m2, t2 in outs)
    lines.extend(f"goal {m} {t}" for m, t in sorted(g.goal))
    return "\n".join(lines) + "\n"


def check_game(ctx, game, path):
    direct = ctx.call("rewind_timeline.game_search", game, GAME_MAX_LEN, max_explored=GAME_BUDGET)
    ctx.tracer.count("rewind_timeline.game_search.explored", direct.explored)
    spec = ctx.call("rewind_timeline.build_braidlike_from_game", game)
    encoded = ctx.call("tour_guide.decide_reachability", spec, cell_cap=GAME_MAX_LEN, max_explored=8 * GAME_BUDGET)
    ctx.tracer.count("tour_guide.decide_reachability.explored", encoded.explored)
    ctx.tracer.count("tour_guide.decide_reachability.cap_hit", int(encoded.cap_hit))
    ctx.prop_add("games")
    winnable, reached = direct.kind == "winnable", encoded.kind == "reached"
    if winnable != reached:
        raise ItemFailed("disagreement", f"game_search {direct.kind}, encoding {encoded.kind}", incorrect=True)
    if path is not None:
        btm = path[: -len(".game")] + ".btm"
        ctx.cli(["game-to-btm", path, "-o", btm])
        out = ctx.cli(["--format", "json", "--max-cells", str(GAME_MAX_LEN), "btm-reach", btm])
        if out is None or out.get("verdict") != encoded.kind:
            raise ItemFailed("cli-disagreement", f"btm-reach {out}, library {encoded.kind}", incorrect=True)


def check_replay(ctx, ops):
    """Replay one record/seek sequence on a timeline and, in lockstep, as
    erase-right actions on a braidlike configuration. One span covers the
    whole sequence; the three hot functions are only timed and counted."""
    rt, tm = ctx.pkg.rewind_timeline, ctx.pkg.braidlike_tm
    record = ctx.tracer.hot("rewind_timeline.tl_record", rt.tl_record)
    seek = ctx.tracer.hot("rewind_timeline.tl_seek", rt.tl_seek)
    apply = ctx.tracer.hot("braidlike_tm.apply_action", tm.apply_action)
    left, right = tm.MOVE_LEFT, tm.MOVE_RIGHT
    tl = rt.Timeline((1,), 0)
    c = apply(tm.Configuration(0, 0, ()), tm.Write(1), 0)
    records = seeks = longest = 0
    for step, (is_record, arg) in enumerate(ops):
        if is_record:
            records += 1
            tl = record(tl, arg)
            c = apply(apply(c, right, 0), tm.Write(arg), 0)
        else:
            seeks += 1
            target = min(max(tl.cursor + arg, 0), len(tl.snapshots) - 1)
            tl = seek(tl, arg, REPLAY_SPEED)
            move = left if target < c.head else right
            for _ in range(abs(target - c.head)):
                c = apply(c, move, 0)
        longest = max(longest, len(tl.snapshots))
        if c.tape != tl.snapshots or c.head != tl.cursor:
            raise ItemFailed("disagreement", f"timeline and tape diverge at op {step}", incorrect=True)
    ctx.prop_add("records", records)
    ctx.prop_add("seeks", seeks)
    ctx.prop_max("longest_timeline", longest)


def rewind_games_records(props):
    return {"longest_timeline": props.get("longest_timeline", 0),
            "record_seek_ratio": props.get("records", 0) / max(props.get("seeks", 0), 1),
            "games": props.get("games", 0)}


# ---------------------------------------------------------------------------
# cm-levels: compiled levels vs the counter interpreter, the only workload
# that measures counter_machine and gadget_compiler.

CM_MAX_STEPS = 10 ** 4
CM_MAX_TICKS = 3 * CM_MAX_STEPS + 1  # a level spends at most 3 ticks per step
GENERATED_PER_ROUND = 6
CM_ROUNDS = 6
# The criterion-5 corpus; several programs start from `init` counters.
CORPUS = {
    "adder": "counters 3\ninit 3 4 0\n0: subb 1 3\n1: add 0\n2: subb 2 0\n3: halt\n",
    "copy-loop": "counters 3\ninit 5 0 0\n0: subb 0 3\n1: add 1\n2: subb 2 0\n3: halt\n",
    "zero-branch": "counters 1\n0: subb 0 2\n1: halt\n2: halt\n",
    "nonzero-branch": "counters 1\ninit 1\n0: subb 0 2\n1: halt\n2: halt\n",
    "non-halting-loop": "counters 1\n0: subb 0 0\n",
    "non-halting-grower": "counters 2\n0: add 0\n1: subb 1 0\n",
    "add-chain": "counters 1\n0: add 0\n1: add 0\n2: add 0\n3: add 0\n4: add 0\n5: halt\n",
    "fall-through": "counters 1\n0: add 0\n1: add 0\n",
    "drain": "counters 2\ninit 4 0\n0: subb 0 2\n1: subb 1 0\n2: halt\n",
    "ping-pong": ("counters 3\ninit 2 0 0\n"
                  "0: subb 0 3\n1: add 1\n2: subb 2 0\n"
                  "3: subb 1 6\n4: add 0\n5: subb 2 3\n6: halt\n"),
    "halt-only": "counters 1\n0: halt\n",
    "dead-tail": "counters 1\n0: add 0\n1: halt\n2: add 0\n3: halt\n",
}


def random_counter_program(rng):
    """A halting program of 2-4 loop blocks over counters a and b, with a
    zero scratch counter z for unconditional jumps, started from large
    `init` values.

    Returns the source and the exact number of steps it runs, counted while
    it is built. Programs are drawn until that count lies in a fixed band,
    so that every program costs about the same.
    """
    while True:
        a, b, z = rng.sample(range(3), 3)
        value = {a: rng.randint(100, 400), b: rng.randint(100, 400), z: 0}
        init = [value[0], value[1], value[2]]
        lines = []
        steps = 1  # the final halt

        def emit(op):
            lines.append(f"{len(lines)}: {op}")

        for _ in range(rng.randint(2, 4)):
            src, dst = rng.choice([(a, b), (b, a)])
            kind = rng.choice(["transfer", "drain", "adds"])
            start = len(lines)
            if kind == "transfer":  # move src into dst: 3 steps a unit, 1 to leave
                emit(f"subb {src} {start + 3}")
                emit(f"add {dst}")
                emit(f"subb {z} {start}")
                steps += 3 * value[src] + 1
                value[dst] += value[src]
                value[src] = 0
            elif kind == "drain":  # empty src: 2 steps a unit, 1 to leave
                emit(f"subb {src} {start + 2}")
                emit(f"subb {z} {start}")
                steps += 2 * value[src] + 1
                value[src] = 0
            else:
                n = rng.randint(1, 4)
                for _ in range(n):
                    emit(f"add {dst}")
                steps += n
                value[dst] += n
        emit("halt")
        if 1500 <= steps <= 2500:
            source = f"counters 3\ninit {' '.join(map(str, init))}\n" + "\n".join(lines) + "\n"
            return source, steps


def make_cm_levels(pkg, seed, ctx):
    """Rounds of the corpus with a generated program after every
    len(CORPUS) // GENERATED_PER_ROUND corpus programs."""
    rng = random.Random(seed)
    every = len(CORPUS) // GENERATED_PER_ROUND
    rounds = []
    for r in range(CM_ROUNDS):
        # the CLI path takes one generated program per round: all of them
        # start from `init` counters, which the level JSON cannot carry
        cli = rng.randrange(GENERATED_PER_ROUND)
        items = []
        for j, (name, src) in enumerate(CORPUS.items()):
            items.append((f"{name}.{r}", check_cm, (src, None, None)))
            if (j + 1) % every == 0:
                k = j // every
                src, steps = random_counter_program(rng)
                path = ctx.write(f"gen{r}.{k}.cm", src) if k == cli else None
                items.append((f"gen{r}.{k}", check_cm, (src, steps, path)))
        rounds.append(items)
    return rounds


def check_cm(ctx, src, expected_steps, path):
    gc = ctx.pkg.gadget_compiler
    program = ctx.call("counter_machine.parse_counter_program", src)
    level = ctx.call("gadget_compiler.compile", program)
    run = ctx.call("counter_machine.cm_run", program, ctx.pkg.counter_machine.initial_config(program), CM_MAX_STEPS)
    lv = ctx.call("gadget_compiler.level_run", level, CM_MAX_TICKS,
                  init=gc.initial_level_config(level, program.init_counters))
    rep = ctx.call("gadget_compiler.bisimulate", program, CM_MAX_STEPS)
    text = ctx.call("gadget_compiler.level_to_json", level)
    back = ctx.call("gadget_compiler.level_from_json", text)
    steps = run.config.steps
    ctx.prop_add("programs")
    ctx.prop_add("steps", steps)
    ctx.prop_max("max_steps", steps)
    if expected_steps is not None and (run.kind, steps) != ("halted", expected_steps):
        raise ItemFailed("disagreement", f"cm_run {run.kind} after {steps} steps, built to halt after "
                         f"{expected_steps}", incorrect=True)
    _check_halting(run.kind, steps, lv.kind, lv.ticks, "level_run")
    if not rep.passed or rep.cm_halted != (run.kind == "halted"):
        raise ItemFailed("disagreement", f"bisimulate passed={rep.passed} halted={rep.cm_halted}, cm_run {run.kind}",
                         incorrect=True)
    if back != level:
        raise ItemFailed("disagreement", "level JSON does not round-trip", incorrect=True)
    if path is not None:
        # the CLI pipeline must reproduce the library's verdicts and counts
        steps_flag = ["--max-steps", str(CM_MAX_STEPS)]
        out = ctx.cli(["--format", "json", *steps_flag, "bisim", path])
        got = out and out.get("verdict")
        if got != ("pass" if rep.passed else "fail"):
            raise ItemFailed("cli-disagreement", f"bisim says {got}, library passed={rep.passed}", incorrect=True)
        out = ctx.cli(["--format", "json", *steps_flag, "cm-run", path])
        if out is None or (out["verdict"], out["steps"]) != (run.kind, steps):
            raise ItemFailed("cli-disagreement", f"cm-run {out and (out['verdict'], out['steps'])}, "
                             f"library {(run.kind, steps)}", incorrect=True)
        lvl = path[: -len(".cm")] + ".json"
        ctx.cli(["cm-compile", path, "-o", lvl])
        out = ctx.cli(["--format", "json", "--max-steps", str(CM_MAX_TICKS), "level-sim", lvl])
        got = out and (out["verdict"], out["ticks"])
        if got != (lv.kind, lv.ticks):
            # the level file drops `init`: level-sim must then match the
            # level run from zero counters, and any other answer is wrong
            zero = ctx.call("gadget_compiler.level_run", level, CM_MAX_TICKS)
            if any(program.init_counters) and got == (zero.kind, zero.ticks):
                raise ItemUnverified("lost-init", f"cm-compile | level-sim {got} runs from zero counters, "
                                     f"level_run from init {(lv.kind, lv.ticks)}")
            raise ItemFailed("cli-disagreement", f"cm-compile | level-sim {got}, "
                             f"level_run from init {(lv.kind, lv.ticks)}", incorrect=True)


def _check_halting(cm_kind, steps, level_kind, ticks, what):
    """Halting within the step budget must match solving within the tick
    budget: a level spends 1 to 3 ticks per step, plus one for the goal."""
    if cm_kind == "halted":
        if level_kind != "solved" or ticks > 3 * steps + 1:
            raise ItemFailed("disagreement", f"cm_run halted in {steps} steps, {what} {level_kind} after {ticks} ticks",
                             incorrect=True)
    elif level_kind == "solved":
        if ticks <= CM_MAX_STEPS:
            raise ItemFailed("disagreement", f"cm_run {cm_kind}, {what} solved in {ticks} ticks", incorrect=True)
        raise ItemUnverified("unresolved", f"{what} solved in {ticks} ticks, beyond the step budget")


def cm_levels_records(props):
    n = max(props.get("programs", 0), 1)
    return {"mean_steps": props.get("steps", 0) / n, "max_steps": props.get("max_steps", 0)}


# ---------------------------------------------------------------------------

# name -> (input generator, property records of a run)
WORKLOADS = {
    "det-census": (make_det_census, det_census_records),
    "reach-deep": (make_reach_deep, reach_deep_records),
    "rewind-games": (make_rewind_games, rewind_games_records),
    "cm-levels": (make_cm_levels, cm_levels_records),
}

# Per-layer metrics: every public function the workloads call, and the
# counts taken from the verdict records.
LAYER_FUNCTIONS = (
    "tour_guide.decide_det_braidlike",
    "oracle_sim.det_behavior_oracle",
    "tour_guide.decide_reachability",
    "oracle_sim.reach_bfs",
    "rewind_timeline.game_search",
    "rewind_timeline.build_braidlike_from_game",
    "rewind_timeline.tl_record",
    "rewind_timeline.tl_seek",
    "braidlike_tm.apply_action",
    "counter_machine.parse_counter_program",
    "counter_machine.cm_run",
    "gadget_compiler.compile",
    "gadget_compiler.bisimulate",
    "gadget_compiler.level_run",
    "gadget_compiler.level_to_json",
    "gadget_compiler.level_from_json",
    "cli.main",
)
LAYER_COUNTERS = (
    "oracle_sim.det_behavior_oracle.explored",
    "oracle_sim.det_behavior_oracle.unresolved",
    "tour_guide.decide_reachability.explored",
    "tour_guide.decide_reachability.cap_hit",
    "oracle_sim.reach_bfs.explored",
    "oracle_sim.reach_bfs.cap_hit",
    "rewind_timeline.game_search.explored",
    "cli.main.nonzero_exit",
)

# Which end-to-end metric each layer metric should move, and on which workload.
LAYER_TABLE = [
    ["oracle_sim.det_behavior_oracle.{s,unresolved}",
     "items_per_s, item_tail_ms and verified_frac on det-census; nothing elsewhere"],
    ["tour_guide.decide_det_braidlike.s", "det-census, under 1% of its time, so the prediction is no change"],
    ["tour_guide.decide_reachability.s, oracle_sim.reach_bfs.{s,explored}",
     "items_per_s and peak_rss_mb on reach-deep; items_per_s on rewind-games"],
    ["rewind_timeline.{game_search,tl_record,tl_seek}.s, braidlike_tm.apply_action.s",
     "items_per_s on rewind-games"],
    ["counter_machine.cm_run.s, gadget_compiler.{compile,bisimulate,level_run}.s", "items_per_s on cm-levels"],
    ["cli.main.{s,nonzero_exit}", "verified_frac on every workload"],
]
