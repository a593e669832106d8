"""braidbench: counter-machine level compilation, braidlike Turing machine
deciders with brute-force oracles, and rewind-timeline tooling."""

from .counter_machine import (
    Add,
    CMParseError,
    CounterConfig,
    CounterProgram,
    Halt,
    SubBranch,
    cm_run,
    cm_step,
    initial_config,
    parse_counter_program,
)
from .braidlike_tm import (
    BLANK,
    BTMParseError,
    Configuration,
    MachineSpec,
    MOVE_LEFT,
    MOVE_RIGHT,
    MoveLeft,
    MoveRight,
    ParseError,
    Write,
    apply_action,
    format_btm,
    parse_btm,
    start_configuration,
    successors,
)
from .oracle_sim import (
    Certificate,
    OracleVerdict,
    SearchBudgetExceeded,
    check_certificate,
    closed_ngram_proof,
    det_behavior_oracle,
    reach_bfs,
    read_only_oracle,
)
from .tour_guide import (
    ACCEPT,
    DESTROY_ME,
    LOOP_FOREVER,
    REJECT,
    compute_guide,
    decide_det_braidlike,
    decide_reachability,
    det_guide_bound,
    nondet_guide_bound,
)
from .gadget_compiler import (
    BisimReport,
    Level,
    LevelConfig,
    bisimulate,
    compile,
    initial_level_config,
    level_from_json,
    level_run,
    level_step,
    level_to_dot,
    level_to_json,
)
from .rewind_timeline import (
    GameSpec,
    Timeline,
    build_braidlike_from_game,
    game_search,
    parse_game,
    tl_record,
    tl_seek,
)
