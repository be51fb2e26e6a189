(** The automatic breadth-first configuration search (paper §2.2).

    The search walks the program structure tree breadth-first, testing
    whether whole modules can be replaced by single precision, descending
    into functions, basic blocks and finally individual instructions when a
    coarser replacement fails the user-provided verification routine.

    Both of the paper's optimizations are implemented and can be toggled
    for ablation:

    - {e binary splitting}: when an aggregate with more than four children
      fails, the children are first retried as two half-partitions instead
      of individually;
    - {e profiling prioritization}: a native profiling run weights every
      work item by the dynamic execution count of the instructions it
      covers, and the work queue is processed heaviest-first.

    The descent is one wave machine ({!S}) on the campaign driver
    ({!drive}), the same driver every other search strategy runs on.
    Configuration evaluations are independent full program runs. With
    [workers > 1] they are dispatched in deterministic waves to a
    supervised {!Pool} of long-lived worker domains — either one the
    caller supplies (carrying a wall-clock deadline) or a transient one
    staffed for this campaign. Every evaluation is classified through
    {!Verdict.classify}: a trap, step blowout, out-of-memory or stack
    overflow is that one item's TRAP / TIMEOUT / CRASH verdict in the log,
    never the campaign's death.

    With [checkpoint] set, the live search state (work queue, passing
    set, test counter, caller counters, narration log) is atomically
    snapshotted at wave boundaries; a later run with [resume] restarts
    mid-level from the snapshot instead of replaying the whole campaign
    through the {!Journal}. *)

exception Aborted
(** The one exception evaluation containment re-raises: raising it from an
    evaluator simulates the campaign being killed (tests, operator
    interrupt). Everything else is classified per-item. *)

module Target : sig
  type t = {
    program : Ir.program;  (** the original, all-double program *)
    eval : Config.t -> bool;
        (** patch + run + verify one configuration. Must be thread-safe
            (evaluations run on domains) and must treat VM traps as
            failure. Use {!make} unless custom behaviour is needed. *)
    raw_eval : Config.t -> bool;
        (** same evaluation, but failures {e raise} ({!Vm.Trap},
            {!Vm.Limit}, or anything a broken evaluator throws) instead of
            folding into [false]. This is what {!Harness.make} classifies
            into verdicts; [eval] is the legacy contained view of it. *)
    profile : unit -> int array;
        (** address-indexed dynamic execution counts from one native run *)
    code_cache : Compile.cache option;
        (** the compiled-block cache shared by every evaluation of this
            target, when it was built with [backend:Compiled] (the
            default); [None] for pure-interpreter targets. Read its
            hit/miss stats through {!Compile.stats} — {!Harness.wrap_target}
            surfaces them in the harness report. *)
  }

  val make :
    ?eval_steps:int ->
    ?faults:Faults.t ->
    ?backend:Compile.backend ->
    ?cache:Compile.cache ->
    Ir.program ->
    setup:(Vm.t -> unit) ->
    output:(Vm.t -> float array) ->
    verify:(float array -> bool) ->
    t
  (** Standard target: [eval cfg] patches the program with [cfg], runs it
      checked with [setup] applied, reads [output] (coerced) and applies
      [verify]; any VM trap or step-limit blowout counts as verification
      failure. The patch is {!Patcher.patch}[ ~dataflow:true] — the
      paper's §2.5 optimization, where operand checks whose outcome the
      static {!Dataflow} analysis knows collapse to an unconditional
      conversion or vanish. Verdicts (trap addresses and reasons included)
      are those of the unoptimized patch; only the executed instruction
      stream is shorter. [eval_steps] caps the VM step budget of each
      evaluation (default 2e9), counted on that collapsed program — a
      configuration that loops or merely exceeds it is a step-timeout, not
      a stuck campaign. [faults] arms the deterministic fault injector
      around every evaluation (never around [profile]); its faults land on
      the collapsed program's instruction stream.

      [backend] selects the execution engine for plain evaluations
      (default {!Compile.Compiled}, sharing one {!Compile.cache} across
      the whole campaign). [cache] supplies that cache from outside —
      the campaign server hands every concurrent job on the same program
      one cache, so compiled blocks are shared {e across} campaigns, not
      just within one. Evaluations with [faults] armed, and runs where
      [setup] installs a VM hook, always go through the interpreter —
      {!Compile.run}'s own fallback rule — so the backend choice never
      changes observable results. [profile] always interprets (it runs the
      unpatched program once; compiling it buys nothing). *)
end

type granularity = Module_level | Func_level | Block_level | Insn_level

type checkpoint_opts = {
  path : string;
      (** snapshot file ([path ^ ".tmp"] is the scratch name), rewritten
          after every wave *)
  resume : bool;  (** restore from [path] before searching, if valid *)
  save_counters : unit -> (string * int) list;
      (** caller state persisted with each snapshot (e.g.
          {!Harness.counters_list}) *)
  restore_counters : (string * int) list -> unit;
      (** inverse hook on resume (e.g. {!Harness.restore_counters}) *)
}

val checkpoint :
  ?resume:bool ->
  ?save_counters:(unit -> (string * int) list) ->
  ?restore_counters:((string * int) list -> unit) ->
  string ->
  checkpoint_opts
(** [checkpoint path] with defaults: no resume, no caller counters. *)

type shadow_opts = {
  report : Shadow_report.t;
      (** a finished shadow-value analysis. The search evaluates its
          predicted configuration first (on pass, those structures enter
          the passing set and only the unpredicted remainder of the tree is
          searched) and orders the frontier by predicted tolerance, most
          tolerant first, instead of raw execution counts *)
  prune_above : float option;
      (** skip — without evaluating — items whose predicted divergence
          exceeds this hard bound. The skip is reported through
          [on_pruned] and the search log, and the item still descends, so
          finer candidates below it are never lost. Items containing
          control-flow flips are never pruned (their prediction is
          unreliable). [None] disables pruning. *)
  on_pruned : Config.t -> float -> unit;
      (** called for every pruned candidate with its configuration and
          predicted divergence — wire to {!Journal.record} with
          [Verdict.Pruned] so pruned candidates stay visible *)
}

val shadow :
  ?prune_above:float -> ?on_pruned:(Config.t -> float -> unit) -> Shadow_report.t -> shadow_opts
(** Defaults: no pruning, no pruning callback. *)

type options = {
  stop_at : granularity;  (** coarsest terminal level of the descent *)
  binary_split : bool;
  prioritize : bool;
  workers : int;  (** parallel evaluation domains (1 = sequential) *)
  second_phase : bool;
      (** greedy composition pass when the final union fails (paper §3.1's
          suggested extension) *)
  base : Config.t;
      (** pre-seeded flags (e.g. [Ignore] hints on RNG routines); ignored
          instructions are excluded from the candidate universe *)
  pool : Pool.t option;
      (** evaluate waves on this supervised worker pool (caller keeps
          ownership — the search never shuts it down). [None] with
          [workers > 1] staffs a transient deadline-less pool for the
          campaign. *)
  checkpoint : checkpoint_opts option;
  shadow : shadow_opts option;
      (** shadow-guided mode: seed the passing set with the analysis'
          predicted configuration, reorder the frontier by predicted
          tolerance, and optionally prune hopeless candidates *)
  formats : Formats.t list;
      (** the precision-format menu (lattice). The structural descent runs
          entirely at the {e entry} format — the widest reduced format on
          the menu; with the default [[Formats.single]] the search is
          exactly the pre-lattice BFS, evaluation for evaluation. Cheaper
          formats on the menu are then tried per passing structure
          (cheapest first, first pass wins — see the LATTICE log lines),
          so e.g. [[bf16; f16; single]] can leave a structure at [bf16]
          when the verifier still accepts it there. [Formats.double] on
          the menu is ignored: double means "not replaced". Duplicates
          are removed; order is irrelevant (cost-sorted internally). *)
  stop : unit -> bool;
      (** cooperative stop request, polled at wave boundaries only (a
          consistent checkpoint is always flushed first). When it returns
          [true] the search stops descending, composes the union of the
          structures accepted {e so far} and returns with
          [interrupted = true] — how SIGINT in [craft search] and job
          cancellation in the campaign server end a campaign without
          losing it. Default: never stop. *)
}

val default_options : options
(** Instruction-level descent, both optimizations on, 1
    worker, no second phase, empty base, no pool, no checkpoint, no shadow
    guidance, never-firing stop. *)

type result = {
  final : Config.t;  (** union of every individually-passing replacement *)
  final_pass : bool;
  candidates : int;
      (** size of the candidate universe: every candidate not [Ignore]d by
          [base], pre-flagged ones included, whichever strategy ran *)
  tested : int;  (** configurations evaluated, including the final one(s) *)
  static_replaced : int;  (** candidates effectively single in [final] *)
  static_pct : float;
  dynamic_pct : float;
      (** profile-weighted replaced fraction of {e all} candidate
          executions, including [Ignore]-flagged instructions *)
  passing_nodes : Static.node list;  (** structures that passed as a whole *)
  passing_flags : (Static.node * Config.flag) list;
      (** the same structures with the precision flag each one ended the
          lattice descent at; always [entry]-format flags when the menu
          has a single reduced format *)
  bits_saved : int;
      (** {!Config.bits_saved} of [final]: total mantissa+exponent bits
          shaved off across every statically replaced candidate — the
          poster's headline metric, strictly larger when narrow formats
          survive verification *)
  log : string list;  (** chronological search narration *)
  supervisor : Pool.stats option;
      (** pool supervision tallies, when a pool evaluated the waves *)
  snapshots : int;  (** checkpoints written during the campaign *)
  pruned : int;
      (** candidates skipped by shadow pruning (each one logged and
          reported through [on_pruned], never dropped silently) *)
  interrupted : bool;
      (** the campaign was stopped by [options.stop] with work still
          queued; [final] is the union of what had passed by then *)
}

val search : ?options:options -> Target.t -> result
(** [drive machine]. Raises only {!Aborted} (and only if an evaluator
    raises it). *)

(** {1 The campaign driver} *)

type composed = (Static.node * Config.flag) list * Config.t * bool
(** The structures in a final configuration (with the flag each ended
    at), the configuration, and whether it passes. *)

type ctx = {
  target : Target.t;  (** program, eval path, profile, code cache *)
  options : options;
      (** the full campaign options: base config, pool, checkpointing,
          shadow guidance, format menu, stop polling — machines read what
          they need *)
  counts : int array;
      (** address-indexed dynamic execution counts from one profiling run *)
  universe : Static.insn_info list;
      (** the candidate instructions still double under [options.base] —
          the paper's set [Pd] minus user hints *)
  menu : Formats.t list;
      (** reduced formats of [options.formats], cost-sorted ascending;
          [[Formats.single]] when the menu is empty *)
  entry : Formats.t;
      (** widest reduced format — the flag structural moves are tried at *)
  say : 'a. ('a, unit, string, unit) format4 -> 'a;
      (** append one line to the campaign narration *)
  eval : Config.t -> Verdict.verdict;
      (** one contained evaluation outside any wave (seeds, lattice steps,
          top-ups); counted in [tested], on the pool when there is one *)
  prune : Config.t -> float -> unit;
      (** report a candidate skipped without evaluation, with its predicted
          divergence: counted in [pruned] and passed to the shadow options'
          [on_pruned] *)
  save : unit -> unit;
      (** write a snapshot of the machine's current state now, when the
          campaign checkpoints *)
  compose : (Static.node * Config.flag) list -> composed;
      (** evaluate the union of accepted structures and, when it fails and
          [second_phase] is set, compose them greedily heaviest first *)
}
(** What a machine sees of its campaign: static facts plus the driver's
    services. *)

(** A search strategy as a wave state machine. The driver owns pool
    staffing, evaluation containment, stop polling, checkpoint cadence,
    resume validation and the result statistics; a machine only decides
    what to evaluate next and what its verdicts mean. *)
module type S = sig
  type state
  type resumed

  val name : string
  (** The checkpoint tag. [bfs] snapshots are written untagged. *)

  val restore : ctx -> Checkpoint.snapshot -> (resumed, string) Stdlib.result
  (** Resolve a snapshot the driver has validated (it loads, and its
      program key and strategy tag match); an [Error] is narrated and the
      campaign starts fresh. *)

  val init : ctx -> resumed option -> state
  (** The starting state, fresh or resumed. May evaluate through
      [ctx.eval]; that is outside any wave. *)

  val pending : ctx -> state -> bool
  (** Work is left: the driver proposes another wave, or, when a stop is
      requested, finishes the campaign as interrupted. *)

  val propose : ctx -> state -> Config.t list * state
  (** The next wave of configurations to evaluate. An empty wave is still
      a wave. *)

  val consume : ctx -> state -> Verdict.verdict list -> state
  (** Fold one wave's verdicts (in proposal order) into the state. *)

  val persist : ctx -> state -> Checkpoint.snapshot -> Checkpoint.snapshot
  (** Fill the machine's part of a snapshot ([next_seq], [queue],
      [passing]). *)

  val finish : ctx -> state -> interrupted:bool -> composed
  (** Compose the final configuration, sequencing the driver's [eval],
      [save] (the final snapshot, written exactly once) and [compose]. *)
end

val drive : (module S) -> ?options:options -> Target.t -> result
(** Run one machine to completion: waves on the caller's pool, a transient
    pool, or inline; a snapshot after every wave plus the final one; the
    stop request polled before each wave. Raises only {!Aborted}. *)

val machine : (module S)
(** The paper's structural descent: shadow seeding, reordering and
    pruning, binary splitting, profile ordering, then a per-structure
    lattice descent before the union. *)

val force_flag : base:Config.t -> Config.flag -> Config.t -> Static.node -> Config.t
(** [force_flag ~base flag cfg node] marks [node] with [flag] in [cfg] —
    at the aggregate level when possible, expanded to instruction level
    when the aggregate contains [Ignore]-flagged instructions (aggregate
    flags override children, and user ignore-hints must survive). *)

val force_single : base:Config.t -> Config.t -> Static.node -> Config.t
(** [force_flag ~base Config.Single] — the pre-lattice entry point, kept
    for callers that only ever speak binary32. *)
