(** Static data-flow analysis of replaced-value reachability (the paper's
    §2.5, third future optimization: "static data flow analysis could
    improve overheads by detecting instructions that never encounter
    replaced double-precision numbers under a given configuration, and thus
    would not need to be replaced with a double-precision snippet").

    For a program and a configuration, the analysis computes, at each
    instruction, whether each float register {e may} hold a replaced value
    and whether it {e may} hold a plain double:

    - a [Double]-kept instruction needs an operand check only if the
      operand may be replaced; if it is definitely replaced the check
      collapses to an unconditional upcast;
    - a [Single] instruction needs a check only if the operand may be
      plain; if it is definitely plain the check collapses to an
      unconditional downcast.

    The analysis is a forward fix-point over each function's CFG, made
    interprocedural with per-function summaries (argument states join over
    call sites; return states flow back — register frames are private, so
    calls affect only the explicitly passed registers). Functions are
    analyzed from [main] outwards along call edges and re-analyzed whenever
    one of their inputs grows, until nothing changes: the loop has no round
    cap, it terminates because every update is a join on a finite lattice.
    Search evaluations patch through this analysis, so its soundness decides
    verdicts: an operand state it wrongly reports definite would remove a
    needed check and surface as a spurious trap. The float heap is
    modeled as a single summary cell (any store taints it with the stored
    state), which is sound and precise enough to remove most checks in
    practice. In-place operand conversion is modeled: after a patched
    single instruction its operands are definitely replaced; after a
    patched double instruction they are definitely plain. *)

type state =
  | Bot  (** unreachable / uninitialized *)
  | Plain  (** definitely an ordinary double *)
  | Repl  (** definitely a replaced encoding *)
  | Either

val join : state -> state -> state

type t

val analyze : Ir.program -> Config.t -> t
(** Fix-point analysis of the program as it will behave {e after} patching
    with the given configuration. Each candidate's effective flag is
    resolved once per analysis; it runs once per search evaluation. *)

val at_fixpoint : t -> bool
(** One more analysis pass over every reached function changes no summary,
    no heap cell, no reachability and no recorded operand state — the
    property {!analyze} guarantees (checked by the tests). *)

val operand_state : t -> addr:int -> reg:int -> state
(** State of float register [reg] immediately before the candidate
    instruction at [addr] executes. Registers never queried at [addr], and
    operands in code the analysis never reaches, report [Either]
    (conservative). Allocation-free. *)

val checks_removable : t -> Ir.program -> Config.t -> int * int
(** [(removable, total)] operand checks under the configuration: a check is
    removable when the operand state is definite ([Plain] for a single
    target's downcast-skip is {e not} removable — definite [Plain] means
    the conversion is unconditional, which still saves the test+branch).
    [removable] counts operands whose test+branch disappears entirely
    (definitely-converted or definitely-not), [total] counts all checked
    operands. *)
