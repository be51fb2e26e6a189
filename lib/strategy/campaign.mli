(** One campaign recipe (paper §2.2): how a search campaign is assembled
    from a kernel and a spec. [craft search], the daemon's scheduler and
    [craft worker] all build their campaigns here, so a served campaign is
    the inline one for every spec field. *)

type error = Bad_formats of string | Bad_strategy of string

val error_message : error -> string

val parse : formats:string -> strategy:string -> (Formats.t list * Strategy.token, error) result
(** The format menu ([""] is the single-only default) and the strategy
    token ([""] is bfs). *)

val recovered : formats:string -> strategy:string -> Formats.t list * Strategy.token
(** {!parse} with each unparseable field at its default: a job recovered
    from the daemon's WAL was validated at submission, and must not wedge a
    runner if its saved spec no longer parses. *)

val evaluator :
  ?eval_steps:int -> ?faults:Faults.t -> ?backend:Compile.backend -> ?cache:Compile.cache ->
  retries:int -> Kernel.t -> Harness.t * Bfs.Target.t
(** {!Kernel.target} under {!Harness.wrap_target}. With a fault injector
    armed, retries extend to [Fail_verify]: injected silent corruption
    forges verification failures. *)

type shadow = {
  threshold : float;  (** {!Shadow_report.make}'s prediction threshold *)
  prune_above : float;  (** {!Bfs.shadow}'s pruning bound; [<= 0] disables it *)
}

val default_shadow : shadow
(** {!Shadow_report.default_threshold}, and pruning above 0.1. *)

val trace : ?threshold:float -> Kernel.t -> Shadow_tracer.t * Shadow_report.t
(** One traced native run, every candidate single but the kernel's hints. *)

type outcome = {
  result : Bfs.result;
  harness : Harness.t;
  target : Bfs.Target.t;  (** the evaluated target, journal included *)
  journal : Journal.t option;  (** closed; its counters stay readable *)
}

val run :
  ?eval_steps:int -> ?faults:Faults.t -> ?backend:Compile.backend -> ?cache:Compile.cache ->
  ?retries:int -> ?shadow:shadow -> ?journal:string -> ?checkpoint:string -> ?resume:bool ->
  ?eval:(Harness.t -> Config.t -> Verdict.verdict) -> ?pool:Pool.t -> ?stop:(unit -> bool) ->
  workers:int -> formats:Formats.t list -> Strategy.token -> Kernel.t -> outcome
(** Build the {!evaluator} ([retries] default 0); open the [journal] and
    [checkpoint] files, restoring from both with [resume]; trace the
    [shadow] guidance, journaling every pruned candidate; then
    {!Strategy.run} with [workers], the kernel's hints as base, [pool],
    [formats] and [stop]. Every checkpoint save fsyncs the journal first,
    so a snapshot never counts records the disk does not hold. The journal
    is closed even when the run raises.

    [eval] obtains one verdict from the harness. By default the journal is
    the memo: a journaled configuration is replayed, not re-evaluated. A
    caller with its own memo (the daemon's result store) passes [eval],
    and the journal then records every verdict it returns. *)
