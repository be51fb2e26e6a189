(** The scheduler's job-table write-ahead log.

    The durable {!Store} preserves {e verdicts} across a daemon death; this
    WAL preserves the {e job table}: every accepted submission and every
    terminal outcome is appended (flushed + fsynced — lifecycle transitions
    are rare next to evaluations) so a daemon restarted on the same
    [--state-dir] re-lists every job it ever accepted, re-queues the ones
    that never reached a terminal state, and serves the results of the ones
    that did.

    The WAL is a {!Textlog}: a text header, one record per line, and a
    tolerant loader that drops anything unparseable, such as the
    half-record a [kill -9] can leave at the end.

    {v
    # craft-wal v1
    submit <id> <bench> <cls> <0|1> <priority> <steps|-> <formats|-> <strategy|->
    outcome <id> <done|cancelled|failed:why|quarantined:why> <summary>
    v}

    The trailing [formats] and [strategy] tokens are later additions:
    7-token (pre-lattice) and 8-token (pre-strategy) submit records still
    load, resuming with the single-only menu and the default [bfs]
    strategy respectively. *)

type record =
  | Submitted of { id : string; spec : Wire.job_spec }
  | Outcome of { id : string; state : Wire.job_state; summary : string }

type t

val create : path:string -> t
(** Open [path] for appending, creating (with header) if missing. *)

val path : t -> string

val append : t -> record -> unit
(** Append one record, flushed and fsynced before returning. Thread-safe. *)

val close : t -> unit

val load : path:string -> record list
(** Tolerantly parse a WAL into records, oldest first, without opening it
    for writing. Unparseable lines are dropped, never fatal. *)

type entry = {
  spec : Wire.job_spec;
  outcome : (Wire.job_state * string) option;
      (** terminal [(state, summary)], or [None] for a job the dead daemon
          never finished — the restart re-queues it *)
}

val replay : record list -> (string * entry) list
(** Fold records into the job table, in submission order. Duplicate
    submissions of one id keep the first; outcomes for unknown ids or with
    non-terminal states are dropped; repeated outcomes keep the last. *)
