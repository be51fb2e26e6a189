(** Atomic snapshots of the live BFS search state.

    The {!Journal} makes a killed campaign recoverable, but only by
    replaying it configuration-by-configuration from the start. A
    checkpoint snapshots the frontier itself — the work queue, the
    accepted (passing) structures, the test counter, the harness counters
    and the narration log — so a resumed campaign restarts {e mid-level}:
    it re-tests at most the wave that was in flight when the campaign died
    (and those re-tests are usually journal hits anyway).

    Writes are atomic ({!Textlog.write_atomic}): the snapshot is written
    to [<path>.tmp], fsynced, and [rename(2)]d over [path]. The visible
    file is always either the previous complete snapshot or the new
    complete one; an interrupted write never corrupts resume. A trailing [end] marker additionally
    rejects a truncated file copied by other means.

    Format (text, one record per line):

    {v
    # craft-checkpoint v1 <program-key>
    tested <n>
    seq <n>
    strategy <escaped-token>           (only when not "bfs")
    counter <escaped-name> <n>         (zero or more)
    passing <node-id> ...
    item <seq> <weight> <node-id> ...  (one per queued work item)
    log <escaped-line>                 (zero or more)
    end
    v}

    Node ids name structure-tree nodes ([M:<escaped-name>], [F:<fid>],
    [B:<label>], [I:<addr>]); the program key is an FNV-1a fingerprint of
    the whole structure tree, so a checkpoint can never be resumed against
    a different program. *)

type entry = { seq : int; weight : int; nodes : string list }
(** One queued work item: its priority sequence number, profile weight, and
    the node ids it covers. *)

type snapshot = {
  key : string;  (** {!program_key} of the program that wrote it *)
  tested : int;
  next_seq : int;
  queue : entry list;
  passing : string list;  (** node ids, chronological *)
  counters : (string * int) list;
      (** opaque caller state (e.g. harness counters), restored verbatim *)
  log : string list;  (** search narration, chronological *)
  strategy : string;
      (** the search strategy that wrote the snapshot. Written to disk only
          when not ["bfs"] — bfs snapshots stay byte-identical to every
          pre-strategy checkpoint, and a file without the record loads as
          ["bfs"]. Resuming refuses a snapshot written by another
          strategy. *)
}

val save : path:string -> snapshot -> unit
(** Atomic write-temp-fsync-rename, then a directory fsync. *)

val load : path:string -> (snapshot, string) result
(** Tolerant read: a missing file, a bad header, a truncated body or any
    malformed record is an [Error] (never an exception), letting the caller
    fall back to journal-only resume. *)

val node_id : Static.node -> string

val resolve : Ir.program -> string -> (Static.node, string) result
(** Find the structure-tree node a saved id names, or explain why not. *)

val flagged_id : Static.node * Config.flag -> string
(** A passing entry with its precision flag: bare {!node_id} when the flag
    is [Single] (byte-identical to pre-lattice checkpoints), otherwise
    [<node-id>@<flag-token>] (e.g. [I:12@e5m10]). *)

val resolve_flagged : Ir.program -> string -> (Static.node * Config.flag, string) result
(** Inverse of {!flagged_id}; an id without [@] resolves with flag
    [Single], so old checkpoints replay to the same resumed state. *)

val resolve_list :
  (Ir.program -> string -> ('a, string) result) -> Ir.program -> string list ->
  ('a list, string) result
(** Resolve every id in order with {!resolve} or {!resolve_flagged}; the
    first failure is the result. *)

val program_key : Ir.program -> string
(** 16-hex-digit structural fingerprint of the program's candidate tree. *)
