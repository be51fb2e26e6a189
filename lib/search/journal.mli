(** Append-only evaluation journal: crash-safe checkpoint/resume for the
    autosearch.

    Every classified verdict is appended as one text record and flushed, so
    an interrupted NAS-scale campaign (SIGKILL, OOM, power) loses at most
    the record being written. Re-opening with [resume:true] replays the
    journal into an in-memory memo table; evaluations whose configuration
    digest is already journaled are served from the memo without running
    the program, and the search continues where it stopped instead of
    restarting.

    Record format (text, one record per line, consistent with the paper's
    Fig. 3 configuration tokens in the summary field):

    {v
    # craft-journal v1
    <digest16> <verdict-token> <tests-so-far> | <Fig.3-style config summary>
    v}

    e.g. [a91f...c2 trap:0x00001f:injected%20fault 17 | s MODULE: cg].
    Parsing is tolerant: a malformed or truncated line (typically the last
    one, half-written at the moment of the crash) is dropped, never fatal.

    Keys are {!Config.digest}s of {e effective} flags, so structurally
    different configurations with identical per-instruction decisions share
    one journal entry. *)

type t

val create : ?resume:bool -> path:string -> Ir.program -> t
(** Open [path] for appending through {!Textlog}, creating it if missing.
    With [resume = true] (default [false]) existing records are replayed
    into the memo first, and a half-record a crash left at the end is cut
    off before the first append; without it the file is truncated and the
    campaign starts clean. Each record is flushed but not fsynced. *)

val sync : t -> unit
(** Flush and [fsync(2)] the journal now: the per-wave durability point. *)

val close : t -> unit
(** Flush, fsync and close. *)

val path : t -> string

val entries : t -> int
(** Records in the memo (replayed + freshly written). *)

val replayed : t -> int
(** Records loaded when the journal was opened with [resume]. *)

val hits : t -> int
(** Lookups served from the memo (evaluations skipped). *)

val fresh : t -> int
(** Verdicts actually evaluated and appended this session. *)

val lookup : t -> Config.t -> Verdict.verdict option

val record : t -> Config.t -> Verdict.verdict -> unit
(** Memoize and append-flush one verdict. A digest already present is not
    re-appended. *)

val wrap : t -> (Config.t -> Verdict.verdict) -> Config.t -> Verdict.verdict
(** Memoized view of a classified evaluator: journal hit, or evaluate then
    {!record}. *)

val wrap_target : t -> harness:Harness.t -> Bfs.Target.t -> Bfs.Target.t
(** The full resilient evaluation stack as a drop-in target: [eval]
    consults the journal, falls back to {!Harness.eval} (containment +
    retries), records the verdict, and folds to the search's boolean
    view. *)

val scan : path:string -> (string * Verdict.verdict) list
(** Tolerantly parse a journal file into [(digest, verdict)] pairs, oldest
    first, without opening it for writing. The records carry their own
    configuration digests, so read-only inspection ([craft journal]) needs
    no program. *)

type verify_report = {
  records : int;  (** well-formed records *)
  distinct : int;  (** distinct configuration digests *)
  duplicates : (string * int) list;
      (** digests appearing more than once, with their occurrence counts —
          a healthy journal has none ({!record} refuses duplicates) *)
  verdicts : (string * int) list;  (** verdict label -> record count *)
  bad : int;  (** unparseable non-comment lines *)
  trailing_bad : int;
      (** the contiguous unparseable suffix: the half-record an interrupted
          writer legitimately leaves behind *)
  torn : bool;
      (** an unparseable line {e followed by} well-formed records — not
          crash truncation but mid-file corruption; [craft journal --verify]
          exits non-zero on it *)
}

val verify : path:string -> (verify_report, string) result
(** Integrity scan for [craft journal FILE --verify]. [Error] only when
    the file cannot be read at all; structural damage is reported in the
    record, not raised. *)
