(** The durable-record layer under every on-disk artifact: the {!Journal},
    the result store log, the job-table WAL, {!Checkpoint}s and the
    daemon's result files.

    A log is a [# craft-…] header line, then one record per line, appended
    and flushed one at a time. Each caller keeps its own record syntax;
    this module decides how a line reaches the disk and how a damaged file
    reads back. Snapshots are replaced whole with {!write_atomic}. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents. *)

val lines : string -> string list
(** Every line of the file, raw, in order. *)

type 'a scan = {
  records : 'a list;  (** oldest first *)
  bad : int;  (** lines the parser rejected *)
  trailing_bad : int;
      (** rejected lines after the last good record: the half-record an
          interrupted writer legitimately leaves behind *)
}

val scan : (string -> 'a option) -> string -> 'a scan
(** Tolerant read: the parser sees each line trimmed, blank and [#] lines
    are skipped, and a rejected line is counted and dropped, never fatal.
    A missing file scans as empty. *)

type t

val create : ?truncate:bool -> fsync_every:int -> header:string -> string -> t
(** Open a log for appending, creating it if missing, or emptying it with
    [truncate]. An unterminated last line left by a crash is cut off first,
    so the next record starts a line of its own. An empty file gets
    [header], fsynced. [fsync_every] batches fsyncs: 0 never, 1 per record,
    [n] every [n] records. *)

val append : t -> string -> unit
(** Append one record line (without its newline), flush it, and fsync when
    the batch fills. Thread-safe. *)

val sync : t -> unit
(** Flush and fsync now, restarting the batch. *)

val close : t -> unit
(** Flush, fsync and close. *)

val write_atomic : string -> (out_channel -> unit) -> unit
(** [write_atomic path write] writes [<path>.tmp], fsyncs it, renames it
    over [path] and fsyncs the directory: [path] is always the old complete
    file or the new one. If anything raises, the temp file is closed and
    removed, [path] is untouched, and the exception propagates. *)
