(** Typed client for the campaign daemon.

    One {!t} is one connection running the strict request/reply protocol;
    it is thread-safe (a mutex serialises frames on the wire). Every call
    is total — transport failures, server [Error_reply]s and protocol
    surprises all come back as [Error _] strings, never exceptions, so CLI
    verbs and the bench can pattern-match their way to an exit code.

    Reconnects are retried with {e jittered} exponential backoff (so many
    clients whose daemon restarts do not stampede it in lockstep) and the
    total backoff per call is capped at 10s. Failures where the
    request provably never left — a refused dial, a failed write — are
    always retried. Once a request has been written, a transport failure
    retries only {e idempotent} frames (every query including Cancel;
    everything except Submit, which could be doubled): this is what lets
    {!watch} and {!wait} ride through a daemon restart, reconnecting with
    their event cursor and job id and resuming against the recovered job
    table instead of dying with the old process. *)

type t

val connect : ?retries:int -> ?timeout:float -> Server.addr -> (t, string) result
(** [connect addr] with up to [retries] (default 5) extra attempts spaced
    0.2s (doubling, jittered) apart — a just-started daemon may not be
    listening yet. Later calls spend at most 10s of total backoff
    reconnecting after [ECONNREFUSED]/[EPIPE]. [timeout] (default none)
    arms a per-reply receive deadline on the socket. Also ignores [SIGPIPE] process-wide,
    like {!Server.start}: a write to a daemon that just died must surface
    as [EPIPE] and feed the retry loop, not kill the client. *)

val close : t -> unit
(** Idempotent. *)

val submit : t -> Wire.job_spec -> (string, string) result
(** Returns the job id. *)

val status : ?job:string -> t -> (Wire.job_status list, string) result
val events : t -> job:string -> from:int -> (int * string list * bool, string) result

val watch :
  ?poll:float ->
  ?from:int ->
  ?rejoin:float ->
  t ->
  job:string ->
  (string -> unit) ->
  (int, string) result
(** Stream the job's event lines to the callback until the server reports
    the stream final (the job is terminal and fully drained), polling
    every [poll] seconds (default 0.05) when no new lines are pending.
    Returns the final cursor. A transport loss keeps the cursor and
    retries until the daemon has been continuously unreachable for
    [rejoin] seconds (default 30): a daemon restarted on its state dir
    re-lists the job from its WAL, and the watch resumes. *)

val result : t -> string -> (Wire.job_status * string * string, string) result
(** [(status, config_text, summary)] of a terminal job. *)

val wait :
  ?poll:float ->
  ?rejoin:float ->
  t ->
  string ->
  (Wire.job_status * string * string, string) result
(** Poll until the job is terminal, then fetch its result, with the same
    restart-riding [rejoin] budget as {!watch}. *)

val cancel : t -> string -> (bool, string) result
val stats : t -> (Wire.server_stats, string) result
