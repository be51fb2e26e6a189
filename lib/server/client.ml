type t = {
  addr : Server.addr;
  timeout : float option;
  rng : Rng.t;  (* backoff jitter: keep reconnecting clients desynchronised *)
  lock : Mutex.t;
  mutable fd : Unix.file_descr option;
  mutable open_ : bool;
}

let sockaddr_of = Server.sockaddr_of
let retry_delay = 0.2 (* first reconnect pause, doubling and jittered *)
let retry_wall = 10.0 (* cap on the total reconnect backoff of one rpc *)

let dial ?timeout addr =
  let domain =
    match addr with Server.Unix_path _ -> Unix.PF_UNIX | Server.Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match Unix.connect fd (sockaddr_of addr) with
  | () ->
      Option.iter (fun s -> Unix.setsockopt_float fd Unix.SO_RCVTIMEO s) timeout;
      Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error e

let connect ?(retries = 5) ?timeout addr =
  (* a client writing to a daemon that just died must see EPIPE (and ride
     the restart via the retry loop), not die of a process-killing SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let rng = Rng.create (Hashtbl.hash (Unix.getpid (), Server.addr_to_string addr)) in
  let rec go attempt delay =
    match dial ?timeout addr with
    | Ok fd ->
        Ok
          {
            addr;
            timeout;
            rng;
            lock = Mutex.create ();
            fd = Some fd;
            open_ = true;
          }
    | Error e ->
        if attempt >= retries then
          Error
            (Printf.sprintf "cannot connect to %s: %s"
               (Server.addr_to_string addr) (Unix.error_message e))
        else begin
          Thread.delay (delay *. (0.5 +. Rng.uniform rng));
          go (attempt + 1) (delay *. 2.0)
        end
  in
  go 0 retry_delay

let drop_fd t =
  match t.fd with
  | None -> ()
  | Some fd ->
      t.fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let close t =
  if t.open_ then begin
    t.open_ <- false;
    drop_fd t
  end

(* A failed exchange is either the transport's fault — the daemon is gone
   or restarting, and trying again later may succeed — or the server's
   typed refusal, which retrying verbatim cannot fix. [watch]/[wait] key
   their rejoin loops on the distinction. *)
type failure =
  | Lost of string  (* transport: dial/write/read died, or garbled frame *)
  | Remote of string  (* the daemon answered: a typed Error_reply *)

let failure_message = function Lost why | Remote why -> why

(* Every frame a campaign client sends is a read-only query except Submit
   (re-sending it would enqueue the campaign twice) — even Cancel: the
   daemon either knows the job id or not, and cancelling twice equals
   cancelling once. Idempotent requests may be resubmitted after a
   transport failure, which is what lets a watching client ride through a
   daemon restart. *)
let idempotent = function Wire.Submit _ -> false | _ -> true

(* One request/reply exchange. Serialised: the protocol has no frame ids,
   so interleaved requests would pair with the wrong replies.

   Retry discipline: the dial and the write phase always retry — with
   jittered exponential backoff against a reconnect stampede
   (ECONNREFUSED while the daemon restarts, EPIPE on a stale fd), capped
   by [retry_wall] of total backoff so a dead daemon fails the call in
   bounded time. A failure {e after} the request was written retries only
   an {!idempotent} frame: the daemon may already have executed the
   request, and resubmitting a non-idempotent one (Submit) would double
   it. *)
let exchange t frame =
  Mutex.protect t.lock (fun () ->
      if not t.open_ then Error (Remote "connection is closed")
      else begin
        let deadline = Unix.gettimeofday () +. retry_wall in
        let backoff delay why fn =
          let pause = delay *. (0.5 +. Rng.uniform t.rng) in
          if Unix.gettimeofday () +. pause > deadline then
            Error
              (Lost
                 (Printf.sprintf "%s: %s (gave up after %.1fs of retries)" fn why
                    retry_wall))
          else begin
            Thread.delay pause;
            Ok (delay *. 2.0)
          end
        in
        let rec attempt delay =
          match t.fd with
          | None -> (
              match dial ?timeout:t.timeout t.addr with
              | Ok fd ->
                  t.fd <- Some fd;
                  attempt delay
              | Error e -> (
                  match backoff delay (Unix.error_message e) "connect" with
                  | Ok delay -> attempt delay
                  | Error _ as err -> err))
          | Some fd -> (
              match Wire.write_frame fd frame with
              | exception Unix.Unix_error (e, fn, _) -> (
                  (* the frame never fully left: safe to reconnect and
                     retry even a non-idempotent request *)
                  drop_fd t;
                  match backoff delay (Unix.error_message e) fn with
                  | Ok delay -> attempt delay
                  | Error _ as err -> err)
              | () -> (
                  let lost why fn =
                    drop_fd t;
                    if idempotent frame then
                      match backoff delay why fn with
                      | Ok delay -> attempt delay
                      | Error _ as err -> err
                    else Error (Lost (Printf.sprintf "%s: %s" fn why))
                  in
                  match Wire.read_frame fd with
                  | Ok reply -> Ok reply
                  | Error err -> lost (Wire.error_to_string err) "read"
                  | exception Unix.Unix_error (e, fn, _) ->
                      lost (Unix.error_message e ^ " (server gone?)") fn))
        in
        attempt 0.05
      end)

let rpc t frame =
  match exchange t frame with Ok r -> Ok r | Error f -> Error (failure_message f)

let unexpected what = Error (Printf.sprintf "unexpected reply to %s" what)

let submit t spec =
  match rpc t (Wire.Submit spec) with
  | Ok (Wire.Accepted id) -> Ok id
  | Ok (Wire.Error_reply why) | Error why -> Error why
  | Ok _ -> unexpected "submit"

let status ?job t =
  match rpc t (Wire.Status job) with
  | Ok (Wire.Status_reply jobs) -> Ok jobs
  | Ok (Wire.Error_reply why) | Error why -> Error why
  | Ok _ -> unexpected "status"

let events_x t ~job ~from =
  match exchange t (Wire.Events { job; from }) with
  | Ok (Wire.Events_reply { next; events; final }) -> Ok (next, events, final)
  | Ok (Wire.Error_reply why) -> Error (Remote why)
  | Error f -> Error f
  | Ok _ -> Error (Remote "unexpected reply to events")

let events t ~job ~from =
  match events_x t ~job ~from with Ok r -> Ok r | Error f -> Error (failure_message f)

(* Ride through a daemon restart: on [Lost], keep the cursor and the job
   id and retry until the daemon has been continuously unreachable for
   [rejoin] seconds. A recovered daemon knows the job (its WAL re-listed
   it) and resets a cursor past the end of the rebuilt event log, so the
   stream resumes instead of dying with the old process. *)
let watch ?(poll = 0.05) ?(from = 0) ?(rejoin = 30.0) t ~job emit =
  let rec go cursor lost_since =
    match events_x t ~job ~from:cursor with
    | Ok (next, lines, final) ->
        List.iter emit lines;
        if final then Ok next
        else begin
          if lines = [] then Thread.delay poll;
          go next None
        end
    | Error (Remote why) -> Error why
    | Error (Lost why) ->
        let t0 = Option.value lost_since ~default:(Unix.gettimeofday ()) in
        if Unix.gettimeofday () -. t0 >= rejoin then
          Error (Printf.sprintf "%s (daemon unreachable for %.0fs; giving up)" why rejoin)
        else begin
          Thread.delay poll;
          go cursor (Some t0)
        end
  in
  go from None

let status_x ?job t =
  match exchange t (Wire.Status job) with
  | Ok (Wire.Status_reply jobs) -> Ok jobs
  | Ok (Wire.Error_reply why) -> Error (Remote why)
  | Error f -> Error f
  | Ok _ -> Error (Remote "unexpected reply to status")

let result_x t job =
  match exchange t (Wire.Result job) with
  | Ok (Wire.Result_reply { status; config_text; summary }) ->
      Ok (status, config_text, summary)
  | Ok (Wire.Error_reply why) -> Error (Remote why)
  | Error f -> Error f
  | Ok _ -> Error (Remote "unexpected reply to result")

let result t job =
  match result_x t job with Ok r -> Ok r | Error f -> Error (failure_message f)

let terminal = function
  | Wire.Done | Wire.Cancelled | Wire.Failed _ | Wire.Quarantined _ -> true
  | Wire.Queued | Wire.Running -> false

(* Same rejoin discipline as {!watch}: both Status and Result are
   idempotent queries, so a daemon restart mid-wait costs reconnect time,
   never the result. *)
let wait ?(poll = 0.05) ?(rejoin = 30.0) t job =
  let rec go lost_since =
    let lost why =
      let t0 = Option.value lost_since ~default:(Unix.gettimeofday ()) in
      if Unix.gettimeofday () -. t0 >= rejoin then
        Error (Printf.sprintf "%s (daemon unreachable for %.0fs; giving up)" why rejoin)
      else begin
        Thread.delay poll;
        go (Some t0)
      end
    in
    match status_x ~job t with
    | Error (Remote why) -> Error why
    | Error (Lost why) -> lost why
    | Ok [ { Wire.state; _ } ] when terminal state -> (
        match result_x t job with
        | Ok r -> Ok r
        | Error (Remote why) -> Error why
        | Error (Lost why) -> lost why)
    | Ok _ ->
        Thread.delay poll;
        go None
  in
  go None

let cancel t job =
  match rpc t (Wire.Cancel job) with
  | Ok (Wire.Cancel_reply ok) -> Ok ok
  | Ok (Wire.Error_reply why) | Error why -> Error why
  | Ok _ -> unexpected "cancel"

let stats t =
  match rpc t Wire.Stats with
  | Ok (Wire.Stats_reply s) -> Ok s
  | Ok (Wire.Error_reply why) | Error why -> Error why
  | Ok _ -> unexpected "stats"
