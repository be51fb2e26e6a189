let header = "# craft-store v1"

type stats = {
  hits : int;
  misses : int;
  entries : int;
  waits : int;
  replayed : int;
}

type cell =
  | Done of Verdict.verdict
  | Pending  (** someone is computing it; wait on [changed] *)

type t = {
  lock : Mutex.t;
  changed : Condition.t;  (* a Pending resolved (or was withdrawn) *)
  table : (string, cell) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable waits : int;
  replayed : int;
  (* durable log; [None] keeps the store memory-only (tests, ad-hoc) *)
  mutable log : Textlog.t option;
  mutable seq : int;
}

(* ------------------------------------------------------------ log format *)

(* One record per line: [<escaped-key> <verdict-token> <seq>]. Keys are
   compound ([program_key/opts_digest/Config.digest]), so unlike journal
   digests they are escaped. *)
let record_line key v seq =
  Printf.sprintf "%s %s %d" (Verdict.escape key) (Verdict.verdict_to_string v) seq

let parse_line line =
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [ key; verdict; seq ] -> (
      match
        (Verdict.unescape key, Verdict.verdict_of_string verdict, int_of_string_opt seq)
      with
      | Some k, Some v, Some _ -> Some (k, v)
      | _ -> None)
  | _ -> None

let scan ~path = (Textlog.scan parse_line path).records

(* ------------------------------------------------------------- lifecycle *)

let create ?path ?(fsync_every = 32) () =
  let table = Hashtbl.create 1024 in
  let log, replayed, seq =
    match path with
    | None -> (None, 0, 0)
    | Some p ->
        let records = scan ~path:p in
        List.iter (fun (k, v) -> Hashtbl.replace table k (Done v)) records;
        Textlog.mkdir_p (Filename.dirname p);
        ( Some (Textlog.create ~fsync_every ~header p),
          Hashtbl.length table,
          List.length records )
  in
  {
    lock = Mutex.create ();
    changed = Condition.create ();
    table;
    hits = 0;
    misses = 0;
    waits = 0;
    replayed;
    log;
    seq;
  }

let key ~program_key ~opts_digest ~config_digest =
  String.concat "/" [ program_key; opts_digest; config_digest ]

(* Lock held. The log flushes every record (a crash loses at most this
   one) and fsyncs per the batching policy (a power loss loses at most the
   unsynced batch). *)
let persist t key v =
  Option.iter
    (fun log ->
      t.seq <- t.seq + 1;
      Textlog.append log (record_line key v t.seq))
    t.log

let sync t = Mutex.protect t.lock (fun () -> Option.iter Textlog.sync t.log)

let close t =
  Mutex.protect t.lock (fun () ->
      let log = t.log in
      t.log <- None;
      Option.iter Textlog.close log)

let find_or_compute t ~key f =
  Mutex.lock t.lock;
  let rec claim waited =
    match Hashtbl.find_opt t.table key with
    | Some (Done v) ->
        t.hits <- t.hits + 1;
        if waited then t.waits <- t.waits + 1;
        Mutex.unlock t.lock;
        (v, true)
    | Some Pending ->
        (* computed concurrently by another campaign right now: block until
           it resolves rather than burn a duplicate evaluation *)
        Condition.wait t.changed t.lock;
        claim true
    | None ->
        t.misses <- t.misses + 1;
        Hashtbl.replace t.table key Pending;
        Mutex.unlock t.lock;
        let v =
          try f ()
          with e ->
            (* withdraw the claim so waiters recompute instead of hanging *)
            Mutex.lock t.lock;
            Hashtbl.remove t.table key;
            Condition.broadcast t.changed;
            Mutex.unlock t.lock;
            raise e
        in
        Mutex.lock t.lock;
        Hashtbl.replace t.table key (Done v);
        persist t key v;
        Condition.broadcast t.changed;
        Mutex.unlock t.lock;
        (v, false)
  in
  claim false

(* ------------------------------------------------------------ compaction *)

let compact ~path =
  if not (Sys.file_exists path) then Error (path ^ ": no such store log")
  else begin
    let records = scan ~path in
    let table = Hashtbl.create 1024 in
    let order = ref [] in
    List.iter
      (fun (k, v) ->
        if not (Hashtbl.mem table k) then order := k :: !order;
        (* last record wins, matching replay *)
        Hashtbl.replace table k v)
      records;
    let keys = List.rev !order in
    match
      Textlog.write_atomic path (fun oc ->
          output_string oc (header ^ "\n");
          List.iteri
            (fun i k -> output_string oc (record_line k (Hashtbl.find table k) (i + 1) ^ "\n"))
            keys)
    with
    | () -> Ok (List.length keys, List.length records - List.length keys)
    | exception Sys_error why -> Error why
  end

(* ----------------------------------------------------------------- stats *)

let stats t =
  Mutex.protect t.lock (fun () ->
      let entries =
        Hashtbl.fold (fun _ c acc -> match c with Done _ -> acc + 1 | Pending -> acc) t.table 0
      in
      { hits = t.hits; misses = t.misses; entries; waits = t.waits; replayed = t.replayed })

let hit_rate (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let report t =
  let s = stats t in
  Printf.sprintf
    "result store: %d hit(s) / %d miss(es) (%.1f%% hit rate, %d in-flight wait(s)), %d \
     entr%s%s"
    s.hits s.misses
    (100.0 *. hit_rate s)
    s.waits s.entries
    (if s.entries = 1 then "y" else "ies")
    (if s.replayed > 0 then Printf.sprintf " (%d replayed from disk)" s.replayed else "")
