let header = "# craft-journal v1"

type t = {
  path : string;
  program : Ir.program;
  memo : (string, Verdict.verdict) Hashtbl.t;
  log : Textlog.t;
  mutable seq : int;  (* tests-so-far column of the next record *)
  mutable replayed : int;
  mutable hits : int;
  mutable fresh : int;
  lock : Mutex.t;
}

(* One record per line: [<digest16> <verdict> <seq> | <summary>]. *)
let parse_line line =
  let left =
    match String.index_opt line '|' with
    | Some i -> String.trim (String.sub line 0 i)
    | None -> line
  in
  match String.split_on_char ' ' left |> List.filter (fun s -> s <> "") with
  | [ digest; verdict; seq ] when String.length digest = 16 -> (
      match (Verdict.verdict_of_string verdict, int_of_string_opt seq) with
      | Some v, Some _ -> Some (digest, v)
      | _ -> None)
  | _ -> None

let scan ~path = (Textlog.scan parse_line path).records

(* ----------------------------------------------------------- verification *)

type verify_report = {
  records : int;
  distinct : int;
  duplicates : (string * int) list;
  verdicts : (string * int) list;
  bad : int;
  trailing_bad : int;
  torn : bool;
}

let verify ~path =
  if not (Sys.file_exists path) then Error (path ^ ": no such journal")
  else begin
    let { Textlog.records; bad; trailing_bad } = Textlog.scan parse_line path in
    let by_digest = Hashtbl.create 256 in
    let by_verdict = Hashtbl.create 8 in
    let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
    List.iter
      (fun (digest, v) ->
        bump by_digest digest;
        bump by_verdict (Verdict.verdict_label v))
      records;
    let sorted tbl = Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [] |> List.sort compare in
    Ok
      {
        records = List.length records;
        distinct = Hashtbl.length by_digest;
        duplicates = List.filter (fun (_, n) -> n > 1) (sorted by_digest);
        verdicts = sorted by_verdict;
        bad;
        trailing_bad;
        (* a bad line with good records after it cannot be crash truncation:
           something tore (or scribbled on) the middle of the file *)
        torn = bad > trailing_bad;
      }
  end

let create ?(resume = false) ~path program =
  let records = if resume then scan ~path else [] in
  let memo = Hashtbl.create 256 in
  List.iter (fun (d, v) -> if not (Hashtbl.mem memo d) then Hashtbl.add memo d v) records;
  {
    path;
    program;
    memo;
    (* flush per record, no fsync: {!sync} is the per-wave durability point *)
    log = Textlog.create ~truncate:(not resume) ~fsync_every:0 ~header path;
    seq = Hashtbl.length memo;
    replayed = Hashtbl.length memo;
    hits = 0;
    fresh = 0;
    lock = Mutex.create ();
  }

let sync t = Textlog.sync t.log
let close t = Textlog.close t.log
let path t = t.path
let entries t = Mutex.protect t.lock (fun () -> Hashtbl.length t.memo)
let replayed t = t.replayed
let hits t = Mutex.protect t.lock (fun () -> t.hits)
let fresh t = Mutex.protect t.lock (fun () -> t.fresh)

let lookup_key t key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.memo key with
      | Some v ->
          t.hits <- t.hits + 1;
          Some v
      | None -> None)

let record_key t key ~summary verdict =
  Mutex.protect t.lock (fun () ->
      if not (Hashtbl.mem t.memo key) then begin
        Hashtbl.add t.memo key verdict;
        t.seq <- t.seq + 1;
        t.fresh <- t.fresh + 1;
        Textlog.append t.log
          (Printf.sprintf "%s %s %d | %s" key (Verdict.verdict_to_string verdict) t.seq summary)
      end)

let summary_of cfg =
  let s = Config.summarize cfg in
  if String.length s <= 160 then s else String.sub s 0 157 ^ "..."

let lookup t cfg = lookup_key t (Config.digest t.program cfg)

let record t cfg verdict =
  record_key t (Config.digest t.program cfg) ~summary:(summary_of cfg) verdict

let wrap t f cfg =
  let key = Config.digest t.program cfg in
  match lookup_key t key with
  | Some v -> v
  | None ->
      let v = f cfg in
      record_key t key ~summary:(summary_of cfg) v;
      v

let wrap_target t ~harness (target : Bfs.Target.t) =
  let eval cfg =
    match wrap t (Harness.eval harness) cfg with
    | Verdict.Pass -> true
    | _ -> false
  in
  { target with Bfs.Target.eval }
