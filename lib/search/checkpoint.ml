let header = "# craft-checkpoint v1"
let trailer = "end"

(* ---------------------------------------------------------------- node ids *)

let children = function
  | Static.Module (_, cs) | Static.Func (_, _, cs) | Static.Block (_, cs) -> cs
  | Static.Insn _ -> []

let node_id = function
  | Static.Module (name, _) -> "M:" ^ Verdict.escape name
  | Static.Func (fid, _, _) -> Printf.sprintf "F:%d" fid
  | Static.Block (label, _) -> Printf.sprintf "B:%d" label
  | Static.Insn info -> Printf.sprintf "I:%d" info.Static.addr

let resolve program id =
  let want_int prefix k ~proj =
    match int_of_string_opt k with
    | None -> Error (Printf.sprintf "checkpoint: bad %s id %S" prefix id)
    | Some n -> (
        let rec find = function
          | [] -> None
          | node :: rest -> (
              match proj node n with
              | Some _ as hit -> hit
              | None -> (
                  match find (children node) with
                  | Some _ as hit -> hit
                  | None -> find rest))
        in
        match find (Static.tree program) with
        | Some node -> Ok node
        | None -> Error (Printf.sprintf "checkpoint: unknown structure %S" id))
  in
  match String.index_opt id ':' with
  | Some 1 -> (
      let k = String.sub id 2 (String.length id - 2) in
      match id.[0] with
      | 'M' -> (
          match Verdict.unescape k with
          | None -> Error (Printf.sprintf "checkpoint: bad module id %S" id)
          | Some name -> (
              match
                List.find_opt
                  (function Static.Module (m, _) -> m = name | _ -> false)
                  (Static.tree program)
              with
              | Some node -> Ok node
              | None -> Error (Printf.sprintf "checkpoint: unknown module %S" name)))
      | 'F' ->
          want_int "function" k ~proj:(fun node n ->
              match node with
              | Static.Func (fid, _, _) when fid = n -> Some node
              | _ -> None)
      | 'B' ->
          want_int "block" k ~proj:(fun node n ->
              match node with
              | Static.Block (label, _) when label = n -> Some node
              | _ -> None)
      | 'I' ->
          want_int "instruction" k ~proj:(fun node n ->
              match node with
              | Static.Insn info when info.Static.addr = n -> Some node
              | _ -> None)
      | _ -> Error (Printf.sprintf "checkpoint: bad node id %S" id))
  | _ -> Error (Printf.sprintf "checkpoint: bad node id %S" id)

(* A passing entry may carry a precision flag after '@' ("I:12@e5m10");
   a bare id means Single — exactly what pre-lattice checkpoints wrote, so
   they resume unchanged. *)
let flagged_id (node, flag) =
  match flag with
  | Config.Single -> node_id node
  | flag -> node_id node ^ "@" ^ Config.flag_token flag

let resolve_flagged program id =
  match String.index_opt id '@' with
  | None -> Result.map (fun n -> (n, Config.Single)) (resolve program id)
  | Some k -> (
      let base = String.sub id 0 k in
      let tok = String.sub id (k + 1) (String.length id - k - 1) in
      match Config.flag_of_token tok with
      | Some flag -> Result.map (fun n -> (n, flag)) (resolve program base)
      | None -> Error (Printf.sprintf "checkpoint: bad flag token in id %S" id))

let resolve_list resolve program ids =
  List.fold_left
    (fun acc id -> Result.bind acc (fun xs -> Result.map (fun x -> x :: xs) (resolve program id)))
    (Ok []) ids
  |> Result.map List.rev

(* A cheap structural fingerprint so a checkpoint is never resumed against a
   different program: FNV-1a over every node id of the structure tree. *)
let program_key program =
  let h = ref 0xcbf29ce484222325L in
  let mix s =
    String.iter
      (fun c ->
        h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
      s
  in
  let rec walk node =
    mix (node_id node);
    List.iter walk (children node)
  in
  List.iter walk (Static.tree program);
  Printf.sprintf "%016Lx" !h

(* ---------------------------------------------------------------- snapshot *)

type entry = { seq : int; weight : int; nodes : string list }

type snapshot = {
  key : string;
  tested : int;
  next_seq : int;
  queue : entry list;
  passing : string list;
  counters : (string * int) list;
  log : string list;
  strategy : string;
}

(* write-temp, fsync, rename: the visible file is always either the
   previous complete snapshot or this complete one, never a prefix *)
let save ~path snap =
  Textlog.write_atomic path (fun oc ->
      Printf.fprintf oc "%s %s\n" header snap.key;
      Printf.fprintf oc "tested %d\n" snap.tested;
      Printf.fprintf oc "seq %d\n" snap.next_seq;
      (* The strategy record is written only for non-default strategies: bfs
         checkpoints stay byte-identical to every pre-strategy snapshot. *)
      if snap.strategy <> "" && snap.strategy <> "bfs" then
        Printf.fprintf oc "strategy %s\n" (Verdict.escape snap.strategy);
      List.iter
        (fun (k, v) -> Printf.fprintf oc "counter %s %d\n" (Verdict.escape k) v)
        snap.counters;
      Printf.fprintf oc "passing%s\n"
        (String.concat "" (List.map (fun id -> " " ^ id) snap.passing));
      List.iter
        (fun e ->
          Printf.fprintf oc "item %d %d%s\n" e.seq e.weight
            (String.concat "" (List.map (fun id -> " " ^ id) e.nodes)))
        snap.queue;
      List.iter (fun line -> Printf.fprintf oc "log %s\n" (Verdict.escape line)) snap.log;
      Printf.fprintf oc "%s\n" trailer)

let load ~path =
  if not (Sys.file_exists path) then Error "no checkpoint file"
  else begin
    let fields line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
    match Textlog.lines path with
    | first :: rest
      when String.length first > String.length header
           && String.starts_with ~prefix:header first -> (
        let n = String.length header in
        let key = String.trim (String.sub first n (String.length first - n)) in
        let complete =
          match List.rev rest with
          | last :: _ -> String.trim last = trailer
          | [] -> false
        in
        if not complete then Error "truncated checkpoint (no end marker)"
        else begin
          let snap =
            ref
              {
                key;
                tested = 0;
                next_seq = 0;
                queue = [];
                passing = [];
                counters = [];
                log = [];
                strategy = "bfs";
              }
          in
          let bad = ref None in
          let fail msg = if !bad = None then bad := Some msg in
          List.iter
            (fun line ->
              if !bad = None && String.trim line <> trailer && String.trim line <> "" then
                match fields line with
                | [ "tested"; n ] -> (
                    match int_of_string_opt n with
                    | Some n -> snap := { !snap with tested = n }
                    | None -> fail "bad tested count")
                | [ "seq"; n ] -> (
                    match int_of_string_opt n with
                    | Some n -> snap := { !snap with next_seq = n }
                    | None -> fail "bad seq count")
                | [ "strategy"; tok ] -> (
                    match Verdict.unescape tok with
                    | Some s -> snap := { !snap with strategy = s }
                    | None -> fail "bad strategy record")
                | [ "counter"; k; v ] -> (
                    match (Verdict.unescape k, int_of_string_opt v) with
                    | Some k, Some v ->
                        snap := { !snap with counters = !snap.counters @ [ (k, v) ] }
                    | _ -> fail "bad counter record")
                | "passing" :: ids -> snap := { !snap with passing = !snap.passing @ ids }
                | "item" :: seq :: weight :: ids -> (
                    match (int_of_string_opt seq, int_of_string_opt weight, ids) with
                    | Some seq, Some weight, _ :: _ ->
                        snap :=
                          { !snap with
                            queue = !snap.queue @ [ { seq; weight; nodes = ids } ] }
                    | _ -> fail "bad item record")
                | [ "log" ] -> snap := { !snap with log = !snap.log @ [ "" ] }
                | [ "log"; s ] -> (
                    match Verdict.unescape s with
                    | Some s -> snap := { !snap with log = !snap.log @ [ s ] }
                    | None -> fail "bad log record")
                | _ -> fail (Printf.sprintf "unrecognized checkpoint line %S" line))
            rest;
          match !bad with Some msg -> Error msg | None -> Ok !snap
        end)
    | _ -> Error "not a checkpoint file (bad header)"
  end
