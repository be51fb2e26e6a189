let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fsync oc = try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

(* Best-effort: not every filesystem lets a directory be opened for this. *)
let fsync_dir dir =
  try
    let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> Unix.fsync fd)
  with Unix.Unix_error _ -> ()

(* ---------------------------------------------------------------- reading *)

let fold_lines path f acc =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with line -> go (f acc line) | exception End_of_file -> acc
      in
      go acc)

let lines path = List.rev (fold_lines path (fun acc line -> line :: acc) [])

type 'a scan = { records : 'a list; bad : int; trailing_bad : int }

let scan parse path =
  if not (Sys.file_exists path) then { records = []; bad = 0; trailing_bad = 0 }
  else begin
    let records, bad, trailing_bad =
      fold_lines path
        (fun ((records, bad, trailing) as acc) line ->
          let line = String.trim line in
          if line = "" || line.[0] = '#' then acc
          else
            match parse line with
            | Some r -> (r :: records, bad, 0)
            | None -> (records, bad + 1, trailing + 1))
        ([], 0, 0)
    in
    { records = List.rev records; bad; trailing_bad }
  end

(* ---------------------------------------------------------------- writing *)

type t = { oc : out_channel; fsync_every : int; mutable unsynced : int; lock : Mutex.t }

(* Cut an unterminated last line, the half-record a crash leaves: the next
   record appended after it would share its line and never parse. *)
let drop_torn_tail path =
  let ic = open_in_bin path in
  let size = in_channel_length ic in
  let rec last_newline hi =
    let lo = max 0 (hi - 4096) in
    seek_in ic lo;
    match String.rindex_opt (really_input_string ic (hi - lo)) '\n' with
    | Some i -> lo + i + 1
    | None -> if lo = 0 then 0 else last_newline lo
  in
  let keep = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> last_newline size) in
  if keep < size then Unix.truncate path keep

let create ?(truncate = false) ~fsync_every ~header path =
  if (not truncate) && Sys.file_exists path then drop_torn_tail path;
  let mode = if truncate then Open_trunc else Open_append in
  let oc = open_out_gen [ Open_wronly; Open_creat; mode ] 0o644 path in
  if out_channel_length oc = 0 then begin
    output_string oc (header ^ "\n");
    flush oc;
    fsync oc
  end;
  { oc; fsync_every = max 0 fsync_every; unsynced = 0; lock = Mutex.create () }

let append t line =
  Mutex.protect t.lock (fun () ->
      output_string t.oc line;
      output_char t.oc '\n';
      (* flush per record: a crash loses at most the line being written *)
      flush t.oc;
      t.unsynced <- t.unsynced + 1;
      if t.fsync_every > 0 && t.unsynced >= t.fsync_every then begin
        fsync t.oc;
        t.unsynced <- 0
      end)

let sync t =
  Mutex.protect t.lock (fun () ->
      flush t.oc;
      fsync t.oc;
      t.unsynced <- 0)

let close t =
  Mutex.protect t.lock (fun () ->
      flush t.oc;
      fsync t.oc;
      close_out t.oc)

let write_atomic path write =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  match
    write oc;
    flush oc;
    fsync oc;
    close_out oc;
    Sys.rename tmp path
  with
  | () -> fsync_dir (Filename.dirname path)
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
