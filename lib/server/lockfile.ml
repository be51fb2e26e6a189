type t = { fd : Unix.file_descr; path : string }

let path ~dir = Filename.concat dir "LOCK"

(* The exclusion is the kernel's fcntl record lock, not the file's
   existence: a lock held by a SIGKILLed daemon evaporates with its
   process, so stale locks reclaim themselves — the pid in the file is
   only for the refusal message. *)
let acquire ~dir =
  Textlog.mkdir_p dir;
  let p = path ~dir in
  match Unix.openfile p [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "cannot open lockfile %s: %s" p (Unix.error_message e))
  | fd -> (
      match Unix.lockf fd Unix.F_TLOCK 0 with
      | () ->
          (try
             Unix.ftruncate fd 0;
             let pid = string_of_int (Unix.getpid ()) ^ "\n" in
             ignore (Unix.write_substring fd pid 0 (String.length pid));
             Unix.fsync fd
           with Unix.Unix_error _ -> ());
          Ok { fd; path = p }
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
          let holder =
            match
              let buf = Bytes.create 64 in
              ignore (Unix.lseek fd 0 Unix.SEEK_SET);
              let n = Unix.read fd buf 0 (Bytes.length buf) in
              String.trim (Bytes.sub_string buf 0 n)
            with
            | "" | (exception Unix.Unix_error _) -> ""
            | pid -> Printf.sprintf " (pid %s)" pid
          in
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf
               "state dir %s is locked by another live daemon%s; refusing to interleave \
                writes into its journals"
               dir holder)
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Printf.sprintf "cannot lock %s: %s" p (Unix.error_message e)))

let release t =
  (try Unix.lockf t.fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  try Sys.remove t.path with Sys_error _ -> ()
