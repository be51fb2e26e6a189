(* Crash-safety of the daemon's durable state: the on-disk result store
   (replay, truncation/garbage tolerance, compaction), the job-table WAL
   (property: replay reconstructs the exact job table), the state-dir
   lockfile, byte goldens of the store log, WAL and result file, scheduler
   recovery across an in-process "daemon death", and
   the real thing — the CLI daemon SIGKILLed mid-campaign and restarted on
   the same state dir, asserting a byte-identical final configuration with
   strictly fewer evaluations on the second leg. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then false else String.sub s i n = sub || go (i + 1)
  in
  go 0

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rm_rf dir = ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ store *)

let test_store_durable_roundtrip () =
  let dir = temp_dir "craft_store" in
  let path = Filename.concat dir "store.log" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let store = Store.create ~path ~fsync_every:1 () in
      let verdicts =
        [
          ("a/steps=default/d1", Verdict.Pass);
          ("a/steps=default/d2", Verdict.Fail_verify);
          ("a/steps=default/d3", Verdict.Trapped (0x1f, "injected fault"));
          ("b/steps=100/d1", Verdict.Step_timeout);
          ("b/steps=100/d2", Verdict.Crashed "boom with spaces");
          ("b/steps=100/d3", Verdict.Pruned "shadow said so");
        ]
      in
      List.iter
        (fun (key, v) -> ignore (Store.find_or_compute store ~key (fun () -> v)))
        verdicts;
      Store.close store;
      (* a second daemon life on the same path serves every verdict *)
      let store2 = Store.create ~path () in
      checki "replayed all" (List.length verdicts) (Store.stats store2).Store.replayed;
      List.iter
        (fun (key, v) ->
          let got, served =
            Store.find_or_compute store2 ~key (fun () -> Alcotest.fail "recomputed")
          in
          checkb "served from replay" true served;
          checkb "verdict survives the round-trip" true (got = v))
        verdicts;
      Store.close store2)

let test_store_closed_keeps_serving () =
  let dir = temp_dir "craft_store" in
  let path = Filename.concat dir "store.log" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let store = Store.create ~path () in
      ignore (Store.find_or_compute store ~key:"k" (fun () -> Verdict.Pass));
      Store.close store;
      Store.close store;
      (* memory table still serves; fresh verdicts just stop persisting *)
      let _, served = Store.find_or_compute store ~key:"k" (fun () -> Verdict.Pass) in
      checkb "served after close" true served;
      ignore (Store.find_or_compute store ~key:"k2" (fun () -> Verdict.Pass));
      checki "k2 not persisted" 1 (List.length (Store.scan ~path)))

(* Random store contents for the fuzz tests. *)
let verdict_gen =
  let open QCheck2.Gen in
  oneof
    [
      return Verdict.Pass;
      return Verdict.Fail_verify;
      map (fun s -> Verdict.Crashed s) (small_string ~gen:printable);
      map (fun s -> Verdict.Pruned s) (small_string ~gen:printable);
      map2 (fun a s -> Verdict.Trapped (a land 0xffffff, s)) small_nat
        (small_string ~gen:printable);
      return Verdict.Step_timeout;
    ]

let entries_gen =
  let open QCheck2.Gen in
  let key_gen =
    map
      (fun (a, b, c) -> Printf.sprintf "%08x/steps=%d/%08x" a b c)
      (triple nat small_nat nat)
  in
  map
    (fun l ->
      (* distinct keys: the store never appends one key twice *)
      let seen = Hashtbl.create 16 in
      List.filter
        (fun (k, _) ->
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        l)
    (small_list (pair key_gen verdict_gen))

let write_store_log path entries =
  let store = Store.create ~path ~fsync_every:0 () in
  List.iter (fun (key, v) -> ignore (Store.find_or_compute store ~key (fun () -> v))) entries;
  Store.close store

let fuzz_store_truncation =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"store log: any truncation replays a prefix"
       QCheck2.Gen.(pair entries_gen (int_range 0 10_000))
       (fun (entries, cut) ->
         let dir = temp_dir "craft_fuzz" in
         let path = Filename.concat dir "store.log" in
         Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
             write_store_log path entries;
             let full = read_file path in
             let cut = min cut (String.length full) in
             write_file path (String.sub full 0 cut);
             let replayed = Store.scan ~path in
             (* tolerant prefix: every replayed record is one we wrote, in
                order, and only the boundary record may be lost *)
             let rec is_prefix got want =
               match (got, want) with
               | [], _ -> true
               | g :: gs, w :: ws -> g = w && is_prefix gs ws
               | _ :: _, [] -> false
             in
             if not (is_prefix replayed entries) then
               QCheck2.Test.fail_reportf "replay is not a prefix after cut at %d" cut;
             (* intact lines all survive: count newlines in the kept bytes
                past the header *)
             let lines = String.split_on_char '\n' (String.sub full 0 cut) in
             let intact = max 0 (List.length lines - 2) in
             if List.length replayed < intact then
               QCheck2.Test.fail_reportf "lost %d intact record(s)"
                 (intact - List.length replayed);
             true)))

let fuzz_store_garbage =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"store log: mid-file garbage lines drop without losing records"
       QCheck2.Gen.(triple entries_gen (small_string ~gen:printable) small_nat)
       (fun (entries, garbage, at) ->
         let dir = temp_dir "craft_fuzz" in
         let path = Filename.concat dir "store.log" in
         Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
             write_store_log path entries;
             let lines = String.split_on_char '\n' (read_file path) in
             let at = at mod List.length lines in
             (* the "%zz" key field can never unescape, so whatever the
                random payload is, this line is garbage to the loader *)
             let spliced =
               List.concat
                 (List.mapi
                    (fun i l -> if i = at then [ "%zz " ^ garbage; l ] else [ l ])
                    lines)
             in
             write_file path (String.concat "\n" spliced);
             let replayed = Store.scan ~path in
             if replayed <> entries then
               QCheck2.Test.fail_reportf "garbage line changed the replay (%d vs %d)"
                 (List.length replayed) (List.length entries);
             true)))

let test_store_compact () =
  let dir = temp_dir "craft_store" in
  let path = Filename.concat dir "store.log" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      write_store_log path [ ("k1", Verdict.Pass); ("k2", Verdict.Fail_verify) ];
      (* simulate many daemon lifetimes re-deciding k1: raw duplicate
         appends, which replay (and so compaction) resolve last-wins *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "k1 fail 3\nk1 pass 4\nhalf-a-rec";
      close_out oc;
      (match Store.compact ~path with
      | Ok (kept, dropped) ->
          checki "kept distinct" 2 kept;
          (* the torn tail never parses as a record, so only the two
             duplicate appends count as dropped *)
          checki "dropped duplicates" 2 dropped
      | Error why -> Alcotest.fail why);
      let records = Store.scan ~path in
      checki "two records" 2 (List.length records);
      checkb "last verdict won" true (List.assoc "k1" records = Verdict.Pass);
      (match Store.compact ~path:(Filename.concat dir "nope") with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "compacted a missing file"))

(* -------------------------------------------------------------------- wal *)

let spec_gen =
  let open QCheck2.Gen in
  (* non-empty: an empty bench/cls escapes to an empty field, which the
     space-split line format cannot carry (and [submit] never sends) *)
  let word = string_size ~gen:printable (int_range 1 8) in
  (* the formats menu and strategy token round-trip through the same
     escaped-token slots; "" must survive as "" (it serializes as "-") *)
  let menu = oneofl [ ""; "bf16,single"; "f16"; "e5m10,e8m7,single" ] in
  let strat = oneofl [ ""; "bfs"; "split"; "delta"; "anneal:42" ] in
  map
    (fun ((bench, cls), (shadow, priority, steps), (formats, strategy)) ->
      { Wire.bench; cls; shadow; priority; eval_steps = steps; formats; strategy })
    (triple (pair word word)
       (triple bool (int_range (-5) 5) (option small_nat))
       (pair menu strat))

let outcome_gen =
  let open QCheck2.Gen in
  let why = small_string ~gen:printable in
  oneof
    [
      return (Wire.Done, "tested 45, final pass");
      return (Wire.Cancelled, "");
      map (fun w -> (Wire.Failed w, "failed run")) why;
      map (fun w -> (Wire.Quarantined w, "")) why;
    ]

let fuzz_wal_replay =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"wal: replay reconstructs the exact job table"
       QCheck2.Gen.(small_list (pair spec_gen (option outcome_gen)))
       (fun jobs ->
         let dir = temp_dir "craft_wal" in
         let path = Filename.concat dir "jobs.wal" in
         Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
             let wal = Wal.create ~path in
             let expect =
               List.mapi
                 (fun i (spec, outcome) ->
                   let id = Printf.sprintf "j%04d" (i + 1) in
                   Wal.append wal (Wal.Submitted { id; spec });
                   (match outcome with
                   | Some (state, summary) ->
                       Wal.append wal (Wal.Outcome { id; state; summary })
                   | None -> ());
                   (id, { Wal.spec; outcome }))
                 jobs
             in
             Wal.close wal;
             (* a torn tail must not perturb the table *)
             let oc = open_out_gen [ Open_append ] 0o644 path in
             output_string oc "outcome j00";
             close_out oc;
             let got = Wal.replay (Wal.load ~path) in
             if got <> expect then
               QCheck2.Test.fail_reportf "replayed table differs (%d vs %d entries)"
                 (List.length got) (List.length expect);
             true)))

let test_wal_drops_unactionable () =
  let dir = temp_dir "craft_wal" in
  let path = Filename.concat dir "jobs.wal" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let spec =
        { Wire.bench = "cg"; cls = "W"; shadow = false; priority = 0; eval_steps = None; formats = ""; strategy = "" }
      in
      let wal = Wal.create ~path in
      Wal.append wal (Wal.Submitted { id = "j0001"; spec });
      (* outcome for a job never submitted: dropped *)
      Wal.append wal (Wal.Outcome { id = "j0099"; state = Wire.Done; summary = "?" });
      (* non-terminal outcome: dropped *)
      Wal.append wal (Wal.Outcome { id = "j0001"; state = Wire.Running; summary = "?" });
      Wal.close wal;
      match Wal.replay (Wal.load ~path) with
      | [ (id, { Wal.outcome; _ }) ] ->
          checks "job listed" "j0001" id;
          checkb "still unfinished" true (outcome = None)
      | table -> Alcotest.failf "expected one entry, got %d" (List.length table))

(* A WAL written by a pre-lattice daemon: submit records carry only seven
   tokens (no formats column); a pre-strategy daemon wrote eight (no
   strategy column). Both must load cleanly and resume with the
   single-only default menu and the default bfs strategy — byte-for-byte
   fixtures, not synthesized by today's writer. *)
let test_wal_loads_prelattice_lines () =
  let dir = temp_dir "craft_wal" in
  let path = Filename.concat dir "jobs.wal" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let oc = open_out path in
      output_string oc "# craft-wal v1\n";
      output_string oc "submit j0001 cg W 0 0 -\n";
      output_string oc "submit j0002 mg W 1 5 120000\n";
      output_string oc "submit j0003 ep W 0 0 - bf16,single\n";
      output_string oc "outcome j0001 done tested%2045\n";
      close_out oc;
      match Wal.replay (Wal.load ~path) with
      | [ (a, ea); (b, eb); (c, ec) ] ->
          checks "first id" "j0001" a;
          checks "second id" "j0002" b;
          checks "third id" "j0003" c;
          checks "old records resume single-only" "" ea.Wal.spec.Wire.formats;
          checks "steps survive alongside" "" eb.Wal.spec.Wire.formats;
          checks "7-token records resume as bfs" "" ea.Wal.spec.Wire.strategy;
          checks "8-token (pre-strategy) records keep their menu" "bf16,single"
            ec.Wal.spec.Wire.formats;
          checks "8-token records resume as bfs" "" ec.Wal.spec.Wire.strategy;
          checkb "other fields intact" true
            (eb.Wal.spec.Wire.shadow && eb.Wal.spec.Wire.priority = 5
            && eb.Wal.spec.Wire.eval_steps = Some 120000);
          checkb "outcome attached" true
            (match ea.Wal.outcome with Some (Wire.Done, _) -> true | _ -> false);
          (* and a strategy-era record in the same file round-trips both
             its menu and its strategy token *)
          let wal = Wal.create ~path in
          Wal.append wal
            (Wal.Submitted
               {
                 id = "j0004";
                 spec =
                   {
                     Wire.bench = "cg";
                     cls = "W";
                     shadow = false;
                     priority = 0;
                     eval_steps = None;
                     formats = "bf16,f16,single";
                     strategy = "anneal:7";
                   };
               });
          Wal.close wal;
          (match Wal.replay (Wal.load ~path) with
          | [ _; _; _; (d, ed) ] ->
              checks "new id" "j0004" d;
              checks "menu survives" "bf16,f16,single" ed.Wal.spec.Wire.formats;
              checks "strategy survives" "anneal:7" ed.Wal.spec.Wire.strategy
          | table -> Alcotest.failf "expected four entries, got %d" (List.length table))
      | table -> Alcotest.failf "expected three entries, got %d" (List.length table))

(* ---------------------------------------------------------------- journal *)

let test_journal_verify () =
  let dir = temp_dir "craft_jverify" in
  let path = Filename.concat dir "journal" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let digest i = Printf.sprintf "%016x" i in
      let record i v = Printf.sprintf "%s %s %d | s MODULE: cg\n" (digest i) v i in
      (* clean journal with one duplicate digest *)
      write_file path
        ("# craft-journal v1\n" ^ record 1 "pass" ^ record 2 "fail" ^ record 2 "fail");
      (match Journal.verify ~path with
      | Ok r ->
          checki "records" 3 r.Journal.records;
          checki "distinct" 2 r.Journal.distinct;
          checki "one duplicate" 1 (List.length r.Journal.duplicates);
          checkb "not torn" false r.Journal.torn;
          checki "no bad lines" 0 r.Journal.bad
      | Error why -> Alcotest.fail why);
      (* crash truncation: unparseable suffix only *)
      write_file path ("# craft-journal v1\n" ^ record 1 "pass" ^ digest 2);
      (match Journal.verify ~path with
      | Ok r ->
          checki "one record" 1 r.Journal.records;
          checki "trailing bad" 1 r.Journal.trailing_bad;
          checkb "truncation is not torn" false r.Journal.torn
      | Error why -> Alcotest.fail why);
      (* mid-file corruption: a bad line before a good one *)
      write_file path
        ("# craft-journal v1\n" ^ record 1 "pass" ^ "scribbled!\n" ^ record 3 "pass");
      (match Journal.verify ~path with
      | Ok r ->
          checkb "torn detected" true r.Journal.torn;
          checki "bad but not trailing" 1 (r.Journal.bad - r.Journal.trailing_bad)
      | Error why -> Alcotest.fail why);
      match Journal.verify ~path:(Filename.concat dir "nope") with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "verified a missing file")

(* ------------------------------------------------------ torn-tail reopen *)

(* A crash mid-append leaves an unterminated half-record at the end of a
   log. The next life must not glue its first record onto that fragment:
   the two would share one unparseable line and the new record would be
   lost on the following replay. *)
let append_torn path half =
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc half;
  close_out oc

let test_reopen_after_torn_tail () =
  let dir = temp_dir "craft_torn" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let path = Filename.concat dir "store.log" in
      let store_life key =
        let store = Store.create ~path () in
        ignore (Store.find_or_compute store ~key (fun () -> Verdict.Pass));
        Store.close store
      in
      store_life "a/b/c1";
      append_torn path "a/b/c2 pa";
      store_life "a/b/c3";
      Alcotest.(check (list string))
        "store: second life's record replays" [ "a/b/c1"; "a/b/c3" ]
        (List.map fst (Store.scan ~path));
      let path = Filename.concat dir "journal" in
      let prog, _ = Test_harness.synthetic ~n_ops:4 ~poison:[] () in
      let cands = Static.candidates prog in
      let cfg1 = Config.set_insn Config.empty cands.(0).Static.addr Config.Single in
      let cfg2 = Config.set_module Config.empty "syn" Config.Single in
      let j = Journal.create ~path prog in
      Journal.record j cfg1 Verdict.Pass;
      Journal.close j;
      append_torn path "0123456789abcdef pa";
      let j = Journal.create ~resume:true ~path prog in
      Journal.record j cfg2 Verdict.Fail_verify;
      Journal.close j;
      let j = Journal.create ~resume:true ~path prog in
      checki "journal: both lives replay" 2 (Journal.replayed j);
      checkb "journal: second life's verdict" true
        (Journal.lookup j cfg2 = Some Verdict.Fail_verify);
      Journal.close j;
      (match Journal.verify ~path with
      | Ok r ->
          checki "journal: two records" 2 r.Journal.records;
          checkb "journal: not torn" false r.Journal.torn
      | Error why -> Alcotest.fail why);
      let path = Filename.concat dir "jobs.wal" in
      let spec =
        { Wire.bench = "cg"; cls = "W"; shadow = false; priority = 0; eval_steps = None; formats = ""; strategy = "" }
      in
      let wal_life id =
        let wal = Wal.create ~path in
        Wal.append wal (Wal.Submitted { id; spec });
        Wal.close wal
      in
      wal_life "j0001";
      append_torn path "submit j0002 cg W 0";
      wal_life "j0003";
      Alcotest.(check (list string))
        "wal: second life's job replays" [ "j0001"; "j0003" ]
        (List.map fst (Wal.replay (Wal.load ~path))))

(* ----------------------------------------------------------- atomic write *)

(* Checkpoints, compacted store logs and result files are all replaced
   through one write-temp/fsync/rename. A writer that dies half way must
   leave the previous file exactly as it was and no temp file behind, and
   its exception must reach the caller. *)
let test_write_atomic_failure () =
  let dir = temp_dir "craft_atomic" in
  let path = Filename.concat dir "result" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      Textlog.write_atomic path (fun oc -> output_string oc "old\n");
      checks "first write lands" "old\n" (read_file path);
      (match
         Textlog.write_atomic path (fun oc ->
             output_string oc "half a new file";
             failwith "writer died")
       with
      | () -> Alcotest.fail "the writer's exception was swallowed"
      | exception Failure why -> checks "exception propagates" "writer died" why);
      checks "previous file byte-identical" "old\n" (read_file path);
      Alcotest.(check (list string))
        "no temp file left" [ "result" ]
        (Array.to_list (Sys.readdir dir)))

(* --------------------------------------------------------------- lockfile *)

let test_lockfile () =
  let dir = temp_dir "craft_lock" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      (match Lockfile.acquire ~dir with
      | Ok lock ->
          checkb "lockfile exists" true (Sys.file_exists (Lockfile.path ~dir));
          checkb "pid recorded" true
            (contains (read_file (Lockfile.path ~dir)) (string_of_int (Unix.getpid ())));
          Lockfile.release lock;
          checkb "lockfile removed" false (Sys.file_exists (Lockfile.path ~dir))
      | Error why -> Alcotest.fail why);
      (* a stale lockfile from a dead pid holds no kernel lock: reclaimed *)
      write_file (Lockfile.path ~dir) "999999\n";
      match Lockfile.acquire ~dir with
      | Ok lock -> Lockfile.release lock
      | Error why -> Alcotest.failf "stale lock not reclaimed: %s" why)

(* ------------------------------------------------------------ byte goldens *)

(* The exact bytes the durable writers put on disk, pinned from the writers
   as they stood before they shared one log layer. A state dir written by
   an older daemon must stay loadable and a newer one must write the same
   files, so a change here is a format change, never a refactor. *)

(* One line per element, each newline-terminated. *)
let lines ls = String.concat "" (List.map (fun l -> l ^ "\n") ls)

(* All six verdict kinds, under keys carrying every reserved character the
   escaper rewrites in a store key: space, '%', '|' and ':'. *)
let golden_store_entries =
  [
    ("p q/steps=default/d1", Verdict.Pass);
    ("p%q/steps=default/d2", Verdict.Fail_verify);
    ("p|q/steps=100/d3", Verdict.Trapped (0x1f, "injected fault"));
    ("p:q/steps=100/d4", Verdict.Step_timeout);
    ("k5", Verdict.Crashed "boom: 50% | done");
    ("k6", Verdict.Pruned "shadow said so");
  ]

let golden_store_log =
  lines
    [
      "# craft-store v1";
      "p%20q/steps=default/d1 pass 1";
      "p%25q/steps=default/d2 fail 2";
      "p%7cq/steps=100/d3 trap:0x00001f:injected%20fault 3";
      "p%3aq/steps=100/d4 timeout 4";
      "k5 crash:boom%3a%2050%25%20%7c%20done 5";
      "k6 pruned:shadow%20said%20so 6";
    ]

let golden_store_compacted =
  lines
    [
      "# craft-store v1";
      "p%20q/steps=default/d1 fail 1";
      "p%25q/steps=default/d2 fail 2";
      "p%7cq/steps=100/d3 trap:0x00001f:injected%20fault 3";
      "p%3aq/steps=100/d4 timeout 4";
      "k5 pass 5";
      "k6 pruned:shadow%20said%20so 6";
    ]

let test_store_log_bytes () =
  let dir = temp_dir "craft_golden" in
  let path = Filename.concat dir "store.log" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let store = Store.create ~path ~fsync_every:1 () in
      List.iter
        (fun (key, v) -> ignore (Store.find_or_compute store ~key (fun () -> v)))
        golden_store_entries;
      Store.close store;
      checks "store.log bytes" golden_store_log (read_file path);
      (* a later life re-decides two keys (last record wins) and dies
         mid-append; compaction keeps first-seen key order, renumbers the
         sequence column and drops the torn tail *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "p%20q/steps=default/d1 fail 7\nk5 pass 8\nhalf-a-rec";
      close_out oc;
      (match Store.compact ~path with
      | Ok (kept, dropped) ->
          checki "kept" 6 kept;
          checki "dropped" 2 dropped
      | Error why -> Alcotest.fail why);
      checks "compacted store.log bytes" golden_store_compacted (read_file path))

let golden_wal =
  lines
    [
      "# craft-wal v1";
      "submit j0001 cg W 0 0 - - -";
      "submit j0002 my%20bench A 1 -3 120000 bf16,single anneal%3a7";
      "submit j0003 cg W 0 5 - - -";
      "submit j0004 cg W 0 0 - - split";
      "outcome j0001 done tested%2045,%20final%20pass";
      "outcome j0002 cancelled ";
      "outcome j0003 failed:no%20such%3a%20thing failed%20run";
      "outcome j0004 quarantined:driver%20died%202%20time(s),%20last%3a%2050%25%20%7c%20gone ";
    ]

let test_wal_bytes () =
  let dir = temp_dir "craft_golden" in
  let path = Filename.concat dir "jobs.wal" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let spec =
        { Wire.bench = "cg"; cls = "W"; shadow = false; priority = 0; eval_steps = None; formats = ""; strategy = "" }
      in
      let wal = Wal.create ~path in
      List.iter (Wal.append wal)
        [
          Wal.Submitted { id = "j0001"; spec };
          Wal.Submitted
            {
              id = "j0002";
              spec =
                {
                  Wire.bench = "my bench";
                  cls = "A";
                  shadow = true;
                  priority = -3;
                  eval_steps = Some 120000;
                  formats = "bf16,single";
                  strategy = "anneal:7";
                };
            };
          Wal.Submitted { id = "j0003"; spec = { spec with priority = 5 } };
          Wal.Submitted { id = "j0004"; spec = { spec with strategy = "split" } };
          Wal.Outcome { id = "j0001"; state = Wire.Done; summary = "tested 45, final pass" };
          Wal.Outcome { id = "j0002"; state = Wire.Cancelled; summary = "" };
          Wal.Outcome
            { id = "j0003"; state = Wire.Failed "no such: thing"; summary = "failed run" };
          Wal.Outcome
            {
              id = "j0004";
              state = Wire.Quarantined "driver died 2 time(s), last: 50% | gone";
              summary = "";
            };
        ];
      Wal.close wal;
      checks "jobs.wal bytes" golden_wal (read_file path))

(* -------------------------------------------- scheduler: in-process death *)

(* The same synthetic bundle the server tests use. *)
let synthetic_kernel ?(name = "syn.W") ~n_ops ~poison () =
  let t = Builder.create () in
  let out = Builder.alloc_f t n_ops in
  let main =
    Builder.func t ~module_:"syn" "main" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
        for k = 0 to n_ops - 1 do
          let c = Builder.fconst b (if List.mem k poison then 0.1 else 0.5) in
          let v = Builder.fadd b c c in
          Builder.storef b (Builder.at (out + k)) v
        done)
  in
  let program = Builder.program t ~main in
  let reference = Array.init n_ops (fun k -> if List.mem k poison then 0.2 else 1.0) in
  {
    Kernel.name;
    program;
    setup = (fun _ -> ());
    output = (fun vm -> Vm.read_f vm out n_ops);
    verify = (fun res -> res = reference);
    reference;
    hints = Config.empty;
    comm_bytes = (fun ~ranks:_ _ -> 0.0);
  }

let default_spec =
  { Wire.bench = "syn"; cls = "W"; shadow = false; priority = 0; eval_steps = None; formats = ""; strategy = "" }

let with_stack ?(state_dir = None) ~resolve f =
  let pool = Pool.create ~options:{ Pool.default_options with workers = 2 } () in
  let cache = Compile.create_cache () in
  let store = Store.create () in
  let options = { Scheduler.default_options with state_dir } in
  let sched = Scheduler.create ~options ~resolve ~pool ~cache ~store () in
  Fun.protect
    ~finally:(fun () ->
      Scheduler.shutdown sched ~cancel_running:true ();
      Pool.shutdown pool)
    (fun () -> f sched)

let wait_done sched id =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    match Scheduler.result sched id with
    | Ok r -> r
    | Error _ when Unix.gettimeofday () < deadline ->
        Thread.delay 0.01;
        go ()
    | Error why -> Alcotest.failf "job %s never finished: %s" id why
  in
  go ()

(* Scheduler 2 on scheduler 1's state dir is exactly a daemon restart,
   minus the SIGKILL (the chaos test below supplies that part): finished
   jobs re-list with their persisted result, unfinished ones re-run, and
   the id sequence continues. *)
let test_scheduler_recovers_job_table () =
  let dir = temp_dir "craft_recover" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let k = synthetic_kernel ~n_ops:4 ~poison:[ 1 ] () in
      let resolve _ = Ok k in
      let done_text =
        with_stack ~state_dir:(Some dir) ~resolve (fun sched ->
            let id = Result.get_ok (Scheduler.submit sched default_spec) in
            checks "first id" "j0001" id;
            let status, text, _ = wait_done sched id in
            checkb "done" true (status.Wire.state = Wire.Done);
            text)
      in
      (* append a submission the dead daemon never finished *)
      let wal = Wal.create ~path:(Filename.concat dir "jobs.wal") in
      Wal.append wal (Wal.Submitted { id = "j0002"; spec = default_spec });
      Wal.close wal;
      with_stack ~state_dir:(Some dir) ~resolve (fun sched ->
          (match Scheduler.result sched "j0001" with
          | Ok (status, text, _) ->
              checkb "j0001 re-listed done" true (status.Wire.state = Wire.Done);
              checks "persisted result text" done_text text
          | Error why -> Alcotest.failf "j0001 not recovered: %s" why);
          let status2, text2, _ = wait_done sched "j0002" in
          checkb "j0002 re-ran to done" true (status2.Wire.state = Wire.Done);
          checks "identical final" done_text text2;
          (* the id sequence continues past the recovered jobs *)
          let id3 = Result.get_ok (Scheduler.submit sched default_spec) in
          checks "next id continues" "j0003" id3;
          let _ = wait_done sched id3 in
          ()))

let test_events_cursor_resets_after_restart () =
  let dir = temp_dir "craft_recover" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let k = synthetic_kernel ~n_ops:3 ~poison:[] () in
      let resolve _ = Ok k in
      let cursor =
        with_stack ~state_dir:(Some dir) ~resolve (fun sched ->
            let id = Result.get_ok (Scheduler.submit sched default_spec) in
            let _ = wait_done sched id in
            let next, lines, _ = Result.get_ok (Scheduler.events sched ~job:id ~from:0) in
            checkb "events streamed" true (List.length lines > 0);
            next)
      in
      with_stack ~state_dir:(Some dir) ~resolve (fun sched ->
          (* the old cursor is past the recovered (shorter) log: the
             scheduler restarts the stream instead of serving silence *)
          let _, lines, final =
            Result.get_ok (Scheduler.events sched ~job:"j0001" ~from:cursor)
          in
          checkb "stream restarted" true (List.length lines > 0);
          checkb "terminal and drained" true final;
          checkb "recovery event present" true
            (List.exists (fun l -> contains l "RECOVERED") lines)))

(* The per-job [result] file a finished job leaves in its state dir: the
   final configuration text, byte for byte. *)
let golden_result =
  lines
    [
      "  MODULE: syn";
      "    FUNC01: main()";
      "      BBLK01";
      "s       INSN01: 0x000000 \"movsd.imm $0x1p-1 -> f0\"";
      "s       INSN02: 0x000001 \"addsd f0, f0 -> f1\"";
      "        INSN03: 0x000003 \"movsd.imm $0x1.999999999999ap-4 -> f2\"";
      "        INSN04: 0x000004 \"addsd f2, f2 -> f3\"";
      "s       INSN05: 0x000006 \"movsd.imm $0x1p-1 -> f4\"";
      "s       INSN06: 0x000007 \"addsd f4, f4 -> f5\"";
      "s       INSN07: 0x000009 \"movsd.imm $0x1p-1 -> f6\"";
      "s       INSN08: 0x00000a \"addsd f6, f6 -> f7\"";
    ]

let test_result_file_bytes () =
  let dir = temp_dir "craft_golden" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let k = synthetic_kernel ~n_ops:4 ~poison:[ 1 ] () in
      with_stack ~state_dir:(Some dir) ~resolve:(fun _ -> Ok k) (fun sched ->
          let id = Result.get_ok (Scheduler.submit sched default_spec) in
          let _, text, _ = wait_done sched id in
          let bytes = read_file (Filename.concat (Filename.concat dir id) "result") in
          checks "result file holds the final config" text bytes;
          checks "result file bytes" golden_result bytes))

(* ------------------------------------------------- daemon kill -9 (chaos) *)

let cli_path () =
  let guess =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/craft_cli.exe"
  in
  if Sys.file_exists guess then Some guess else None

let spawn_daemon cli ~socket ~state_dir ~log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  (* close the low fds the test runner leaves open (alcotest keeps dups of
     its stdout/stderr around fd 4-5): a daemon that outlives a dying test
     must not pin the runner's pipes. Single-digit fds only — dash does not
     parse multi-digit fd redirections. [exec "$0"] keeps the daemon on
     sh's own pid, so the returned pid is the one to SIGKILL. *)
  let pid =
    Unix.create_process "/bin/sh"
      [|
        "sh"; "-c";
        {|exec 3>&- 4>&- 5>&- 6>&- 7>&- 8>&- 9>&-; exec "$0" "$@"|};
        cli; "serve"; "--socket"; socket; "--state-dir"; state_dir; "--jobs"; "1";
        "--wave"; "2"; "--workers"; "2"; "--store-fsync"; "1";
      |]
      Unix.stdin out out
  in
  Unix.close out;
  pid

let wait_for ?(deadline = 30.0) what cond =
  let t0 = Unix.gettimeofday () in
  while (not (cond ())) && Unix.gettimeofday () -. t0 < deadline do
    Thread.delay 0.002
  done;
  if not (cond ()) then Alcotest.failf "timed out waiting for %s" what

let test_daemon_kill9_recovery () =
  match cli_path () with
  | None -> Alcotest.skip ()
  | Some cli ->
      let dir = temp_dir "craft_chaos" in
      let state_dir = Filename.concat dir "state" in
      let socket = Filename.concat dir "d.sock" in
      let log = Filename.concat dir "serve.log" in
      let killed = ref None in
      let stop pid signal =
        (try Unix.kill pid signal with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
      in
      Fun.protect
        ~finally:(fun () ->
          Option.iter (fun pid -> stop pid Sys.sigkill) !killed;
          rm_rf dir)
        (fun () ->
          (* leg 1: daemon, submit cg.W, SIGKILL once checkpointed *)
          let pid = spawn_daemon cli ~socket ~state_dir ~log in
          killed := Some pid;
          let c = Result.get_ok (Client.connect (Server.Unix_path socket)) in
          let spec =
            { Wire.bench = "cg"; cls = "W"; shadow = false; priority = 0; eval_steps = None; formats = ""; strategy = "" }
          in
          let id = Result.get_ok (Client.submit c spec) in
          wait_for "first checkpoint" (fun () ->
              Sys.file_exists (Filename.concat (Filename.concat state_dir id) "checkpoint"));
          Unix.kill pid Sys.sigkill;
          (match Unix.waitpid [] pid with
          | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
          | _, _ -> Alcotest.fail "daemon did not die of SIGKILL");
          killed := None;
          (* leg 2: restart on the same state dir; the SAME client object
             rides through via its idempotent-retry reconnect *)
          let pid2 = spawn_daemon cli ~socket ~state_dir ~log in
          killed := Some pid2;
          let status, recovered_text, _ =
            match Client.wait ~rejoin:60.0 c id with
            | Ok r -> r
            | Error why -> Alcotest.failf "wait across restart failed: %s" why
          in
          checkb "recovered job is done" true (status.Wire.state = Wire.Done);
          checkb "non-empty final config" true (String.length recovered_text > 0);
          let second_leg = status.Wire.tested in
          Client.close c;
          stop pid2 Sys.sigterm;
          killed := None;
          (* the daemon's own log proves replay actually happened *)
          let serve_log = read_file log in
          checkb "store replayed on restart" true (contains serve_log "store: replayed");
          checkb "job requeued on restart" true (contains serve_log "RECOVERED requeued");
          (* the oracle: one uninterrupted inline run of the same search *)
          let inline_cfg = Filename.concat dir "inline.cfg" in
          let inline_out = Filename.concat dir "inline.out" in
          let rc =
            Sys.command
              (Printf.sprintf "%s search cg -c W -o %s > %s 2>&1"
                 (Filename.quote cli) (Filename.quote inline_cfg) (Filename.quote inline_out))
          in
          checki "inline search succeeds" 0 rc;
          checks "final configuration byte-identical to the uninterrupted run"
            (read_file inline_cfg) recovered_text;
          (* strictly fewer evaluations on the second leg: store+checkpoint
             replay did real work *)
          let cold =
            let out = read_file inline_out in
            let marker = "configurations tested: " in
            let ml = String.length marker in
            let rec find i =
              if i + ml > String.length out then None
              else if String.sub out i ml = marker then begin
                let rest = String.sub out (i + ml) (String.length out - i - ml) in
                let line =
                  match String.index_opt rest '\n' with
                  | Some j -> String.sub rest 0 j
                  | None -> rest
                in
                int_of_string_opt (String.trim line)
              end
              else find (i + 1)
            in
            find 0
          in
          match cold with
          | None -> Alcotest.fail "inline run did not report configurations tested"
          | Some cold ->
              checkb
                (Printf.sprintf "second leg (%d) strictly fewer than cold (%d)" second_leg
                   cold)
                true (second_leg < cold))

let test_second_daemon_refused () =
  match cli_path () with
  | None -> Alcotest.skip ()
  | Some cli ->
      let dir = temp_dir "craft_chaos" in
      let state_dir = Filename.concat dir "state" in
      let running = ref None in
      Fun.protect
        ~finally:(fun () ->
          Option.iter
            (fun pid ->
              (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
              try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
            !running;
          rm_rf dir)
        (fun () ->
          let pid =
            spawn_daemon cli ~socket:(Filename.concat dir "a.sock") ~state_dir
              ~log:(Filename.concat dir "a.log")
          in
          running := Some pid;
          (* the first daemon is up once its socket accepts *)
          let c =
            Result.get_ok (Client.connect (Server.Unix_path (Filename.concat dir "a.sock")))
          in
          ignore (Client.stats c);
          Client.close c;
          let pid2 =
            spawn_daemon cli ~socket:(Filename.concat dir "b.sock") ~state_dir
              ~log:(Filename.concat dir "b.log")
          in
          (match Unix.waitpid [] pid2 with
          | _, Unix.WEXITED 1 -> ()
          | _, Unix.WEXITED n -> Alcotest.failf "second daemon exited %d, want 1" n
          | _, _ -> Alcotest.fail "second daemon did not exit cleanly");
          checkb "refusal names the lock" true
            (contains (read_file (Filename.concat dir "b.log")) "locked by another live \
             daemon"))

let suite =
  [
    Alcotest.test_case "store: durable log round-trips across lifetimes" `Quick
      test_store_durable_roundtrip;
    Alcotest.test_case "store: close is idempotent and keeps serving" `Quick
      test_store_closed_keeps_serving;
    fuzz_store_truncation;
    fuzz_store_garbage;
    Alcotest.test_case "store: offline compaction dedups last-wins" `Quick
      test_store_compact;
    fuzz_wal_replay;
    Alcotest.test_case "wal: unactionable outcomes are dropped" `Quick
      test_wal_drops_unactionable;
    Alcotest.test_case "wal: pre-lattice 7-token submits load" `Quick
      test_wal_loads_prelattice_lines;
    Alcotest.test_case "journal: --verify classifies truncation vs torn" `Quick
      test_journal_verify;
    Alcotest.test_case "reopen after a torn tail keeps the next record" `Quick
      test_reopen_after_torn_tail;
    Alcotest.test_case "atomic write: a failing writer leaves the old file" `Quick
      test_write_atomic_failure;
    Alcotest.test_case "lockfile: acquire/release/stale-reclaim" `Quick test_lockfile;
    Alcotest.test_case "golden: store.log bytes, before and after compaction" `Quick
      test_store_log_bytes;
    Alcotest.test_case "golden: jobs.wal bytes" `Quick test_wal_bytes;
    Alcotest.test_case "golden: scheduler result file bytes" `Quick test_result_file_bytes;
    Alcotest.test_case "scheduler: WAL recovery re-lists and re-runs" `Quick
      test_scheduler_recovers_job_table;
    Alcotest.test_case "scheduler: stale event cursors restart the stream" `Quick
      test_events_cursor_resets_after_restart;
    Alcotest.test_case "daemon: kill -9 mid-campaign, restart, identical final" `Slow
      test_daemon_kill9_recovery;
    Alcotest.test_case "daemon: second daemon on a locked state dir is refused" `Slow
      test_second_daemon_refused;
  ]
