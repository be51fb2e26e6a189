(* Tests for atomic search checkpointing: node-id resolution, snapshot
   save/load roundtrip, corruption tolerance, write-atomicity under a
   partial temp write, and mid-level kill/resume equivalence (with strictly
   fewer re-evaluations than a journal-only replay). *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let with_temp_file f =
  let path = Filename.temp_file "craft_ck" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let sample_snapshot key =
  {
    Checkpoint.key;
    tested = 17;
    next_seq = 23;
    queue =
      [
        { Checkpoint.seq = 21; weight = 900; nodes = [ "F:1"; "B:3" ] };
        { Checkpoint.seq = 22; weight = 0; nodes = [ "I:42" ] };
      ];
    passing = [ "M:syn"; "F:0" ];
    counters = [ ("evaluations", 17); ("odd name: 100% |risky", 3) ];
    log = [ "PASS syn (weight 5)"; "line with: colons | pipes % and\ttabs"; "" ];
    strategy = "bfs";
  }

(* ------------------------------------------------- node ids *)

let test_node_id_resolve_roundtrip () =
  let prog, _ = Test_harness.synthetic ~n_ops:5 ~poison:[ 2 ] () in
  let rec walk node =
    let id = Checkpoint.node_id node in
    (match Checkpoint.resolve prog id with
    | Ok node' -> checks "resolves to the same id" id (Checkpoint.node_id node')
    | Error e -> Alcotest.failf "cannot resolve %s: %s" id e);
    List.iter walk
      (match node with
      | Static.Module (_, cs) | Static.Func (_, _, cs) | Static.Block (_, cs) -> cs
      | Static.Insn _ -> [])
  in
  List.iter walk (Static.tree prog);
  checkb "unknown id is an error" true
    (Result.is_error (Checkpoint.resolve prog "F:9999"));
  checkb "malformed id is an error" true
    (Result.is_error (Checkpoint.resolve prog "whatever"))

let test_program_key_distinguishes_programs () =
  let p1, _ = Test_harness.synthetic ~n_ops:5 ~poison:[] () in
  let p2, _ = Test_harness.synthetic ~n_ops:6 ~poison:[] () in
  let p1', _ = Test_harness.synthetic ~n_ops:5 ~poison:[] () in
  checks "deterministic" (Checkpoint.program_key p1) (Checkpoint.program_key p1');
  checkb "different programs differ" true
    (Checkpoint.program_key p1 <> Checkpoint.program_key p2)

(* ------------------------------------------------- snapshot roundtrip *)

let test_snapshot_roundtrip () =
  with_temp_file (fun path ->
      let snap = sample_snapshot "0123456789abcdef" in
      Checkpoint.save ~path snap;
      match Checkpoint.load ~path with
      | Error e -> Alcotest.fail e
      | Ok got ->
          checks "key" snap.Checkpoint.key got.Checkpoint.key;
          checki "tested" snap.Checkpoint.tested got.Checkpoint.tested;
          checki "next_seq" snap.Checkpoint.next_seq got.Checkpoint.next_seq;
          checkb "queue" true (got.Checkpoint.queue = snap.Checkpoint.queue);
          checkb "passing" true (got.Checkpoint.passing = snap.Checkpoint.passing);
          (* counter names and log lines with reserved characters survive
             the percent-escaped line format *)
          checkb "counters" true (got.Checkpoint.counters = snap.Checkpoint.counters);
          checkb "log" true (got.Checkpoint.log = snap.Checkpoint.log))

let test_save_overwrites_atomically () =
  with_temp_file (fun path ->
      Checkpoint.save ~path (sample_snapshot "aaaaaaaaaaaaaaaa");
      Checkpoint.save ~path { (sample_snapshot "bbbbbbbbbbbbbbbb") with tested = 99 };
      (match Checkpoint.load ~path with
      | Ok got ->
          checks "latest snapshot wins" "bbbbbbbbbbbbbbbb" got.Checkpoint.key;
          checki "latest tested" 99 got.Checkpoint.tested
      | Error e -> Alcotest.fail e);
      checkb "no temp file left behind" true (not (Sys.file_exists (path ^ ".tmp"))))

(* ------------------------------------------------- corruption *)

let test_load_rejects_garbage () =
  with_temp_file (fun path ->
      checkb "missing file" true (Result.is_error (Checkpoint.load ~path:(path ^ ".nope")));
      let write s =
        let oc = open_out path in
        output_string oc s;
        close_out oc
      in
      write "not a checkpoint\nend\n";
      checkb "bad header" true (Result.is_error (Checkpoint.load ~path));
      write "# craft-checkpoint v1 k\ntested 1\nseq 2\npassing\n";
      checkb "no end marker = truncated" true (Result.is_error (Checkpoint.load ~path));
      write "# craft-checkpoint v1 k\ntested zzz\npassing\nend\n";
      checkb "malformed record" true (Result.is_error (Checkpoint.load ~path));
      write "# craft-checkpoint v1 k\nitem 1 nope I:0\npassing\nend\n";
      checkb "malformed item" true (Result.is_error (Checkpoint.load ~path)))

let test_partial_tmp_write_never_corrupts () =
  (* acceptance: an interrupted snapshot (partial temp-file write) must not
     corrupt resume — the visible checkpoint is still the previous one *)
  with_temp_file (fun path ->
      let snap = sample_snapshot "cafebabecafebabe" in
      Checkpoint.save ~path snap;
      let oc = open_out (path ^ ".tmp") in
      output_string oc "# craft-checkpoint v1 cafebabecafebabe\ntested 4";
      (* no trailer, no newline: the writer died mid-snapshot *)
      close_out oc;
      (match Checkpoint.load ~path with
      | Ok got ->
          checki "previous complete snapshot served" snap.Checkpoint.tested
            got.Checkpoint.tested
      | Error e -> Alcotest.fail e);
      (* and if the partial temp were (wrongly) taken as a checkpoint, the
         trailer check would reject it *)
      checkb "partial temp itself is rejected" true
        (Result.is_error (Checkpoint.load ~path:(path ^ ".tmp"))))

(* ------------------------------------------------- kill / resume *)

let wrap_stack ?checkpoint prog target ~journal_path ~resume =
  let h, t = Harness.wrap_target target in
  let j = Journal.create ~resume ~path:journal_path prog in
  let opts =
    match checkpoint with
    | None -> Bfs.default_options
    | Some path ->
        {
          Bfs.default_options with
          checkpoint =
            Some
              (Bfs.checkpoint ~resume
                 ~save_counters:(fun () -> Harness.counters_list h)
                 ~restore_counters:(Harness.restore_counters h) path);
        }
  in
  (h, j, Journal.wrap_target j ~harness:h t, opts)

let abort_after k (target : Bfs.Target.t) =
  let calls = ref 0 in
  {
    target with
    Bfs.Target.eval =
      (fun cfg ->
        incr calls;
        if !calls > k then raise Bfs.Aborted else target.Bfs.Target.eval cfg);
  }

let copy_file src dst =
  let ic = open_in_bin src in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

let test_kill_and_resume_mid_level () =
  with_temp_file (fun ck_path ->
      with_temp_file (fun j_path ->
          with_temp_file (fun j_only_path ->
              let n_ops = 8 and poison = [ 2; 5 ] in
              let kills = 6 in
              (* run A: uninterrupted, no persistence — the reference *)
              let prog, tA = Test_harness.synthetic ~n_ops ~poison () in
              let full = Bfs.search tA in
              let reference = Config.digest prog full.Bfs.final in
              (* run B: journal + checkpoint, killed mid-level *)
              let _, tB = Test_harness.synthetic ~n_ops ~poison () in
              let _, jB, wrapped, opts =
                wrap_stack ~checkpoint:ck_path prog tB ~journal_path:j_path
                  ~resume:false
              in
              (match Bfs.search ~options:opts (abort_after kills wrapped) with
              | _ -> Alcotest.fail "the kill must abort the campaign"
              | exception Bfs.Aborted -> ());
              Journal.close jB;
              checkb "checkpoint written before the kill" true (Sys.file_exists ck_path);
              checkb "journal recorded the killed campaign" true
                (Journal.scan ~path:j_path <> []);
              (* snapshot the journal for the journal-only control *)
              copy_file j_path j_only_path;
              (* run B2: resume from checkpoint + journal *)
              let _, tB2 = Test_harness.synthetic ~n_ops ~poison () in
              let _, jB2, wrapped2, opts2 =
                wrap_stack ~checkpoint:ck_path prog tB2 ~journal_path:j_path
                  ~resume:true
              in
              let resumed = Bfs.search ~options:opts2 wrapped2 in
              let hits_checkpoint = Journal.hits jB2 in
              Journal.close jB2;
              checks "resume reaches the uninterrupted digest" reference
                (Config.digest prog resumed.Bfs.final);
              checkb "resume restarted mid-level" true
                (List.exists
                   (fun l ->
                     String.length l >= 6 && String.sub l 0 6 = "RESUME")
                   resumed.Bfs.log);
              checkb "snapshots kept flowing" true (resumed.Bfs.snapshots > 0);
              (* run C: journal-only replay of the same killed campaign *)
              let _, tC = Test_harness.synthetic ~n_ops ~poison () in
              let _, jC, wrappedC, optsC =
                wrap_stack prog tC ~journal_path:j_only_path ~resume:true
              in
              let replayed = Bfs.search ~options:optsC wrappedC in
              let hits_journal_only = Journal.hits jC in
              Journal.close jC;
              checks "journal-only replay also converges" reference
                (Config.digest prog replayed.Bfs.final);
              (* the acceptance criterion: the checkpoint restores the
                 frontier, so strictly fewer evaluations are re-served from
                 the journal than a full journal-driven replay *)
              checkb
                (Printf.sprintf "fewer re-evaluations (%d checkpoint vs %d journal-only)"
                   hits_checkpoint hits_journal_only)
                true
                (hits_checkpoint < hits_journal_only))))

let test_checkpoint_from_other_program_refused () =
  with_temp_file (fun ck_path ->
      let prog_a, t_a = Test_harness.synthetic ~n_ops:6 ~poison:[ 1 ] () in
      let opts_a =
        { Bfs.default_options with checkpoint = Some (Bfs.checkpoint ck_path) }
      in
      let res_a = Bfs.search ~options:opts_a t_a in
      checkb "snapshots written" true (res_a.Bfs.snapshots > 0);
      (* resuming a different program from prog_a's checkpoint must start
         fresh (logged), not restore a foreign frontier *)
      let prog_b, t_b = Test_harness.synthetic ~n_ops:7 ~poison:[ 3 ] () in
      checkb "different fingerprints" true
        (Checkpoint.program_key prog_a <> Checkpoint.program_key prog_b);
      let opts_b =
        {
          Bfs.default_options with
          checkpoint = Some (Bfs.checkpoint ~resume:true ck_path);
        }
      in
      let res_b = Bfs.search ~options:opts_b t_b in
      checkb "fresh campaign, checkpoint refused" true
        (List.exists
           (fun l ->
             String.length l >= 10 && String.sub l 0 10 = "CHECKPOINT")
           res_b.Bfs.log);
      checkb "still a full search" true (res_b.Bfs.tested > 1))

let test_resume_with_restored_counters () =
  with_temp_file (fun ck_path ->
      let prog, target = Test_harness.synthetic ~n_ops:6 ~poison:[ 1 ] () in
      ignore prog;
      let h1, t1 = Harness.wrap_target target in
      let ck h =
        Bfs.checkpoint ~resume:true
          ~save_counters:(fun () -> Harness.counters_list h)
          ~restore_counters:(Harness.restore_counters h) ck_path
      in
      let res1 =
        Bfs.search
          ~options:{ Bfs.default_options with checkpoint = Some (ck h1) }
          t1
      in
      let evals1 = (Harness.counters h1).Harness.evaluations in
      checkb "first campaign evaluated" true (evals1 > 0);
      checkb "first campaign snapshotted" true (res1.Bfs.snapshots > 0);
      (* a finished campaign's checkpoint has an empty queue: resuming only
         re-runs the final union, and the harness counters continue from
         the restored totals rather than restarting at zero *)
      let h2, t2 = Harness.wrap_target target in
      let res2 =
        Bfs.search
          ~options:{ Bfs.default_options with checkpoint = Some (ck h2) }
          t2
      in
      checki "only the final evaluation is fresh" res1.Bfs.tested res2.Bfs.tested;
      checkb "counters restored across the resume" true
        ((Harness.counters h2).Harness.evaluations >= evals1))

let suite =
  [
    ("node id / resolve roundtrip", `Quick, test_node_id_resolve_roundtrip);
    ("program fingerprint", `Quick, test_program_key_distinguishes_programs);
    ("snapshot roundtrip", `Quick, test_snapshot_roundtrip);
    ("save overwrites atomically", `Quick, test_save_overwrites_atomically);
    ("load rejects garbage", `Quick, test_load_rejects_garbage);
    ("partial temp write never corrupts", `Quick, test_partial_tmp_write_never_corrupts);
    ("kill mid-level, resume from checkpoint", `Quick, test_kill_and_resume_mid_level);
    ( "checkpoint of another program refused",
      `Quick,
      test_checkpoint_from_other_program_refused );
    ("counters restored on resume", `Quick, test_resume_with_restored_counters);
  ]
