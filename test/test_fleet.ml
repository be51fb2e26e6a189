(* Chaos suite for the distributed worker fleet: campaigns sharded over
   in-process workers reach the same final configuration as an inline
   run while the fault injector kills, stalls, garbles and duplicates
   workers mid-batch — and the journal sees no lost or duplicate
   verdicts. Plus direct Fleet-protocol tests for lease/result/heartbeat
   semantics, rejoin delta sync and quarantine. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let contains s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then false
    else String.sub s i n = sub || go (i + 1)
  in
  go 0

(* Same shape as Test_server's synthetic kernel; built from (bench, cls)
   so the worker-side resolve reconstructs an identical program. *)
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

let the_kernel () = synthetic_kernel ~n_ops:5 ~poison:[ 1; 3 ] ()

let default_spec =
  { Wire.bench = "syn"; cls = "W"; shadow = false; priority = 0; eval_steps = None; formats = ""; strategy = "" }

let worker_resolve ~bench ~cls =
  if bench = "syn" && cls = "W" then Ok (the_kernel ())
  else Error (Printf.sprintf "unknown %s.%s" bench cls)

let fast_fleet =
  {
    Fleet.heartbeat_every = 0.1;
    grace = 0.1;
    lease_ttl = 5.0;
    item_deadline = 20.0;
    poll_timeout = 0.1;
    max_batch = 4;
    quarantine_after = 3;
  }

let temp_socket () =
  let path = Filename.temp_file "craft_fleet" ".sock" in
  Sys.remove path;
  path

let wait_done sched id =
  let rec go n =
    if n > 8000 then Alcotest.failf "%s never finished" id;
    match Scheduler.result sched id with
    | Ok r -> r
    | Error _ ->
        Thread.delay 0.005;
        go (n + 1)
  in
  go 0

let with_fleet_stack ?(fleet_opts = fast_fleet) ?sched_opts f =
  let pool = Pool.create ~options:{ Pool.default_options with workers = 2 } () in
  let cache = Compile.create_cache () in
  let store = Store.create () in
  let fleet = Fleet.create ~options:fleet_opts () in
  let sched =
    Scheduler.create ?options:sched_opts ~fleet ~resolve:(fun _ -> Ok (the_kernel ()))
      ~pool ~cache ~store ()
  in
  let path = temp_socket () in
  let srv = Server.start ~fleet ~scheduler:sched (Server.Unix_path path) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Scheduler.shutdown sched ~cancel_running:true ();
      Fleet.stop fleet;
      Pool.shutdown pool)
    (fun () -> f sched store fleet (Server.Unix_path path))

(* Host one worker in a thread; a chaos Kill restarts it from scratch
   (fresh hello, same name) — the in-process analogue of SIGKILL + a
   supervisor respawn. *)
let host_worker ?faults ?chaos ~name ~stop addr =
  Thread.create
    (fun () ->
      let rec go () =
        match
          Worker.run ~name ~capacity:3 ?faults ?chaos ~dial_retries:3 ~stop
            ~resolve:worker_resolve addr
        with
        | (_ : Worker.stats) -> ()
        | exception Chaos.Killed -> go ()
      in
      go ())
    ()

let wait_live fleet n =
  let rec go i =
    if i > 2000 then Alcotest.failf "never saw %d live worker(s)" n;
    if Fleet.live_workers fleet >= n then ()
    else begin
      Thread.delay 0.005;
      go (i + 1)
    end
  in
  go 0

let inline_final () =
  let k = the_kernel () in
  let res = Bfs.search (Kernel.target k) in
  Config.print k.Kernel.program res.Bfs.final

(* Run one campaign over [n] workers (worker [0] optionally chaotic) and
   return (final_text, job_status, fleet_stats). *)
let campaign_over_workers ?chaos_spec ?sched_opts ~workers:n () =
  with_fleet_stack ?sched_opts (fun sched store fleet addr ->
      let stop_flag = Atomic.make false in
      let stop () = Atomic.get stop_flag in
      let chaos = Option.map (fun s -> Chaos.create s) chaos_spec in
      let threads =
        List.init n (fun i ->
            let name = Printf.sprintf "chaos-w%d" i in
            if i = 0 then host_worker ?chaos ~name ~stop addr
            else host_worker ~name ~stop addr)
      in
      wait_live fleet (min n 1);
      let id = Result.get_ok (Scheduler.submit sched default_spec) in
      let status, text, _summary = wait_done sched id in
      Atomic.set stop_flag true;
      List.iter Thread.join threads;
      let s = Store.stats store in
      (* in-flight dedup survived the chaos: every unique key was computed
         exactly once, store-wide *)
      checki "store entries = store misses" s.Store.misses s.Store.entries;
      (text, status, Fleet.stats fleet))

let test_fleet_matches_inline () =
  let inline = inline_final () in
  let text, status, fs = campaign_over_workers ~workers:2 () in
  checkb "fleet final = inline final" true (String.equal text inline);
  checkb "done" true (status.Wire.state = Wire.Done);
  checkb "fleet actually evaluated" true (fs.Fleet.remote > 0);
  checki "accepted results all consumed" fs.Fleet.remote fs.Fleet.accepted

let test_chaos_kill () =
  let inline = inline_final () in
  let chaos_spec =
    { Chaos.seed = 11; rate = 1.0; actions = [ Chaos.Kill ]; limit = 1; stall_for = 0.1 }
  in
  let dir = Filename.temp_file "craft_fleet_state" "" in
  Sys.remove dir;
  let sched_opts = { Scheduler.default_options with state_dir = Some dir } in
  let text, status, fs = campaign_over_workers ~chaos_spec ~sched_opts ~workers:2 () in
  checkb "final matches inline despite kill" true (String.equal text inline);
  checkb "killed lease was requeued" true (fs.Fleet.requeued_leases >= 1);
  (* journal parity: every computed key journaled exactly once — no lost
     verdicts (entries = the job's store misses = unique keys evaluated)
     and no duplicates (keys unique), despite the mid-batch kill *)
  let journal = Filename.concat (Filename.concat dir status.Wire.id) "journal" in
  let entries = Journal.scan ~path:journal in
  let keys = List.map fst entries in
  checki "journal has every computed key" status.Wire.store_misses (List.length entries);
  checki "journal keys unique" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let test_chaos_stall () =
  let inline = inline_final () in
  let chaos_spec =
    { Chaos.seed = 5; rate = 1.0; actions = [ Chaos.Stall ]; limit = 1; stall_for = 0.6 }
  in
  let text, _status, fs = campaign_over_workers ~chaos_spec ~workers:1 () in
  checkb "final matches inline despite stall" true (String.equal text inline);
  checkb "stalled lease was requeued" true (fs.Fleet.requeued_leases >= 1);
  checkb "stale post-stall push was ignored" true (fs.Fleet.ignored >= 1)

let test_chaos_garbage_rejoin () =
  let inline = inline_final () in
  let chaos_spec =
    { Chaos.seed = 3; rate = 1.0; actions = [ Chaos.Garbage ]; limit = 1; stall_for = 0.1 }
  in
  let text, _status, fs = campaign_over_workers ~chaos_spec ~workers:1 () in
  checkb "final matches inline despite garbage" true (String.equal text inline);
  checkb "worker rejoined after the dropped connection" true (fs.Fleet.rejoined >= 1)

let test_chaos_dup () =
  let inline = inline_final () in
  let chaos_spec =
    { Chaos.seed = 7; rate = 1.0; actions = [ Chaos.Dup ]; limit = 99; stall_for = 0.1 }
  in
  let text, _status, fs = campaign_over_workers ~chaos_spec ~workers:1 () in
  checkb "final matches inline despite duplicates" true (String.equal text inline);
  checkb "duplicate deliveries were ignored" true (fs.Fleet.ignored >= 1);
  checki "each accepted result consumed once" fs.Fleet.remote fs.Fleet.accepted

let test_empty_fleet_degrades_to_local () =
  let inline = inline_final () in
  with_fleet_stack (fun sched _store fleet _addr ->
      let id = Result.get_ok (Scheduler.submit sched default_spec) in
      let status, text, _ = wait_done sched id in
      checkb "done with no workers" true (status.Wire.state = Wire.Done);
      checkb "final matches inline" true (String.equal text inline);
      let fs = Fleet.stats fleet in
      checki "nothing went remote" 0 fs.Fleet.remote)

(* anneal's explicit seed pins the whole campaign: the same spec submitted
   twice over the fleet reaches the same final configuration as an inline
   run of the same strategy — the eval path (fleet vs local) is invisible *)
let test_anneal_deterministic_over_fleet () =
  let k = the_kernel () in
  let inline = Strategy.run (Strategy.Anneal 42) (Kernel.target k) in
  let inline_text = Config.print k.Kernel.program inline.Bfs.final in
  checkb "inline anneal passes" true inline.Bfs.final_pass;
  with_fleet_stack (fun sched _store fleet addr ->
      let stop_flag = Atomic.make false in
      let stop () = Atomic.get stop_flag in
      let th = host_worker ~name:"anneal-w0" ~stop addr in
      wait_live fleet 1;
      let spec = { default_spec with Wire.strategy = "anneal:42" } in
      let id1 = Result.get_ok (Scheduler.submit sched spec) in
      let _, text1, _ = wait_done sched id1 in
      let id2 = Result.get_ok (Scheduler.submit sched spec) in
      let _, text2, _ = wait_done sched id2 in
      Atomic.set stop_flag true;
      Thread.join th;
      checkb "fleet run matches inline anneal" true (String.equal text1 inline_text);
      checkb "second fleet run identical" true (String.equal text2 text1))

(* ------------------------------------------------- direct protocol tests *)

let ctx = { Fleet.bench = "syn"; cls = "W"; eval_steps = None; retries = 0 }

(* [Ok (worker_id, negotiated_version, already_done)] *)
let hello ?reconnect fleet name =
  match
    Fleet.handle fleet
      (Wire.Worker_hello { name; wire_version = Wire.version; reconnect; capacity = 4 })
  with
  | Some (Wire.Worker_welcome { worker; wire_version; already_done; _ }) ->
      Ok (worker, wire_version, already_done)
  | Some (Wire.Error_reply why) -> Error why
  | _ -> Alcotest.fail "unexpected hello reply"

let lease fleet worker =
  match Fleet.handle fleet (Wire.Lease_request { worker; capacity = 4 }) with
  | Some (Wire.Lease_reply r) -> Ok r
  | Some (Wire.Error_reply why) -> Error why
  | _ -> Alcotest.fail "unexpected lease reply"

let push fleet worker lease results =
  match Fleet.handle fleet (Wire.Result_push { worker; lease; results }) with
  | Some (Wire.Result_ack { accepted; ignored }) -> (accepted, ignored)
  | _ -> Alcotest.fail "unexpected push reply"

let rec lease_some fleet worker n =
  if n > 200 then Alcotest.fail "no batch leased";
  match lease fleet worker with
  | Ok (Some b) -> b
  | Ok None -> lease_some fleet worker (n + 1)
  | Error why -> Alcotest.failf "lease refused: %s" why

let spawn_eval fleet ~key ?(local = fun () -> Alcotest.fail "unexpected local fallback")
    () =
  let result = ref None in
  let th =
    Thread.create
      (fun () -> result := Some (Fleet.eval fleet ~ctx ~key ~text:("text-" ^ key) local))
      ()
  in
  (th, result)

let pass = Verdict.verdict_to_string Verdict.Pass

let test_protocol_walkthrough () =
  let fleet = Fleet.create ~options:{ fast_fleet with poll_timeout = 0.02 } () in
  Fun.protect ~finally:(fun () -> Fleet.stop fleet) (fun () ->
      let wid, ver, delta = Result.get_ok (hello fleet "alpha") in
      checki "negotiated version" Wire.version ver;
      checkb "fresh hello has no delta" true (delta = []);
      (* empty queue: the long poll comes back empty, not an error *)
      checkb "no work yet" true (Result.get_ok (lease fleet wid) = None);
      let th, result = spawn_eval fleet ~key:"k1" () in
      let b = lease_some fleet wid 0 in
      checkb "batch carries the item" true (b.Wire.items = [ ("k1", "text-k1") ]);
      checkb "batch context" true
        (b.Wire.bench = "syn" && b.Wire.cls = "W" && b.Wire.retries = 0);
      (* a push under a stale/bogus lease is ignored, never recorded *)
      checkb "bogus lease ignored" true (push fleet wid "bogus" [ ("k1", pass) ] = (0, 1));
      (* an unparseable verdict is ignored *)
      checkb "garbled verdict ignored" true
        (push fleet wid b.Wire.lease [ ("k1", "gibberish") ] = (0, 1));
      (* the real delivery is accepted exactly once *)
      checkb "accepted" true (push fleet wid b.Wire.lease [ ("k1", pass) ] = (1, 0));
      checkb "duplicate ignored" true (push fleet wid b.Wire.lease [ ("k1", pass) ] = (0, 1));
      Thread.join th;
      (match !result with
      | Some (Verdict.Pass, `Remote) -> ()
      | Some (_, `Local) -> Alcotest.fail "fell back to local"
      | _ -> Alcotest.fail "eval did not resolve");
      (* the spent lease was auto-released: heartbeating it says abandon *)
      (match
         Fleet.handle fleet
           (Wire.Heartbeat { worker = wid; lease = Some b.Wire.lease; completed = 1 })
       with
      | Some (Wire.Heartbeat_ack { abandon }) -> checkb "stale lease abandoned" true abandon
      | _ -> Alcotest.fail "unexpected heartbeat reply");
      match Fleet.handle fleet (Wire.Goodbye wid) with
      | Some (Wire.Goodbye_ack { requeued }) -> checki "nothing to requeue" 0 requeued
      | _ -> Alcotest.fail "unexpected goodbye reply")

let test_rejoin_delta_sync () =
  let fleet = Fleet.create ~options:{ fast_fleet with poll_timeout = 0.02 } () in
  Fun.protect ~finally:(fun () -> Fleet.stop fleet) (fun () ->
      let wid, _, _ = Result.get_ok (hello fleet "alpha") in
      let th1, r1 = spawn_eval fleet ~key:"k1" () in
      let th2, r2 = spawn_eval fleet ~key:"k2" () in
      (* wait until both items are queued, then lease them as one batch *)
      let rec grab n =
        if n > 200 then Alcotest.fail "never leased both items";
        let b = lease_some fleet wid 0 in
        if List.length b.Wire.items = 2 then b
        else begin
          (* half-batch: release by re-requesting until both are queued *)
          Thread.delay 0.005;
          grab (n + 1)
        end
      in
      let b = grab 0 in
      checkb "k1 resolved" true (push fleet wid b.Wire.lease [ ("k1", pass) ] = (1, 0));
      (* the connection drops — a hint, not a death: the lease survives *)
      Fleet.disconnected fleet wid;
      let wid', _, delta = Result.get_ok (hello ~reconnect:wid fleet "alpha") in
      checkb "same worker id on rejoin" true (wid' = wid);
      checkb "delta sync names the resolved item" true (delta = [ "k1" ]);
      (* the surviving lease still accepts the remaining item *)
      checkb "k2 accepted under the old lease" true
        (push fleet wid b.Wire.lease [ ("k2", pass) ] = (1, 0));
      Thread.join th1;
      Thread.join th2;
      checkb "both evals remote" true
        (match (!r1, !r2) with
        | Some (Verdict.Pass, `Remote), Some (Verdict.Pass, `Remote) -> true
        | _ -> false);
      let fs = Fleet.stats fleet in
      checki "one rejoin" 1 fs.Fleet.rejoined)

let test_quarantine_after_repeated_deaths () =
  let fleet =
    Fleet.create
      ~options:{ fast_fleet with poll_timeout = 0.02; quarantine_after = 2; item_deadline = 10.0 }
      ()
  in
  Fun.protect ~finally:(fun () -> Fleet.stop fleet) (fun () ->
      let local_runs = ref 0 in
      let th, result =
        spawn_eval fleet ~key:"k1"
          ~local:(fun () ->
            incr local_runs;
            Verdict.Pass)
          ()
      in
      (* incarnation 1 leases and dies (restart = fresh hello, same name) *)
      let w1, _, _ = Result.get_ok (hello fleet "crashy") in
      let (_ : Wire.batch) = lease_some fleet w1 0 in
      (* incarnation 2: the restart requeues the lease and earns strike 1 *)
      let w2, _, _ = Result.get_ok (hello fleet "crashy") in
      let (_ : Wire.batch) = lease_some fleet w2 0 in
      (* incarnation 3: strike 2 -> quarantined, hello refused *)
      (match hello fleet "crashy" with
      | Error why -> checkb "refusal names quarantine" true (contains why "quarantin")
      | Ok _ -> Alcotest.fail "quarantined worker was welcomed");
      (* with the only worker banned the waiter reclaims and runs locally *)
      Thread.join th;
      checkb "eval fell back to local" true
        (match !result with Some (Verdict.Pass, `Local) -> true | _ -> false);
      checki "local closure ran once" 1 !local_runs;
      let fs = Fleet.stats fleet in
      checkb "quarantine recorded" true (fs.Fleet.quarantined = [ "crashy" ]);
      (* leases and heartbeats from the banned worker are refused/abandoned *)
      checkb "lease refused" true (Result.is_error (lease fleet w2));
      match
        Fleet.handle fleet (Wire.Heartbeat { worker = w2; lease = None; completed = 0 })
      with
      | Some (Wire.Heartbeat_ack { abandon }) -> checkb "heartbeat abandons" true abandon
      | _ -> Alcotest.fail "unexpected heartbeat reply")

(* A worker fed a config text whose flag column carries an unknown format
   token refuses it with a typed parse error: the item is counted as
   skipped (never a fabricated verdict), the connection survives, and the
   same worker keeps evaluating well-formed items. The unserved hostile
   item falls back to the waiter's local closure at the item deadline. *)
let test_worker_skips_unknown_format () =
  with_fleet_stack
    ~fleet_opts:{ fast_fleet with poll_timeout = 0.02; lease_ttl = 0.3; item_deadline = 1.0 }
    (fun _sched _store fleet addr ->
      let stop_flag = Atomic.make false in
      let wstats = ref None in
      let th =
        Thread.create
          (fun () ->
            wstats :=
              Some
                (Worker.run ~name:"strict" ~capacity:2 ~dial_retries:3
                   ~stop:(fun () -> Atomic.get stop_flag)
                   ~resolve:worker_resolve addr))
          ()
      in
      wait_live fleet 1;
      let program = (the_kernel ()).Kernel.program in
      let local_runs = ref 0 in
      let verdict, how =
        Fleet.eval fleet ~ctx ~key:"hostile" ~text:"e9m9 MODULE: syn" (fun () ->
            incr local_runs;
            Verdict.Pass)
      in
      checkb "hostile item fell back to local" true
        (how = `Local && verdict = Verdict.Pass);
      checki "local fallback ran once" 1 !local_runs;
      (* the same connection still serves well-formed work *)
      let verdict2, how2 =
        Fleet.eval fleet ~ctx ~key:"good"
          ~text:(Config.print program Config.empty)
          (fun () -> Alcotest.fail "well-formed item should evaluate remotely")
      in
      checkb "good item evaluated remotely" true
        (how2 = `Remote && verdict2 = Verdict.Pass);
      Atomic.set stop_flag true;
      Thread.join th;
      match !wstats with
      | Some s ->
          checkb "worker counted the refusal as skipped" true (s.Worker.skipped >= 1);
          checkb "worker evaluated the good item" true (s.Worker.evaluated >= 1);
          checki "connection survived (no rejoins)" 0 s.Worker.rejoins
      | None -> Alcotest.fail "worker never returned stats")

(* A worker armed with transient silent corruption forges verification
   failures on every first attempt. The daemon's retry budget reaches the
   worker with the batch, and the campaign recipe extends retries to
   fail-verify whenever an injector is armed, so the forged failures are
   retried away instead of being memoized as verdicts. *)
let test_worker_retries_forged_failures () =
  let inline = inline_final () in
  let faults =
    Faults.create
      { Faults.seed = 7; rate = 1.0; modes = [ Faults.Corrupt ]; transient = true }
  in
  let sched_opts = { Scheduler.default_options with retries = 1 } in
  with_fleet_stack ~sched_opts (fun sched _ fleet addr ->
      let stop_flag = Atomic.make false in
      let th =
        host_worker ~faults ~name:"corrupt-w0" ~stop:(fun () -> Atomic.get stop_flag) addr
      in
      wait_live fleet 1;
      let id = Result.get_ok (Scheduler.submit sched default_spec) in
      let _, text, _ = wait_done sched id in
      Atomic.set stop_flag true;
      Thread.join th;
      checkb "the worker evaluated" true ((Fleet.stats fleet).Fleet.remote > 0);
      checkb "forged failures fired" true (Faults.injected faults > 0);
      checkb "final = fault-free inline final" true (String.equal text inline))

let suite =
  [
    ("fleet: campaign over 2 workers matches inline", `Quick, test_fleet_matches_inline);
    ("fleet: chaos kill mid-batch, identical final + journal parity", `Quick, test_chaos_kill);
    ("fleet: chaos heartbeat stall, identical final", `Quick, test_chaos_stall);
    ("fleet: chaos garbage frame, rejoin, identical final", `Quick, test_chaos_garbage_rejoin);
    ("fleet: chaos duplicate delivery, identical final", `Quick, test_chaos_dup);
    ("fleet: empty fleet degrades to the local pool", `Quick, test_empty_fleet_degrades_to_local);
    ("fleet: anneal seed deterministic over the fleet", `Quick, test_anneal_deterministic_over_fleet);
    ("fleet: lease/result/heartbeat protocol walkthrough", `Quick, test_protocol_walkthrough);
    ("fleet: rejoin with result-store delta sync", `Quick, test_rejoin_delta_sync);
    ("fleet: repeated deaths quarantine the worker", `Quick, test_quarantine_after_repeated_deaths);
    ("fleet: unknown format token skipped, connection survives", `Quick, test_worker_skips_unknown_format);
    ("fleet: worker retries forged verification failures", `Quick,
      test_worker_retries_forged_failures);
  ]
