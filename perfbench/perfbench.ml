(* The campaign benchmark.

   One invocation runs one workload for a given time and writes one
   self-describing result document (JSON) to [--out]. The workloads drive
   the program only through its public entry points:

   - inline-exec, inline-lattice: Kernel.target -> Harness.wrap_target ->
     Strategy.run on a supervised Pool, the path `craft search -j N` takes;
   - served: Scheduler + Server + Client over a Unix socket, with the
     `craft serve` runner, wave, pool and store-log defaults;
   - the traced served run also measures the rest of the durable state dir
     and Worker.run leasing store misses (the fleet), one round each.

   An inline run is a sequence of rounds. Every round starts from scratch
   (kernels built, empty code cache), runs the same seed-generated
   campaign list, and checks every final; rounds repeat until the measured
   time reaches [--seconds]. A served run is a warm-up session that fills
   an empty store, then [daemon_sessions] measured sessions, each a
   process of its own that replays the filled store log and runs the next
   blocks of the seed's campaign stream. Every exact count (evaluations,
   bits saved, verdicts, steps) is the same per spec across rounds,
   sessions and runs of one seed.

   With [--trace] the run first runs untraced rounds for half the time,
   then traced rounds for the other half: spans recorded here, around the
   calls into each layer. The traced rounds must reproduce the untraced
   evaluation counts, verdicts and finals exactly; the gap in campaigns/s
   is the tracing overhead. *)

let now = Unix.gettimeofday

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* ---------------------------------------------------------------- specs *)

type spec = { bench : string; cls : Kernel.class_; strategy : string; formats : string }

let lattice_menu = "bf16,half,single"

let spec_name s =
  Printf.sprintf "%s.%s/%s/%s" s.bench (Kernel.class_name s.cls) s.strategy
    (if s.formats = "" then "single" else s.formats)

let strategy_family s =
  match String.index_opt s ':' with Some i -> String.sub s 0 i | None -> s

let load bench cls =
  match bench with
  | "cg" -> Nas_cg.make cls
  | "mg" -> Nas_mg.make cls
  | "ep" -> Nas_ep.make cls
  | "ft" -> Nas_ft.make cls
  | b -> fail "unknown kernel %s" b

let menu formats =
  if formats = "" then Bfs.default_options.Bfs.formats
  else match Formats.menu_of_string formats with Ok m -> m | Error e -> fail "%s" e

let token strategy =
  match Strategy.of_string strategy with Ok t -> t | Error e -> fail "%s" e

let wire_spec s =
  {
    Wire.bench = s.bench;
    cls = Kernel.class_name s.cls;
    shadow = false;
    priority = 0;
    eval_steps = None;
    formats = s.formats;
    strategy = s.strategy;
  }

type workload = Inline_exec | Inline_lattice | Served

let workloads =
  [ ("inline-exec", Inline_exec); ("inline-lattice", Inline_lattice); ("served", Served) ]

let shuffle rs l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* The campaign list of one round; a pure function of the seed. The daemon
   workloads draw theirs from [daemon_spec] instead, for as long as the
   round lasts. *)
let specs_of ~quick ~seed w =
  let rs = Random.State.make [| seed; 0x0c4a1 |] in
  let anneal = Printf.sprintf "anneal:%d" (1 + Random.State.int rs 99_999) in
  let mk bench cls strategy formats = { bench; cls; strategy; formats } in
  let w3 = [ "cg"; "mg"; "ep" ] and strategies = [ "bfs"; "split"; "delta"; anneal ] in
  match w with
  | Inline_exec ->
      shuffle rs
        (if quick then [ mk "cg" Kernel.W "bfs" ""; mk "ep" Kernel.W "bfs" "" ]
         else List.map (fun b -> mk b Kernel.A "bfs" "") [ "cg"; "mg"; "ep"; "ft" ])
  | Inline_lattice ->
      shuffle rs
        (if quick then
           [ mk "cg" Kernel.W "bfs" lattice_menu; mk "ep" Kernel.W "delta" lattice_menu ]
         else
           List.concat_map
             (fun b -> List.map (fun s -> mk b Kernel.W s lattice_menu) strategies)
             w3)
  | Served ->
      (* every kernel x strategy x menu once *)
      List.concat_map
        (fun b ->
          List.concat_map
            (fun s -> [ mk b Kernel.W s ""; mk b Kernel.W s lattice_menu ])
            strategies)
        w3

(* Measured sessions per untraced served run, each a process of its own;
   see [session] in main. *)
let daemon_sessions = 4

(* Blocks in the fleet round of a traced served run; the first block holds
   the store misses the worker leases. *)
let fleet_blocks = 2

(* The daemon's campaign stream: blocks that each hold every distinct
   spec once, each block in its own seed-drawn order. Campaign [i] is a
   pure function of the seed and [i], and a round stops only at a block
   boundary, so the work of a round is whole blocks. *)
let daemon_spec ~seed choices =
  let k = Array.length choices in
  let blocks = Hashtbl.create 64 in
  fun i ->
    let b = i / k in
    let block =
      match Hashtbl.find_opt blocks b with
      | Some a -> a
      | None ->
          let a = Array.of_list (shuffle (Random.State.make [| seed; 0x0c4a1; b |]) (Array.to_list choices)) in
          Hashtbl.replace blocks b a;
          a
    in
    block.(i mod k)

(* ------------------------------------------------------------- campaigns *)

type row = {
  round : int;
  traced : bool;
  spec : spec;
  mutable ok : bool;  (** ended Done, no client error, final as expected *)
  evals : int;
  mutable bits : int;
  mutable verified : bool;
  wall : float;  (** campaign run time (daemon: the job's own [wall]) *)
  latency : float;  (** submit to final (inline: = [wall]) *)
  latency_own : float;  (** the same in own time *)
  done_raw : float;  (** wall time from the round's start to the final *)
  done_cpu : float;  (** process CPU time from the round's start to the final *)
  done_stolen : float;  (** machine steal from the round's start to the final *)
  final : string;  (** final configuration, exchange text *)
  verdicts : int array;  (** pass, fail, trap, timeout, crash *)
  mutable error : string;
  job : string;
}

let verdict_names = [| "pass"; "fail"; "trap"; "timeout"; "crash" |]

type round = {
  setup_s : float;
  wall_s : float;  (** measured phase *)
  own_s : float;  (** measured phase, own time *)
  cpu_s : float;
  rss_mb : float;  (** peak RSS during the measured phase *)
  steal_s : float;  (** machine-wide steal during the measured phase *)
  rows : row list;
  traced_round : bool;
  counters : (string * float) list;  (** per-round layer counters *)
}

(* Process CPU time (user + system, all threads), read with getrusage at
   microsecond resolution. *)
let cpu () = Sys.time ()

(* Time the hypervisor ran someone else while this machine's CPUs wanted to
   run (the [steal] column of /proc/stat), in seconds summed over CPUs. *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
      let fields = List.filter (( <> ) "") (String.split_on_char ' ' line) in
      (match List.nth_opt fields 8 with Some v -> float_of_string v | None -> 0.0) /. 100.0

let machine_cpus =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 1.0
  | ic ->
      let rec count n =
        match input_line ic with
        | l when String.length l > 3 && String.sub l 0 3 = "cpu" && l.[3] <> ' ' -> count (n + 1)
        | _ -> count n
        | exception End_of_file -> n
      in
      let n = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> count 0) in
      float_of_int (max 1 n)

(* Every interval is timed twice: raw wall time, and "own" time, the wall
   time the program would have taken had the hypervisor not stolen CPU
   time from this machine during it. On a shared VM the raw wall time moves
   with other tenants' load: on the reference box steal was 30-45% of the
   CPU time a round used at times, and raw round times spread 25% between
   runs where own times spread 6%.

   A stolen second costs the program a wall second divided by the number
   of CPUs it kept busy: half a second for the inline workloads, whose
   pool keeps both CPUs busy, but nearly a whole second for the daemon,
   whose work is mostly one domain's. That number is (cpu + steal) / raw:
   the CPU time it wanted, had or had stolen. So own = raw * cpu / (cpu +
   steal), between raw - steal and raw - steal / CPUs. (Dividing by the
   machine's CPUs instead left the served figures with a 10-run spread of
   0.12 where this gives 0.04.) The end-to-end times use own time; raw
   times stay in the result document. *)
type stamp = { at : float; stolen : float; used : float }

let stamp () = { at = now (); stolen = steal_s (); used = cpu () }

let own_of ~raw ~used ~stolen =
  let loss = if used +. stolen > 0.0 then raw *. stolen /. (used +. stolen) else 0.0 in
  Float.max 0.0 (raw -. Float.min stolen (Float.max (stolen /. machine_cpus) loss))

let raw a b = b.at -. a.at
let own a b = own_of ~raw:(raw a b) ~used:(b.used -. a.used) ~stolen:(b.stolen -. a.stolen)

(* Restart the kernel's peak-RSS record, so the peak read after a measured
   phase is the peak of that phase (not of building the references). *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

(* The kernel's own verification of a final configuration, outside every
   timed phase. *)
let verify_final k cfg =
  match Kernel.run_patched ~config:cfg k with
  | out, _ -> k.Kernel.verify out
  | exception _ -> false

(* ------------------------------------------------------------ tracing *)

let emulated (p : Ir.program) =
  let e = function
    | Ir.Fbin (Ir.E _, _, _, _, _)
    | Ir.Fbinp (Ir.E _, _, _, _, _)
    | Ir.Funop (Ir.E _, _, _, _)
    | Ir.Flibm (Ir.E _, _, _, _)
    | Ir.Fcmp (Ir.E _, _, _, _, _)
    | Ir.Fconst (Ir.E _, _, _)
    | Ir.Fcvt_i2f (Ir.E _, _, _)
    | Ir.Fcvt_f2i (Ir.E _, _, _) ->
        true
    | _ -> false
  in
  Array.exists
    (fun f ->
      Array.exists (fun b -> Array.exists (fun i -> e i.Ir.op) b.Ir.instrs) f.Ir.blocks)
    p.Ir.funcs

let exec_name vm = if emulated vm.Vm.prog then "exec.emulated" else "exec"

(* A search target whose [raw_eval] calls the same public functions as
   Bfs.Target.make, in the same order, each inside a span whose parent is
   the evaluation span, itself a child of the campaign span. *)
let traced_target (k : Kernel.t) ~campaign =
  let program = k.Kernel.program in
  let cache = Compile.create_cache () in
  let span = Trace.with_span in
  let raw_eval cfg =
    span ~parent:campaign "eval" (fun ev ->
        let patched = span ~parent:ev "patch" (fun _ -> Patcher.patch program cfg) in
        let vm = span ~parent:ev "vm_create" (fun _ -> Vm.create ~checked:true patched) in
        span ~parent:ev "setup" (fun _ -> k.Kernel.setup vm);
        let name = exec_name vm in
        span ~arg:(fun () -> vm.Vm.steps) ~tag:k.Kernel.name ~parent:ev name (fun _ ->
            Compile.run ~cache vm);
        let out = span ~parent:ev "output" (fun _ -> k.Kernel.output vm) in
        span ~parent:ev "verify" (fun _ -> k.Kernel.verify out))
  in
  let eval cfg =
    match raw_eval cfg with ok -> ok | exception Vm.Trap _ -> false | exception Vm.Limit _ -> false
  in
  let profile () =
    let vm = Vm.create program in
    k.Kernel.setup vm;
    Vm.run vm;
    vm.Vm.counts
  in
  { Bfs.Target.program; eval; raw_eval; profile; code_cache = Some cache }

(* The daemon evaluates inside the scheduler and the worker, out of reach;
   the kernels [resolve] hands them carry spans in their callbacks. An
   evaluation is a [setup] on a checked VM (the profiling run is
   unchecked); execution is the interval between its [setup] and
   [output] on the same thread. *)
let exec_evals = Atomic.make 0
let exec_marks : (int, float * float) Hashtbl.t = Hashtbl.create 16
let exec_lock = Mutex.create ()

let traced_kernel (k : Kernel.t) =
  let tid () = Thread.id (Thread.self ()) in
  let setup vm =
    if not vm.Vm.checked then k.Kernel.setup vm
    else begin
      Atomic.incr exec_evals;
      Trace.with_span ~parent:0 "setup" (fun _ -> k.Kernel.setup vm);
      let mark = (now (), Gc.minor_words ()) in
      Mutex.protect exec_lock (fun () -> Hashtbl.replace exec_marks (tid ()) mark)
    end
  in
  let output vm =
    let t1 = now () and w1 = Gc.minor_words () in
    let mark = Mutex.protect exec_lock (fun () -> Hashtbl.find_opt exec_marks (tid ())) in
    Option.iter
      (fun (t0, w0) ->
        Trace.add ~arg:vm.Vm.steps ~words:(w1 -. w0) ~tag:k.Kernel.name ~parent:0 (exec_name vm)
          t0 t1)
      mark;
    Trace.with_span ~parent:0 "output" (fun _ -> k.Kernel.output vm)
  in
  let verify out = Trace.with_span ~parent:0 "verify" (fun _ -> k.Kernel.verify out) in
  { k with Kernel.setup; output; verify }

(* ------------------------------------------------------ inline workloads *)

let build_kernels specs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem tbl (s.bench, s.cls)) then
        Hashtbl.replace tbl (s.bench, s.cls) (load s.bench s.cls))
    specs;
  tbl

let inline_setup ~nproc specs =
  let t0 = now () in
  let kernels = build_kernels specs in
  let pool = Pool.create ~options:{ Pool.default_options with workers = nproc } () in
  (kernels, pool, now () -. t0)

let counters_of_harness h =
  let c = Harness.counters h in
  Harness.[| c.pass; c.fail_verify; c.trapped; c.timed_out; c.crashed |]

let inline_round ~nproc ~traced ~round specs =
  let kernels, pool, setup_s = inline_setup ~nproc specs in
  let cache_hits = ref 0 and cache_misses = ref 0 in
  reset_peak_rss ();
  let t0 = stamp () in
  let rows =
    List.map
      (fun spec ->
        let k = Hashtbl.find kernels (spec.bench, spec.cls) in
        let campaign = Trace.fresh_id () in
        let c0 = stamp () in
        let target = if traced then traced_target k ~campaign else Kernel.target k in
        let harness, target = Harness.wrap_target target in
        let options =
          {
            Bfs.default_options with
            workers = nproc;
            base = k.Kernel.hints;
            pool = Some pool;
            formats = menu spec.formats;
          }
        in
        let r = Strategy.run ~options (token spec.strategy) target in
        let c1 = stamp () in
        if traced then Trace.add ~id:campaign ~parent:0 "campaign" c0.at c1.at;
        Option.iter
          (fun c ->
            let s = Compile.stats c in
            cache_hits := !cache_hits + s.Code_cache.hits;
            cache_misses := !cache_misses + s.Code_cache.misses)
          target.Bfs.Target.code_cache;
        {
          round;
          traced;
          spec;
          ok = not r.Bfs.interrupted;
          evals = r.Bfs.tested;
          bits = r.Bfs.bits_saved;
          verified = r.Bfs.final_pass;
          wall = raw c0 c1;
          latency = raw c0 c1;
          latency_own = own c0 c1;
          done_raw = raw t0 c1;
          done_cpu = c1.used -. t0.used;
          done_stolen = c1.stolen -. t0.stolen;
          final = Config.print k.Kernel.program r.Bfs.final;
          verdicts = counters_of_harness harness;
          error = (if r.Bfs.interrupted then "campaign interrupted" else "");
          job = "";
        })
      specs
  in
  let t1 = stamp () and rss_mb = peak_rss_mb () in
  Pool.shutdown pool;
  (* the kernels' own verify on each final, untimed; identical finals are
     verified once *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun row ->
      let key = (spec_name row.spec, row.final) in
      row.verified <-
        (match Hashtbl.find_opt seen key with
        | Some v -> v
        | None ->
            let k = Hashtbl.find kernels (row.spec.bench, row.spec.cls) in
            let v =
              match Config.parse k.Kernel.program row.final with
              | Ok cfg -> verify_final k cfg
              | Error _ -> false
            in
            Hashtbl.replace seen key v;
            v))
    rows;
  {
    setup_s;
    wall_s = raw t0 t1;
    own_s = own t0 t1;
    cpu_s = t1.used -. t0.used;
    rss_mb;
    steal_s = t1.stolen -. t0.stolen;
    rows;
    traced_round = traced;
    counters =
      [ ("code_cache.hits", float_of_int !cache_hits);
        ("code_cache.misses", float_of_int !cache_misses) ];
  }

let inline_setup_only ~nproc specs =
  let _, pool, setup_s = inline_setup ~nproc specs in
  Pool.shutdown pool;
  setup_s

(* ------------------------------------------------------ daemon workloads *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec du path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left (fun n e -> n + du (Filename.concat path e)) 0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

type daemon = {
  lock : Lockfile.t;
  pool : Pool.t;
  cache : Compile.cache;
  store : Store.t;
  fleet : Fleet.t;
  sched : Scheduler.t;
  srv : Server.t;
  worker : (Worker.stats Domain.t * bool Atomic.t) option;
  clients : Client.t array;
}

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

let ok_or_fail what = function Ok v -> v | Error e -> fail "%s: %s" what e

(* `craft serve` with its defaults (2 runners, wave width 2, a fleet
   dispatcher, a store log fsynced every 32 fresh records), [nproc] pool
   workers, [nproc] connected clients and, [with_worker], one joined
   worker. [durable] adds the rest of `craft serve`'s state dir: the job
   WAL and each job's journal, checkpoints and result file, every one
   fsynced. Only the traced run's durable round sets it: the measured
   sessions run without, because with them a served round's own time
   followed the host's disk (10-run spreads of 0.23-0.33, against 0.02-0.04
   without; see README.md). *)
let start_daemon ?store_from ?(durable = false) ~nproc ~traced ~with_worker ~dir () =
  rm_rf dir;
  mkdir_p dir;
  let state = Filename.concat dir "state" in
  mkdir_p state;
  (* a daemon started on a filled store log replays it, as `craft serve`
     does from its state dir *)
  Option.iter (fun src -> copy_file src (Filename.concat state "store.log")) store_from;
  let lock = ok_or_fail "lock" (Lockfile.acquire ~dir:state) in
  let pool = Pool.create ~options:{ Pool.default_options with workers = nproc } () in
  let cache = Compile.create_cache () in
  let store = Store.create ~path:(Filename.concat state "store.log") ~fsync_every:32 () in
  let kernel bench cls =
    match cls with
    | "W" | "A" ->
        let k = load bench (if cls = "W" then Kernel.W else Kernel.A) in
        Ok (if traced then traced_kernel k else k)
    | c -> Error ("unknown class " ^ c)
  in
  let resolve (s : Wire.job_spec) = kernel s.Wire.bench s.Wire.cls in
  let fleet = Fleet.create ~options:{ Fleet.default_options with heartbeat_every = 2.0 } () in
  let sched =
    Scheduler.create
      ~options:{ Scheduler.default_options with state_dir = (if durable then Some state else None) }
      ~fleet ~resolve ~pool ~cache ~store ()
  in
  let addr = Server.Unix_path (Filename.concat dir "s.sock") in
  let srv = Server.start ~fleet ~scheduler:sched addr in
  let worker =
    if not with_worker then None
    else begin
      (* its own domain, as a `craft worker` process has its own runtime:
         as a systhread it would hold the daemon domain's runtime lock
         through every evaluation *)
      let stop = Atomic.make false in
      let d =
        Domain.spawn (fun () ->
            Worker.run ~name:"perfbench-worker" ~stop:(fun () -> Atomic.get stop)
              ~resolve:(fun ~bench ~cls -> kernel bench cls)
              addr)
      in
      let deadline = now () +. 30.0 in
      while Fleet.live_workers fleet < 1 do
        if now () > deadline then fail "fleet worker never joined";
        Thread.delay 0.001
      done;
      Some (d, stop)
    end
  in
  let clients = Array.init nproc (fun _ -> ok_or_fail "connect" (Client.connect addr)) in
  { lock; pool; cache; store; fleet; sched; srv; worker; clients }

let stop_daemon d =
  let worker_stats =
    match d.worker with
    | None -> None
    | Some (worker, stop) ->
        Atomic.set stop true;
        (* stopping the dispatcher first ends the worker's lease long-poll
           (up to 1 s) at once *)
        Fleet.stop d.fleet;
        Some (Domain.join worker)
  in
  Array.iter Client.close d.clients;
  Server.stop d.srv;
  Scheduler.shutdown d.sched ();
  Fleet.stop d.fleet;
  Pool.shutdown d.pool;
  Store.close d.store;
  Lockfile.release d.lock;
  worker_stats

let count_verdicts sched job =
  let v = Array.make 5 0 in
  (match Scheduler.events sched ~job ~from:0 with
  | Ok (_, lines, _) ->
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | "EVAL" :: label :: _ -> (
              match label with
              | "pass" -> v.(0) <- v.(0) + 1
              | "fail" -> v.(1) <- v.(1) + 1
              | "trap" -> v.(2) <- v.(2) + 1
              | "timeout" -> v.(3) <- v.(3) + 1
              | _ -> v.(4) <- v.(4) + 1)
          | _ -> ())
        lines
  | Error _ -> ());
  v

let state_name = function
  | Wire.Done -> "done"
  | Wire.Queued -> "queued"
  | Wire.Running -> "running"
  | Wire.Cancelled -> "cancelled"
  | Wire.Failed why -> "failed: " ^ why
  | Wire.Quarantined why -> "quarantined: " ^ why

(* Client-side wire timings of the traced rounds. *)
let submit_us = ref [] and rtt_us = ref []
let wire_lock = Mutex.create ()

(* `craft submit --wait` polls every 50 ms, which rounds every latency up
   to a multiple of 50 ms: p50 read 0.101 s in every run and p90 jumped
   between 0.15 and 0.20 s. The benchmark polls every 5 ms. *)
let wait c id = Client.wait ~poll:0.005 c id

(* One daemon round: a fresh daemon and state dir (with [store_from], its
   store log replayed from a filled one), then [nproc] closed-loop clients
   running campaigns [first] to [first + campaigns - 1] of [spec_at]. Past
   [deadline] (a slow machine) the round stops early, at a block boundary.
   With [keep_store] the round's store log is kept there. *)
let daemon_round ?store_from ?keep_store ?durable ?(first = 0) ~nproc ~traced ~with_worker ~round
    ~dir ~block ~campaigns ~deadline spec_at =
  let t_setup = now () in
  let d = start_daemon ?store_from ?durable ~nproc ~traced ~with_worker ~dir () in
  let setup_s = now () -. t_setup in
  let results = ref [] and lock = Mutex.create () in
  let next = ref first and stop = ref (first + campaigns) in
  reset_peak_rss ();
  let t0 = stamp () in
  let take () =
    Mutex.protect lock (fun () ->
        let i = !next in
        if i >= !stop then None
        else if i > first && (i - first) mod block = 0 && now () > deadline then begin
          stop := i;
          None
        end
        else begin
          incr next;
          Some (i, spec_at i)
        end)
  in
  let client c =
    let rec go () =
      match take () with
      | None -> ()
      | Some (i, s) ->
        let campaign = Trace.fresh_id () in
        let c0 = stamp () in
        let sub =
          if not traced then Client.submit c (wire_spec s)
          else
            Trace.with_span ~parent:campaign "submit" (fun _ ->
                let a = now () in
                let r = Client.submit c (wire_spec s) in
                let us = 1e6 *. (now () -. a) in
                Mutex.protect wire_lock (fun () -> submit_us := us :: !submit_us);
                r)
        in
        let res =
          Result.bind sub (fun id ->
              let w =
                if traced then Trace.with_span ~parent:campaign "wait" (fun _ -> wait c id)
                else wait c id
              in
              Result.map (fun r -> (id, r)) w)
        in
        let c1 = stamp () in
        if traced then begin
          Trace.add ~id:campaign ~parent:0 "campaign" c0.at c1.at;
          let a = now () in
          ignore (Client.stats c);
          let us = 1e6 *. (now () -. a) in
          Mutex.protect wire_lock (fun () -> rtt_us := us :: !rtt_us)
        end;
        Mutex.protect lock (fun () ->
            results :=
              (i, s, res, raw c0 c1, own c0 c1, raw t0 c1, c1.used -. t0.used, c1.stolen -. t0.stolen)
              :: !results);
        go ()
    in
    go ()
  in
  let threads = Array.map (fun c -> Thread.create client c) d.clients in
  Array.iter Thread.join threads;
  let t1 = stamp () and rss_mb = peak_rss_mb () in
  let rows =
    List.map
      (fun (_, s, r, latency, latency_own, done_raw, done_cpu, done_stolen) ->
        let row ?(error = "") ~evals ~wall ~final ~job ok =
          {
            round;
            traced;
            spec = s;
            ok;
            evals;
            bits = 0;
            verified = false;
            wall;
            latency;
            latency_own;
            done_raw;
            done_cpu;
            done_stolen;
            final;
            verdicts = (if job = "" then Array.make 5 0 else count_verdicts d.sched job);
            error;
            job;
          }
        in
        match r with
        | Ok (id, (st, text, _)) ->
            let done_ = st.Wire.state = Wire.Done in
            row
              ~error:(if done_ then "" else "job ended " ^ state_name st.Wire.state)
              ~evals:st.Wire.tested ~wall:st.Wire.wall ~final:text ~job:id done_
        | Error e -> row ~error:("client: " ^ e) ~evals:0 ~wall:0.0 ~final:"" ~job:"" false)
      (List.sort (fun (a, _, _, _, _, _, _, _) (b, _, _, _, _, _, _, _) -> compare a b) !results)
  in
  let ss = Store.stats d.store and fs = Fleet.stats d.fleet and cs = Compile.stats d.cache in
  let ws = stop_daemon d in
  let bytes = du (Filename.concat dir "state") in
  Option.iter (copy_file (Filename.concat (Filename.concat dir "state") "store.log")) keep_store;
  rm_rf dir;
  let f = float_of_int in
  let wv g = match ws with Some w -> f (g w) | None -> 0.0 in
  {
    setup_s;
    wall_s = raw t0 t1;
    own_s = own t0 t1;
    cpu_s = t1.used -. t0.used;
    rss_mb;
    steal_s = t1.stolen -. t0.stolen;
    rows;
    traced_round = traced;
    counters =
      [ ("code_cache.hits", f cs.Code_cache.hits);
        ("code_cache.misses", f cs.Code_cache.misses);
        ("store.hits", f ss.Store.hits);
        ("store.misses", f ss.Store.misses);
        ("store.waits", f ss.Store.waits);
        ("store.entries", f ss.Store.entries);
        ("durable.bytes", f bytes);
        ("fleet.leases", f fs.Fleet.leases);
        ("fleet.requeued_items", f fs.Fleet.requeued_items);
        ("fleet.ignored", f fs.Fleet.ignored);
        ("fleet.remote", f fs.Fleet.remote);
        ("fleet.accepted", f fs.Fleet.accepted);
        ("worker.evaluated", wv (fun w -> w.Worker.evaluated));
        ("worker.batches", wv (fun w -> w.Worker.batches)) ];
  }

let daemon_setup_only ~nproc ~dir =
  let t0 = now () in
  let d = start_daemon ~nproc ~traced:false ~with_worker:false ~dir () in
  let setup_s = now () -. t0 in
  ignore (stop_daemon d);
  rm_rf dir;
  setup_s

(* Inline reference for every distinct daemon spec: Strategy.run of the
   same spec under the scheduler's options (wave width 2, the kernel's
   hints as base, the menu, a pool), computed once, outside every timed
   phase. The specs of one kernel run in their own domain with their own
   pool; their evaluations are memoized on the printed configuration (an
   evaluation is a pure function of kernel and configuration), which only
   saves time. *)
let references specs =
  let distinct = List.sort_uniq compare specs in
  let groups = List.sort_uniq compare (List.map (fun s -> (s.bench, s.cls)) distinct) in
  let group (bench, cls) () =
    let k = load bench cls in
    let pool = Pool.create ~options:{ Pool.default_options with workers = 1 } () in
    let memo = Hashtbl.create 1024 and lock = Mutex.create () in
    let base = Kernel.target k in
    let raw_eval cfg =
      let key = Config.print k.Kernel.program cfg in
      let outcome =
        match Mutex.protect lock (fun () -> Hashtbl.find_opt memo key) with
        | Some o -> o
        | None ->
            let o = match base.Bfs.Target.raw_eval cfg with v -> Ok v | exception e -> Error e in
            Mutex.protect lock (fun () -> Hashtbl.replace memo key o);
            o
      in
      match outcome with Ok v -> v | Error e -> raise e
    in
    let reference s =
      let _, target = Harness.wrap_target { base with Bfs.Target.raw_eval } in
      let options =
        {
          Bfs.default_options with
          workers = Scheduler.default_options.Scheduler.wave_width;
          base = k.Kernel.hints;
          pool = Some pool;
          formats = menu s.formats;
        }
      in
      let r = Strategy.run ~options (token s.strategy) target in
      ( spec_name s,
        ( Config.print k.Kernel.program r.Bfs.final,
          Config.bits_saved k.Kernel.program r.Bfs.final,
          verify_final k r.Bfs.final ) )
    in
    let refs =
      List.map reference (List.filter (fun s -> (s.bench, s.cls) = (bench, cls)) distinct)
    in
    Pool.shutdown pool;
    refs
  in
  let domains = List.map (fun g -> Domain.spawn (group g)) groups in
  let refs = Hashtbl.create 32 in
  List.iter (fun d -> List.iter (fun (n, r) -> Hashtbl.replace refs n r) (Domain.join d)) domains;
  refs

(* -------------------------------------------------------------- metrics *)

let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = truncate pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= Array.length a then a.(i) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0
let fsum f l = sum (List.map f l)
let div a b = if b = 0.0 then 0.0 else a /. b

(* A daemon round cut into consecutive windows of [block] completions:
   each window's own time and CPU time, and its campaigns. The first
   window is the warm-up and is left out: a session's first campaigns
   start its clients and threads, and in a round that starts from an
   empty store they also fill it (every store miss of the round executes
   there), running 4-5x slower than the rest. *)
type window = { w_own : float; w_cpu : float; w_rows : row list }

let windows ~block r =
  let block = max 1 (min block (List.length r.rows)) in
  let sorted = Array.of_list (List.sort (fun a b -> compare a.done_raw b.done_raw) r.rows) in
  let ws =
    List.init (Array.length sorted / block) (fun j ->
        let at, used, stolen =
          if j = 0 then (0.0, 0.0, 0.0)
          else
            let p = sorted.((j * block) - 1) in
            (p.done_raw, p.done_cpu, p.done_stolen)
        in
        let last = sorted.(((j + 1) * block) - 1) in
        let used = last.done_cpu -. used in
        {
          w_own =
            own_of ~raw:(last.done_raw -. at) ~used ~stolen:(last.done_stolen -. stolen);
          w_cpu = used;
          w_rows = Array.to_list (Array.sub sorted (j * block) block);
        })
  in
  match ws with _ :: (_ :: _ as measured) -> measured | ws -> ws

let end_to_end ~daemon ~block ~setups rounds =
  let rows = List.concat_map (fun r -> r.rows) rounds in
  let n = float_of_int (List.length rows) in
  (* the units rates are taken over: inline rounds, or the windows of a
     daemon round; rates per unit, then their median, so one slow unit
     does not move it *)
  let units =
    if daemon then List.concat_map (windows ~block) rounds
    else List.map (fun r -> { w_own = r.own_s; w_cpu = r.cpu_s; w_rows = r.rows }) rounds
  in
  let per_unit f = median (List.map f units) in
  let campaigns u = float_of_int (List.length u.w_rows) in
  let evals u = fsum (fun row -> float_of_int row.evals) u.w_rows in
  let p50, p90 =
    if daemon then
      (* over every campaign of the windows kept: 100+ per run, so that
         10+ lie beyond the p90 *)
      let latencies = List.concat_map (fun u -> List.map (fun r -> r.latency_own) u.w_rows) units in
      (quantile 0.5 latencies, quantile 0.9 latencies)
    else
      (* inline campaigns run one at a time and differ 2-5x by kernel, so
         a percentile over them jumps between kernels from seed to seed;
         here both carry a round's mean campaign time (median and 90th
         percentile over the run's rounds) *)
      let means = List.map (fun u -> div u.w_own (campaigns u)) units in
      (quantile 0.5 means, quantile 0.9 means)
  in
  let count p = float_of_int (List.length (List.filter p rows)) in
  [ ("setup_s", median setups);
    ("campaigns_per_s", per_unit (fun u -> div (campaigns u) u.w_own));
    ("evals_per_s", per_unit (fun u -> div (evals u) u.w_own));
    ("campaign_p50_s", p50);
    ("campaign_p90_s", p90);
    ("cpu_s_per_campaign", per_unit (fun u -> div u.w_cpu (campaigns u)));
    (* inline: the first round's, as later rounds start on the heap earlier
       rounds grew, so their peaks rise with the number of rounds a run
       fits; served: the median over its sessions, each a process *)
    ("peak_rss_mb", if daemon then median (List.map (fun r -> r.rss_mb) rounds) else (List.hd rounds).rss_mb);
    ("evals_per_campaign", div (fsum (fun r -> float_of_int r.evals) rows) n);
    ("bits_saved_per_campaign", div (fsum (fun r -> float_of_int r.bits) rows) n);
    ("finals_verified", div (count (fun r -> r.verified)) n);
    ("completed_ratio", div (count (fun r -> r.ok)) n) ]

let per_layer ~nproc ~daemon ~block ~untraced ~traced ~durable ~fleet spans =
  let nrounds = float_of_int (List.length traced) in
  let rows = List.concat_map (fun r -> r.rows) traced in
  let counter_of rounds name =
    fsum (fun r -> Option.value ~default:0.0 (List.assoc_opt name r.counters)) rounds
  in
  let counter = counter_of traced in
  (* the durable and fleet layers' figures come from the served run's
     durable and fleet rounds *)
  let fleet = counter_of (Option.to_list fleet) in
  let durable_bytes_per_eval, durable_ms_per_campaign =
    match (durable, untraced) with
    | Some d, u :: _ ->
        let per_campaign r = div r.own_s (float_of_int (List.length r.rows)) in
        ( div (counter_of [ d ] "durable.bytes") (fsum (fun r -> float_of_int r.evals) d.rows),
          1e3 *. (per_campaign d -. per_campaign u) )
    | _ -> (0.0, 0.0)
  in
  let per_round name = div (counter name) nrounds in
  let named n = List.filter (fun s -> s.Trace.name = n) spans in
  let dur l = fsum Trace.duration l in
  let words l = fsum (fun s -> s.Trace.words) l in
  let steps l = fsum (fun s -> float_of_int s.Trace.arg) l in
  let exec32 = named "exec" and exec_em = named "exec.emulated" in
  let exec = exec32 @ exec_em in
  let evals = named "eval" in
  let campaigns = named "campaign" in
  let n_evals =
    (* inline: evaluation spans; daemon: evaluations the kernels saw *)
    float_of_int (if evals <> [] then List.length evals else Atomic.get exec_evals)
  in
  let eval_ms = List.map (fun s -> 1e3 *. Trace.duration s) (if evals <> [] then evals else exec) in
  let cps rounds =
    (* the daemon's: the median over the warm windows, as campaigns_per_s *)
    if daemon then
      median
        (List.map
           (fun w -> div (float_of_int (List.length w.w_rows)) w.w_own)
           (List.concat_map (windows ~block) rounds))
    else
      div (float_of_int (List.length (List.concat_map (fun r -> r.rows) rounds)))
        (fsum (fun r -> r.own_s) rounds)
  in
  let campaign_wall = dur campaigns in
  let covered_by_evals =
    let by_campaign = Hashtbl.create 64 in
    List.iter (fun s -> Hashtbl.add by_campaign s.Trace.parent (s.Trace.t0, s.Trace.t1)) evals;
    fsum
      (fun c ->
        Trace.covered ~lo:c.Trace.t0 ~hi:c.Trace.t1 (Hashtbl.find_all by_campaign c.Trace.id))
      campaigns
  in
  let strat name =
    let rs = List.filter (fun r -> strategy_family r.spec.strategy = name) rows in
    div (fsum (fun r -> float_of_int r.evals) rs) (float_of_int (List.length rs))
  in
  let verdict i = div (fsum (fun r -> float_of_int r.verdicts.(i)) rows) nrounds in
  let jobs = List.filter (fun r -> r.job <> "") rows in
  let store_lookups = counter "store.hits" +. counter "store.misses" in
  [ ("exec.busy_s", div (dur exec) nrounds);
    ("exec.steps", div (steps exec) nrounds);
    ("exec.ns_per_step", 1e9 *. div (dur exec32) (steps exec32));
    ("exec.ns_per_step.emulated", 1e9 *. div (dur exec_em) (steps exec_em));
    ("exec.minor_words_per_step", div (words exec) (steps exec));
    ("exec.share_of_eval", div (dur exec) (dur evals));
    ("code_cache.hit_ratio",
      div (counter "code_cache.hits") (counter "code_cache.hits" +. counter "code_cache.misses"));
    ("code_cache.blocks_compiled", per_round "code_cache.misses");
    ("vm_create.us_per_eval", 1e6 *. div (dur (named "vm_create") +. dur (named "setup")) n_evals);
    ("vm_create.minor_words_per_eval",
      div (words (named "vm_create") +. words (named "setup")) n_evals);
    ("patch.us_per_eval", 1e6 *. div (dur (named "patch")) n_evals);
    ("patch.minor_words_per_eval", div (words (named "patch")) n_evals);
    ("verify.us_per_eval", 1e6 *. div (dur (named "output") +. dur (named "verify")) n_evals);
    ("verify.minor_words_per_eval", div (words (named "output") +. words (named "verify")) n_evals);
    ("eval.count", div n_evals nrounds);
    ("eval.ms_p50", quantile 0.5 eval_ms);
    ("eval.ms_p90", quantile 0.9 eval_ms);
    ("harness.pass", verdict 0);
    ("harness.fail", verdict 1);
    ("harness.trap", verdict 2);
    ("harness.timeout", verdict 3);
    ("harness.crash", verdict 4);
    (* the daemon's evaluations have no spans of their own (see
       traced_kernel), so the two driver figures exist inline only *)
    ("pool.busy_ratio", div (dur evals) (campaign_wall *. float_of_int nproc));
    ("search.self_s", if evals = [] then 0.0 else div (campaign_wall -. covered_by_evals) nrounds);
    ("strategy.bfs.evals_per_campaign", strat "bfs");
    ("strategy.split.evals_per_campaign", strat "split");
    ("strategy.delta.evals_per_campaign", strat "delta");
    ("strategy.anneal.evals_per_campaign", strat "anneal");
    ("store.hit_ratio", div (counter "store.hits") store_lookups);
    ("store.waits", per_round "store.waits");
    ("store.entries", per_round "store.entries");
    ("store.misses", per_round "store.misses");
    ("served.exec_evals", div (float_of_int (Atomic.get exec_evals)) nrounds);
    ("sched.queue_wait_p50_s", median (List.map (fun r -> r.latency -. r.wall) jobs));
    ("sched.run_p50_s", median (List.map (fun r -> r.wall) jobs));
    ("wire.submit_us_p50", median !submit_us);
    ("wire.rtt_us_p50", median !rtt_us);
    ("durable.bytes_per_eval", durable_bytes_per_eval);
    ("durable.ms_per_campaign", durable_ms_per_campaign);
    ("fleet.leases", fleet "fleet.leases");
    ("fleet.items_per_lease", div (fleet "fleet.accepted") (fleet "fleet.leases"));
    ("fleet.remote_ratio", div (fleet "fleet.remote") (fleet "store.misses"));
    ("fleet.requeued_items", fleet "fleet.requeued_items");
    ("fleet.ignored", fleet "fleet.ignored");
    ("worker.evaluated", fleet "worker.evaluated");
    ("worker.batches", fleet "worker.batches");
    ("trace.overhead_ratio", 1.0 -. div (cps traced) (cps untraced)) ]

(* Execution per kernel and format class: the figures the aggregate
   exec.* metrics are made of. *)
let exec_by_kernel spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.Trace.name = "exec" || s.Trace.name = "exec.emulated" then begin
        let key = (s.Trace.tag, s.Trace.name) in
        let n, t, st, w = Option.value ~default:(0, 0.0, 0.0, 0.0) (Hashtbl.find_opt tbl key) in
        Hashtbl.replace tbl key
          (n + 1, t +. Trace.duration s, st +. float_of_int s.Trace.arg, w +. s.Trace.words)
      end)
    spans;
  List.map
    (fun ((kernel, name), (n, t, st, w)) ->
      ( kernel ^ " " ^ name,
        [ ("evals", float_of_int n);
          ("ns_per_step", 1e9 *. div t st);
          ("minor_words_per_step", div w st);
          ("steps_per_eval", div st (float_of_int n)) ] ))
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []))

(* --------------------------------------------------------------- checks *)

(* Every campaign's output. A daemon final must equal the inline reference
   of its spec byte for byte; every repeat of a spec (later rounds, traced
   rounds) must reproduce the first one's evaluation count, verdicts and
   final. A campaign that fails a check counts as failed. *)
let check ~refs rounds =
  let first = Hashtbl.create 32 in
  let errors = ref [] in
  let flag row why =
    row.ok <- false;
    if row.error = "" then row.error <- why;
    errors :=
      Printf.sprintf "round %d %s: %s" row.round (spec_name row.spec) row.error :: !errors
  in
  List.iter
    (fun round ->
      List.iter
        (fun row ->
          let name = spec_name row.spec in
          if row.error <> "" then flag row row.error
          else begin
            (match refs with
            | None -> ()
            | Some refs ->
                let text, bits, verified = Hashtbl.find refs name in
                if String.equal row.final text then begin
                  row.bits <- bits;
                  row.verified <- verified
                end
                else flag row "final differs from the inline reference");
            match Hashtbl.find_opt first name with
            | None -> Hashtbl.replace first name row
            | Some r0 ->
                if r0.evals <> row.evals then
                  flag row (Printf.sprintf "%d evaluations, first run had %d" row.evals r0.evals)
                else if r0.verdicts <> row.verdicts then flag row "verdict counts differ from the first run"
                else if not (String.equal r0.final row.final) then
                  flag row "final differs from the first run"
          end)
        round.rows)
    rounds;
  List.rev !errors

(* ---------------------------------------------------------------- output *)

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"
let json_string s = Printf.sprintf "%S" s

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_list items = "[" ^ String.concat ",\n  " items ^ "]"
let json_metrics l = json_obj (List.map (fun (k, v) -> (k, json_float v)) l)

let row_json r =
  json_obj
    [ ("round", string_of_int r.round);
      ("traced", string_of_bool r.traced);
      ("spec", json_string (spec_name r.spec));
      ("ok", string_of_bool r.ok);
      ("evals", string_of_int r.evals);
      ("bits_saved", string_of_int r.bits);
      ("verified", string_of_bool r.verified);
      ("wall_s", json_float r.wall);
      ("latency_s", json_float r.latency);
      ("latency_own_s", json_float r.latency_own);
      ("done_raw_s", json_float r.done_raw);
      ("done_cpu_s", json_float r.done_cpu);
      ("done_stolen_s", json_float r.done_stolen);
      ("verdicts",
        json_obj (Array.to_list (Array.mapi (fun i n -> (verdict_names.(i), string_of_int n)) r.verdicts)));
      ("final_digest", json_string (Digest.to_hex (Digest.string r.final)));
      ("error", json_string r.error) ]

(* The counts that must repeat exactly for a seed, per round. *)
let exact_json rows =
  let first = Hashtbl.create 32 in
  List.iter
    (fun r -> if not (Hashtbl.mem first (spec_name r.spec)) then Hashtbl.replace first (spec_name r.spec) r)
    rows;
  let names = List.sort_uniq compare (Hashtbl.fold (fun k _ acc -> k :: acc) first []) in
  json_obj
    (List.map
       (fun name ->
         let r = Hashtbl.find first name in
         ( name,
           json_obj
             [ ("evals", string_of_int r.evals);
               ("bits_saved", string_of_int r.bits);
               ("verified", string_of_bool r.verified);
               ("verdicts", json_list (Array.to_list (Array.map string_of_int r.verdicts)));
               ("final_digest", json_string (Digest.to_hex (Digest.string r.final))) ] ))
       names)

(* ------------------------------------------------------------------ main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let quick = ref false and out = ref "" and workdir = ref ".perfbench" and spans_out = ref "" in
  let session_out = ref "" and fill_out = ref "" and store_from = ref "" and first = ref 0 in
  let deadline = ref 0.0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME inline-exec | inline-lattice | served");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--quick", Arg.Set quick, " tiny rounds (self-check)");
      ("--out", Arg.Set_string out, "FILE result document");
      ("--spans", Arg.Set_string spans_out, "FILE span dump of the traced rounds");
      ("--workdir", Arg.Set_string workdir, "DIR scratch space for daemon state dirs");
      ("--session", Arg.Set_string session_out, "FILE run one served session, write it to FILE");
      ("--fill", Arg.Set_string fill_out, "FILE the session is the warm-up; keep its store log");
      ("--store-from", Arg.Set_string store_from, "FILE replay this store log first");
      ("--first", Arg.Set_int first, "N the session's first campaign");
      ("--deadline", Arg.Set_float deadline, "T the session stops early past this time") ]
    (fun a -> fail "unexpected argument %s" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 --out FILE";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> fail "unknown workload %S" !workload
  in
  if !out = "" && !session_out = "" then fail "--out is required";
  let traced_run = !trace = 1 in
  let nproc = Domain.recommended_domain_count () in
  let daemon = w = Served in
  let specs = specs_of ~quick:!quick ~seed:!seed w in
  let block = List.length specs in
  let dir = Filename.concat !workdir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  (* a slow machine stops early rather than overrun the caller's limit;
     a served session gets its run's deadline *)
  if !deadline = 0.0 then deadline := now () +. Float.max 60.0 (4.0 *. !seconds);
  let stream = daemon_spec ~seed:!seed (Array.of_list specs) in
  let daemon_round ?(with_worker = false) ?store_from ?keep_store ?durable ?first ~traced ~blocks i =
    (* a quick round: the stream's first 6 campaigns *)
    let campaigns, first = if !quick then (6, None) else (blocks * block, first) in
    daemon_round ?store_from ?keep_store ?durable ?first ~nproc ~traced ~with_worker ~round:i ~dir
      ~block ~campaigns ~deadline:!deadline stream
  in
  (* measured blocks per served session: three per second of the
     session's share of [--seconds], about 0.33 s each on the reference
     box; the traced run's rounds are a warm-up block and one block per 4 s *)
  let session_blocks = max 2 (truncate (3.0 *. !seconds /. float_of_int daemon_sessions)) in
  let traced_blocks = 1 + max 1 (truncate (!seconds /. 4.0)) in
  if !session_out <> "" then begin
    let r =
      if !fill_out <> "" then daemon_round ~keep_store:!fill_out ~traced:false ~blocks:1 0
      else
        daemon_round ~store_from:!store_from ~first:!first ~traced:false ~blocks:session_blocks 0
    in
    Out_channel.with_open_bin !session_out (fun oc -> Marshal.to_channel oc r []);
    rm_rf dir;
    exit 0
  end;
  (* Each served session runs in a fresh process of its own: a daemon's
     speed in one process settles at a level of its own (and a later round
     in the same process inherits the heap earlier rounds grew), so a run
     takes its windows from several. *)
  let session i extra =
    let file = Filename.concat !workdir (Printf.sprintf "session-%d-%d.bin" (Unix.getpid ()) i) in
    let args =
      [ Sys.executable_name; "--workload"; !workload; "--seed"; string_of_int !seed;
        "--seconds"; Printf.sprintf "%.17g" !seconds; "--workdir"; !workdir; "--session"; file;
        "--deadline"; Printf.sprintf "%.17g" !deadline ]
      @ (if !quick then [ "--quick" ] else [])
      @ extra
    in
    let pid =
      Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
        Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 ->
        let (r : round) = In_channel.with_open_bin file Marshal.from_channel in
        Sys.remove file;
        { r with rows = List.map (fun row -> { row with round = i }) r.rows }
    | _ -> fail "served session %d failed" i
  in
  let inline_round ~traced i = inline_round ~nproc ~traced ~round:i specs in
  let rounds ~seconds ~first f =
    let rec go i acc measured =
      if i > 0 && (measured >= seconds || now () > !deadline) then List.rev acc
      else
        let r = f (first + i) in
        go (i + 1) (r :: acc) (measured +. r.wall_s)
    in
    go 0 [] 0.0
  in
  (* the served run's warm-up: one block, every distinct spec once, from
     an empty store; it fills the store log the measured sessions replay *)
  let fill = ref None in
  let untraced, traced =
    if daemon && traced_run then
      (* in one process, each from an empty store: an untraced round, then
         a traced one *)
      let blocks = traced_blocks in
      ( [ daemon_round ~traced:false ~blocks 0 ],
        [ daemon_round ~traced:true ~first:(blocks * block) ~blocks 1 ] )
    else if daemon then begin
      let store = Filename.concat !workdir (Printf.sprintf "store-%d.log" (Unix.getpid ())) in
      mkdir_p !workdir;
      fill := Some (session 0 [ "--fill"; store ]);
      let measured =
        List.init daemon_sessions (fun i ->
            let first = block * (1 + (i * session_blocks)) in
            session (i + 1) [ "--store-from"; store; "--first"; string_of_int first ])
      in
      Sys.remove store;
      (measured, [])
    end
    else if !quick then
      ([ inline_round ~traced:false 0 ], if traced_run then [ inline_round ~traced:true 1 ] else [])
    else if traced_run then begin
      let u = rounds ~seconds:(!seconds /. 2.0) ~first:0 (inline_round ~traced:false) in
      let t = rounds ~seconds:(!seconds /. 2.0) ~first:(List.length u) (inline_round ~traced:true) in
      (u, t)
    end
    else (rounds ~seconds:!seconds ~first:0 (inline_round ~traced:false), [])
  in
  (* the durable state dir and the fleet: one more round each, untraced.
     The durable round repeats the campaigns of the untraced round with
     the state dir on; the fleet round has a worker joined, leasing the
     store misses of its first block. *)
  let durable, fleet =
    if daemon && traced_run then
      ( Some (daemon_round ~durable:true ~traced:false ~blocks:traced_blocks 2),
        Some (daemon_round ~with_worker:true ~traced:false ~blocks:fleet_blocks 3) )
    else (None, None)
  in
  let setups =
    if daemon then List.init (if !quick then 1 else 25) (fun _ -> daemon_setup_only ~nproc ~dir)
    else
      let samples = List.map (fun r -> r.setup_s) untraced in
      let extra = if !quick then 0 else max 0 (25 - List.length samples) in
      samples @ List.init extra (fun _ -> inline_setup_only ~nproc specs)
  in
  let checked =
    Option.to_list !fill @ untraced @ traced @ Option.to_list durable @ Option.to_list fleet
  in
  (* after the rounds, so that the measured rounds run in a fresh process *)
  let t_refs = now () in
  let refs =
    if daemon then Some (references (List.concat_map (fun r -> List.map (fun row -> row.spec) r.rows) checked))
    else None
  in
  let references_s = now () -. t_refs in
  let errors = check ~refs checked in
  let errors =
    (* with no fleet, every store miss is one evaluation the kernels saw *)
    let misses =
      fsum (fun r -> Option.value ~default:0.0 (List.assoc_opt "store.misses" r.counters)) traced
    in
    if daemon && traced <> [] && float_of_int (Atomic.get exec_evals) <> misses then
      errors
      @ [ Printf.sprintf "served: the kernels saw %d evaluations, the store %.0f misses"
            (Atomic.get exec_evals) misses ]
    else errors
  in
  let all_rows = List.concat_map (fun r -> r.rows) checked in
  let spans = Trace.drain () in
  if !spans_out <> "" && traced <> [] then Trace.write !spans_out spans;
  let metrics =
    if traced_run then per_layer ~nproc ~daemon ~block ~untraced ~traced ~durable ~fleet spans
    else end_to_end ~daemon ~block ~setups untraced
  in
  let failed = List.length (List.filter (fun r -> not r.ok) all_rows) in
  let round_json r =
    json_obj
      [ ("setup_s", json_float r.setup_s);
        ("wall_s", json_float r.wall_s);
        ("own_s", json_float r.own_s);
        ("cpu_s", json_float r.cpu_s);
        ("steal_s", json_float r.steal_s);
        ("rss_mb", json_float r.rss_mb);
        ("traced", string_of_bool r.traced_round);
        ("campaigns", string_of_int (List.length r.rows));
        ("counters", json_metrics r.counters) ]
  in
  let doc =
    json_obj
      [ ("workload", json_string !workload);
        ("seed", string_of_int !seed);
        ("seconds", json_float !seconds);
        ("trace", string_of_int !trace);
        ("quick", string_of_bool !quick);
        ("nproc", string_of_int nproc);
        ("ocaml", json_string Sys.ocaml_version);
        ("references_s", json_float references_s);
        ("attempted", string_of_int (List.length all_rows));
        ("failed", string_of_int failed);
        ("correct", string_of_bool (failed = 0 && errors = []));
        ("errors", json_list (List.map json_string errors));
        ("metrics", json_metrics metrics);
        ("setup_samples", json_list (List.map json_float setups));
        ("exact", exact_json (List.concat_map (fun r -> r.rows) untraced));
        ("exact_traced", exact_json (List.concat_map (fun r -> r.rows) traced));
        ("self_s_by_span",
          json_metrics
            (let tbl = Hashtbl.create 16 in
             List.iter
               (fun (sp, self) ->
                 Hashtbl.replace tbl sp.Trace.name
                   (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl sp.Trace.name)))
               (Trace.self_times spans);
             List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])));
        ("exec_by_kernel",
          json_obj (List.map (fun (k, m) -> (k, json_metrics m)) (exec_by_kernel spans)));
        ("rounds", json_list (List.map round_json (untraced @ traced)));
        ("fill_round", match !fill with Some r -> round_json r | None -> "null");
        ("durable_round", match durable with Some r -> round_json r | None -> "null");
        ("fleet_round", match fleet with Some r -> round_json r | None -> "null");
        ("campaigns", json_list (List.map row_json all_rows)) ]
  in
  let oc = open_out !out in
  output_string oc doc;
  output_char oc '\n';
  close_out oc;
  rm_rf dir
