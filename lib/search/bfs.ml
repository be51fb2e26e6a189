exception Aborted

module Target = struct
  type t = {
    program : Ir.program;
    eval : Config.t -> bool;
    raw_eval : Config.t -> bool;
    profile : unit -> int array;
    code_cache : Compile.cache option;
  }

  let make ?eval_steps ?faults ?(backend = Compile.Compiled) ?cache program ~setup ~output
      ~verify =
    let code_cache =
      match backend with
      | Compile.Compiled ->
          (* a caller-supplied cache is shared beyond this target — the
             campaign server hands every job on the same program one cache *)
          Some (match cache with Some c -> c | None -> Compile.create_cache ())
      | Compile.Interp -> None
    in
    let raw_eval cfg =
      (* the paper's §2.5 optimization: checks whose outcome the static
         data-flow analysis knows collapse or vanish, same semantics *)
      let patched = Patcher.patch ~dataflow:true program cfg in
      let vm = Vm.create ~checked:true ?max_steps:eval_steps patched in
      setup vm;
      (match (faults, code_cache) with
      | Some inj, _ ->
          (* the fault injector owns the run: its hook must see every
             instruction, so the evaluation always interprets *)
          let key = Config.digest program cfg in
          Faults.arm inj ~key vm;
          Vm.run vm;
          Faults.finish inj ~key vm
      | None, Some cache ->
          (* any hook installed by [setup] (shadow tracer, test probe)
             makes Compile.run fall back to the interpreter by itself *)
          Compile.run ~cache vm
      | None, None -> Vm.run vm);
      verify (output vm)
    in
    let eval cfg =
      match raw_eval cfg with
      | ok -> ok
      | exception Vm.Trap _ -> false
      | exception Vm.Limit _ -> false
    in
    let profile () =
      let vm = Vm.create program in
      setup vm;
      Vm.run vm;
      vm.counts
    in
    { program; eval; raw_eval; profile; code_cache }
end

type granularity = Module_level | Func_level | Block_level | Insn_level

type checkpoint_opts = {
  path : string;
  resume : bool;
  save_counters : unit -> (string * int) list;
  restore_counters : (string * int) list -> unit;
}

let checkpoint ?(resume = false) ?(save_counters = fun () -> []) ?(restore_counters = ignore)
    path =
  { path; resume; save_counters; restore_counters }

type shadow_opts = {
  report : Shadow_report.t;
  prune_above : float option;
  on_pruned : Config.t -> float -> unit;
}

let shadow ?prune_above ?(on_pruned = fun _ _ -> ()) report = { report; prune_above; on_pruned }

type options = {
  stop_at : granularity;
  binary_split : bool;
  prioritize : bool;
  workers : int;
  second_phase : bool;
  base : Config.t;
  pool : Pool.t option;
  checkpoint : checkpoint_opts option;
  shadow : shadow_opts option;
  formats : Formats.t list;
  stop : unit -> bool;
}

let default_options =
  {
    stop_at = Insn_level;
    binary_split = true;
    prioritize = true;
    workers = 1;
    second_phase = false;
    base = Config.empty;
    pool = None;
    checkpoint = None;
    shadow = None;
    formats = [ Formats.single ];
    stop = (fun () -> false);
  }

(* binary splitting partitions an aggregate with more children than this *)
let split_threshold = 4

type result = {
  final : Config.t;
  final_pass : bool;
  candidates : int;
  tested : int;
  static_replaced : int;
  static_pct : float;
  dynamic_pct : float;
  passing_nodes : Static.node list;
  passing_flags : (Static.node * Config.flag) list;
  bits_saved : int;
  log : string list;
  supervisor : Pool.stats option;
  snapshots : int;
  pruned : int;
  interrupted : bool;
}

let rank = function Module_level -> 0 | Func_level -> 1 | Block_level -> 2 | Insn_level -> 3

let node_rank = function
  | Static.Module _ -> 0
  | Static.Func _ -> 1
  | Static.Block _ -> 2
  | Static.Insn _ -> 3

let children_of = function
  | Static.Module (_, cs) | Static.Func (_, _, cs) | Static.Block (_, cs) -> cs
  | Static.Insn _ -> []

let force_flag ~base flag cfg node =
  let has_ignored =
    List.exists
      (fun info -> Config.effective base info = Config.Ignore)
      (Static.node_insns node)
  in
  if not has_ignored then Config.set_node cfg node flag
  else
    (* Aggregate flags override children, so setting the aggregate flag
       would clobber the user's ignore hints; expand to instruction level
       instead. *)
    List.fold_left
      (fun acc info ->
        if Config.effective base info = Config.Ignore then acc
        else Config.set_insn acc info.Static.addr flag)
      cfg (Static.node_insns node)

let force_single ~base cfg node = force_flag ~base Config.Single cfg node

let live_insns base node =
  List.filter (fun info -> Config.effective base info <> Config.Ignore) (Static.node_insns node)

let weight_of counts base nodes =
  List.fold_left
    (fun acc n ->
      List.fold_left (fun acc (i : Static.insn_info) -> acc + counts.(i.addr)) acc
        (live_insns base n))
    0 nodes

(* --------------------------------------------------------------- driver *)

type composed = (Static.node * Config.flag) list * Config.t * bool

type ctx = {
  target : Target.t;
  options : options;
  counts : int array;
  universe : Static.insn_info list;
  menu : Formats.t list;
  entry : Formats.t;
  say : 'a. ('a, unit, string, unit) format4 -> 'a;
  eval : Config.t -> Verdict.verdict;
  prune : Config.t -> float -> unit;
  save : unit -> unit;
  compose : (Static.node * Config.flag) list -> composed;
}

module type S = sig
  type state
  type resumed

  val name : string
  val restore : ctx -> Checkpoint.snapshot -> (resumed, string) Stdlib.result
  val init : ctx -> resumed option -> state
  val pending : ctx -> state -> bool
  val propose : ctx -> state -> Config.t list * state
  val consume : ctx -> state -> Verdict.verdict list -> state
  val persist : ctx -> state -> Checkpoint.snapshot -> Checkpoint.snapshot
  val finish : ctx -> state -> interrupted:bool -> composed
end

let drive (module M : S) ?(options = default_options) (target : Target.t) =
  let counts = target.profile () in
  let base = options.base in
  let program = target.program in
  let log = ref [] in
  let say fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  let tested = ref 0 and snapshots = ref 0 and pruned = ref 0 in
  (* The worker pool supervises parallel waves. A caller-supplied pool is
     reused (and left running); otherwise a transient one is staffed for
     this campaign when [workers > 1] asks for parallelism. *)
  let transient_pool =
    match options.pool with
    | None when options.workers > 1 ->
        Some (Pool.create ~options:{ Pool.default_options with workers = options.workers } ())
    | _ -> None
  in
  let pool = match options.pool with Some _ as p -> p | None -> transient_pool in
  let drain_pool () =
    Option.iter (fun p -> List.iter (say "POOL %s") (Pool.drain_events p)) pool
  in
  (* An evaluation must never abort the campaign: any exception escaping
     [target.eval] (a crashing verify routine, OOM, a stack overflow, ...)
     is this one configuration's classified failure, not the search's.
     Only the deliberate [Aborted] control exception passes through — it
     IS the campaign dying (kill simulation / operator interrupt). *)
  let verdict cfg () =
    match target.eval cfg with
    | true -> Verdict.Pass
    | false -> Verdict.Fail_verify
    | exception Aborted -> raise Aborted
    | exception e -> Verdict.classify_exn e
  in
  let eval_wave cfgs =
    tested := !tested + List.length cfgs;
    let thunks = List.map verdict cfgs in
    match pool with None -> List.map (fun f -> f ()) thunks | Some p -> Pool.run p thunks
  in
  let eval cfg = List.hd (eval_wave [ cfg ]) in
  let compose units =
    let final = List.fold_left (fun acc (n, fl) -> force_flag ~base fl acc n) base units in
    let final_pass = eval final = Verdict.Pass in
    say "FINAL union of %d passing structures: %s" (List.length units)
      (if final_pass then "pass" else "fail");
    if final_pass || not options.second_phase then (units, final, final_pass)
    else begin
      (* Greedy composition: add individually-passing structures heaviest
         first, keeping only those that compose into a passing whole. *)
      let weight (n, _) = weight_of counts base [ n ] in
      let kept, final =
        List.fold_left
          (fun (kept, acc) (node, fl) ->
            let trial = force_flag ~base fl acc node in
            if eval trial = Verdict.Pass then begin
              say "COMPOSE keep %s" (Static.node_name node);
              ((node, fl) :: kept, trial)
            end
            else begin
              say "COMPOSE drop %s" (Static.node_name node);
              (kept, acc)
            end)
          ([], base)
          (List.sort (fun a b -> compare (weight b) (weight a)) units)
      in
      (List.rev kept, final, true)
    end
  in
  (* The format lattice. Structural moves run at the [entry] format (the
     widest reduced format on the menu — [single] by default, reproducing
     the pre-lattice search exactly); cheaper formats are tried afterwards.
     [double] on the menu means "not replaced" and never enters the search. *)
  let menu =
    List.filter (fun f -> not (Formats.equal f Formats.double)) options.formats
    |> List.sort_uniq Formats.compare_cost
  in
  let entry = match List.rev menu with f :: _ -> f | [] -> Formats.single in
  let candidates = Array.to_list (Static.candidates program) in
  let still_double = List.filter (fun i -> Config.effective base i = Config.Double) candidates in
  let prune cfg score =
    incr pruned;
    Option.iter (fun s -> s.on_pruned cfg score) options.shadow
  in
  let key = Checkpoint.program_key program in
  let state = ref None in
  let rec ctx =
    {
      target;
      options;
      counts;
      universe = still_double;
      menu = (if menu = [] then [ Formats.single ] else menu);
      entry;
      say;
      eval;
      prune;
      save;
      compose;
    }
  and save () =
    match (options.checkpoint, !state) with
    | Some ck, Some st ->
        Checkpoint.save ~path:ck.path
          (M.persist ctx st
             {
               Checkpoint.key;
               tested = !tested;
               next_seq = 0;
               queue = [];
               passing = [];
               counters = ck.save_counters ();
               log = List.rev !log;
               strategy = M.name;
             });
        incr snapshots
    | _ -> ()
  in
  (* resume validation: the snapshot must load, come from this program and
     from this strategy, and resolve in the machine's own terms *)
  let resumed =
    match options.checkpoint with
    | Some ck when ck.resume -> (
        let refuse why =
          say "CHECKPOINT not resumed: %s" why;
          None
        in
        match Checkpoint.load ~path:ck.path with
        | Error why -> refuse why
        | Ok snap when snap.key <> key ->
            refuse (Printf.sprintf "written by a different program (key %s)" snap.key)
        | Ok snap when snap.strategy <> M.name -> refuse ("written by strategy " ^ snap.strategy)
        | Ok snap -> (
            match M.restore ctx snap with
            | Error why -> refuse why
            | Ok r ->
                log := List.rev snap.log;
                tested := snap.tested;
                ck.restore_counters snap.counters;
                Some r))
    | _ -> None
  in
  let run () =
    (* the stop request is polled only at wave boundaries, so it never cuts
       a wave in half; "interrupted" means work was still pending *)
    let rec loop st =
      state := Some st;
      if not (M.pending ctx st) then (st, false)
      else if options.stop () then (st, true)
      else begin
        let cfgs, st = M.propose ctx st in
        let st = M.consume ctx st (eval_wave cfgs) in
        drain_pool ();
        state := Some st;
        (* snapshots happen only at wave boundaries, where the machine's
           state is exactly the campaign's resumable state *)
        if Option.is_some options.checkpoint then save ();
        loop st
      end
    in
    let st, interrupted = loop (M.init ctx resumed) in
    let passing_flags, final, final_pass = M.finish ctx st ~interrupted in
    (* statistics over the non-ignored candidates; the dynamic denominator
       counts every FP candidate execution, including Ignore-flagged ones:
       ignored work is floating-point work that was not replaced *)
    let replaced info =
      match Config.effective final info with
      | Config.Single | Config.Fmt _ -> true
      | Config.Double | Config.Ignore -> false
    in
    let universe = List.filter (fun i -> Config.effective base i <> Config.Ignore) candidates in
    let n_candidates = List.length universe in
    let static_replaced = List.length (List.filter replaced universe) in
    let dyn_num, dyn_den =
      List.fold_left
        (fun (num, den) (info : Static.insn_info) ->
          let c = counts.(info.addr) in
          ((if replaced info then num + c else num), den + c))
        (0, 0) candidates
    in
    drain_pool ();
    {
      final;
      final_pass;
      candidates = n_candidates;
      tested = !tested;
      static_replaced;
      static_pct = Stats.percent (float_of_int static_replaced) (float_of_int n_candidates);
      dynamic_pct = Stats.percent (float_of_int dyn_num) (float_of_int dyn_den);
      passing_nodes = List.map fst passing_flags;
      passing_flags;
      bits_saved = Config.bits_saved program final;
      log = List.rev !log;
      supervisor = Option.map Pool.stats pool;
      snapshots = !snapshots;
      pruned = !pruned;
      interrupted;
    }
  in
  match transient_pool with
  | None -> run ()
  | Some p -> Fun.protect ~finally:(fun () -> Pool.shutdown p) run

(* --------------------------------------------------------- bfs machine *)

type item = { nodes : Static.node list; weight : int; seq : int; score : float }
(* [score] is the shadow-predicted divergence of flipping exactly these
   nodes to single (infinity when a control-flow flip was observed inside);
   0 when the search runs without shadow guidance *)

module Descent = struct
  let name = "bfs"

  type state = {
    mutable queue : item list;
    mutable inflight : item list;
    mutable passing : (Static.node * Config.flag) list;  (** newest first *)
    mutable last_seq : int;
  }

  type resumed = {
    tested : int;
    items : item list;
    passed : (Static.node * Config.flag) list;
    next_seq : int;
  }

  let live ctx = live_insns ctx.options.base
  let entry_flag ctx = Config.of_format ctx.entry

  let cfg_of ctx nodes =
    let base = ctx.options.base in
    List.fold_left (fun acc n -> force_flag ~base (entry_flag ctx) acc n) base nodes

  (* shadow-predicted divergence of an item's node set: the worst observed
     per-instruction divergence, or infinity when any contained instruction
     flipped a comparison/conversion outcome (its prediction — and that of
     everything data-dependent — is unreliable, so such items are never
     pruned and sort last under reordering) *)
  let score ctx nodes =
    match ctx.options.shadow with
    | None -> 0.0
    | Some s ->
        List.fold_left
          (fun acc n ->
            List.fold_left
              (fun acc (i : Static.insn_info) ->
                if Shadow_report.flips_at s.report i.addr > 0 then infinity
                else Float.max acc (Shadow_report.max_rel_at s.report i.addr))
              acc (live ctx n))
          0.0 nodes

  let mk ctx st nodes =
    st.last_seq <- st.last_seq + 1;
    {
      nodes;
      weight = weight_of ctx.counts ctx.options.base nodes;
      seq = st.last_seq;
      score = score ctx nodes;
    }

  let push st it = if it.nodes <> [] then st.queue <- it :: st.queue

  let halves xs =
    let rec split k = function
      | rest when k = 0 -> ([], rest)
      | [] -> ([], [])
      | x :: rest ->
          let a, b = split (k - 1) rest in
          (x :: a, b)
    in
    split ((List.length xs + 1) / 2) xs

  let descend ctx st it =
    let o = ctx.options in
    match it.nodes with
    | [] -> ()
    | [ node ] ->
        if node_rank node < rank o.stop_at then begin
          let cs = List.filter (fun c -> live ctx c <> []) (children_of node) in
          match cs with
          | [] -> ()
          | _ when o.binary_split && List.length cs > split_threshold ->
              let a, b = halves cs in
              push st (mk ctx st a);
              push st (mk ctx st b)
          | _ -> List.iter (fun c -> push st (mk ctx st [ c ])) cs
        end
    | nodes ->
        (* a failing partition splits in two again *)
        let a, b = halves nodes in
        if o.binary_split && List.length a > 1 then begin
          push st (mk ctx st a);
          push st (mk ctx st b)
        end
        else List.iter (fun n -> push st (mk ctx st [ n ])) nodes

  let restore ctx (snap : Checkpoint.snapshot) =
    let program = ctx.target.program in
    let items =
      List.fold_left
        (fun acc (e : Checkpoint.entry) ->
          Result.bind acc (fun items ->
              Checkpoint.resolve_list Checkpoint.resolve program e.nodes
              |> Result.map (fun nodes ->
                     { nodes; weight = e.weight; seq = e.seq; score = score ctx nodes } :: items)))
        (Ok []) snap.queue
    in
    match (items, Checkpoint.resolve_list Checkpoint.resolve_flagged program snap.passing) with
    | Error why, _ | _, Error why -> Error why
    | Ok items, Ok passed -> Ok { tested = snap.tested; items; passed; next_seq = snap.next_seq }

  (* Shadow seeding: evaluate the predicted configuration once, outside any
     wave. If it passes, its structures enter the passing set immediately
     and only the unpredicted remainder of the tree is queued; if it fails,
     the prediction bought nothing and the search seeds normally. *)
  let shadow_seed ctx st =
    match ctx.options.shadow with
    | Some s -> (
        match List.filter (fun n -> live ctx n <> []) (Shadow_report.predicted_nodes s.report) with
        | [] ->
            ctx.say "SHADOW seed: nothing predicted single";
            false
        | pred -> (
            match ctx.eval (cfg_of ctx pred) with
            | Verdict.Pass ->
                ctx.say "SHADOW seed: predicted configuration passes — %d structure(s) pre-accepted"
                  (List.length pred);
                st.passing <- List.rev_map (fun n -> (n, entry_flag ctx)) pred;
                let module ISet = Set.Make (Int) in
                let pred_addrs =
                  List.fold_left
                    (fun acc n ->
                      List.fold_left
                        (fun acc (i : Static.insn_info) -> ISet.add i.addr acc)
                        acc (live ctx n))
                    ISet.empty pred
                in
                let predicted (i : Static.insn_info) = ISet.mem i.addr pred_addrs in
                (* queue the not-yet-accepted remainder, descending just far
                   enough to carve the predicted structures out *)
                let rec residual node =
                  let insns = live ctx node in
                  if insns = [] || List.for_all predicted insns then []
                  else if List.exists predicted insns then
                    List.concat_map residual (children_of node)
                  else [ node ]
                in
                List.iter
                  (fun m -> List.iter (fun n -> push st (mk ctx st [ n ])) (residual m))
                  (Static.tree ctx.target.program);
                true
            | v ->
                ctx.say "SHADOW seed: predicted configuration %s — seeding normally"
                  (Verdict.verdict_label v);
                false))
    | _ -> false

  let init ctx resumed =
    let st = { queue = []; inflight = []; passing = []; last_seq = 0 } in
    (match resumed with
    | Some r ->
        st.queue <- r.items;
        st.passing <- List.rev r.passed;
        st.last_seq <- r.next_seq;
        ctx.say "RESUME from checkpoint: %d tested, %d queued, %d passing" r.tested
          (List.length r.items) (List.length r.passed)
    | None ->
        (* otherwise one item per module *)
        if not (shadow_seed ctx st) then
          List.iter
            (fun node -> if live ctx node <> [] then push st (mk ctx st [ node ]))
            (Static.tree ctx.target.program));
    st

  let pending _ st = st.queue <> []

  let propose ctx st =
    let cmp a b =
      let by_weight () = match compare b.weight a.weight with 0 -> compare a.seq b.seq | c -> c in
      match ctx.options.shadow with
      | Some _ -> (
          (* most tolerant first: predicted divergence ascending, then the
             profile weight (heavier = more dynamic coverage), then seq *)
          match Float.compare a.score b.score with 0 -> by_weight () | c -> c)
      | None when ctx.options.prioritize -> by_weight ()
      | None -> compare a.seq b.seq
    in
    let rec take k = function
      | x :: rest when k > 0 ->
          let batch, leftover = take (k - 1) rest in
          (x :: batch, leftover)
      | rest -> ([], rest)
    in
    let batch, rest = take (max 1 ctx.options.workers) (List.sort cmp st.queue) in
    st.queue <- rest;
    (* shadow pruning: an item whose predicted divergence exceeds the hard
       bound is treated as a failure without spending an evaluation — the
       skip is journaled as a [Pruned] verdict (never silent) and the item
       still descends, so finer-grained candidates below it are never lost
       (completeness is preserved; only the doomed aggregate evaluation is
       saved). Items containing flips score infinity and are never pruned.
       A wave whose items were all pruned is still a wave. *)
    let batch =
      match ctx.options.shadow with
      | Some { prune_above = Some bound; _ } ->
          List.filter
            (fun it ->
              if Float.is_finite it.score && it.score > bound then begin
                ctx.say "PRUNED %s (predicted divergence %.3e > bound %.3e)"
                  (String.concat " + " (List.map Static.node_name it.nodes))
                  it.score bound;
                ctx.prune (cfg_of ctx it.nodes) it.score;
                descend ctx st it;
                false
              end
              else true)
            batch
      | _ -> batch
    in
    st.inflight <- batch;
    (List.map (fun it -> cfg_of ctx it.nodes) batch, st)

  let consume ctx st verdicts =
    List.iter2
      (fun it verdict ->
        let names = String.concat " + " (List.map Static.node_name it.nodes) in
        match verdict with
        | Verdict.Pass ->
            ctx.say "PASS %s (weight %d)" names it.weight;
            st.passing <- List.map (fun n -> (n, entry_flag ctx)) it.nodes @ st.passing
        | v ->
            ctx.say "%s %s (weight %d)"
              (String.uppercase_ascii (Verdict.verdict_label v))
              names it.weight;
            descend ctx st it)
      st.inflight verdicts;
    st.inflight <- [];
    st

  let persist _ st snap =
    let entry it =
      { Checkpoint.seq = it.seq; weight = it.weight; nodes = List.map Checkpoint.node_id it.nodes }
    in
    {
      snap with
      Checkpoint.next_seq = st.last_seq;
      queue = List.map entry st.queue;
      passing = List.map Checkpoint.flagged_id (List.rev st.passing);
    }

  let finish ctx st ~interrupted =
    if interrupted then
      ctx.say "INTERRUPTED with %d item(s) still queued — composing the partial result"
        (List.length st.queue);
    (* Lattice descent: every structure that passed at the entry format is
       retried at each strictly cheaper format on the menu, cheapest first;
       the first format that still verifies wins and the structure keeps
       that flag in the final union. One structure failing to descend
       costs at most |menu|-1 evaluations and changes nothing else. *)
    let lower = List.filter (fun f -> Formats.compare_cost f ctx.entry < 0) ctx.menu in
    if lower <> [] && not interrupted then
      st.passing <-
        List.map
          (fun (node, flag) ->
            let name = Static.node_name node in
            let rec try_fmts = function
              | [] -> (node, flag)
              | f :: rest -> (
                  let base = ctx.options.base in
                  match ctx.eval (force_flag ~base (Config.of_format f) base node) with
                  | Verdict.Pass ->
                      ctx.say "LATTICE %s descends to %s" name (Formats.name f);
                      (node, Config.of_format f)
                  | v ->
                      ctx.say "LATTICE %s at %s: %s" name (Formats.name f)
                        (Verdict.verdict_label v);
                      try_fmts rest)
            in
            if ctx.options.stop () then (node, flag) else try_fmts lower)
          st.passing;
    (* a final snapshot is flushed either way, before the union: a stop
       request leaves the still-queued frontier on disk, so a later
       --resume continues the campaign instead of restarting it *)
    ctx.save ();
    let passing = List.rev st.passing in
    let _, final, final_pass = ctx.compose passing in
    (passing, final, final_pass)
end

let machine = (module Descent : S)
let search ?options target = drive machine ?options target
