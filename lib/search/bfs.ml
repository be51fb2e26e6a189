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
  every : int;
  resume : bool;
  save_counters : unit -> (string * int) list;
  restore_counters : (string * int) list -> unit;
}

let checkpoint ?(every = 1) ?(resume = false) ?(save_counters = fun () -> [])
    ?(restore_counters = ignore) path =
  { path; every = max 1 every; resume; save_counters; restore_counters }

type shadow_opts = {
  report : Shadow_report.t;
  seed_predicted : bool;
  reorder : bool;
  prune_above : float option;
  on_pruned : Config.t -> float -> unit;
}

let shadow ?(seed_predicted = true) ?(reorder = true) ?prune_above
    ?(on_pruned = fun _ _ -> ()) report =
  { report; seed_predicted; reorder; prune_above; on_pruned }

type options = {
  stop_at : granularity;
  binary_split : bool;
  prioritize : bool;
  split_threshold : int;
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
    split_threshold = 4;
    workers = 1;
    second_phase = false;
    base = Config.empty;
    pool = None;
    checkpoint = None;
    shadow = None;
    formats = [ Formats.single ];
    stop = (fun () -> false);
  }

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

type item = { nodes : Static.node list; weight : int; seq : int; score : float }
(* [score] is the shadow-predicted divergence of flipping exactly these
   nodes to single (infinity when a control-flow flip was observed inside);
   0 when the search runs without shadow guidance *)

let search ?(options = default_options) (target : Target.t) =
  let counts = target.profile () in
  let base = options.base in
  let log = ref [] in
  let say fmt = Format.kasprintf (fun s -> log := s :: !log) fmt in
  (* The format lattice. The structural descent runs entirely at the
     [entry] format (the widest reduced format on the menu — [single] by
     default, reproducing the pre-lattice search exactly); formats cheaper
     than the entry are tried per passing structure afterwards,
     cheapest-first, and the first one that still verifies wins. [double]
     on the menu means "not replaced" and never enters the descent. *)
  let menu =
    List.filter (fun f -> not (Formats.equal f Formats.double)) options.formats
    |> List.sort_uniq Formats.compare_cost
  in
  let entry_fmt = match List.rev menu with f :: _ -> f | [] -> Formats.single in
  let entry_flag = Config.of_format entry_fmt in
  let lower_menu = List.filter (fun f -> Formats.compare_cost f entry_fmt < 0) menu in
  let live_insns node =
    List.filter
      (fun info -> Config.effective base info <> Config.Ignore)
      (Static.node_insns node)
  in
  let weight_of nodes =
    List.fold_left
      (fun acc n ->
        List.fold_left (fun acc (i : Static.insn_info) -> acc + counts.(i.addr)) acc
          (live_insns n))
      0 nodes
  in
  let universe =
    Array.to_list (Static.candidates target.program)
    |> List.filter (fun info -> Config.effective base info <> Config.Ignore)
  in
  let n_candidates = List.length universe in
  (* shadow-predicted divergence of an item's node set: the worst observed
     per-instruction divergence, or infinity when any contained instruction
     flipped a comparison/conversion outcome (its prediction — and that of
     everything data-dependent — is unreliable, so such items are never
     pruned and sort last under reordering) *)
  let shadow_score nodes =
    match options.shadow with
    | None -> 0.0
    | Some s ->
        List.fold_left
          (fun acc n ->
            List.fold_left
              (fun acc (i : Static.insn_info) ->
                if Shadow_report.flips_at s.report i.addr > 0 then infinity
                else Float.max acc (Shadow_report.max_rel_at s.report i.addr))
              acc (live_insns n))
          0.0 nodes
  in
  let shadow_reorder =
    match options.shadow with Some s -> s.reorder | None -> false
  in
  let seq = ref 0 in
  let mk nodes =
    incr seq;
    { nodes; weight = weight_of nodes; seq = !seq; score = shadow_score nodes }
  in
  let queue = ref [] in
  let push it = if it.nodes <> [] then queue := it :: !queue in
  let pop_batch n =
    let cmp a b =
      if shadow_reorder then
        (* most tolerant first: predicted divergence ascending, then the
           profile weight (heavier = more dynamic coverage), then seq *)
        match Float.compare a.score b.score with
        | 0 -> (
            match compare b.weight a.weight with 0 -> compare a.seq b.seq | c -> c)
        | c -> c
      else if options.prioritize then
        match compare b.weight a.weight with 0 -> compare a.seq b.seq | c -> c
      else compare a.seq b.seq
    in
    let sorted = List.sort cmp !queue in
    let rec take k = function
      | [] -> ([], [])
      | x :: rest when k > 0 ->
          let batch, leftover = take (k - 1) rest in
          (x :: batch, leftover)
      | rest -> ([], rest)
    in
    let batch, rest = take n sorted in
    queue := rest;
    batch
  in
  let cfg_of_item it =
    List.fold_left (fun acc n -> force_flag ~base entry_flag acc n) base it.nodes
  in
  let tested = ref 0 in
  let passing = ref [] in
  let snapshots = ref 0 in
  (* An evaluation must never abort the campaign: any exception escaping
     [target.eval] (a crashing verify routine, OOM, a stack overflow, ...)
     is this one configuration's classified failure, not the search's.
     Only the deliberate [Aborted] control exception passes through — it
     IS the campaign dying (kill simulation / operator interrupt). *)
  let eval_verdict cfg =
    match target.eval cfg with
    | true -> Verdict.Pass
    | false -> Verdict.Fail_verify
    | exception Aborted -> raise Aborted
    | exception e -> Verdict.classify_exn e
  in
  let contained_eval cfg = eval_verdict cfg = Verdict.Pass in
  (* The worker pool supervises parallel waves. A caller-supplied pool is
     reused (and left running); otherwise a transient one is staffed for
     this campaign when [workers > 1] asks for parallelism. *)
  let transient_pool =
    match (options.pool, options.workers) with
    | Some _, _ | None, 1 -> None
    | None, w when w <= 1 -> None
    | None, w ->
        Some
          (Pool.create
             ~options:{ Pool.default_options with workers = w }
             ())
  in
  let pool = match options.pool with Some p -> Some p | None -> transient_pool in
  let drain_pool () =
    match pool with
    | None -> ()
    | Some p -> List.iter (fun e -> say "POOL %s" e) (Pool.drain_events p)
  in
  let eval_items items =
    tested := !tested + List.length items;
    match (items, pool) with
    | [ it ], None -> [ (it, eval_verdict (cfg_of_item it)) ]
    | _, None -> List.map (fun it -> (it, eval_verdict (cfg_of_item it))) items
    | _, Some p ->
        let thunks =
          List.map
            (fun it ->
              let cfg = cfg_of_item it in
              fun () -> eval_verdict cfg)
            items
        in
        List.combine items (Pool.run p thunks)
  in
  (* ----------------------------------------------------------- checkpoint *)
  let save_snapshot () =
    match options.checkpoint with
    | None -> ()
    | Some ck ->
        let entry it =
          {
            Checkpoint.seq = it.seq;
            weight = it.weight;
            nodes = List.map Checkpoint.node_id it.nodes;
          }
        in
        Checkpoint.save ~path:ck.path
          {
            Checkpoint.key = Checkpoint.program_key target.program;
            tested = !tested;
            next_seq = !seq;
            queue = List.map entry !queue;
            passing = List.map Checkpoint.flagged_id (List.rev !passing);
            counters = ck.save_counters ();
            log = List.rev !log;
            strategy = "bfs";
          };
        incr snapshots
  in
  let restored =
    match options.checkpoint with
    | Some ck when ck.resume -> (
        match Checkpoint.load ~path:ck.path with
        | Error msg ->
            say "CHECKPOINT not resumed: %s" msg;
            false
        | Ok snap when snap.Checkpoint.key <> Checkpoint.program_key target.program ->
            say "CHECKPOINT not resumed: written by a different program (key %s)"
              snap.Checkpoint.key;
            false
        | Ok snap when snap.Checkpoint.strategy <> "bfs" ->
            say "CHECKPOINT not resumed: written by strategy %s"
              snap.Checkpoint.strategy;
            false
        | Ok snap -> (
            let resolve_with res ids =
              List.fold_left
                (fun acc id ->
                  match acc with
                  | Error _ as e -> e
                  | Ok nodes -> (
                      match res target.program id with
                      | Ok n -> Ok (n :: nodes)
                      | Error _ as e -> e))
                (Ok []) ids
              |> Result.map List.rev
            in
            let resolve_all = resolve_with Checkpoint.resolve in
            let entries =
              List.fold_left
                (fun acc (e : Checkpoint.entry) ->
                  match acc with
                  | Error _ as err -> err
                  | Ok items -> (
                      match resolve_all e.Checkpoint.nodes with
                      | Ok nodes ->
                          Ok
                            ({ nodes; weight = e.weight; seq = e.seq; score = shadow_score nodes }
                            :: items)
                      | Error _ as err -> err))
                (Ok []) snap.Checkpoint.queue
            in
            match (entries, resolve_with Checkpoint.resolve_flagged snap.Checkpoint.passing) with
            | Error msg, _ | _, Error msg ->
                say "CHECKPOINT not resumed: %s" msg;
                false
            | Ok items, Ok passed ->
                log := List.rev snap.Checkpoint.log;
                queue := items;
                passing := List.rev passed;
                tested := snap.Checkpoint.tested;
                seq := snap.Checkpoint.next_seq;
                ck.restore_counters snap.Checkpoint.counters;
                say "RESUME from checkpoint: %d tested, %d queued, %d passing"
                  snap.Checkpoint.tested (List.length items) (List.length passed);
                true))
    | _ -> false
  in
  let pruned = ref 0 in
  let seed_default () =
    (* Seed the queue with one configuration per module. *)
    List.iter
      (fun node -> if live_insns node <> [] then push (mk [ node ]))
      (Static.tree target.program)
  in
  if not restored then begin
    (* Shadow seeding: evaluate the predicted configuration once. If it
       passes, its structures enter the passing set immediately and only
       the unpredicted remainder of the tree is queued; if it fails, the
       prediction bought nothing and the search seeds normally. *)
    let shadow_seeded =
      match options.shadow with
      | Some s when s.seed_predicted -> (
          let pred =
            List.filter (fun n -> live_insns n <> []) (Shadow_report.predicted_nodes s.report)
          in
          match pred with
          | [] ->
              say "SHADOW seed: nothing predicted single";
              false
          | pred -> (
              let cfg =
                List.fold_left (fun acc n -> force_flag ~base entry_flag acc n) base pred
              in
              incr tested;
              match eval_verdict cfg with
              | Verdict.Pass ->
                  say "SHADOW seed: predicted configuration passes — %d structure(s) pre-accepted"
                    (List.length pred);
                  passing := List.rev_map (fun n -> (n, entry_flag)) pred @ !passing;
                  let module ISet = Set.Make (Int) in
                  let pred_addrs =
                    List.fold_left
                      (fun acc n ->
                        List.fold_left
                          (fun acc (i : Static.insn_info) -> ISet.add i.addr acc)
                          acc (live_insns n))
                      ISet.empty pred
                  in
                  (* queue the not-yet-accepted remainder, descending just
                     far enough to carve the predicted structures out *)
                  let rec residual node =
                    let insns = live_insns node in
                    if insns = [] then []
                    else if
                      List.for_all (fun (i : Static.insn_info) -> ISet.mem i.addr pred_addrs) insns
                    then []
                    else if
                      List.exists (fun (i : Static.insn_info) -> ISet.mem i.addr pred_addrs) insns
                    then List.concat_map residual (children_of node)
                    else [ node ]
                  in
                  List.iter
                    (fun m -> List.iter (fun n -> push (mk [ n ])) (residual m))
                    (Static.tree target.program);
                  true
              | v ->
                  say "SHADOW seed: predicted configuration %s — seeding normally"
                    (Verdict.verdict_label v);
                  false))
      | _ -> false
    in
    if not shadow_seeded then seed_default ()
  end;
  let halves xs =
    let n = List.length xs in
    let rec split k = function
      | rest when k = 0 -> ([], rest)
      | [] -> ([], [])
      | x :: rest ->
          let a, b = split (k - 1) rest in
          (x :: a, b)
    in
    split ((n + 1) / 2) xs
  in
  let descend it =
    match it.nodes with
    | [] -> ()
    | [ node ] ->
        if node_rank node < rank options.stop_at then begin
          let cs = List.filter (fun c -> live_insns c <> []) (children_of node) in
          match cs with
          | [] -> ()
          | _ when options.binary_split && List.length cs > options.split_threshold ->
              let a, b = halves cs in
              push (mk a);
              push (mk b)
          | _ -> List.iter (fun c -> push (mk [ c ])) cs
        end
    | nodes ->
        (* a failing partition splits in two again *)
        let a, b = halves nodes in
        if options.binary_split && List.length a > 1 then begin
          push (mk a);
          push (mk b)
        end
        else List.iter (fun n -> push (mk [ n ])) nodes
  in
  let finish ~interrupted () =
    let passing_flags = List.rev !passing in
    let passing_nodes = List.map fst passing_flags in
    let final =
      List.fold_left (fun acc (n, fl) -> force_flag ~base fl acc n) base passing_flags
    in
    incr tested;
    let final_pass = contained_eval final in
    say "FINAL union of %d passing structures: %s" (List.length passing_nodes)
      (if final_pass then "pass" else "fail");
    let final, final_pass =
      if final_pass || not options.second_phase then (final, final_pass)
      else begin
        (* Greedy composition: add individually-passing structures heaviest
           first, keeping only those that compose into a passing whole. *)
        let units =
          List.sort
            (fun (a, _) (b, _) -> compare (weight_of [ b ]) (weight_of [ a ]))
            passing_flags
        in
        let acc = ref base in
        List.iter
          (fun (node, fl) ->
            let trial = force_flag ~base fl !acc node in
            incr tested;
            if contained_eval trial then begin
              acc := trial;
              say "COMPOSE keep %s" (Static.node_name node)
            end
            else say "COMPOSE drop %s" (Static.node_name node))
          units;
        (!acc, true)
      end
    in
    let replaced info =
      match Config.effective final info with
      | Config.Single | Config.Fmt _ -> true
      | Config.Double | Config.Ignore -> false
    in
    let static_replaced = List.length (List.filter replaced universe) in
    (* the dynamic denominator counts every FP candidate execution, including
       Ignore-flagged instructions: ignored work is floating-point work that
       was not replaced *)
    let dyn_num, dyn_den =
      Array.fold_left
        (fun (num, den) (info : Static.insn_info) ->
          let c = counts.(info.addr) in
          ((if replaced info then num + c else num), den + c))
        (0, 0)
        (Static.candidates target.program)
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
      passing_nodes;
      passing_flags;
      bits_saved = Config.bits_saved target.program final;
      log = List.rev !log;
      supervisor = Option.map Pool.stats pool;
      snapshots = !snapshots;
      pruned = !pruned;
      interrupted;
    }
  in
  let run () =
    let wave = ref 0 in
    let stopped () =
      (* polled only at wave boundaries, so a stop request never cuts a
         wave in half: the saved checkpoint is always a consistent state *)
      options.stop () && !queue <> []
    in
    while !queue <> [] && not (options.stop ()) do
      let batch = pop_batch (max 1 options.workers) in
      (* shadow pruning: an item whose predicted divergence exceeds the hard
         bound is treated as a failure without spending an evaluation — the
         skip is journaled as a [Pruned] verdict (never silent) and the item
         still descends, so finer-grained candidates below it are never lost
         (completeness is preserved; only the doomed aggregate evaluation is
         saved). Items containing flips score infinity and are never pruned. *)
      let batch =
        match options.shadow with
        | Some ({ prune_above = Some bound; _ } as s) ->
            List.filter
              (fun it ->
                if Float.is_finite it.score && it.score > bound then begin
                  incr pruned;
                  let names = String.concat " + " (List.map Static.node_name it.nodes) in
                  say "PRUNED %s (predicted divergence %.3e > bound %.3e)" names it.score
                    bound;
                  s.on_pruned (cfg_of_item it) it.score;
                  descend it;
                  false
                end
                else true)
              batch
        | _ -> batch
      in
      let results = eval_items batch in
      List.iter
        (fun (it, verdict) ->
          let names = String.concat " + " (List.map Static.node_name it.nodes) in
          match verdict with
          | Verdict.Pass ->
              say "PASS %s (weight %d)" names it.weight;
              passing := List.map (fun n -> (n, entry_flag)) it.nodes @ !passing
          | v ->
              say "%s %s (weight %d)"
                (String.uppercase_ascii (Verdict.verdict_label v))
                names it.weight;
              descend it)
        results;
      drain_pool ();
      incr wave;
      (* snapshots happen only at wave boundaries: results of the whole wave
         are folded in and the descent is queued, so the saved queue +
         passing set are exactly the campaign's resumable state *)
      (match options.checkpoint with
      | Some ck when !wave mod ck.every = 0 -> save_snapshot ()
      | _ -> ())
    done;
    let interrupted = stopped () in
    if interrupted then
      say "INTERRUPTED with %d item(s) still queued — composing the partial result"
        (List.length !queue);
    (* Lattice descent: every structure that passed at the entry format is
       retried at each strictly cheaper format on the menu, cheapest first;
       the first format that still verifies wins and the structure keeps
       that flag in the final union. One structure failing to descend
       costs at most |menu|-1 evaluations and changes nothing else. *)
    if lower_menu <> [] && not interrupted then
      passing :=
        List.map
          (fun (node, flag) ->
            if options.stop () then (node, flag)
            else begin
              let name = Static.node_name node in
              let rec try_fmts = function
                | [] -> (node, flag)
                | f :: rest -> (
                    let cfg = force_flag ~base (Config.of_format f) base node in
                    incr tested;
                    match eval_verdict cfg with
                    | Verdict.Pass ->
                        say "LATTICE %s descends to %s" name (Formats.name f);
                        (node, Config.of_format f)
                    | v ->
                        say "LATTICE %s at %s: %s" name (Formats.name f)
                          (Verdict.verdict_label v);
                        try_fmts rest)
              in
              try_fmts lower_menu
            end)
          !passing;
    (* a final snapshot is flushed either way: a stop request leaves the
       still-queued frontier on disk, so a later --resume continues the
       campaign instead of restarting it *)
    save_snapshot ();
    finish ~interrupted ()
  in
  match transient_pool with
  | None -> run ()
  | Some p -> Fun.protect ~finally:(fun () -> Pool.shutdown p) run
