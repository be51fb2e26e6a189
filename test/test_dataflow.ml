(* Tests for the static replaced-value reachability analysis (paper §2.5)
   and its use in the patcher. The checked VM acts as a soundness oracle:
   if the analysis ever removed a needed conversion, the optimized patched
   binary would trap or diverge from the unoptimized one. Every search
   evaluation patches through the analysis, so the suite also checks that
   it reaches its fix point and that whole campaigns get the unoptimized
   patch's verdicts, finals and journals. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)) a b

let count_snippet_ops (p : Ir.program) =
  let n = ref 0 in
  Array.iter
    (fun (f : Ir.func) ->
      Array.iter
        (fun (b : Ir.block) ->
          Array.iter (fun (i : Ir.instr) -> if Ir.is_snippet_op i.Ir.op then incr n) b.Ir.instrs)
        f.Ir.blocks)
    p.Ir.funcs;
  !n

let test_all_double_removes_all_checks () =
  (* nothing is ever replaced, so no snippet ops survive at all *)
  let k = Nas_cg.make Kernel.W in
  let plain = Patcher.patch k.Kernel.program Config.empty in
  let opt = Patcher.patch ~dataflow:true k.Kernel.program Config.empty in
  checkb "unoptimized has checks" true (count_snippet_ops plain > 0);
  checki "optimized has none" 0 (count_snippet_ops opt);
  let native, _ = Kernel.run_native k in
  let out, _ = Kernel.run_patched ~config:Config.empty { k with Kernel.program = opt } in
  ignore out;
  (* run the optimized program directly *)
  let vm = Vm.create ~checked:true opt in
  k.Kernel.setup vm;
  Vm.run vm;
  checkb "bit-for-bit" true (bits_equal native (k.Kernel.output vm))

let count_testflags (p : Ir.program) =
  let n = ref 0 in
  Array.iter
    (fun (f : Ir.func) ->
      Array.iter
        (fun (b : Ir.block) ->
          Array.iter
            (fun (i : Ir.instr) -> match i.Ir.op with Ftestflag _ -> incr n | _ -> ())
            b.Ir.instrs)
        f.Ir.blocks)
    p.Ir.funcs;
  !n

let test_all_single_fewer_tests () =
  (* everything replaced: register-to-register flows lose their tests;
     only memory-sourced operands (the Either heap cell) keep diamonds *)
  let k = Nas_sp.make Kernel.W in
  let cfg = Config.set_module Config.empty "sp" Config.Single in
  let plain = Patcher.patch k.Kernel.program cfg in
  let opt = Patcher.patch ~dataflow:true k.Kernel.program cfg in
  let np = count_testflags plain and no = count_testflags opt in
  checkb "strictly fewer runtime tests" true (no < np)

let equivalent_under k cfg =
  let plain = Patcher.patch k.Kernel.program cfg in
  let opt = Patcher.patch ~dataflow:true k.Kernel.program cfg in
  let run p =
    let vm = Vm.create ~checked:true p in
    k.Kernel.setup vm;
    match Vm.run vm with
    | () -> Ok (k.Kernel.output vm)
    | exception Vm.Trap (addr, reason) -> Error (addr, reason)
  in
  (* equivalent outcomes: same outputs, or the same trap (e.g. a replaced
     value reaching an Ignore-flagged routine traps at the same original
     instruction either way) *)
  match (run plain, run opt) with
  | Ok a, Ok b -> bits_equal a b
  | Error a, Error b -> a = b
  | _ -> false

let all_kernels_w () =
  [
    Nas_ep.make Kernel.W;
    Nas_cg.make Kernel.W;
    Nas_ft.make Kernel.W;
    Nas_mg.make Kernel.W;
    Nas_bt.make Kernel.W;
    Nas_lu.make Kernel.W;
    Nas_sp.make Kernel.W;
  ]

let test_equivalence_all_kernels_single () =
  List.iter
    (fun k ->
      let tree = Static.tree k.Kernel.program in
      let cfg =
        List.fold_left (fun acc n -> Bfs.force_single ~base:k.Kernel.hints acc n)
          k.Kernel.hints tree
      in
      if not (equivalent_under k cfg) then
        Alcotest.failf "%s: optimized patch diverges (all-single)" k.Kernel.name)
    (all_kernels_w ())

let test_equivalence_mixed_random () =
  (* random mixed configurations over CG: optimized == unoptimized, checked *)
  let k = Nas_cg.make Kernel.W in
  let cands = Static.candidates k.Kernel.program in
  let rng = Rng.create 4242 in
  for _ = 1 to 12 do
    let cfg =
      Array.fold_left
        (fun acc (info : Static.insn_info) ->
          if Rng.int rng 2 = 0 then Config.set_insn acc info.Static.addr Config.Single
          else acc)
        Config.empty cands
    in
    if not (equivalent_under k cfg) then Alcotest.fail "optimized patch diverges (random mixed)"
  done

let test_equivalence_searched_config () =
  let k = Nas_mg.make Kernel.W in
  let res = Bfs.search (Kernel.target k) in
  checkb "searched config equivalent" true (equivalent_under k res.Bfs.final)

let test_states_small_program () =
  let t = Builder.create () in
  let out = Builder.alloc_f t 2 in
  let main =
    Builder.func t ~module_:"m" "main" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
        let a = Builder.fconst b 1.5 in
        (* insn 1: single; its output is definitely replaced *)
        let c = Builder.fmul b a a in
        (* insn 2: double; consumes the replaced c *)
        let d = Builder.fadd b c a in
        Builder.storef b (Builder.at out) d;
        Builder.storef b (Builder.at (out + 1)) c)
  in
  let prog = Builder.program t ~main in
  let cands = Static.candidates prog in
  (* flag the mul single, rest double *)
  let cfg = Config.set_insn Config.empty cands.(1).Static.addr Config.Single in
  let df = Dataflow.analyze prog cfg in
  (* the add's first operand (the mul's output) is definitely replaced *)
  let add = cands.(2) in
  let add_op =
    match
      Array.to_list prog.Ir.funcs |> List.concat_map (fun (f : Ir.func) ->
          Array.to_list f.Ir.blocks
          |> List.concat_map (fun (b : Ir.block) -> Array.to_list b.Ir.instrs))
      |> List.find (fun (i : Ir.instr) -> i.Ir.addr = add.Static.addr)
    with
    | { Ir.op = Fbin (_, _, _, a, b); _ } -> (a, b)
    | _ -> Alcotest.fail "expected fbin"
  in
  let ra, rb = add_op in
  checkb "replaced operand" true (Dataflow.operand_state df ~addr:add.Static.addr ~reg:ra = Dataflow.Repl);
  (* the second operand is the const's output: after the single mul's
     in-place conversion, the const register was converted too *)
  checkb "converted-in-place operand" true
    (Dataflow.operand_state df ~addr:add.Static.addr ~reg:rb = Dataflow.Repl);
  let removable, total = Dataflow.checks_removable df prog cfg in
  checkb "some checks removable" true (removable > 0 && removable <= total)

let test_memory_taints () =
  (* a replaced value stored to the heap makes subsequent loads Either *)
  let t = Builder.create () in
  let out = Builder.alloc_f t 2 in
  let main =
    Builder.func t ~module_:"m" "main" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
        let a = Builder.fconst b 0.5 in
        let c = Builder.fmul b a a in
        Builder.storef b (Builder.at out) c;
        let l = Builder.loadf b (Builder.at out) in
        let d = Builder.fadd b l a in
        Builder.storef b (Builder.at (out + 1)) d)
  in
  let prog = Builder.program t ~main in
  let cands = Static.candidates prog in
  let cfg = Config.set_insn Config.empty cands.(1).Static.addr Config.Single in
  let df = Dataflow.analyze prog cfg in
  let add = cands.(2) in
  let load_reg =
    Array.to_list prog.Ir.funcs |> List.concat_map (fun (f : Ir.func) ->
        Array.to_list f.Ir.blocks
        |> List.concat_map (fun (b : Ir.block) -> Array.to_list b.Ir.instrs))
    |> List.find_map (fun (i : Ir.instr) ->
           match i.Ir.op with Fload (d, _) -> Some d | _ -> None)
    |> Option.get
  in
  checkb "loaded value is Either" true
    (Dataflow.operand_state df ~addr:add.Static.addr ~reg:load_reg = Dataflow.Either)

let test_overhead_reduction () =
  (* the point of the optimization: fewer snippet executions *)
  let k = Nas_lu.make Kernel.W in
  let res = Bfs.search (Kernel.target k) in
  let run p =
    let vm = Vm.create ~checked:true p in
    k.Kernel.setup vm;
    Vm.run vm;
    Cost.of_run vm
  in
  let plain = run (Patcher.patch k.Kernel.program res.Bfs.final) in
  let opt = run (Patcher.patch ~dataflow:true k.Kernel.program res.Bfs.final) in
  checkb "cheaper" true (opt.Cost.time_cycles < plain.Cost.time_cycles)

(* --------------------------------------------------------- fix point *)

let random_config rng prog ~base =
  Array.fold_left
    (fun acc (info : Static.insn_info) ->
      match Rng.int rng 4 with
      | 0 -> Config.set_insn acc info.Static.addr Config.Single
      | 1 -> Config.set_insn acc info.Static.addr (Config.Fmt Formats.half)
      | 2 -> Config.set_insn acc info.Static.addr Config.Ignore
      | _ -> acc)
    base (Static.candidates prog)

let assert_fixpoint what prog cfg =
  if not (Dataflow.at_fixpoint (Dataflow.analyze prog cfg)) then
    Alcotest.failf "%s: one more pass after analyze changed the result" what

let test_fixpoint_kernels () =
  let rng = Rng.create 77 in
  List.iter
    (fun (k : Kernel.t) ->
      let prog = k.Kernel.program in
      let single =
        List.fold_left
          (fun acc n -> Bfs.force_single ~base:k.Kernel.hints acc n)
          k.Kernel.hints (Static.tree prog)
      in
      List.iteri
        (fun i cfg -> assert_fixpoint (Printf.sprintf "%s config %d" k.Kernel.name i) prog cfg)
        [
          Config.empty;
          k.Kernel.hints;
          single;
          random_config rng prog ~base:k.Kernel.hints;
          random_config rng prog ~base:k.Kernel.hints;
        ])
    (all_kernels_w ())

let test_fixpoint_fuzz () =
  for seed = 1 to Test_fuzz.n_programs do
    let prog, _ = Test_fuzz.random_program (seed * 7919) in
    let rng = Rng.create (seed + 31) in
    for i = 1 to 3 do
      assert_fixpoint
        (Printf.sprintf "fuzz seed %d config %d" seed i)
        prog
        (random_config rng prog ~base:Config.empty)
    done
  done

(* -------------------------------------------- verdict identity (search) *)

(* The target every search evaluation goes through (Bfs.Target.make, which
   patches with the data-flow analysis) against a hand-built twin that
   patches without it. Both log every evaluation's classified verdict in
   order; a campaign driven by identical verdicts evaluates the identical
   configuration sequence, so the logs must be equal item by item — trap
   addresses and reasons included — and so must the finals and journals. *)
let logged (target : Bfs.Target.t) =
  let log = ref [] in
  let raw_eval cfg =
    let record v = log := (Config.digest target.Bfs.Target.program cfg, v) :: !log in
    match target.Bfs.Target.raw_eval cfg with
    | ok ->
        record (if ok then Verdict.Pass else Verdict.Fail_verify);
        ok
    | exception e ->
        record (Verdict.classify_exn e);
        raise e
  in
  (log, { target with Bfs.Target.raw_eval })

let plain_target (k : Kernel.t) =
  let program = k.Kernel.program in
  let cache = Compile.create_cache () in
  let raw_eval cfg =
    let vm = Vm.create ~checked:true (Patcher.patch program cfg) in
    k.Kernel.setup vm;
    Compile.run ~cache vm;
    k.Kernel.verify (k.Kernel.output vm)
  in
  let eval cfg =
    match raw_eval cfg with ok -> ok | exception Vm.Trap _ -> false | exception Vm.Limit _ -> false
  in
  { (Kernel.target k) with Bfs.Target.eval; raw_eval; code_cache = Some cache }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let campaign (k : Kernel.t) strategy formats target =
  let log, target = logged target in
  let path = Filename.temp_file "craft_df" ".journal" in
  let journal = Journal.create ~path k.Kernel.program in
  let harness, target = Harness.wrap_target target in
  let target = Journal.wrap_target journal ~harness target in
  let options = { Bfs.default_options with base = k.Kernel.hints; formats } in
  let res = Strategy.run ~options strategy target in
  Journal.close journal;
  let text = read_file path in
  Sys.remove path;
  (List.rev !log, Config.print k.Kernel.program res.Bfs.final, text)

let test_verdict_identity () =
  let menus =
    List.map
      (fun m -> (m, Result.get_ok (Formats.menu_of_string m)))
      [ "single"; "bf16,half,single" ]
  in
  let strategies =
    [ Strategy.Bfs; Strategy.Split; Strategy.Delta; Strategy.Anneal Strategy.default_seed ]
  in
  let traps = ref 0 in
  List.iter
    (fun (k : Kernel.t) ->
      List.iter
        (fun strategy ->
          List.iter
            (fun (menu, formats) ->
              let cell =
                Printf.sprintf "%s/%s/%s" k.Kernel.name (Strategy.to_string strategy) menu
              in
              let log_c, final_c, journal_c = campaign k strategy formats (Kernel.target k) in
              let log_p, final_p, journal_p = campaign k strategy formats (plain_target k) in
              checki (cell ^ ": evaluations") (List.length log_p) (List.length log_c);
              List.iteri
                (fun i ((dp, vp), (dc, vc)) ->
                  if dp <> dc || vp <> vc then
                    Alcotest.failf "%s: evaluation %d: plain %s %s, collapsed %s %s" cell i dp
                      (Verdict.verdict_to_string vp) dc (Verdict.verdict_to_string vc))
                (List.combine log_p log_c);
              traps :=
                !traps
                + List.length
                    (List.filter (function _, Verdict.Trapped _ -> true | _ -> false) log_c);
              checks (cell ^ ": final") final_p final_c;
              checks (cell ^ ": journal") journal_p journal_c)
            menus)
        strategies)
    [ Nas_cg.make Kernel.W; Nas_mg.make Kernel.W; Nas_ep.make Kernel.W ];
  (* the identity must cover trap verdicts, not only pass/fail *)
  checkb "some evaluations trapped" true (!traps > 0)

let suite =
  [
    ("all-double removes all checks", `Quick, test_all_double_removes_all_checks);
    ("all-single: fewer runtime tests", `Quick, test_all_single_fewer_tests);
    ("equivalence: all kernels all-single", `Quick, test_equivalence_all_kernels_single);
    ("equivalence: random mixed configs", `Quick, test_equivalence_mixed_random);
    ("equivalence: searched config", `Quick, test_equivalence_searched_config);
    ("states on a small program", `Quick, test_states_small_program);
    ("memory taints loads", `Quick, test_memory_taints);
    ("overhead reduction", `Quick, test_overhead_reduction);
    ("fix point: NAS kernels at class W", `Quick, test_fixpoint_kernels);
    ("fix point: fuzz programs", `Quick, test_fixpoint_fuzz);
    ("verdict identity: campaigns, collapsed vs plain patch", `Quick, test_verdict_identity);
  ]
