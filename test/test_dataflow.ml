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
  (List.rev !log, Config.print k.Kernel.program res.Bfs.final, text, res.Bfs.tested)

(* Committed transcripts of every cell, recorded from the campaign drivers
   before bfs and the machine strategies shared one driver: the MD5 of the
   evaluated (digest, verdict) sequence, of the final configuration text and
   of the journal bytes, and the [tested] count. A driver change that moves
   any of them fails the cell; these are never regenerated. *)
let goldens =
  [
    ( "cg.W/bfs/single",
      ( "9b2bb7c27d8fc81a5417e5d3dc80daf3",
        "8ddca841eb6c64117b1b579ae18283ce",
        "cb9b4a260624cafc0224b62e66828c5a",
        45 ) );
    ( "cg.W/bfs/bf16,half,single",
      ( "07b6b07776d98d20ff8a704b73a12ecb",
        "a94700860f49aa8f6884b17c0ae56285",
        "08259f1a6630267c0c192c311e2798f0",
        53 ) );
    ( "cg.W/split/single",
      ( "2c5af1897b29b564fb3e693134f5189f",
        "c8dac5d515c30c7649d482cdb3410294",
        "d9664f98ca1a50a851e36aa6ead01d87",
        75 ) );
    ( "cg.W/split/bf16,half,single",
      ( "f907152bb380e18b0384554cc697fdf4",
        "379f88dc1510befb3d6f13c289b67c78",
        "e7faecd9a00a6d98fb1867e0699eb70f",
        93 ) );
    ( "cg.W/delta/single",
      ( "40d77577eff4cb8e9eec4eff2df93875",
        "c8dac5d515c30c7649d482cdb3410294",
        "c44b782b8e5eacb001a89f07b990e036",
        132 ) );
    ( "cg.W/delta/bf16,half,single",
      ( "513eb9ad0c553ce40c813fb017b94b39",
        "379f88dc1510befb3d6f13c289b67c78",
        "1d8190e66d94765898f26551a1ffff1e",
        150 ) );
    ( "cg.W/anneal/single",
      ( "a43445af532f2afd28026d7ae1d28607",
        "c8dac5d515c30c7649d482cdb3410294",
        "2bab5ab9d8d70814a226251d6d7a9e61",
        96 ) );
    ( "cg.W/anneal/bf16,half,single",
      ( "396f8d66181ef1135fd9f9b416faf3ed",
        "379f88dc1510befb3d6f13c289b67c78",
        "fc4ca0a7748d5ffcd6ce5e40661af3bb",
        114 ) );
    ( "mg.W/bfs/single",
      ( "7b5a4541546d4d95a6c4e7cc8612684d",
        "cda7fe310087d0ece75fe3a63ae33225",
        "1e2318719b030d2f0ab9981a609df592",
        46 ) );
    ( "mg.W/bfs/bf16,half,single",
      ( "2b054baa6b9034f2d6b162b24111d7ca",
        "12c2b83ddf63f87e8af0c1238944e14f",
        "a72895e8dd9e12882390776d11e70c39",
        83 ) );
    ( "mg.W/split/single",
      ( "8d875928b4876c82b51dc659dcd1fbe4",
        "ddc042e8c6dc96c9ede0a9ec07bc9690",
        "19c60fa80b9bda1c5a9ca316adffdcb0",
        52 ) );
    ( "mg.W/split/bf16,half,single",
      ( "8d875928b4876c82b51dc659dcd1fbe4",
        "ddc042e8c6dc96c9ede0a9ec07bc9690",
        "19c60fa80b9bda1c5a9ca316adffdcb0",
        52 ) );
    ( "mg.W/delta/single",
      ( "273a0dfc52fad67dc6f7a0a2052583fb",
        "c016f2cdef113b0d933b04ab1ae3228c",
        "02cb1f4eff15c16fcb11d5fefa47d932",
        144 ) );
    ( "mg.W/delta/bf16,half,single",
      ( "2f3839a54a0fa6679214046009e156b8",
        "6d31adb8cb95a41b5660d44184fd3cd3",
        "d61c6ef03e0ed8561e93404bddc34882",
        190 ) );
    ( "mg.W/anneal/single",
      ( "44946a7a74cece81f57e6e0ef05a53ef",
        "410fdd1d7d83ec3e3079684b49738808",
        "06a1f70781c3a017762cc9d17aa758e1",
        103 ) );
    ( "mg.W/anneal/bf16,half,single",
      ( "b70c1c189b268dc163e64b84ccf17d01",
        "e2fa2af3ad04cf0a8b22874463be4083",
        "fd81756fd2be0b472171b58121981b36",
        149 ) );
    ( "ep.W/bfs/single",
      ( "884e4aa0916ccc164ab47529db28f4ed",
        "5fa8c08145054afe44172401e7cb5073",
        "287d8384a5a337cb9a901f6b50fe4b9f",
        10 ) );
    ( "ep.W/bfs/bf16,half,single",
      ( "f116869724e5d831b57653d67bd22ecc",
        "6926d0c7d45caa84a457c85e5951bdd8",
        "ca2f0a95effa67e90a4c8c46d686e96d",
        17 ) );
    ( "ep.W/split/single",
      ( "3305dc65cd765053c5ef9cf1b915b01c",
        "5be1dfabfaa9b8aa859ac7477efd776d",
        "7f5e74d0024658e11fe8fd1be0cadd1d",
        17 ) );
    ( "ep.W/split/bf16,half,single",
      ( "303a82b1c1bd0c9e8ce0c8efd3e84b3f",
        "9a706b032ae40661868fe5cf343bd6f8",
        "f84dcdc6ecc172b9380dc620d3ac1369",
        60 ) );
    ( "ep.W/delta/single",
      ( "1cf5e7dc2cbb17808ace730d3ac9ca77",
        "5be1dfabfaa9b8aa859ac7477efd776d",
        "0906cff0736a89da83a425ae6fb61615",
        18 ) );
    ( "ep.W/delta/bf16,half,single",
      ( "d78c6cfefb32af4b71e7a647453e5c80",
        "9a706b032ae40661868fe5cf343bd6f8",
        "26ce6b91c580c2fec7fa62bbf363c8cf",
        61 ) );
    ( "ep.W/anneal/single",
      ( "86622c85708879c4951aff61c22d81d3",
        "5be1dfabfaa9b8aa859ac7477efd776d",
        "eeba4e9d74d4bc99266264e546f0b886",
        46 ) );
    ( "ep.W/anneal/bf16,half,single",
      ( "ccdf9d9758522979af361de1d466a72a",
        "9a706b032ae40661868fe5cf343bd6f8",
        "e60a943e6c7a8ec64f832423d6ae8f7d",
        89 ) );
  ]

let md5 s = Digest.to_hex (Digest.string s)

let check_golden cell log final journal tested =
  let evals =
    md5
      (String.concat "\n"
         (List.map (fun (d, v) -> d ^ " " ^ Verdict.verdict_to_string v) log))
  in
  let got = (evals, md5 final, md5 journal, tested) in
  match List.assoc_opt cell goldens with
  | None ->
      let e, f, j, t = got in
      Alcotest.failf "%s: no golden; recorded (%S, (%S, %S, %S, %d))" cell cell e f j t
  | Some (e, f, j, t) ->
      checks (cell ^ ": golden eval sequence") e evals;
      checks (cell ^ ": golden final") f (md5 final);
      checks (cell ^ ": golden journal") j (md5 journal);
      checki (cell ^ ": golden tested") t tested

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
              let log_c, final_c, journal_c, tested_c =
                campaign k strategy formats (Kernel.target k)
              in
              let log_p, final_p, journal_p, _ = campaign k strategy formats (plain_target k) in
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
              checks (cell ^ ": journal") journal_p journal_c;
              check_golden cell log_c final_c journal_c tested_c)
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
