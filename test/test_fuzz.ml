(* Differential fuzzing of the whole toolchain: random binaries are
   generated with the builder, then every transformation is checked against
   its equivalence oracle:

   - all-double instrumentation   == native            (bit-for-bit)
   - all-single instrumentation   == manual conversion (bit-for-bit)
   - data-flow-optimized patching == plain patching    (bit-for-bit, same traps)
   - cancellation instrumentation == native            (bit-for-bit)

   The checked VM doubles as a soundness oracle: any missed conversion
   traps instead of silently mis-rounding. *)

let n_slots = 16

(* A random function body: straight-line FP/int code with occasional
   branches and loops, reading and writing the shared heap. *)
let random_body rng depth b (regs : Builder.fv list ref) =
  let pick_reg () =
    let l = !regs in
    List.nth l (Rng.int rng (List.length l))
  in
  let rnd_const () =
    match Rng.int rng 4 with
    | 0 -> Builder.fconst b (Rng.uniform rng -. 0.5)
    | 1 -> Builder.fconst b (float_of_int (Rng.int rng 16))
    | 2 -> Builder.fconst b (0.1 *. float_of_int (1 + Rng.int rng 9))
    | _ -> Builder.fconst b (Rng.uniform rng *. 100.0)
  in
  let n_ops = 8 + Rng.int rng 20 in
  for _ = 1 to n_ops do
    let v =
      match Rng.int rng 12 with
      | 0 -> Builder.fadd b (pick_reg ()) (pick_reg ())
      | 1 -> Builder.fsub b (pick_reg ()) (pick_reg ())
      | 2 -> Builder.fmul b (pick_reg ()) (pick_reg ())
      | 3 ->
          (* keep divisors away from zero *)
          let d = Builder.fadd b (Builder.fabs b (pick_reg ())) (Builder.fconst b 1.0) in
          Builder.fdiv b (pick_reg ()) d
      | 4 -> Builder.fsqrt b (Builder.fabs b (pick_reg ()))
      | 5 -> Builder.fneg b (pick_reg ())
      | 6 -> Builder.fmin b (pick_reg ()) (pick_reg ())
      | 7 -> Builder.fmax b (pick_reg ()) (pick_reg ())
      | 8 -> rnd_const ()
      | 9 -> Builder.loadf b (Builder.at (Rng.int rng n_slots))
      | 10 ->
          (* packed detour: pack, operate, extract a lane *)
          let p = Builder.fpair b (pick_reg ()) (pick_reg ()) in
          let q = Builder.fpair b (pick_reg ()) (rnd_const ()) in
          let r = if Rng.int rng 2 = 0 then Builder.faddp b p q else Builder.fmulp b p q in
          Builder.flane b r (Rng.int rng 2)
      | _ ->
          let x = Builder.fadd b (Builder.fabs b (pick_reg ())) (Builder.fconst b 0.5) in
          Builder.flog b x
    in
    regs := v :: !regs;
    if Rng.int rng 3 = 0 then Builder.storef b (Builder.at (Rng.int rng n_slots)) v
  done;
  if depth > 0 && Rng.int rng 2 = 0 then begin
    let c = Builder.flt b (pick_reg ()) (pick_reg ()) in
    let save = !regs in
    Builder.if_ b c
      (fun () ->
        let r = ref save in
        let inner_ops = 3 + Rng.int rng 5 in
        for _ = 1 to inner_ops do
          let v = Builder.fadd b (List.nth save (Rng.int rng (List.length save))) (rnd_const ()) in
          r := v :: !r;
          if Rng.int rng 2 = 0 then Builder.storef b (Builder.at (Rng.int rng n_slots)) v
        done)
      (fun () ->
        let v = Builder.fmul b (List.nth save 0) (rnd_const ()) in
        Builder.storef b (Builder.at (Rng.int rng n_slots)) v)
  end;
  if depth > 0 && Rng.int rng 3 = 0 then begin
    let save = !regs in
    Builder.for_range b 0 (1 + Rng.int rng 6) (fun i ->
        let v =
          Builder.fadd b (List.nth save (Rng.int rng (List.length save))) (Builder.i2f b i)
        in
        Builder.storef b (Builder.idx 0 (Builder.irem b (Builder.f2i b (Builder.fabs b v)) (Builder.iconst b n_slots))) v)
  end

let random_program seed =
  let rng = Rng.create seed in
  let t = Builder.create () in
  let _heap = Builder.alloc_f t n_slots in
  let helper =
    Builder.func t ~module_:"fuzz" "helper" ~nf_args:2 ~ni_args:0 (fun b fa _ ->
        let regs = ref [ fa.(0); fa.(1) ] in
        random_body rng 0 b regs;
        Builder.ret b ~f:[ List.hd !regs ] ())
  in
  let main =
    Builder.func t ~module_:"fuzz" "main" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
        let regs = ref [ Builder.fconst b 1.0; Builder.fconst b 0.25 ] in
        random_body rng 1 b regs;
        if Rng.int rng 2 = 0 then begin
          let l = !regs in
          let x = List.nth l (Rng.int rng (List.length l)) in
          let y = List.nth l (Rng.int rng (List.length l)) in
          let r, _ = Builder.call b helper ~fargs:[ x; y ] ~iargs:[] in
          Builder.storef b (Builder.at (Rng.int rng n_slots)) r.(0)
        end;
        random_body rng 1 b regs)
  in
  let prog = Builder.program t ~main in
  let input = Array.init n_slots (fun i -> Rng.uniform rng +. (0.01 *. float_of_int i)) in
  (prog, input)

let run ?(checked = true) ?(smode = Vm.Flagged) prog input =
  let vm = Vm.create ~checked ~smode prog in
  Vm.write_f vm 0 input;
  match Vm.run vm with
  | () -> Ok (Vm.read_f vm 0 n_slots)
  | exception Vm.Trap (a, r) -> Error (Printf.sprintf "trap@%d: %s" a r)

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun u v ->
         Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)
         || (Float.is_nan u && Float.is_nan v))
       a b

let outcomes_equal a b =
  match (a, b) with
  | Ok x, Ok y -> bits_equal x y
  | Error _, Error _ -> true
  | _ -> false

(* the stronger relation the search needs between the plain and the
   data-flow-collapsed patch: traps must agree on address and reason too *)
let outcomes_identical a b =
  match (a, b) with Error x, Error y -> String.equal x y | _ -> outcomes_equal a b

let n_programs = 40

let for_each_program f () =
  for seed = 1 to n_programs do
    let prog, input = random_program (seed * 7919) in
    f seed prog input
  done

let test_programs_valid =
  for_each_program (fun seed prog _ ->
      match Ir.validate prog with
      | Ok () -> ()
      | Error es -> Alcotest.failf "seed %d: invalid program: %s" seed (String.concat "; " es))

let test_all_double_identity =
  for_each_program (fun seed prog input ->
      let native = run ~checked:false prog input in
      let patched = Patcher.patch prog Config.empty in
      if not (outcomes_equal native (run patched input)) then
        Alcotest.failf "seed %d: all-double instrumentation diverged" seed)

let test_all_single_vs_manual =
  for_each_program (fun seed prog input ->
      let cfg = Config.set_module Config.empty "fuzz" Config.Single in
      let instrumented = run (Patcher.patch prog cfg) input in
      let manual = run ~smode:Vm.Plain (To_single.convert prog) input in
      if not (outcomes_equal instrumented manual) then
        Alcotest.failf "seed %d: instrumented single <> manual conversion" seed)

let test_dataflow_equivalence =
  for_each_program (fun seed prog input ->
      let rng = Rng.create (seed + 555) in
      for _ = 1 to 3 do
        let cfg =
          Array.fold_left
            (fun acc (info : Static.insn_info) ->
              match Rng.int rng 3 with
              | 0 -> Config.set_insn acc info.Static.addr Config.Single
              | _ -> acc)
            Config.empty (Static.candidates prog)
        in
        let plain = run (Patcher.patch prog cfg) input in
        let opt = run (Patcher.patch ~dataflow:true prog cfg) input in
        if not (outcomes_identical plain opt) then
          Alcotest.failf "seed %d: dataflow-optimized patch diverged" seed
      done)

let test_cancellation_identity =
  for_each_program (fun seed prog input ->
      let native = run ~checked:false prog input in
      let instr, _ = Cancellation.instrument prog in
      if not (outcomes_equal native (run ~checked:false instr input)) then
        Alcotest.failf "seed %d: cancellation detector changed results" seed)

let test_config_roundtrip =
  for_each_program (fun seed prog _ ->
      let rng = Rng.create (seed + 999) in
      let cfg =
        Array.fold_left
          (fun acc (info : Static.insn_info) ->
            match Rng.int rng 4 with
            | 0 -> Config.set_insn acc info.Static.addr Config.Single
            | 1 -> Config.set_insn acc info.Static.addr Config.Ignore
            | _ -> acc)
          Config.empty (Static.candidates prog)
      in
      match Config.parse prog (Config.print prog cfg) with
      | Ok cfg2 ->
          Array.iter
            (fun info ->
              if Config.effective cfg info <> Config.effective cfg2 info then
                Alcotest.failf "seed %d: config roundtrip changed a flag" seed)
            (Static.candidates prog)
      | Error e -> Alcotest.failf "seed %d: %s" seed e)

let suite =
  [
    ("random programs validate", `Quick, test_programs_valid);
    ("fuzz: all-double identity", `Quick, test_all_double_identity);
    ("fuzz: all-single vs manual conversion", `Quick, test_all_single_vs_manual);
    ("fuzz: dataflow-optimized equivalence", `Quick, test_dataflow_equivalence);
    ("fuzz: cancellation identity", `Quick, test_cancellation_identity);
    ("fuzz: config roundtrip", `Quick, test_config_roundtrip);
  ]
