(* The reproduction harness: one section per table/figure of the paper, a
   search-optimization ablation, and Bechamel microbenchmarks of the
   framework itself.

   Run everything:        dune exec bench/main.exe
   Run selected sections: dune exec bench/main.exe -- fig9 fig10 sec32 *)

let workers = max 1 (min 8 (Domain.recommended_domain_count () - 1))

let section name =
  Format.printf "@.==================== %s ====================@." name

let fig_kernels classes =
  List.concat_map
    (fun cls -> [ Nas_ep.make cls; Nas_cg.make cls; Nas_ft.make cls; Nas_mg.make cls ])
    classes

(* Overhead of the base case: every FP instruction replaced by a
   double-precision snippet (paper §3.1). Returns both the modeled costs and
   the measured VM wall-clock ratio. *)
let instrumented_overhead k =
  let t0 = Unix.gettimeofday () in
  let _, nvm = Kernel.run_native k in
  let t1 = Unix.gettimeofday () in
  let _, ivm = Kernel.run_patched ~config:Config.empty k in
  let t2 = Unix.gettimeofday () in
  let nat = Cost.of_run nvm and ins = Cost.of_run ivm in
  let wall = (t2 -. t1) /. Float.max 1e-9 (t1 -. t0) in
  (nat, ins, Cost.overhead ins nat, wall)

(* ---------------------------------------------------------------- fig 1 *)

let fig1 () =
  section "Figure 1: IEEE standard formats";
  Format.printf "format    width  sign  exponent  significand  bias@.";
  Format.printf "single       32     1  %8d  %11d  %4d@." Ieee.exponent_bits32
    Ieee.significand_bits32 Ieee.bias32;
  Format.printf "double       64     1  %8d  %11d  %4d@." Ieee.exponent_bits64
    Ieee.significand_bits64 Ieee.bias64;
  Format.printf "@.example decodes:@.";
  List.iter
    (fun x -> Format.printf "  %-12g %s@." x (Ieee.describe64 x))
    [ 1.0; -0.375; 6.02e23 ];
  Format.printf "  %-12s %s@." "1.0f" (Ieee.describe32 0x3F800000l)

(* ---------------------------------------------------------------- fig 3 *)

let fig3 () =
  section "Figure 3: replacement analysis configuration file";
  let k = Nas_ep.make Kernel.W in
  let res = Bfs.search ~options:{ Bfs.default_options with workers } (Kernel.target k) in
  print_string (Config.print k.Kernel.program res.Bfs.final)

(* ---------------------------------------------------------------- fig 4 *)

let fig4 () =
  section "Figure 4: graphical configuration editor (terminal rendering)";
  let k = Nas_cg.make Kernel.W in
  let res = Bfs.search ~options:{ Bfs.default_options with workers } (Kernel.target k) in
  let _, vm = Kernel.run_native k in
  print_string (Tree_view.render ~counts:vm.Vm.counts k.Kernel.program res.Bfs.final)

(* ---------------------------------------------------------------- fig 5 *)

let fig5 () =
  section "Figure 5: in-place downcast conversion and replacement";
  let x = 1.0 /. 3.0 in
  Format.printf "double:            %a@." Replaced.pp x;
  Format.printf "replaced double:   %a@." Replaced.pp (Replaced.downcast x);
  Format.printf "extracted single:  %h@." (Replaced.upcast (Replaced.downcast x));
  Format.printf "flag is a NaN:     %b (mis-handled values never propagate silently)@."
    (Float.is_nan (Replaced.downcast x))

(* ---------------------------------------------------------------- fig 6 *)

let fig6 () =
  section "Figure 6: single-precision replacement snippet";
  print_string (Patcher.snippet_listing ())

(* ---------------------------------------------------------------- fig 7 *)

let fig7 () =
  section "Figure 7: basic block patching";
  let t = Builder.create () in
  let base = Builder.alloc_f t 3 in
  let main =
    Builder.func t ~module_:"demo" "main" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
        let x = Builder.loadf b (Builder.at base) in
        let y = Builder.loadf b (Builder.at (base + 1)) in
        let z = Builder.fmul b x y in
        Builder.storef b (Builder.at (base + 2)) z)
  in
  let prog = Builder.program t ~main in
  Format.printf "--- original ---@.%a@." Ir.pp_program prog;
  let cfg = Config.set_module Config.empty "demo" Config.Single in
  let patched = Patcher.patch prog cfg in
  Format.printf "--- patched ---@.%a@." Ir.pp_program patched;
  print_endline (Patcher.patch_stats prog patched)

(* ---------------------------------------------------------------- fig 8 *)

let fig8 () =
  section "Figure 8: NAS MPI scaling results (overhead vs ranks, class A)";
  let net = Mpi_model.default_net in
  Format.printf "%-6s %6s %6s %6s %6s@." "bench" "1" "2" "4" "8";
  List.iter
    (fun k ->
      let nat, ins, _, _ = instrumented_overhead k in
      let comm r = k.Kernel.comm_bytes ~ranks:r net in
      let ov r =
        Mpi_model.overhead_at ~comp_native:nat.Cost.time_cycles
          ~comp_instr:ins.Cost.time_cycles ~comm r
      in
      Format.printf "%-6s %6.1f %6.1f %6.1f %6.1f   " k.Kernel.name (ov 1) (ov 2) (ov 4)
        (ov 8);
      List.iter
        (fun r ->
          let bars = int_of_float (ov r *. 4.0) in
          Format.printf "%s|" (String.make (max 1 bars) '#'))
        [ 1; 2; 4; 8 ];
      Format.printf "@.")
    (fig_kernels [ Kernel.A ])

(* ---------------------------------------------------------------- fig 9 *)

let fig9 () =
  section "Figure 9: NAS benchmark overhead results";
  Format.printf "%-8s %10s %18s@." "bench" "modeled" "vm wall-clock";
  List.iter
    (fun k ->
      let _, _, ov, wall = instrumented_overhead k in
      Format.printf "%-8s %9.1fX %17.1fX@." k.Kernel.name ov wall)
    (fig_kernels [ Kernel.A; Kernel.C ])

(* ---------------------------------------------------------------- fig 10 *)

let fig10 () =
  section "Figure 10: NAS benchmark search results";
  Format.printf "%-8s %10s %8s %8s %9s %8s@." "bench" "candidates" "tested" "static" "dynamic"
    "final";
  let benches =
    List.concat_map
      (fun cls ->
        [
          Nas_bt.make cls;
          Nas_cg.make cls;
          Nas_ep.make cls;
          Nas_ft.make cls;
          Nas_lu.make cls;
          Nas_mg.make cls;
          Nas_sp.make cls;
        ])
      [ Kernel.W; Kernel.A ]
  in
  let ordered = List.sort (fun a b -> compare a.Kernel.name b.Kernel.name) benches in
  List.iter
    (fun k ->
      let res =
        Bfs.search
          ~options:{ Bfs.default_options with workers; base = k.Kernel.hints }
          (Kernel.target k)
      in
      Format.printf "%-8s %10d %8d %7.1f%% %8.1f%% %8s@." k.Kernel.name res.Bfs.candidates
        res.Bfs.tested res.Bfs.static_pct res.Bfs.dynamic_pct
        (if res.Bfs.final_pass then "pass" else "fail"))
    ordered

(* ---------------------------------------------------------------- fig 11 *)

let fig11 () =
  section "Figure 11: SuperLU linear solver memplus results";
  let s = Slu.create ~n:800 () in
  let x, _ = Slu.solve_native s in
  let xs, _ = Slu.solve_converted s in
  Format.printf "memplus-like matrix: n=%d nnz=%d@." s.Slu.a.Sparse_csc.n
    (Sparse_csc.nnz s.Slu.a);
  Format.printf "double-precision solver error: %.2e@." (Slu.error s x);
  Format.printf "single-precision solver error: %.2e@.@." (Slu.error s xs);
  Format.printf "%-12s %10s %10s %13s@." "threshold" "static" "dynamic" "final error";
  List.iter
    (fun threshold ->
      let res =
        Bfs.search ~options:{ Bfs.default_options with workers } (Slu.target s ~threshold)
      in
      let patched = Patcher.patch s.Slu.program res.Bfs.final in
      let vm = Vm.create ~checked:true patched in
      s.Slu.setup vm;
      Vm.run vm;
      let err = Slu.error s (s.Slu.output vm) in
      Format.printf "%-12.1e %9.1f%% %9.1f%% %13.2e@." threshold res.Bfs.static_pct
        res.Bfs.dynamic_pct err)
    [ 1e-3; 1e-4; 7.5e-5; 5e-5; 2.5e-5; 1e-5; 1e-6 ]

(* ---------------------------------------------------------------- fig 12 *)

let fig12 () =
  section "Figure 12: mixed-precision iterative refinement";
  let t = Refine.create () in
  let d = Refine.run t Config.empty in
  let m = Refine.run t Refine.mixed_config in
  let s = Refine.run t Refine.all_single_config in
  Format.printf "%-18s %14s %16s@." "configuration" "solution error" "converted cycles";
  let row name (o : Refine.outcome) =
    Format.printf "%-18s %14.3e %15.0fc@." name o.Refine.error o.Refine.converted.Cost.cycles
  in
  row "all double" d;
  row "mixed (Fig. 12)" m;
  row "all single" s;
  Format.printf "residual history (mixed): ";
  Array.iter (fun r -> Format.printf "%.2e " r) m.Refine.history;
  Format.printf "@."

(* ---------------------------------------------------------------- §3.1 *)

let sec31 () =
  section "Section 3.1: bit-for-bit verification of the replacement";
  let kernels =
    [
      Nas_ep.make Kernel.W;
      Nas_cg.make Kernel.W;
      Nas_ft.make Kernel.W;
      Nas_mg.make Kernel.W;
      Nas_bt.make Kernel.W;
      Nas_lu.make Kernel.W;
      Nas_sp.make Kernel.W;
    ]
  in
  let bits_equal a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
         a b
  in
  Format.printf "%-8s %22s %28s@." "bench" "all-double == native" "all-single == manual conv";
  List.iter
    (fun k ->
      let native, _ = Kernel.run_native k in
      let dbl, _ = Kernel.run_patched ~config:Config.empty k in
      let tree = Static.tree k.Kernel.program in
      let cfg_single =
        List.fold_left (fun acc n -> Bfs.force_single ~base:Config.empty acc n) Config.empty tree
      in
      let sgl, _ = Kernel.run_patched ~config:cfg_single k in
      let conv, _ = Kernel.run_converted k in
      Format.printf "%-8s %22b %28b@." k.Kernel.name (bits_equal native dbl)
        (bits_equal sgl conv))
    kernels

(* ---------------------------------------------------------------- §3.2 *)

let sec32 () =
  section "Section 3.2: AMG microkernel";
  let k = Amg_kernel.make () in
  (* eight cores share the memory bus in the paper's setup *)
  let params = { Cost.default with Cost.bandwidth = 0.22 } in
  let out, nvm = Kernel.run_native k in
  Format.printf "double run: converged to %.2e in %d iterations@." out.(0)
    (Amg_kernel.iterations out);
  let tree = Static.tree k.Kernel.program in
  let cfg =
    List.fold_left (fun acc n -> Bfs.force_single ~base:Config.empty acc n) Config.empty tree
  in
  let outs, svm = Kernel.run_patched ~config:cfg k in
  Format.printf "all-single instrumented: converged to %.2e in %d iterations (verify %s)@."
    outs.(0) (Amg_kernel.iterations outs)
    (if k.Kernel.verify outs then "pass" else "fail");
  let nat = Cost.of_run ~params nvm in
  let ins = Cost.of_run ~params svm in
  Format.printf "analysis overhead: %.2fX   (paper: 1.2X)@." (Cost.overhead ins nat);
  let _, cvm = Kernel.run_converted k in
  let conv = Cost.of_run ~params ~fmem_bytes:4.0 cvm in
  Format.printf
    "manual conversion: modeled %.3fs -> %.3fs, speedup %.2fX   (paper: 175.48s -> 95.25s, ~1.84X)@."
    nat.Cost.seconds conv.Cost.seconds
    (nat.Cost.time_cycles /. conv.Cost.time_cycles)

(* ---------------------------------------------------------------- §3.3 *)

let sec33 () =
  section "Section 3.3: SuperLU headline numbers";
  let s = Slu.create ~n:800 () in
  let x, nvm = Slu.solve_native s in
  let xs, cvm = Slu.solve_converted s in
  (* sparse gather/scatter sustains only part of streaming bandwidth *)
  let params = { Cost.default with Cost.bandwidth = 0.84 } in
  let nat = Cost.of_run ~params nvm in
  let conv = Cost.of_run ~params ~fmem_bytes:4.0 cvm in
  Format.printf "double error: %.2e   (paper: 2.16e-12)@." (Slu.error s x);
  Format.printf "single error: %.2e   (paper: 5.86e-04)@." (Slu.error s xs);
  Format.printf "single build speedup: %.2fX   (paper: 1.16X)@."
    (nat.Cost.time_cycles /. conv.Cost.time_cycles);
  Format.printf "throughput: %.0f -> %.0f MFlops (improvement %+.0f)   (paper: +150 MFlops)@."
    (Cost.mflops nat) (Cost.mflops conv)
    (Cost.mflops conv -. Cost.mflops nat)

(* ------------------------------------------------------------- ablation *)

let ablation () =
  section "Ablation: search optimizations (paper §2.2)";
  let run_variants k =
    Format.printf "%s search:@.%-28s %8s %8s %8s@." k.Kernel.name "configuration" "tested"
      "static" "final";
    List.iter
      (fun (name, binary_split, prioritize) ->
        let res =
          Bfs.search
            ~options:
              { Bfs.default_options with workers = 1; binary_split; prioritize;
                base = k.Kernel.hints }
            (Kernel.target k)
        in
        Format.printf "  %-28s %6d %7.1f%% %8s@." name res.Bfs.tested res.Bfs.static_pct
          (if res.Bfs.final_pass then "pass" else "fail"))
      [
        ("both optimizations", true, true);
        ("no binary splitting", false, true);
        ("no prioritization", true, false);
        ("neither", false, false);
      ]
  in
  (* SP: a few non-replaceable instructions among many replaceable ones —
     binary splitting prunes configurations. CG: dense failures — the
     partitions all fail and splitting costs extra tests (the paper's SP
     footnote in miniature). Prioritization changes test order (hot
     structures are ruled out first), not the totals. *)
  run_variants (Nas_sp.make Kernel.W);
  run_variants (Nas_cg.make Kernel.W);
  let k = Nas_sp.make Kernel.W in
  let plain = Bfs.search ~options:{ Bfs.default_options with workers } (Kernel.target k) in
  let composed =
    Bfs.search ~options:{ Bfs.default_options with workers; second_phase = true }
      (Kernel.target k)
  in
  Format.printf "@.second search phase on sp.W (union fails):@.";
  Format.printf "  plain:    static %5.1f%%, final %s (tested %d)@." plain.Bfs.static_pct
    (if plain.Bfs.final_pass then "pass" else "fail")
    plain.Bfs.tested;
  Format.printf "  composed: static %5.1f%%, final %s (tested %d)@." composed.Bfs.static_pct
    (if composed.Bfs.final_pass then "pass" else "fail")
    composed.Bfs.tested

(* ------------------------------------------------ dataflow optimization *)

let dataflow () =
  section "Future optimization (paper 2.5): static data-flow check removal";
  Format.printf "%-8s %16s %18s %18s %14s@." "bench" "checks removed" "plain overhead"
    "optimized" "speedup";
  List.iter
    (fun k ->
      let res =
        Bfs.search
          ~options:{ Bfs.default_options with workers; base = k.Kernel.hints }
          (Kernel.target k)
      in
      let cfg = res.Bfs.final in
      let df = Dataflow.analyze k.Kernel.program cfg in
      let removable, total = Dataflow.checks_removable df k.Kernel.program cfg in
      let run p =
        let vm = Vm.create ~checked:true p in
        k.Kernel.setup vm;
        Vm.run vm;
        Cost.of_run vm
      in
      let _, nvm = Kernel.run_native k in
      let nat = Cost.of_run nvm in
      let plain = run (Patcher.patch k.Kernel.program cfg) in
      let opt = run (Patcher.patch ~dataflow:true k.Kernel.program cfg) in
      Format.printf "%-8s %10d/%-5d %17.2fX %17.2fX %13.2fX@." k.Kernel.name removable
        total (Cost.overhead plain nat) (Cost.overhead opt nat)
        (plain.Cost.time_cycles /. opt.Cost.time_cycles))
    [
      Nas_ep.make Kernel.A;
      Nas_cg.make Kernel.A;
      Nas_ft.make Kernel.A;
      Nas_mg.make Kernel.A;
      Nas_lu.make Kernel.A;
    ]

(* --------------------------------------------- search-evaluation patch *)

(* Search evaluations (Bfs.Target.make: inline, served and fleet alike) run
   the 2.5-collapsed patch. This section runs each class-A BFS campaign
   sequentially through that target and through a twin that patches
   without the analysis (built like perfbench's traced target), alternating
   the two for three rounds and keeping each side's best times. All runs
   walk the same configuration sequence, which it asserts —
   identical verdict sequences (trap addresses included) and finals, exit 1
   otherwise — and it reports per-eval layers: executed steps, dynamic flag
   tests, execution time, patch and analysis time, code-cache hit ratio.
   Writes BENCH_searchpatch.json. *)

type patch_side = {
  log : (Config.t * Verdict.verdict) list;
  final : string;
  campaign_s : float;
  steps : int;
  testflags : int;
  exec_s : float;
  cache : Code_cache.stats;
}

let searchpatch () =
  section "Search evaluations on the 2.5-collapsed patch vs the plain patch";
  let count_testflags (vm : Vm.t) =
    Array.fold_left
      (fun acc (f : Ir.func) ->
        Array.fold_left
          (fun acc (b : Ir.block) ->
            Array.fold_left
              (fun acc (i : Ir.instr) ->
                match i.Ir.op with Ftestflag _ -> acc + vm.Vm.counts.(i.Ir.addr) | _ -> acc)
              acc b.Ir.instrs)
          acc f.Ir.blocks)
      0 vm.Vm.prog.Ir.funcs
  in
  let run_side (k : Kernel.t) ~collapsed =
    let steps = ref 0 and testflags = ref 0 and exec_s = ref 0.0 and t_exec = ref 0.0 in
    (* execution is the interval between [setup] and [output] *)
    let setup vm =
      k.Kernel.setup vm;
      if vm.Vm.checked then t_exec := Unix.gettimeofday ()
    in
    let output vm =
      if vm.Vm.checked then begin
        exec_s := !exec_s +. (Unix.gettimeofday () -. !t_exec);
        steps := !steps + vm.Vm.steps;
        testflags := !testflags + count_testflags vm
      end;
      k.Kernel.output vm
    in
    let probed = { k with Kernel.setup; output } in
    let target =
      if collapsed then Kernel.target probed
      else
        let program = k.Kernel.program in
        let cache = Compile.create_cache () in
        let raw_eval cfg =
          let vm = Vm.create ~checked:true (Patcher.patch program cfg) in
          setup vm;
          Compile.run ~cache vm;
          k.Kernel.verify (output vm)
        in
        let eval cfg =
          match raw_eval cfg with
          | ok -> ok
          | exception Vm.Trap _ -> false
          | exception Vm.Limit _ -> false
        in
        { (Kernel.target k) with Bfs.Target.eval; raw_eval; code_cache = Some cache }
    in
    let log = ref [] in
    let raw_eval cfg =
      match target.Bfs.Target.raw_eval cfg with
      | ok ->
          log := (cfg, if ok then Verdict.Pass else Verdict.Fail_verify) :: !log;
          ok
      | exception e ->
          log := (cfg, Verdict.classify_exn e) :: !log;
          raise e
    in
    let _, target = Harness.wrap_target { target with Bfs.Target.raw_eval } in
    let t0 = Unix.gettimeofday () in
    let res = Bfs.search ~options:{ Bfs.default_options with base = k.Kernel.hints } target in
    let campaign_s = Unix.gettimeofday () -. t0 in
    {
      log = List.rev !log;
      final = Config.print k.Kernel.program res.Bfs.final;
      campaign_s;
      steps = !steps;
      testflags = !testflags;
      exec_s = !exec_s;
      cache =
        (match target.Bfs.Target.code_cache with
        | Some c -> Compile.stats c
        | None -> { Code_cache.hits = 0; misses = 0; entries = 0 });
    }
  in
  let reps = 3 in
  (* mean microseconds of [f cfg] over the campaign's configurations *)
  let mean_us log f =
    let t0 = Unix.gettimeofday () in
    List.iter (fun (cfg, _) -> ignore (Sys.opaque_identity (f cfg))) log;
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int (max 1 (List.length log))
  in
  Format.printf "%-6s %5s | %-9s %12s %12s %10s %10s %10s %7s %9s@." "kernel" "evals" "patch"
    "steps/eval" "tests/eval" "exec ms" "patch us" "dflow us" "cache" "campaign";
  let rows =
    List.map
      (fun (k : Kernel.t) ->
        (* alternate the two sides; times are the best of the rounds *)
        let rounds =
          List.init reps (fun _ ->
              let p = run_side k ~collapsed:false in
              (p, run_side k ~collapsed:true))
        in
        let sides = List.concat_map (fun (p, o) -> [ p; o ]) rounds in
        let fastest pick =
          let l = List.map pick rounds in
          List.fold_left
            (fun a b ->
              {
                a with
                exec_s = Float.min a.exec_s b.exec_s;
                campaign_s = Float.min a.campaign_s b.campaign_s;
              })
            (List.hd l) l
        in
        let plain = fastest fst and opt = fastest snd in
        let same_log (s : patch_side) =
          List.length plain.log = List.length s.log
          && List.for_all2
               (fun (c1, v1) (c2, v2) ->
                 Config.digest k.Kernel.program c1 = Config.digest k.Kernel.program c2
                 && v1 = v2)
               plain.log s.log
        in
        let same_verdicts = List.for_all same_log sides in
        let same_final = List.for_all (fun (s : patch_side) -> s.final = plain.final) sides in
        if not (same_verdicts && same_final) then begin
          Format.printf
            "!! %s: patches disagree (verdict sequences identical: %b, finals identical: %b)@."
            k.Kernel.name same_verdicts same_final;
          exit 1
        end;
        let program = k.Kernel.program in
        let n = float_of_int (max 1 (List.length opt.log)) in
        let patch_plain = mean_us opt.log (Patcher.patch program) in
        let patch_opt = mean_us opt.log (Patcher.patch ~dataflow:true program) in
        let analysis = mean_us opt.log (Dataflow.analyze program) in
        let side name (s : patch_side) patch_us analysis_us =
          let steps = float_of_int s.steps /. n and tests = float_of_int s.testflags /. n in
          let exec_ms = s.exec_s *. 1e3 /. n and hit = Code_cache.hit_rate s.cache in
          Format.printf "%-6s %5d | %-9s %12.0f %12.0f %10.3f %10.1f %10.1f %6.1f%% %8.3fs@."
            k.Kernel.name (List.length s.log) name steps tests exec_ms patch_us analysis_us
            (100.0 *. hit) s.campaign_s;
          Printf.sprintf
            "{ \"steps_per_eval\": %.0f, \"testflags_per_eval\": %.0f, \"exec_ms_per_eval\": \
             %.4f, \"patch_us_per_eval\": %.2f, \"analysis_us_per_eval\": %.2f, \
             \"cache_hit_ratio\": %.4f, \"campaign_s\": %.4f }"
            steps tests exec_ms patch_us analysis_us hit s.campaign_s
        in
        let plain_json = side "plain" plain patch_plain 0.0 in
        let opt_json = side "collapsed" opt patch_opt analysis in
        Printf.sprintf
          "    { \"kernel\": %S, \"evals\": %d, \"identical_verdicts\": %b, \
           \"identical_final\": %b, \"exec_speedup\": %.4f, \"campaign_speedup\": %.4f,\n\
          \      \"plain\": %s,\n      \"collapsed\": %s }"
          k.Kernel.name (List.length opt.log) same_verdicts same_final
          (plain.exec_s /. Float.max 1e-9 opt.exec_s)
          (plain.campaign_s /. Float.max 1e-9 opt.campaign_s)
          plain_json opt_json)
      [ Nas_cg.make Kernel.A; Nas_mg.make Kernel.A; Nas_ep.make Kernel.A; Nas_ft.make Kernel.A ]
  in
  let oc = open_out "BENCH_searchpatch.json" in
  Printf.fprintf oc "{\n  \"nproc\": %d,\n  \"ocaml\": %S,\n  \"kernels\": [\n%s\n  ]\n}\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (String.concat ",\n" rows);
  close_out oc;
  Format.printf "(verdict sequences and finals identical; written to BENCH_searchpatch.json)@."

(* -------------------------------------------------------- packed values *)

let packed () =
  section "Packed XMM values (paper Figs. 1/5: 2x doubles vs 4x singles)";
  (* a stream kernel y = a*x + y, scalar vs packed, double vs converted *)
  let n = 512 in
  let build packed =
    let t = Builder.create () in
    let x = Builder.alloc_f t n in
    let y = Builder.alloc_f t n in
    let main =
      Builder.func t ~module_:"stream" "main" ~nf_args:0 ~ni_args:0 (fun b _ _ ->
          let a = Builder.fconst b 1.25 in
          if packed then begin
            let ap = Builder.fpair b a a in
            Builder.for_range b 0 (n / 2) (fun i ->
                let i2 = Builder.imulc b i 2 in
                let xv = Builder.loadfp b (Builder.idx x i2) in
                let yv = Builder.loadfp b (Builder.idx y i2) in
                Builder.storefp b (Builder.idx y i2)
                  (Builder.faddp b (Builder.fmulp b ap xv) yv))
          end
          else
            Builder.for_range b 0 n (fun i ->
                let xv = Builder.loadf b (Builder.idx x i) in
                let yv = Builder.loadf b (Builder.idx y i) in
                Builder.storef b (Builder.idx y i)
                  (Builder.fadd b (Builder.fmul b a xv) yv)))
    in
    Builder.program t ~main
  in
  let cost prog ~single =
    let p = if single then To_single.convert prog else prog in
    let vm = Vm.create ~smode:(if single then Vm.Plain else Vm.Flagged) p in
    Vm.run vm;
    (Cost.of_run ~fmem_bytes:(if single then 4.0 else 8.0) vm).Cost.time_cycles
  in
  let scalar = build false and packed_p = build true in
  let sd = cost scalar ~single:false in
  Format.printf "%-24s %14s %10s@." "stream daxpy variant" "model cycles" "speedup";
  List.iter
    (fun (name, c) -> Format.printf "%-24s %14.0f %9.2fX@." name c (sd /. c))
    [
      ("scalar double", sd);
      ("packed double", cost packed_p ~single:false);
      ("scalar single (conv)", cost scalar ~single:true);
      ("packed single (conv)", cost packed_p ~single:true);
    ];
  Format.printf
    "(the packed+single corner is the paper's motivation: half the memory@.\
     traffic and twice the lanes of packed doubles)@."

(* ------------------------------------------------- search strategies *)

(* The pluggable-strategy bake-off: every strategy behind the Strategy
   interface runs the same campaigns (kernel x backend, second-phase
   composition on, exactly like the formats bench) and the bench asserts
   — exit 1 on violation — that every strategy's final configuration is
   verified passing and saves at least as many bits as BFS's on the same
   campaign. Emits the strategy x kernel x backend matrix of
   evals-to-final, wall time and bits saved to BENCH_strategies.json. *)
let strategies () =
  section "Search-strategy bake-off: evals-to-final, wall time, bits saved";
  let kernels =
    [ Nas_cg.make Kernel.W; Nas_mg.make Kernel.W; Nas_ep.make Kernel.W ]
  in
  let backends = [ ("compiled", Compile.Compiled); ("interp", Compile.Interp) ] in
  let toks =
    [
      Strategy.Bfs;
      Strategy.Split;
      Strategy.Delta;
      Strategy.Anneal Strategy.default_seed;
    ]
  in
  Format.printf "(second-phase composition on, %d workers)@." workers;
  Format.printf "%-6s %-9s %-8s %8s %9s %6s %6s@." "kernel" "backend" "strategy"
    "evals" "wall(s)" "bits" "final";
  let rows =
    List.concat_map
      (fun (k : Kernel.t) ->
        List.concat_map
          (fun (bname, backend) ->
            let options =
              {
                Bfs.default_options with
                workers;
                second_phase = true;
                base = k.Kernel.hints;
              }
            in
            let bfs_bits = ref 0 in
            List.map
              (fun tok ->
                let target = Kernel.target ~backend k in
                let t0 = Unix.gettimeofday () in
                let r = Strategy.run ~options tok target in
                let wall = Unix.gettimeofday () -. t0 in
                let name = Strategy.to_string tok in
                if tok = Strategy.Bfs then bfs_bits := r.Bfs.bits_saved;
                if not r.Bfs.final_pass then begin
                  Format.printf "!! %s/%s/%s: final configuration is unverified@."
                    k.Kernel.name bname name;
                  exit 1
                end;
                if r.Bfs.bits_saved < !bfs_bits then begin
                  Format.printf
                    "!! %s/%s/%s: saved %d bits, BFS saved %d — worse than the \
                     baseline@."
                    k.Kernel.name bname name r.Bfs.bits_saved !bfs_bits;
                  exit 1
                end;
                Format.printf "%-6s %-9s %-8s %8d %9.2f %6d %6s@." k.Kernel.name
                  bname name r.Bfs.tested wall r.Bfs.bits_saved
                  (if r.Bfs.final_pass then "pass" else "FAIL");
                (k.Kernel.name, bname, name, r.Bfs.tested, wall, r.Bfs.bits_saved,
                 r.Bfs.bits_saved - !bfs_bits))
              toks)
          backends)
      kernels
  in
  let oc = open_out "BENCH_strategies.json" in
  Printf.fprintf oc "{\n  \"workers\": %d,\n  \"matrix\": [\n" workers;
  List.iteri
    (fun i (kernel, backend, strat, evals, wall, bits, vs_bfs) ->
      Printf.fprintf oc
        "    { \"kernel\": %S, \"backend\": %S, \"strategy\": %S, \"evals\": \
         %d, \"wall_s\": %.3f, \"bits_saved\": %d, \"bits_vs_bfs\": %d, \
         \"final_pass\": true }%s\n"
        kernel backend strat evals wall bits vs_bfs
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Format.printf
    "@.every strategy's final is verified passing and saves >= BFS bits \
     (asserted)@.(written to BENCH_strategies.json)@."

(* --------------------------------------------------- cancellation (§4.4) *)

let cancel () =
  section "Related work (paper 4.4): dynamic cancellation detection";
  Format.printf
    "The paper contrasts its <20X instrumentation against shadow-value@.\
     cancellation tools at 160X-1000X; its own earlier exponent-based@.\
     detector (Lam et al., WHIST'11) is rebuilt here.@.@.";
  Format.printf "%-8s %10s %12s  top cancellation site@." "bench" "overhead" "cancels";
  List.iter
    (fun k ->
      let _, nvm = Kernel.run_native k in
      let instr, layout = Cancellation.instrument k.Kernel.program in
      let vm = Vm.create instr in
      k.Kernel.setup vm;
      Vm.run vm;
      let sites = Cancellation.read_sites layout vm in
      let cancels = List.fold_left (fun a s -> a + s.Cancellation.cancellations) 0 sites in
      let top =
        List.sort (fun a b -> compare b.Cancellation.total_bits a.Cancellation.total_bits) sites
      in
      let desc =
        match top with
        | s :: _ when s.Cancellation.cancellations > 0 ->
            Printf.sprintf "0x%06x %s (avg %.1f bits)" s.Cancellation.addr
              s.Cancellation.disasm
              (float_of_int s.Cancellation.total_bits /. float_of_int s.Cancellation.cancellations)
        | _ -> "none"
      in
      Format.printf "%-8s %9.1fX %12d  %s@." k.Kernel.name
        (Cost.overhead (Cost.of_run vm) (Cost.of_run nvm))
        cancels desc)
    [
      Nas_ep.make Kernel.W;
      Nas_cg.make Kernel.W;
      Nas_ft.make Kernel.W;
      Nas_mg.make Kernel.W;
      Nas_lu.make Kernel.W;
      Nas_sp.make Kernel.W;
    ]

(* ------------------------------------------------------- worker pool *)

(* Throughput of the supervised worker pool vs the serial evaluator on one
   NAS kernel search campaign. Emits BENCH_pool.json next to the other
   BENCH artifacts. *)
let pool_bench () =
  section "Supervised worker pool: search throughput (evals/sec)";
  let k = Nas_cg.make Kernel.W in
  let campaign ~jobs =
    let pool =
      if jobs <= 1 then None
      else Some (Pool.create ~options:{ Pool.default_options with workers = jobs } ())
    in
    let t0 = Unix.gettimeofday () in
    let res =
      Bfs.search
        ~options:{ Bfs.default_options with workers = jobs; base = k.Kernel.hints; pool }
        (Kernel.target k)
    in
    let dt = Unix.gettimeofday () -. t0 in
    Option.iter Pool.shutdown pool;
    (res.Bfs.tested, dt, float_of_int res.Bfs.tested /. Float.max 1e-9 dt)
  in
  let serial_tested, serial_dt, serial_eps = campaign ~jobs:1 in
  Format.printf "(%d core(s) available — parallel speedup is bounded by that)@."
    (Domain.recommended_domain_count ());
  Format.printf "%-12s %8s %10s %12s %9s@." "variant" "evals" "wall (s)" "evals/sec"
    "speedup";
  Format.printf "%-12s %8d %10.3f %12.1f %8.2fX@." "serial" serial_tested serial_dt
    serial_eps 1.0;
  let rows =
    List.map
      (fun jobs ->
        let tested, dt, eps = campaign ~jobs in
        Format.printf "%-12s %8d %10.3f %12.1f %8.2fX@."
          (Printf.sprintf "pool -j %d" jobs)
          tested dt eps (eps /. serial_eps);
        (jobs, tested, dt, eps))
      [ 1; 2; 4 ]
  in
  let oc = open_out "BENCH_pool.json" in
  Printf.fprintf oc "{\n  \"kernel\": \"%s\",\n  \"cores\": %d,\n" k.Kernel.name
    (Domain.recommended_domain_count ());
  Printf.fprintf oc
    "  \"serial\": { \"evals\": %d, \"seconds\": %.6f, \"evals_per_sec\": %.2f },\n"
    serial_tested serial_dt serial_eps;
  Printf.fprintf oc "  \"pool\": [\n";
  List.iteri
    (fun i (jobs, tested, dt, eps) ->
      Printf.fprintf oc
        "    { \"workers\": %d, \"evals\": %d, \"seconds\": %.6f, \"evals_per_sec\": \
         %.2f, \"speedup\": %.3f }%s\n"
        jobs tested dt eps (eps /. serial_eps)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Format.printf "(written to BENCH_pool.json)@."

(* ---------------------------------------------------- shadow guidance *)

(* Evaluation count and modeled campaign wall-clock of shadow-guided vs
   unguided BFS on NAS CG and MG, plus the tracer's overhead over a plain
   native run. Emits BENCH_shadow.json. *)
let shadow_bench () =
  section "Shadow-guided search: evaluations saved (NAS CG and MG)";
  let prune_bound = 1e-1 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let row k =
    let prog = k.Kernel.program in
    let (), t_plain =
      time (fun () ->
          let vm = Vm.create prog in
          k.Kernel.setup vm;
          Vm.run vm)
    in
    let tracer =
      Shadow_tracer.create ~config:(Shadow_tracer.all_single ~base:k.Kernel.hints prog) prog
    in
    let (), t_traced =
      time (fun () -> ignore (Shadow_tracer.trace tracer ~setup:k.Kernel.setup))
    in
    let report = Shadow_report.make ~base:k.Kernel.hints prog tracer in
    (* modeled per-evaluation cost: one instrumented run (every evaluation
       of the campaign runs the patched binary once) *)
    let eval_cost =
      let patched = Patcher.patch prog k.Kernel.hints in
      let vm = Vm.create ~checked:true patched in
      k.Kernel.setup vm;
      Vm.run vm;
      Cost.of_run vm
    in
    (* modeled conversion speedup of a final configuration (Vm.Cost) *)
    let native_cost =
      let vm = Vm.create prog in
      k.Kernel.setup vm;
      Vm.run vm;
      Cost.of_run vm
    in
    let speedup_of cfg =
      let vm = Vm.create ~smode:Vm.Plain (To_single.convert_config prog cfg) in
      k.Kernel.setup vm;
      Vm.run vm;
      native_cost.Cost.time_cycles /. (Cost.of_run ~fmem_bytes:4.0 vm).Cost.time_cycles
    in
    let campaign ~shadow =
      let options =
        { Bfs.default_options with base = k.Kernel.hints; shadow }
      in
      time (fun () -> Bfs.search ~options (Kernel.target k))
    in
    let unguided, wall_u = campaign ~shadow:None in
    let guided, wall_s =
      campaign ~shadow:(Some (Bfs.shadow ~prune_above:prune_bound report))
    in
    let saved =
      100.0 *. (1.0 -. (float_of_int guided.Bfs.tested /. float_of_int unguided.Bfs.tested))
    in
    Format.printf
      "%-6s tracer %.1fx (%.3fs -> %.3fs)  evals %d -> %d (%d pruned, %.1f%% saved)@."
      k.Kernel.name
      (t_traced /. Float.max 1e-9 t_plain)
      t_plain t_traced unguided.Bfs.tested guided.Bfs.tested guided.Bfs.pruned saved;
    Format.printf
      "       modeled campaign %.3fs -> %.3fs (%.3fs/eval); final speedup %.3fX -> %.3fX \
       (static %.1f%% -> %.1f%%)@."
      (float_of_int unguided.Bfs.tested *. eval_cost.Cost.seconds)
      (float_of_int guided.Bfs.tested *. eval_cost.Cost.seconds)
      eval_cost.Cost.seconds
      (speedup_of unguided.Bfs.final)
      (speedup_of guided.Bfs.final) unguided.Bfs.static_pct guided.Bfs.static_pct;
    Printf.sprintf
      "    { \"kernel\": \"%s\",\n\
      \      \"tracer\": { \"plain_seconds\": %.6f, \"traced_seconds\": %.6f, \
       \"overhead_x\": %.3f },\n\
      \      \"modeled_eval_seconds\": %.6f,\n\
      \      \"unguided\": { \"evals\": %d, \"wall_seconds\": %.6f, \
       \"modeled_campaign_seconds\": %.6f, \"static_pct\": %.2f, \"final_speedup\": %.4f \
       },\n\
      \      \"shadow\": { \"evals\": %d, \"pruned\": %d, \"wall_seconds\": %.6f, \
       \"modeled_campaign_seconds\": %.6f, \"static_pct\": %.2f, \"final_speedup\": %.4f \
       },\n\
      \      \"evals_saved_pct\": %.2f }" k.Kernel.name t_plain t_traced
      (t_traced /. Float.max 1e-9 t_plain)
      eval_cost.Cost.seconds unguided.Bfs.tested wall_u
      (float_of_int unguided.Bfs.tested *. eval_cost.Cost.seconds)
      unguided.Bfs.static_pct
      (speedup_of unguided.Bfs.final)
      guided.Bfs.tested guided.Bfs.pruned wall_s
      (float_of_int guided.Bfs.tested *. eval_cost.Cost.seconds)
      guided.Bfs.static_pct
      (speedup_of guided.Bfs.final)
      saved
  in
  let rows = List.map row [ Nas_cg.make Kernel.W; Nas_mg.make Kernel.W ] in
  let oc = open_out "BENCH_shadow.json" in
  Printf.fprintf oc
    "{\n  \"threshold\": %.1e,\n  \"prune_bound\": %.1e,\n  \"kernels\": [\n%s\n  ]\n}\n"
    Shadow_report.default_threshold prune_bound (String.concat ",\n" rows);
  close_out oc;
  Format.printf "(written to BENCH_shadow.json)@."

(* ------------------------------------------------- compiled VM backend *)

(* Interp-vs-compiled: per-evaluation wall time of one checked patched run
   (the search's unit of work, patched as the search patches: with the
   data-flow collapse), on the hints config and on an all-single config
   that respects the hints, with the compiled run's ns/step and minor
   words/step (none for a run that traps); then two full BFS campaigns per kernel — one per backend —
   checking that results are identical and reporting the code cache's hit
   rate across the campaign. Emits BENCH_vm.json. *)
let vm_bench () =
  section "Closure-compiled backend: per-eval speedup and campaign wall time";
  let kernels = fig_kernels [ Kernel.W ] in
  let best_of reps f =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      f ();
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  Format.printf "per-evaluation (checked run, data-flow patch, best of 3):@.";
  Format.printf "%-8s %-10s %11s %13s %8s %10s %8s %11s@." "kernel" "config" "interp (s)"
    "compiled (s)" "speedup" "steps" "ns/step" "words/step";
  let per_eval =
    List.concat_map
      (fun (k : Kernel.t) ->
        List.map
          (fun (cname, cfg) ->
            let patched = Patcher.patch ~dataflow:true k.Kernel.program cfg in
            let create () =
              let vm = Vm.create ~checked:true patched in
              k.Kernel.setup vm;
              vm
            in
            (* a trapping configuration is still a complete evaluation *)
            let eval runner () = try runner (create ()) with Vm.Trap _ -> () in
            let cache = Compile.create_cache () in
            let compiled vm = Compile.run ~cache vm in
            (* warm both paths once: first compiled run pays the compile *)
            eval Vm.run ();
            eval compiled ();
            let interp_s = best_of 3 (eval Vm.run) in
            let compiled_s = best_of 3 (eval compiled) in
            let vm = create () in
            let w0 = Gc.minor_words () in
            let trapped = match compiled vm with () -> false | exception Vm.Trap _ -> true in
            let words = Gc.minor_words () -. w0 in
            let steps = vm.Vm.steps in
            let ns_per_step = compiled_s *. 1e9 /. float_of_int (max 1 steps) in
            let words_per_step = words /. float_of_int (max 1 steps) in
            let speedup = interp_s /. Float.max 1e-9 compiled_s in
            (* a trapped run stops early: its per-step figures describe no
               evaluation *)
            let per_step fmt v = if trapped then "n/a" else Printf.sprintf fmt v in
            Format.printf "%-8s %-10s %11.4f %13.4f %7.2fX %10d %8s %11s%s@." k.Kernel.name
              cname interp_s compiled_s speedup steps (per_step "%.2f" ns_per_step)
              (per_step "%.4f" words_per_step)
              (if trapped then " (traps)" else "");
            ( k.Kernel.name,
              cname,
              interp_s,
              compiled_s,
              speedup,
              steps,
              trapped,
              ns_per_step,
              words_per_step ))
          [
            ("hints", k.Kernel.hints);
            ("all-single", Shadow_tracer.all_single ~base:k.Kernel.hints k.Kernel.program);
          ])
      kernels
  in
  let campaign backend (k : Kernel.t) =
    let h, target = Harness.wrap_target (Kernel.target ~backend k) in
    let t0 = Unix.gettimeofday () in
    let res =
      Bfs.search ~options:{ Bfs.default_options with base = k.Kernel.hints } target
    in
    let dt = Unix.gettimeofday () -. t0 in
    (res, dt, Harness.counters_list h, target.Bfs.Target.code_cache)
  in
  Format.printf "@.full BFS campaign per backend:@.";
  Format.printf "%-8s %12s %14s %9s %7s %11s@." "kernel" "interp (s)" "compiled (s)"
    "speedup" "evals" "cache hits";
  let campaigns =
    List.map
      (fun (k : Kernel.t) ->
        let ri, interp_s, vi, _ = campaign Compile.Interp k in
        let rc, compiled_s, vc, cache = campaign Compile.Compiled k in
        let same_final =
          Config.digest k.Kernel.program ri.Bfs.final
          = Config.digest k.Kernel.program rc.Bfs.final
        in
        let same_verdicts = vi = vc in
        if not (same_final && same_verdicts) then begin
          (* equivalence is the point of this section: make CI smoke runs
             fail loudly instead of archiving a wrong JSON *)
          Format.printf
            "!! %s: backends disagree (final identical: %b, verdicts identical: %b)@."
            k.Kernel.name same_final same_verdicts;
          exit 1
        end;
        let stats =
          match cache with
          | Some c -> Compile.stats c
          | None -> { Code_cache.hits = 0; misses = 0; entries = 0 }
        in
        let rate = Code_cache.hit_rate stats in
        Format.printf "%-8s %12.3f %14.3f %8.2fX %7d %10.1f%%@." k.Kernel.name interp_s
          compiled_s
          (interp_s /. Float.max 1e-9 compiled_s)
          rc.Bfs.tested (100.0 *. rate);
        ( k.Kernel.name,
          interp_s,
          compiled_s,
          rc.Bfs.tested,
          same_final,
          same_verdicts,
          stats,
          rate ))
      [ Nas_cg.make Kernel.W; Nas_mg.make Kernel.W ]
  in
  let oc = open_out "BENCH_vm.json" in
  Printf.fprintf oc "{\n  \"cores\": %d,\n  \"ocaml\": %S,\n  \"per_eval\": [\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  List.iteri
    (fun i (name, cname, interp_s, compiled_s, speedup, steps, trapped, ns_per_step, words_per_step) ->
      Printf.fprintf oc
        "    { \"kernel\": %S, \"config\": %S, \"interp_s\": %.6f, \"compiled_s\": %.6f, \
         \"speedup\": %.3f, \"steps\": %d, \"trapped\": %b, \"ns_per_step\": %s, \
         \"minor_words_per_step\": %s }%s\n"
        name cname interp_s compiled_s speedup steps trapped
        (if trapped then "null" else Printf.sprintf "%.3f" ns_per_step)
        (if trapped then "null" else Printf.sprintf "%.5f" words_per_step)
        (if i = List.length per_eval - 1 then "" else ","))
    per_eval;
  Printf.fprintf oc "  ],\n  \"campaigns\": [\n";
  List.iteri
    (fun i (name, interp_s, compiled_s, evals, same_final, same_verdicts, stats, rate) ->
      Printf.fprintf oc
        "    { \"kernel\": %S, \"interp_s\": %.6f, \"compiled_s\": %.6f, \"speedup\": \
         %.3f, \"evals\": %d, \"identical_final\": %b, \"identical_verdicts\": %b, \
         \"cache_hits\": %d, \"cache_misses\": %d, \"cache_hit_rate\": %.4f }%s\n"
        name interp_s compiled_s
        (interp_s /. Float.max 1e-9 compiled_s)
        evals same_final same_verdicts stats.Code_cache.hits stats.Code_cache.misses rate
        (if i = List.length campaigns - 1 then "" else ","))
    campaigns;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Format.printf "(written to BENCH_vm.json)@."

(* --------------------------------------------------- precision formats *)

(* The precision-format lattice end-to-end. Three asserts (exit 1 on any
   failure, so CI smoke runs fail loudly instead of archiving wrong JSON):
   interpreter and compiled backends stay bit-identical under every menu
   format; the {single,double}-restricted lattice reproduces the seed
   (pre-lattice) BFS final byte-for-byte; and the full
   bf16/f16/single/double lattice completes with a verified final saving
   strictly more bits than the single|double baseline. Emits
   BENCH_formats.json with bits saved per kernel. *)
let formats_bench () =
  section "Precision-format lattice: bits saved per kernel";
  let menu = [ Formats.bfloat16; Formats.half; Formats.single; Formats.double ] in
  let kernels = [ Nas_cg.make Kernel.W; Nas_mg.make Kernel.W ] in
  let all_flag_cfg flag prog =
    Array.fold_left
      (fun acc (info : Static.insn_info) -> Config.set_insn acc info.Static.addr flag)
      Config.empty (Static.candidates prog)
  in
  (* 1. backend bit-identity under every menu format *)
  Format.printf "backend bit-identity per format (checked, all-candidates config):@.";
  let identity =
    List.concat_map
      (fun (k : Kernel.t) ->
        List.map
          (fun f ->
            let patched =
              Patcher.patch k.Kernel.program
                (all_flag_cfg (Config.of_format f) k.Kernel.program)
            in
            let run runner =
              let vm = Vm.create ~checked:true patched in
              k.Kernel.setup vm;
              (match runner vm with
              | () -> ()
              | exception Vm.Trap _ -> ()
              | exception Vm.Limit _ -> ());
              vm
            in
            let vi = run Vm.run in
            let vc = run (fun vm -> Compile.run vm) in
            let identical =
              Array.length vi.Vm.fheap = Array.length vc.Vm.fheap
              && Array.for_all2
                   (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
                   vi.Vm.fheap vc.Vm.fheap
              && vi.Vm.steps = vc.Vm.steps
            in
            if not identical then begin
              Format.printf "!! %s: interpreter and compiled disagree under %s@."
                k.Kernel.name (Formats.name f);
              exit 1
            end;
            Format.printf "  %-6s %-6s identical (%d steps)@." k.Kernel.name
              (Formats.name f) vi.Vm.steps;
            (k.Kernel.name, Formats.name f, vi.Vm.steps))
          menu)
      kernels
  in
  (* 2 + 3. campaigns: seed baseline, restricted lattice, full lattice *)
  let opts formats =
    { Bfs.default_options with workers; second_phase = true; formats }
  in
  Format.printf "@.lattice campaigns (second-phase composition on):@.";
  Format.printf "%-8s %6s %15s %14s %7s@." "kernel" "evals" "baseline bits" "lattice bits"
    "gain";
  let campaigns =
    List.map
      (fun (k : Kernel.t) ->
        let baseline = Bfs.search ~options:(opts [ Formats.single ]) (Kernel.target k) in
        let restricted =
          Bfs.search ~options:(opts [ Formats.single; Formats.double ]) (Kernel.target k)
        in
        let t0 = Unix.gettimeofday () in
        let lattice = Bfs.search ~options:(opts menu) (Kernel.target k) in
        let wall = Unix.gettimeofday () -. t0 in
        let dig r = Config.digest k.Kernel.program r.Bfs.final in
        if dig restricted <> dig baseline then begin
          Format.printf
            "!! %s: {single,double}-restricted lattice diverges from the seed BFS final@."
            k.Kernel.name;
          exit 1
        end;
        if not (baseline.Bfs.final_pass && lattice.Bfs.final_pass) then begin
          Format.printf "!! %s: unverified final (baseline %b, lattice %b)@." k.Kernel.name
            baseline.Bfs.final_pass lattice.Bfs.final_pass;
          exit 1
        end;
        if lattice.Bfs.bits_saved <= baseline.Bfs.bits_saved then begin
          Format.printf
            "!! %s: lattice saved %d bits, baseline %d — the descent went nowhere@."
            k.Kernel.name lattice.Bfs.bits_saved baseline.Bfs.bits_saved;
          exit 1
        end;
        Format.printf "%-8s %6d %15d %14d %+6d@." k.Kernel.name lattice.Bfs.tested
          baseline.Bfs.bits_saved lattice.Bfs.bits_saved
          (lattice.Bfs.bits_saved - baseline.Bfs.bits_saved);
        let census = Config.format_census k.Kernel.program lattice.Bfs.final in
        Format.printf "         census: %s@."
          (String.concat ", "
             (List.map (fun (n, c) -> Printf.sprintf "%s=%d" n c) census));
        (k.Kernel.name, baseline, lattice, wall, census))
      kernels
  in
  let oc = open_out "BENCH_formats.json" in
  Printf.fprintf oc "{\n  \"menu\": %S,\n  \"identity\": [\n"
    (Formats.menu_to_string menu);
  List.iteri
    (fun i (kernel, fmt, steps) ->
      Printf.fprintf oc
        "    { \"kernel\": %S, \"format\": %S, \"identical\": true, \"steps\": %d }%s\n"
        kernel fmt steps
        (if i = List.length identity - 1 then "" else ","))
    identity;
  Printf.fprintf oc "  ],\n  \"campaigns\": [\n";
  List.iteri
    (fun i (kernel, baseline, lattice, wall, census) ->
      let census_json =
        String.concat ", "
          (List.map (fun (n, c) -> Printf.sprintf "%S: %d" n c) census)
      in
      Printf.fprintf oc
        "    { \"kernel\": %S, \"baseline_bits_saved\": %d, \"lattice_bits_saved\": %d, \
         \"restricted_matches_seed\": true, \"final_pass\": %b, \"evals\": %d, \
         \"wall_s\": %.3f, \"census\": { %s } }%s\n"
        kernel baseline.Bfs.bits_saved lattice.Bfs.bits_saved lattice.Bfs.final_pass
        lattice.Bfs.tested wall census_json
        (if i = List.length campaigns - 1 then "" else ","))
    campaigns;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Format.printf "(written to BENCH_formats.json)@."

(* ---------------------------------------------------- campaign server *)

(* The serving layer end-to-end over a real Unix socket: concurrent
   clients submit overlapping cg/mg campaigns to one in-process daemon
   sharing a worker pool, a code cache and the cross-campaign result
   store. Asserts — exit 1 on divergence — that served campaigns produce
   final configurations identical to inline search and that a duplicate
   cg.W campaign is served >= 50% from the store. Emits BENCH_server.json. *)
let server_bench () =
  section "Campaign server: concurrent clients, cross-campaign dedup";
  let resolve (spec : Wire.job_spec) =
    match (spec.Wire.bench, spec.Wire.cls) with
    | "cg", "W" -> Ok (Nas_cg.make Kernel.W)
    | "mg", "W" -> Ok (Nas_mg.make Kernel.W)
    | b, c -> Error (Printf.sprintf "unknown benchmark %s.%s" b c)
  in
  let pool = Pool.create ~options:{ Pool.default_options with workers = 4 } () in
  let cache = Compile.create_cache () in
  let store = Store.create () in
  let sched =
    Scheduler.create
      ~options:{ Scheduler.default_options with max_concurrent = 4 }
      ~resolve ~pool ~cache ~store ()
  in
  let path = Filename.temp_file "craft_bench" ".sock" in
  Sys.remove path;
  let srv = Server.start ~scheduler:sched (Server.Unix_path path) in
  let ok = function
    | Ok v -> v
    | Error e ->
        Format.printf "!! server bench: %s@." e;
        exit 1
  in
  let connect () = ok (Client.connect (Server.Unix_path path)) in
  let spec bench =
    { Wire.bench; cls = "W"; shadow = false; priority = 0; eval_steps = None; formats = ""; strategy = "" }
  in
  let hit_frac (st : Wire.job_status) =
    float_of_int st.Wire.store_hits /. float_of_int (max 1 st.Wire.tested)
  in

  (* acceptance: a second, concurrently-connected client resubmits the
     same cg.W campaign after the first completes — it must reproduce the
     inline `craft search` final config while being served from the store *)
  let cg = Nas_cg.make Kernel.W in
  let inline =
    Bfs.search
      ~options:{ Bfs.default_options with base = cg.Kernel.hints }
      (Kernel.target cg)
  in
  let inline_text = Config.print cg.Kernel.program inline.Bfs.final in
  let a = connect () and b = connect () in
  let t0 = Unix.gettimeofday () in
  let id_a = ok (Client.submit a (spec "cg")) in
  let st_a, text_a, _ = ok (Client.wait a id_a) in
  let dt_a = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  let id_b = ok (Client.submit b (spec "cg")) in
  let st_b, text_b, _ = ok (Client.wait b id_b) in
  let dt_b = Unix.gettimeofday () -. t1 in
  Client.close a;
  Client.close b;
  let same_a = String.equal text_a inline_text in
  let same_b = String.equal text_b inline_text in
  Format.printf "%-22s %7s %11s %7s %9s %10s@." "campaign" "evals" "store hits"
    "hit %" "wall (s)" "identical";
  Format.printf "%-22s %7d %11d %6.1f%% %9.3f %10b@." "cg.W (client A)"
    st_a.Wire.tested st_a.Wire.store_hits
    (100.0 *. hit_frac st_a)
    dt_a same_a;
  Format.printf "%-22s %7d %11d %6.1f%% %9.3f %10b@." "cg.W (client B, dup)"
    st_b.Wire.tested st_b.Wire.store_hits
    (100.0 *. hit_frac st_b)
    dt_b same_b;
  if not (same_a && same_b) then begin
    Format.printf
      "!! served campaigns diverged from inline search (A identical: %b, B identical: \
       %b)@."
      same_a same_b;
    exit 1
  end;
  if hit_frac st_b < 0.5 then begin
    Format.printf "!! duplicate campaign only %.1f%% served from the store (want >= 50%%)@."
      (100.0 *. hit_frac st_b);
    exit 1
  end;

  (* throughput: 4 concurrent clients, overlapping cg/mg campaigns racing
     through the shared substrate *)
  let benches = [| "cg"; "mg"; "cg"; "mg" |] in
  let results = Array.make (Array.length benches) None in
  let t2 = Unix.gettimeofday () in
  let clients =
    Array.mapi
      (fun i bench ->
        Thread.create
          (fun () ->
            let c = connect () in
            let id = ok (Client.submit c (spec bench)) in
            let st, text, _ = ok (Client.wait c id) in
            Client.close c;
            results.(i) <- Some (bench, st, text, Unix.gettimeofday () -. t2))
          ())
      benches
  in
  Array.iter Thread.join clients;
  let wall = Unix.gettimeofday () -. t2 in
  Format.printf "@.%d concurrent clients, overlapping campaigns:@."
    (Array.length benches);
  let rows =
    Array.to_list results
    |> List.mapi (fun i r ->
           match r with
           | None ->
               Format.printf "!! client %d never finished@." i;
               exit 1
           | Some (bench, st, text, dt) ->
               Format.printf "%-22s %7d %11d %6.1f%% %9.3f@."
                 (Printf.sprintf "%s.W (client %d)" bench (i + 1))
                 st.Wire.tested st.Wire.store_hits
                 (100.0 *. hit_frac st)
                 dt;
               (bench, st, text, dt))
  in
  (* overlapping same-benchmark campaigns must also agree with each other *)
  List.iter
    (fun (bench, _, text, _) ->
      List.iter
        (fun (bench', _, text', _) ->
          if String.equal bench bench' && not (String.equal text text') then begin
            Format.printf "!! concurrent duplicate %s.W campaigns diverged@." bench;
            exit 1
          end)
        rows)
    rows;
  let total_evals = List.fold_left (fun n (_, st, _, _) -> n + st.Wire.tested) 0 rows in
  let ss = Store.stats store in
  Format.printf "throughput: %d evaluations in %.3f s (%.1f evals/sec wall)@."
    total_evals wall
    (float_of_int total_evals /. Float.max 1e-9 wall);
  Format.printf "%s@." (Store.report store);
  Format.printf "%s@." (Compile.report cache);
  let stats = Scheduler.stats sched in
  Server.stop srv;
  Scheduler.shutdown sched ();
  Pool.shutdown pool;
  let oc = open_out "BENCH_server.json" in
  Printf.fprintf oc "{\n  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  Printf.fprintf oc
    "  \"acceptance\": {\n\
    \    \"inline_identical_a\": %b,\n\
    \    \"inline_identical_b\": %b,\n\
    \    \"first\": { \"evals\": %d, \"store_hits\": %d, \"seconds\": %.6f },\n\
    \    \"duplicate\": { \"evals\": %d, \"store_hits\": %d, \"hit_rate\": %.4f, \
     \"seconds\": %.6f }\n\
    \  },\n"
    same_a same_b st_a.Wire.tested st_a.Wire.store_hits dt_a st_b.Wire.tested
    st_b.Wire.store_hits (hit_frac st_b) dt_b;
  Printf.fprintf oc "  \"concurrent\": [\n";
  List.iteri
    (fun i (bench, (st : Wire.job_status), _, dt) ->
      Printf.fprintf oc
        "    { \"kernel\": \"%s.W\", \"evals\": %d, \"store_hits\": %d, \"hit_rate\": \
         %.4f, \"seconds\": %.6f }%s\n"
        bench st.Wire.tested st.Wire.store_hits (hit_frac st) dt
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc
    "  \"totals\": { \"jobs\": %d, \"evals\": %d, \"wall_seconds\": %.6f, \
     \"evals_per_sec\": %.2f,\n\
    \    \"store_hits\": %d, \"store_misses\": %d, \"store_hit_rate\": %.4f, \
     \"store_entries\": %d,\n\
    \    \"cache_hits\": %d, \"cache_misses\": %d }\n"
    stats.Wire.submitted total_evals wall
    (float_of_int total_evals /. Float.max 1e-9 wall)
    ss.Store.hits ss.Store.misses (Store.hit_rate ss) ss.Store.entries
    stats.Wire.cache_hits stats.Wire.cache_misses;
  Printf.fprintf oc "}\n";
  close_out oc;
  Format.printf "(written to BENCH_server.json)@."

(* The distributed worker fleet vs the in-process pool: the same ep.W
   campaign driven (a) by the daemon's own pool, then (b) sharded over
   1/2/4 in-process `craft worker` loops connected through a real Unix
   socket. Asserts — exit 1 on divergence — that every fleet campaign
   reproduces the pool campaign's final configuration. Emits
   BENCH_fleet.json. Workers are hosted as threads in this process, so
   the numbers measure the protocol and dispatch overhead, not extra
   machines. *)
let fleet_bench () =
  section "Distributed worker fleet: campaign wall time vs in-process pool";
  let spec =
    { Wire.bench = "ep"; cls = "W"; shadow = false; priority = 0; eval_steps = None; formats = ""; strategy = "" }
  in
  let resolve (s : Wire.job_spec) =
    match (s.Wire.bench, s.Wire.cls) with
    | "ep", "W" -> Ok (Nas_ep.make Kernel.W)
    | b, c -> Error (Printf.sprintf "unknown benchmark %s.%s" b c)
  in
  let run_campaign ~fleet_workers =
    let pool = Pool.create ~options:{ Pool.default_options with workers = 4 } () in
    let cache = Compile.create_cache () in
    let store = Store.create () in
    let fleet =
      if fleet_workers = 0 then None
      else
        Some
          (Fleet.create
             ~options:{ Fleet.default_options with heartbeat_every = 0.5 }
             ())
    in
    let sched = Scheduler.create ?fleet ~resolve ~pool ~cache ~store () in
    let path = Filename.temp_file "craft_bench_fleet" ".sock" in
    Sys.remove path;
    let srv = Server.start ?fleet ~scheduler:sched (Server.Unix_path path) in
    let stop_flag = Atomic.make false in
    let threads =
      List.init fleet_workers (fun i ->
          Thread.create
            (fun () ->
              ignore
                (Worker.run
                   ~name:(Printf.sprintf "bench-w%d" i)
                   ~stop:(fun () -> Atomic.get stop_flag)
                   ~resolve:(fun ~bench ~cls ->
                     resolve
                       { Wire.bench; cls; shadow = false; priority = 0; eval_steps = None; formats = ""; strategy = "" })
                   (Server.Unix_path path)))
            ())
    in
    Option.iter
      (fun f ->
        let rec wait n =
          if n > 2000 then begin
            Format.printf "!! fleet bench: workers never joined@.";
            exit 1
          end;
          if Fleet.live_workers f < fleet_workers then begin
            Thread.delay 0.005;
            wait (n + 1)
          end
        in
        wait 0)
      fleet;
    let t0 = Unix.gettimeofday () in
    let id =
      match Scheduler.submit sched spec with
      | Ok id -> id
      | Error e ->
          Format.printf "!! fleet bench submit: %s@." e;
          exit 1
    in
    let rec wait () =
      match Scheduler.result sched id with
      | Ok r -> r
      | Error _ ->
          Thread.delay 0.01;
          wait ()
    in
    let st, text, _ = wait () in
    let wall = Unix.gettimeofday () -. t0 in
    Atomic.set stop_flag true;
    List.iter Thread.join threads;
    let fs = Option.map Fleet.stats fleet in
    Server.stop srv;
    Scheduler.shutdown sched ();
    Option.iter Fleet.stop fleet;
    Pool.shutdown pool;
    (text, st, wall, fs)
  in
  let base_text, base_st, base_wall, _ = run_campaign ~fleet_workers:0 in
  Format.printf "%-24s %7s %9s %8s %8s %10s@." "campaign" "evals" "wall (s)"
    "remote" "local" "identical";
  Format.printf "%-24s %7d %9.3f %8s %8s %10s@." "ep.W (in-process pool)"
    base_st.Wire.tested base_wall "-" "-" "-";
  let rows =
    List.map
      (fun n ->
        let text, st, wall, fs = run_campaign ~fleet_workers:n in
        let same = String.equal text base_text in
        let remote, local =
          match fs with
          | Some s -> (s.Fleet.remote, s.Fleet.local_fallbacks)
          | None -> (0, 0)
        in
        Format.printf "%-24s %7d %9.3f %8d %8d %10b@."
          (Printf.sprintf "ep.W (%d worker%s)" n (if n = 1 then "" else "s"))
          st.Wire.tested wall remote local same;
        (n, st, wall, remote, local, same))
      [ 1; 2; 4 ]
  in
  if List.exists (fun (_, _, _, _, _, same) -> not same) rows then begin
    Format.printf "!! fleet campaigns diverged from the in-process pool final@.";
    exit 1
  end;
  let oc = open_out "BENCH_fleet.json" in
  Printf.fprintf oc "{\n  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  Printf.fprintf oc
    "  \"baseline\": { \"kernel\": \"ep.W\", \"evals\": %d, \"seconds\": %.6f },\n"
    base_st.Wire.tested base_wall;
  Printf.fprintf oc "  \"fleet\": [\n";
  List.iteri
    (fun i (n, (st : Wire.job_status), wall, remote, local, same) ->
      Printf.fprintf oc
        "    { \"workers\": %d, \"evals\": %d, \"seconds\": %.6f, \"remote_evals\": \
         %d, \"local_fallbacks\": %d, \"identical_final\": %b }%s\n"
        n st.Wire.tested wall remote local same
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Format.printf "(written to BENCH_fleet.json)@."

(* ---------------------------------------------------------- recovery *)

(* The durability tax and the recovery speed behind `craft serve
   --state-dir`: store append throughput under the three fsync policies
   (never / batched / per-record), cold replay of the resulting log,
   offline compaction of a log grown across many daemon lifetimes, and
   the job-table WAL's append + replay. Asserts — exit 1 — that replay
   returns every record and compaction keeps exactly the distinct keys.
   Emits BENCH_recovery.json. *)
let recovery_bench () =
  section "Durability: store fsync policies, replay, compaction, WAL";
  let dir = Filename.temp_file "craft_bench_rec" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
  @@ fun () ->
  let key i = Printf.sprintf "%016x/steps=default/%016x" i ((i * 2654435761) land max_int) in
  let verdict i = if i land 7 = 0 then Verdict.Fail_verify else Verdict.Pass in
  (* throughput of the append path under each fsync policy; per-record
     fsync gets a smaller n so slow disks keep the bench quick *)
  let policies = [ (0, "flush only", 4000); (32, "batched (32)", 4000); (1, "per record", 400) ] in
  Format.printf "%-16s %9s %10s %14s@." "fsync policy" "records" "wall (s)" "records/sec";
  let appends =
    List.map
      (fun (fsync_every, label, n) ->
        let path = Filename.concat dir (Printf.sprintf "store_%d.log" fsync_every) in
        let store = Store.create ~path ~fsync_every () in
        let t0 = Unix.gettimeofday () in
        for i = 0 to n - 1 do
          ignore (Store.find_or_compute store ~key:(key i) (fun () -> verdict i))
        done;
        Store.close store;
        let dt = Unix.gettimeofday () -. t0 in
        Format.printf "%-16s %9d %10.3f %14.0f@." label n dt
          (float_of_int n /. Float.max 1e-9 dt);
        (label, fsync_every, path, n, dt))
      policies
  in
  (* cold replay: a restarted daemon reading its whole log back *)
  let _, _, replay_path, replay_n, _ = List.hd appends in
  let t0 = Unix.gettimeofday () in
  let reopened = Store.create ~path:replay_path () in
  let replay_dt = Unix.gettimeofday () -. t0 in
  let replayed = (Store.stats reopened).Store.replayed in
  Store.close reopened;
  Format.printf "@.replay: %d record(s) in %.3f s (%.0f records/sec)@." replayed replay_dt
    (float_of_int replayed /. Float.max 1e-9 replay_dt);
  if replayed <> replay_n then begin
    Format.printf "!! replay lost records: wrote %d, replayed %d@." replay_n replayed;
    exit 1
  end;
  (* compaction: the same keys re-appended across simulated lifetimes *)
  let lifetimes = 4 and distinct = 1000 in
  let compact_path = Filename.concat dir "store_compact.log" in
  let oc = open_out compact_path in
  output_string oc "# craft-store v1\n";
  for life = 0 to lifetimes - 1 do
    for i = 0 to distinct - 1 do
      Printf.fprintf oc "%s %s %d\n"
        (Verdict.escape (key i))
        (Verdict.verdict_to_string (verdict i))
        ((life * distinct) + i)
    done
  done;
  close_out oc;
  let t0 = Unix.gettimeofday () in
  let kept, dropped =
    match Store.compact ~path:compact_path with
    | Ok r -> r
    | Error why ->
        Format.printf "!! compaction failed: %s@." why;
        exit 1
  in
  let compact_dt = Unix.gettimeofday () -. t0 in
  Format.printf "compaction: %d record(s) -> %d kept, %d dropped in %.3f s@."
    (lifetimes * distinct) kept dropped compact_dt;
  if kept <> distinct then begin
    Format.printf "!! compaction kept %d, want %d distinct@." kept distinct;
    exit 1
  end;
  (* the job-table WAL: lifecycle appends and a restart's replay *)
  let wal_n = 1000 in
  let wal_path = Filename.concat dir "jobs.wal" in
  let wal = Wal.create ~path:wal_path in
  let spec = { Wire.bench = "cg"; cls = "W"; shadow = false; priority = 0; eval_steps = None; formats = ""; strategy = "" } in
  let t0 = Unix.gettimeofday () in
  for i = 1 to wal_n do
    let id = Printf.sprintf "j%04d" i in
    Wal.append wal (Wal.Submitted { id; spec });
    Wal.append wal (Wal.Outcome { id; state = Wire.Done; summary = "tested 45" })
  done;
  Wal.close wal;
  let wal_append_dt = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let table = Wal.replay (Wal.load ~path:wal_path) in
  let wal_replay_dt = Unix.gettimeofday () -. t0 in
  Format.printf "wal: %d jobs appended (fsync each) in %.3f s, replayed in %.3f s@."
    wal_n wal_append_dt wal_replay_dt;
  if List.length table <> wal_n then begin
    Format.printf "!! wal replay listed %d job(s), want %d@." (List.length table) wal_n;
    exit 1
  end;
  let oc = open_out "BENCH_recovery.json" in
  Printf.fprintf oc "{\n  \"appends\": [\n";
  List.iteri
    (fun i (label, fsync_every, _, n, dt) ->
      Printf.fprintf oc
        "    { \"policy\": \"%s\", \"fsync_every\": %d, \"records\": %d, \"seconds\": \
         %.6f, \"records_per_sec\": %.1f }%s\n"
        label fsync_every n dt
        (float_of_int n /. Float.max 1e-9 dt)
        (if i = List.length appends - 1 then "" else ","))
    appends;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"replay\": { \"records\": %d, \"seconds\": %.6f },\n" replayed
    replay_dt;
  Printf.fprintf oc
    "  \"compaction\": { \"records_in\": %d, \"kept\": %d, \"dropped\": %d, \"seconds\": \
     %.6f },\n"
    (lifetimes * distinct) kept dropped compact_dt;
  Printf.fprintf oc
    "  \"wal\": { \"jobs\": %d, \"append_seconds\": %.6f, \"replay_seconds\": %.6f }\n"
    wal_n wal_append_dt wal_replay_dt;
  Printf.fprintf oc "}\n";
  close_out oc;
  Format.printf "(written to BENCH_recovery.json)@."

(* --------------------------------------------------------- microbench *)

let microbench () =
  section "Microbenchmarks (Bechamel): framework costs";
  let open Bechamel in
  let open Toolkit in
  let ep = Nas_ep.make Kernel.W in
  let patched = Patcher.patch ep.Kernel.program Config.empty in
  let cgw = Nas_cg.make Kernel.W in
  let tests =
    Test.make_grouped ~name:"craft"
      [
        Test.make ~name:"vm: native ep.W run"
          (Staged.stage (fun () ->
               let vm = Vm.create ep.Kernel.program in
               ep.Kernel.setup vm;
               Vm.run vm));
        Test.make ~name:"vm: instrumented ep.W run"
          (Staged.stage (fun () ->
               let vm = Vm.create ~checked:true patched in
               ep.Kernel.setup vm;
               Vm.run vm));
        Test.make ~name:"vm: instrumented ep.W run (dataflow-optimized)"
          (Staged.stage
             (let opt = Patcher.patch ~dataflow:true ep.Kernel.program Config.empty in
              fun () ->
                let vm = Vm.create ~checked:true opt in
                ep.Kernel.setup vm;
                Vm.run vm));
        Test.make ~name:"patcher: patch cg.W"
          (Staged.stage (fun () -> ignore (Patcher.patch cgw.Kernel.program Config.empty)));
        Test.make ~name:"config: print+parse cg.W"
          (Staged.stage (fun () ->
               let txt = Config.print cgw.Kernel.program Config.empty in
               ignore (Config.parse cgw.Kernel.program txt)));
        Test.make ~name:"fpbits: downcast+upcast"
          (Staged.stage (fun () -> ignore (Replaced.upcast (Replaced.downcast 0.1))));
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      match Analyze.OLS.estimates r with
      | Some (est :: _) -> Format.printf "%-40s %14.0f ns/run@." name est
      | _ -> Format.printf "%-40s (no estimate)@." name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig1", fig1);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("sec31", sec31);
    ("sec32", sec32);
    ("sec33", sec33);
    ("ablation", ablation);
    ("dataflow", dataflow);
    ("searchpatch", searchpatch);
    ("cancel", cancel);
    ("strategies", strategies);
    ("packed", packed);
    ("pool", pool_bench);
    ("shadow", shadow_bench);
    ("vm", vm_bench);
    ("formats", formats_bench);
    ("server", server_bench);
    ("fleet", fleet_bench);
    ("recovery", recovery_bench);
    ("micro", microbench);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Format.printf "unknown section %S; available: %s@." name
            (String.concat " " (List.map fst sections)))
    requested;
  Format.printf "@.total bench time: %.1f s@." (Unix.gettimeofday () -. t0)
