(* Tests for the pluggable search-strategy subsystem: token parsing, bfs
   golden transcripts (narration, evaluation order, counters and
   checkpoint bytes recorded before bfs ran on the shared campaign
   driver), split/delta/anneal sanity on known-answer synthetics and NAS
   kernels, anneal fixed-seed determinism across the sequential and pool
   evaluation paths, stop + resume for every strategy, one statistics
   universe, and strategy-tagged checkpoint compatibility — untagged
   pre-strategy snapshots load and resume as bfs, tagged snapshots refuse
   to resume under a different strategy. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then false
    else String.sub s i n = sub || go (i + 1)
  in
  go 0

(* the known-answer synthetic from the BFS tests: [n_ops] const+add
   chains, the poisoned ones losing bits in single precision. [accept]
   judges the output against the all-double reference (default: exact) *)
let chains ?(accept = ( = )) ~n_ops ~poison () =
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
  Bfs.Target.make program
    ~setup:(fun _ -> ())
    ~output:(fun vm -> Vm.read_f vm out n_ops)
    ~verify:(fun res -> accept res reference)

let synthetic ~n_ops ~poison = chains ~n_ops ~poison ()

(* ------------------------------------------------------------- tokens *)

let test_tokens () =
  let ok s t =
    match Strategy.of_string s with
    | Ok t' -> checkb (Printf.sprintf "%S parses" s) true (t' = t)
    | Error why -> Alcotest.failf "%S refused: %s" s why
  in
  ok "" Strategy.Bfs;
  ok "bfs" Strategy.Bfs;
  ok " BFS " Strategy.Bfs;
  ok "split" Strategy.Split;
  ok "delta" Strategy.Delta;
  ok "anneal" (Strategy.Anneal Strategy.default_seed);
  ok "anneal:42" (Strategy.Anneal 42);
  List.iter
    (fun s ->
      checkb
        (Printf.sprintf "%S refused" s)
        true
        (Result.is_error (Strategy.of_string s)))
    [ "zz9"; "anneal:"; "anneal:x"; "bfs;drop"; "b fs" ];
  List.iter
    (fun t ->
      checkb "to_string round-trips" true
        (Strategy.of_string (Strategy.to_string t) = Ok t))
    [
      Strategy.Bfs;
      Strategy.Split;
      Strategy.Delta;
      Strategy.Anneal Strategy.default_seed;
      Strategy.Anneal 7;
    ];
  checks "default seed prints bare" "anneal"
    (Strategy.to_string (Strategy.Anneal Strategy.default_seed))

(* The recipe's validation: each field fails with its own typed error,
   and a recovered job falls back field by field instead of failing *)
let test_campaign_validation () =
  let single = Bfs.default_options.Bfs.formats in
  checkb "defaults" true (Campaign.parse ~formats:"" ~strategy:"" = Ok (single, Strategy.Bfs));
  (match Campaign.parse ~formats:"bf16,zz9" ~strategy:"split" with
  | Error (Campaign.Bad_formats why) -> checkb "names the format" true (contains why "zz9")
  | _ -> Alcotest.fail "bad menu accepted");
  (match Campaign.parse ~formats:"bf16" ~strategy:"ddmax" with
  | Error (Campaign.Bad_strategy _ as e) ->
      checkb "names the token" true (contains (Campaign.error_message e) "ddmax")
  | _ -> Alcotest.fail "bad strategy accepted");
  checkb "recovered menu falls back alone" true
    (Campaign.recovered ~formats:"zz9" ~strategy:"delta" = (single, Strategy.Delta));
  checkb "recovered token falls back alone" true
    (snd (Campaign.recovered ~formats:"bf16" ~strategy:"zz9") = Strategy.Bfs)

(* ----------------------------------------------------------- helpers *)

(* wrap both evaluation entry points so every configuration tested is
   recorded (as its digest) in evaluation order *)
let recording target =
  let log = ref [] in
  let m = Mutex.create () in
  let note cfg =
    Mutex.lock m;
    log := Config.digest target.Bfs.Target.program cfg :: !log;
    Mutex.unlock m
  in
  let wrap f cfg =
    note cfg;
    f cfg
  in
  ( {
      target with
      Bfs.Target.eval = wrap target.Bfs.Target.eval;
      raw_eval = wrap target.Bfs.Target.raw_eval;
    },
    log )

(* -------------------------------------------- the machine strategies *)

let test_machines_find_the_answer () =
  let bfs = Bfs.search (synthetic ~n_ops:10 ~poison:[ 3; 7 ]) in
  List.iter
    (fun tok ->
      let name = Strategy.to_string tok in
      let r = Strategy.run tok (synthetic ~n_ops:10 ~poison:[ 3; 7 ]) in
      checkb (name ^ " passes") true r.Bfs.final_pass;
      (* exactly the benign 8 chains * 2 insns survive; the top-up sweep
         makes every strategy maximal over the same move set *)
      checki (name ^ " replaced") 16 r.Bfs.static_replaced;
      checki (name ^ " candidates") 20 r.Bfs.candidates;
      checkb (name ^ " saves at least bfs bits") true
        (r.Bfs.bits_saved >= bfs.Bfs.bits_saved))
    [ Strategy.Split; Strategy.Delta; Strategy.Anneal Strategy.default_seed ]

let test_machines_all_poisoned () =
  List.iter
    (fun tok ->
      let name = Strategy.to_string tok in
      let r = Strategy.run tok (synthetic ~n_ops:4 ~poison:[ 0; 1; 2; 3 ]) in
      checkb (name ^ " still passes") true r.Bfs.final_pass;
      checkb (name ^ " keeps few") true (r.Bfs.static_replaced <= 4))
    [ Strategy.Split; Strategy.Delta; Strategy.Anneal Strategy.default_seed ]

let test_delta_all_pass () =
  let r = Strategy.run Strategy.Delta (synthetic ~n_ops:6 ~poison:[]) in
  checkb "passes" true r.Bfs.final_pass;
  checki "everything" 12 r.Bfs.static_replaced;
  (* the everything-single probe passes; the driver then evaluates the union *)
  checki "probe + union" 2 r.Bfs.tested

let test_delta_honours_hints () =
  let k = Nas_ep.make Kernel.W in
  let r =
    Strategy.run
      ~options:{ Bfs.default_options with base = k.Kernel.hints }
      Strategy.Delta (Kernel.target k)
  in
  checkb "passes" true r.Bfs.final_pass;
  (* the ignored RNG instructions are not candidates *)
  checki "all candidates" 58 (Array.length (Static.candidates k.Kernel.program));
  checki "hinted universe" 26 r.Bfs.candidates

let test_delta_passes_mg_where_bfs_fails () =
  (* delta trades evaluations for composability: on mg.W the bfs union of
     individually-passing structures fails, delta's final passes *)
  let t = Kernel.target (Nas_mg.make Kernel.W) in
  let bfs = Bfs.search t in
  let dd = Strategy.run Strategy.Delta t in
  checkb "bfs union fails here" false bfs.Bfs.final_pass;
  checkb "delta passes" true dd.Bfs.final_pass;
  checkb "delta found replacements" true (dd.Bfs.static_replaced > 0)

(* the delta-debugging tests of the retired legacy strategies suite, kept
   under their names and run on Strategy.Delta over the shared driver *)
let test_delta_debug_finds_answer () =
  let r = Strategy.run Strategy.Delta (synthetic ~n_ops:10 ~poison:[ 3; 7 ]) in
  checkb "passes" true r.Bfs.final_pass;
  (* exactly the benign 8 chains * 2 insns are single *)
  checki "replaced" 16 r.Bfs.static_replaced;
  checki "candidates" 20 r.Bfs.candidates

let test_delta_debug_none_pass () =
  let r = Strategy.run Strategy.Delta (synthetic ~n_ops:4 ~poison:[ 0; 1; 2; 3 ]) in
  checkb "passes" true r.Bfs.final_pass;
  (* only the exact constants could survive; the adds all fail *)
  checkb "few replaced" true (r.Bfs.static_replaced <= 4)

let all_tokens =
  [ Strategy.Bfs; Strategy.Split; Strategy.Delta; Strategy.Anneal Strategy.default_seed ]

let test_one_statistics_universe () =
  (* a base that pre-flags one benign instruction single: it is still a
     candidate, and replaced in every final *)
  let target = synthetic ~n_ops:6 ~poison:[ 4 ] in
  let first = (Static.candidates target.Bfs.Target.program).(0) in
  let base = Config.set_insn Config.empty first.Static.addr Config.Single in
  let runs =
    List.map
      (fun tok ->
        (Strategy.to_string tok, Strategy.run ~options:{ Bfs.default_options with base } tok target))
      all_tokens
  in
  let _, bfs = List.hd runs in
  List.iter
    (fun (name, r) ->
      checkb (name ^ " passes") true r.Bfs.final_pass;
      checki (name ^ " candidates") 12 r.Bfs.candidates;
      checki (name ^ " static replaced") 10 r.Bfs.static_replaced;
      checki (name ^ " bits saved") 320 r.Bfs.bits_saved;
      checkb (name ^ " static %") true (r.Bfs.static_pct = bfs.Bfs.static_pct);
      checkb (name ^ " dynamic %") true (r.Bfs.dynamic_pct = bfs.Bfs.dynamic_pct))
    runs

let test_anneal_determinism () =
  let t = synthetic ~n_ops:12 ~poison:[ 2; 9 ] in
  let p = t.Bfs.Target.program in
  let go workers =
    Strategy.run
      ~options:{ Bfs.default_options with workers }
      (Strategy.Anneal 42) t
  in
  let a = go 1 in
  let b = go 1 in
  let c = go 4 in
  checkb "passes" true a.Bfs.final_pass;
  checks "same seed, same final (sequential rerun)"
    (Config.digest p a.Bfs.final)
    (Config.digest p b.Bfs.final);
  checks "same seed, same final (pool path)"
    (Config.digest p a.Bfs.final)
    (Config.digest p c.Bfs.final);
  checki "same evals" a.Bfs.tested c.Bfs.tested;
  checki "same bits" a.Bfs.bits_saved c.Bfs.bits_saved

(* --------------------------------------------- checkpoint compatibility *)

let with_temp f =
  let path = Filename.temp_file "craft_strategy" ".ck" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------------------------------- bfs goldens *)

let md5 s = Digest.to_hex (Digest.string s)

(* One bfs campaign with a snapshot after every wave, reduced to a
   transcript: MD5s of the narration log, the evaluated configuration
   sequence, the final configuration and every checkpoint file written, plus
   the counters. [save_counters] runs at the start of each save, so it reads
   the file the previous save left; the last file is read after the run. *)
let transcript ?(options = Bfs.default_options) ?(resume = false) ?(evals = true) ~path
    target =
  if not resume then Sys.remove path;
  let target, log = recording target in
  let files = ref [] in
  let grab () = if Sys.file_exists path then files := read_file path :: !files in
  let checkpoint =
    Bfs.checkpoint ~resume
      ~save_counters:(fun () ->
        grab ();
        [])
      path
  in
  let r = Bfs.search ~options:{ options with checkpoint = Some checkpoint } target in
  grab ();
  let p = target.Bfs.Target.program in
  [
    "log " ^ md5 (String.concat "\n" r.Bfs.log);
    Printf.sprintf "tested %d" r.Bfs.tested;
    "final " ^ md5 (Config.print p r.Bfs.final);
    Printf.sprintf "final_pass %b" r.Bfs.final_pass;
    Printf.sprintf "interrupted %b pruned %d" r.Bfs.interrupted r.Bfs.pruned;
  ]
  @
  if not evals then []
  else
    Printf.sprintf "snapshots %d" r.Bfs.snapshots
    :: ("evals " ^ md5 (String.concat "\n" (List.rev !log)))
    :: List.rev_map (fun f -> "checkpoint " ^ md5 f) !files

let shadow_chains () =
  let target = synthetic ~n_ops:8 ~poison:[ 1; 6 ] in
  let program = target.Bfs.Target.program in
  let tracer = Shadow_tracer.create program in
  let (_ : Vm.t) = Shadow_tracer.trace tracer ~setup:(fun _ -> ()) in
  let report = Shadow_report.make ~threshold:1e-12 program tracer in
  (target, Bfs.shadow ~prune_above:1e-10 report)

(* Every transcript below was recorded from [Bfs.search] before it ran on
   the shared campaign driver, and is never regenerated: the driver must
   reproduce bfs's narration, evaluation order, counters, snapshot cadence
   and checkpoint bytes exactly. *)
let bfs_goldens : (string * string list) list =
  [
    ( "plain",
      [
        "log 67b308e331f3e90df71b40ef378b7949";
        "tested 26";
        "final b1cf63b20c00045ab3f822240d9033bf";
        "final_pass true";
        "interrupted false pruned 0";
        "snapshots 26";
        "evals 7bb604029dfa5aa7de856ef7bff90311";
        "checkpoint e3e25c915d9761b9a9f1b2f784066479";
        "checkpoint 7cc2575397640a5e30e1d9610604802d";
        "checkpoint bb95cf4aa6e5931a76a83e5c94efe5a4";
        "checkpoint 52da571844d1e541b69a08844e831c49";
        "checkpoint fecab1c538db929f3f3144bac7d62205";
        "checkpoint f935b6c9809a1d88174eb3a400d4f140";
        "checkpoint a5467bd5aebf487a1c2381d51f820ebf";
        "checkpoint 91028e6c0cc41e89eb02822a0cdfd899";
        "checkpoint e5c39d0513781feab53ac39539021630";
        "checkpoint f3aa1c267c423791f4cca296ecfdb09c";
        "checkpoint 84a9d900b5077522aa35e5ad9fe0d42c";
        "checkpoint b3f163de1d7680e1fb54d046a9039d72";
        "checkpoint 8ab1a0e57d46bcb36c67a83d457e4c8a";
        "checkpoint 4d16a69b1f54a1a7757858b2de29f965";
        "checkpoint 3f5d73233f715b64b9d0676801043f86";
        "checkpoint cffec617a3bcb28f8af05cfd2c45c337";
        "checkpoint 13e6494f4aab3997e825546ab9c82234";
        "checkpoint 07df4171acf8fa05edc950c8bd570749";
        "checkpoint 49f12fa376b6d06341102f11ec061f76";
        "checkpoint 613f4fdc243fbf60af92d47e791c8f27";
        "checkpoint d93f9e330ba376c74f455621973454b4";
        "checkpoint 2767f0aeb407033e29499aceb7490c41";
        "checkpoint 47b9269b8b3aa36c8857c5940db701a2";
        "checkpoint 0899b449eef47ba7d309afbba6aab31e";
        "checkpoint 912967f72fc7ac3a4b2f799587c24cda";
        "checkpoint 912967f72fc7ac3a4b2f799587c24cda";
      ] );
    ( "second phase",
      [
        "log e4927416f8284f082475d8897ff08942";
        "tested 22";
        "final 89428b0d2ce6ba3ed3761643ffcc2756";
        "final_pass true";
        "interrupted false pruned 0";
        "snapshots 6";
        "evals 67fbfa7b9a8feeac1800429dd13e0161";
        "checkpoint 43bf36143d60700fbb9982e75cca0789";
        "checkpoint c706c122b6383b239c0acc6b478bba36";
        "checkpoint af7f79dd24ad67e116bc71f40b50c0a5";
        "checkpoint 461a88595575a4dd9f4c6e35974e8352";
        "checkpoint 9a8203b293857b16f18cf9cc36f14d3e";
        "checkpoint 9a8203b293857b16f18cf9cc36f14d3e";
      ] );
    ( "shadow seed + prune",
      [
        "log ec678b470b92168e26016cdc3bcee00a";
        "tested 2";
        "final 43534a6fd66d6fe595b245a02af2a4cd";
        "final_pass true";
        "interrupted false pruned 4";
        "snapshots 5";
        "evals ebc0e06b1fea8aa5cedd5c45701cfa90";
        "checkpoint 5a404cd5ed9328d7166aa7fa40cc7b8a";
        "checkpoint 425d839f701f19b1b157b1d8f6f59286";
        "checkpoint 2631d93c2876681b2d1b41403a765b76";
        "checkpoint fd735443b0dfa67ad0f1eb9af6e01dab";
        "checkpoint fd735443b0dfa67ad0f1eb9af6e01dab";
      ] );
    ( "stop after 3 evaluations, resume",
      [
        "log 723f6140f08a693586c089e6da359ab0";
        "tested 4";
        "final f7b3a46c397d031d380e5ca3a273de9d";
        "final_pass true";
        "interrupted true pruned 0";
        "snapshots 4";
        "evals 8897dfb1c93f514fed545e7b2ef71a0b";
        "checkpoint e3e25c915d9761b9a9f1b2f784066479";
        "checkpoint 7cc2575397640a5e30e1d9610604802d";
        "checkpoint bb95cf4aa6e5931a76a83e5c94efe5a4";
        "checkpoint d8a2eda4fbdb26f0cc3a98494c57dd70";
        "log 71f8f655415e474e69a894e8471bafbc";
        "tested 26";
        "final b1cf63b20c00045ab3f822240d9033bf";
        "final_pass true";
        "interrupted false pruned 0";
        "snapshots 23";
        "evals aa17e251426135b8245940ffdb5b690f";
        "checkpoint d8a2eda4fbdb26f0cc3a98494c57dd70";
        "checkpoint dc711f1f3946401cd9598c70a5a5b691";
        "checkpoint 8739390e1de14f4580bb2f61cc4571c8";
        "checkpoint 80b2715978f8a669479c317bf9a47adc";
        "checkpoint 4c302af227e57ca00969b4424c2d9273";
        "checkpoint 9af68c7dca6ed2f6546ef46173c2225b";
        "checkpoint a7086f32111ca572547f59a0a5e005e3";
        "checkpoint 8de1d3271e7262e50e05f7f0fbd418bf";
        "checkpoint 28d6c3cdc05f389f3d513d659fb20637";
        "checkpoint affa64e899797f3c0ba73b2314b82a64";
        "checkpoint fb0b07c891081df9b81a4c923e404149";
        "checkpoint c3fbee83adcb2ea268cec94e2a4031d2";
        "checkpoint 60b5503a23e2e3650d988fccb9262cec";
        "checkpoint e71483cb87d001b775b3e4cc42684aec";
        "checkpoint 940420e440319bab60c5b13ecc119d55";
        "checkpoint ccc2c483d4e47fa7efb89f6bd16cce67";
        "checkpoint a772fe316d7e85a4762fc65224f13792";
        "checkpoint 5603e73a82dd0b2a6490d4e9a59af96e";
        "checkpoint 25a7e20f5de79301bd95990c437c7ecb";
        "checkpoint 0c0f4bf1093ee9bfc35aa1d195337215";
        "checkpoint 8d6f95aab92ac29557a2ee31ea5b5899";
        "checkpoint 4f6c6103437a6aba59cb72aa67d2b828";
        "checkpoint 894a054027b54bbc987026db396ec6cc";
        "checkpoint 894a054027b54bbc987026db396ec6cc";
      ] );
    ( "workers = 4",
      [
        "log 67b308e331f3e90df71b40ef378b7949";
        "tested 26";
        "final b1cf63b20c00045ab3f822240d9033bf";
        "final_pass true";
        "interrupted false pruned 0";
      ] );
  ]

let bfs_campaigns =
  [
    ("plain", fun path -> transcript ~path (synthetic ~n_ops:10 ~poison:[ 3; 7 ]));
    ( "second phase",
      fun path ->
        (* each poisoned chain fits the error budget alone, two do not: the
           union fails and the greedy composition decides *)
        let accept res reference =
          let err = ref 0.0 in
          Array.iteri (fun k v -> err := !err +. Float.abs (v -. reference.(k))) res;
          !err <= 4e-9
        in
        transcript ~path
          ~options:{ Bfs.default_options with second_phase = true }
          (chains ~accept ~n_ops:8 ~poison:[ 2; 5 ] ()) );
    ( "shadow seed + prune",
      fun path ->
        let target, shadow = shadow_chains () in
        transcript ~path ~options:{ Bfs.default_options with shadow = Some shadow } target );
    ( "stop after 3 evaluations, resume",
      fun path ->
        let n = Atomic.make 0 in
        let target = synthetic ~n_ops:10 ~poison:[ 3; 7 ] in
        let counted =
          {
            target with
            Bfs.Target.eval =
              (fun cfg ->
                Atomic.incr n;
                target.Bfs.Target.eval cfg);
          }
        in
        let stopped =
          transcript ~path
            ~options:{ Bfs.default_options with stop = (fun () -> Atomic.get n >= 3) }
            counted
        in
        stopped @ transcript ~path ~resume:true target );
    ( "workers = 4",
      fun path ->
        transcript ~path ~evals:false
          ~options:{ Bfs.default_options with workers = 4 }
          (synthetic ~n_ops:10 ~poison:[ 3; 7 ]) );
  ]

(* A stop request polled at a wave boundary ends the campaign as
   interrupted, with exactly one final snapshot on top of the per-wave
   ones; a resume from it finishes the search. With one worker a bfs, split
   or anneal wave is one evaluation, while delta's second wave carries both
   complements of its first partition — so three evaluations are three
   waves, or two for delta. *)
let test_stop_then_resume () =
  List.iter
    (fun (tok, waves) ->
      with_temp (fun path ->
          let name = Strategy.to_string tok in
          let target = synthetic ~n_ops:12 ~poison:[ 2; 9 ] in
          let p = target.Bfs.Target.program in
          let n = Atomic.make 0 in
          let counted =
            {
              target with
              Bfs.Target.eval =
                (fun cfg ->
                  Atomic.incr n;
                  target.Bfs.Target.eval cfg);
            }
          in
          let options ~resume stop =
            { Bfs.default_options with checkpoint = Some (Bfs.checkpoint ~resume path); stop }
          in
          let stopped =
            Strategy.run ~options:(options ~resume:false (fun () -> Atomic.get n >= 3)) tok counted
          in
          checkb (name ^ " interrupted") true stopped.Bfs.interrupted;
          checki (name ^ " snapshots = waves + 1") (waves + 1) stopped.Bfs.snapshots;
          Atomic.set n 0;
          let resumed = Strategy.run ~options:(options ~resume:true (fun () -> false)) tok counted in
          checkb (name ^ " resumed run passes") true resumed.Bfs.final_pass;
          checkb (name ^ " resumed from the snapshot") true
            (List.exists (fun l -> contains l "RESUME from") resumed.Bfs.log);
          if tok = Strategy.Bfs then begin
            let fresh = Bfs.search target in
            checks "resumed final = uninterrupted final"
              (Config.print p fresh.Bfs.final)
              (Config.print p resumed.Bfs.final);
            checkb "resume evaluates less than a fresh run" true (Atomic.get n < fresh.Bfs.tested)
          end))
    [
      (Strategy.Bfs, 3);
      (Strategy.Split, 3);
      (Strategy.Delta, 2);
      (Strategy.Anneal Strategy.default_seed, 3);
    ]

let test_bfs_goldens () =
  List.iter
    (fun (name, campaign) ->
      let got = with_temp campaign in
      match List.assoc_opt name bfs_goldens with
      | None ->
          Alcotest.failf "%s: no golden; recorded [ %s ]" name
            (String.concat "; " (List.map (Printf.sprintf "%S") got))
      | Some want -> Alcotest.(check (list string)) (name ^ ": golden transcript") want got)
    bfs_campaigns

(* the committed fixture is a verbatim pre-strategy checkpoint — written
   before the strategy record existed — and must load with strategy "bfs" *)
let test_prestrategy_fixture_loads_as_bfs () =
  let path =
    Filename.concat (Filename.dirname Sys.executable_name) "prestrategy.ckpt"
  in
  match Checkpoint.load ~path with
  | Error why -> Alcotest.failf "fixture refused: %s" why
  | Ok snap ->
      checks "untagged snapshot is bfs" "bfs" snap.Checkpoint.strategy;
      checki "tested" 7 snap.Checkpoint.tested;
      checkb "passing carried" true
        (snap.Checkpoint.passing = [ "M:syn"; "I:12@e5m10" ])

let test_bfs_snapshots_stay_untagged () =
  with_temp (fun path ->
      let snap =
        {
          Checkpoint.key = "cafe";
          tested = 3;
          next_seq = 1;
          queue = [];
          passing = [ "I:4" ];
          counters = [];
          log = [ "one line" ];
          strategy = "bfs";
        }
      in
      Checkpoint.save ~path snap;
      (* byte-compatible with the pre-strategy format: no strategy record *)
      checkb "no strategy line for bfs" false
        (contains (read_file path) "strategy");
      checks "loads back as bfs" "bfs"
        (Result.get_ok (Checkpoint.load ~path)).Checkpoint.strategy;
      (* a machine strategy's tag round-trips *)
      Checkpoint.save ~path { snap with strategy = "anneal:42" };
      checkb "tag written" true (contains (read_file path) "strategy anneal");
      checks "tag loads back" "anneal:42"
        (Result.get_ok (Checkpoint.load ~path)).Checkpoint.strategy)

let test_tagged_snapshot_refuses_other_strategy () =
  with_temp (fun path ->
      let target = synthetic ~n_ops:6 ~poison:[ 1 ] in
      let options =
        {
          Bfs.default_options with
          checkpoint = Some (Bfs.checkpoint ~resume:true path);
        }
      in
      (* run split to completion so a split-tagged snapshot lands on disk *)
      let r = Strategy.run ~options Strategy.Split target in
      checkb "split wrote snapshots" true (r.Bfs.snapshots > 0);
      checks "on-disk tag is split" "split"
        (Result.get_ok (Checkpoint.load ~path)).Checkpoint.strategy;
      (* split itself resumes its own snapshot... *)
      let r3 = Strategy.run ~options Strategy.Split target in
      checkb "split resumes split" true
        (List.exists (fun l -> contains l "RESUME from split") r3.Bfs.log);
      (* ...but delta must refuse it and still finish fresh *)
      let r2 = Strategy.run ~options Strategy.Delta target in
      checkb "delta still passes" true r2.Bfs.final_pass;
      checkb "refusal is narrated" true
        (List.exists
           (fun l -> contains l "not resumed" && contains l "split")
           r2.Bfs.log))

let test_bfs_resumes_untagged_snapshot_via_strategy_run () =
  with_temp (fun path ->
      let target = synthetic ~n_ops:6 ~poison:[ 1 ] in
      let options resume =
        {
          Bfs.default_options with
          checkpoint = Some (Bfs.checkpoint ~resume path);
        }
      in
      (* a bfs campaign leaves an untagged snapshot behind... *)
      let r = Strategy.run ~options:(options false) Strategy.Bfs target in
      checkb "bfs wrote snapshots" true (r.Bfs.snapshots > 0);
      checkb "snapshot is untagged" false (contains (read_file path) "strategy");
      (* ...which a resuming bfs run accepts (pre-strategy compatibility) *)
      let r2 = Strategy.run ~options:(options true) Strategy.Bfs target in
      checkb "resumed run passes" true r2.Bfs.final_pass;
      checkb "no refusal narrated" false
        (List.exists (fun l -> contains l "not resumed") r2.Bfs.log))

let suite =
  [
    ("strategy: token parse/print", `Quick, test_tokens);
    ("strategy: campaign spec validation and recovery fallback", `Quick, test_campaign_validation);
    ("strategy: split/delta/anneal find the known answer", `Quick, test_machines_find_the_answer);
    ("strategy: machines survive an all-poisoned kernel", `Quick, test_machines_all_poisoned);
    ("strategy: anneal seed is deterministic across eval paths", `Quick, test_anneal_determinism);
    ("strategy: pre-strategy fixture loads as bfs", `Quick, test_prestrategy_fixture_loads_as_bfs);
    ("strategy: bfs snapshots stay untagged", `Quick, test_bfs_snapshots_stay_untagged);
    ("strategy: tagged snapshot refuses other strategies", `Quick, test_tagged_snapshot_refuses_other_strategy);
    ("strategy: bfs resumes untagged snapshots", `Quick, test_bfs_resumes_untagged_snapshot_via_strategy_run);
    ("strategy: bfs golden transcripts", `Quick, test_bfs_goldens);
    ("strategy: stop, flush once, resume", `Quick, test_stop_then_resume);
    ("strategy: one statistics universe", `Quick, test_one_statistics_universe);
    ("strategy: delta, all pass", `Quick, test_delta_all_pass);
    ("strategy: delta honours ep.W hints", `Quick, test_delta_honours_hints);
    ("strategy: delta vs bfs on mg.W", `Quick, test_delta_passes_mg_where_bfs_fails);
  ]

let strategies_suite =
  [
    ("delta_debug finds the answer", `Quick, test_delta_debug_finds_answer);
    ("delta_debug: none pass", `Quick, test_delta_debug_none_pass);
  ]
