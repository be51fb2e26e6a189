type error = Bad_formats of string | Bad_strategy of string

(* Strategy.of_string's messages already name the field *)
let error_message = function Bad_formats why -> "formats: " ^ why | Bad_strategy why -> why

let menu = function
  | "" -> Ok Bfs.default_options.Bfs.formats
  | m -> Result.map_error (fun why -> Bad_formats why) (Formats.menu_of_string m)

let token s = Result.map_error (fun why -> Bad_strategy why) (Strategy.of_string s)

let parse ~formats ~strategy =
  Result.bind (menu formats) (fun m -> Result.map (fun tok -> (m, tok)) (token strategy))

let recovered ~formats ~strategy =
  ( Result.value (menu formats) ~default:Bfs.default_options.Bfs.formats,
    Result.value (token strategy) ~default:Strategy.Bfs )

let evaluator ?eval_steps ?faults ?backend ?cache ~retries k =
  Harness.wrap_target ~retries ~retry_fail_verify:(faults <> None)
    (Kernel.target ?eval_steps ?faults ?backend ?cache k)

type shadow = { threshold : float; prune_above : float }

let default_shadow = { threshold = Shadow_report.default_threshold; prune_above = 1e-1 }

let trace ?threshold (k : Kernel.t) =
  let tracer =
    Shadow_tracer.create ~config:(Shadow_tracer.all_single ~base:k.hints k.program) k.program
  in
  let (_ : Vm.t) = Shadow_tracer.trace tracer ~setup:k.setup in
  (tracer, Shadow_report.make ?threshold ~base:k.hints k.program tracer)

type outcome = {
  result : Bfs.result;
  harness : Harness.t;
  target : Bfs.Target.t;
  journal : Journal.t option;
}

let run ?eval_steps ?faults ?backend ?cache ?(retries = 0) ?shadow ?journal ?checkpoint
    ?(resume = false) ?eval ?pool ?(stop = fun () -> false) ~workers ~formats strategy
    (k : Kernel.t) =
  let harness, target = evaluator ?eval_steps ?faults ?backend ?cache ~retries k in
  let journal = Option.map (fun path -> Journal.create ~resume ~path k.program) journal in
  let record cfg v = Option.iter (fun j -> Journal.record j cfg v) journal in
  let target =
    match (eval, journal) with
    | None, None -> target
    | None, Some j -> Journal.wrap_target j ~harness target
    | Some f, _ ->
        let eval cfg =
          let v = f harness cfg in
          record cfg v;
          v = Verdict.Pass
        in
        { target with Bfs.Target.eval }
  in
  let guidance s =
    let _, report = trace ~threshold:s.threshold k in
    let on_pruned cfg div =
      record cfg (Verdict.Pruned (Printf.sprintf "shadow predicted divergence %.3e" div))
    in
    let prune_above = if s.prune_above > 0.0 then Some s.prune_above else None in
    Bfs.shadow ?prune_above ~on_pruned report
  in
  let snapshots path =
    Bfs.checkpoint ~resume
      ~save_counters:(fun () ->
        Option.iter Journal.sync journal;
        Harness.counters_list harness)
      ~restore_counters:(Harness.restore_counters harness) path
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Journal.close journal)
    (fun () ->
      let options =
        {
          Bfs.default_options with
          workers;
          base = k.hints;
          pool;
          checkpoint = Option.map snapshots checkpoint;
          shadow = Option.map guidance shadow;
          formats;
          stop;
        }
      in
      { result = Strategy.run ~options strategy target; harness; target; journal })
