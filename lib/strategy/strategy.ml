(* ------------------------------------------------------------- tokens *)

type token = Bfs | Split | Delta | Anneal of int

let default_seed = 0x5eed

let to_string = function
  | Bfs -> "bfs"
  | Split -> "split"
  | Delta -> "delta"
  | Anneal s when s = default_seed -> "anneal"
  | Anneal s -> Printf.sprintf "anneal:%d" s

let known = [ "bfs"; "split"; "delta"; "anneal"; "anneal:<seed>" ]

let of_string s =
  match String.trim (String.lowercase_ascii s) with
  | "" | "bfs" -> Ok Bfs
  | "split" -> Ok Split
  | "delta" -> Ok Delta
  | "anneal" -> Ok (Anneal default_seed)
  | t ->
      let pre = "anneal:" in
      let np = String.length pre in
      if String.length t > np && String.sub t 0 np = pre then
        match int_of_string_opt (String.sub t np (String.length t - np)) with
        | Some seed -> Ok (Anneal seed)
        | None -> Error (Printf.sprintf "strategy: bad anneal seed in %S" s)
      else
        Error
          (Printf.sprintf
             "strategy: unknown search strategy %S (expected bfs, split, delta \
              or anneal[:<seed>])"
             s)

(* ---------------------------------------------------------- interface *)

type flagged = (Static.insn_info * Config.flag) list

(* A flat machine searches the candidate instructions directly; [Flat]
   lifts it onto the campaign driver with the shared resume, snapshot and
   finish pipeline. [propose] must be pure: an empty proposal is how the
   driver learns that no work is pending. Narration goes to [ctx.say]. *)
module type FLAT = sig
  type state

  val name : string
  val init : Bfs.ctx -> flagged option -> state
  val propose : Bfs.ctx -> state -> Config.t list * state
  val consume : Bfs.ctx -> state -> Verdict.verdict list -> state
  val flagged : Bfs.ctx -> state -> flagged
end

(* ------------------------------------------------------ shared helpers *)

let addr (i : Static.insn_info) = i.Static.addr
let count (ctx : Bfs.ctx) i = ctx.counts.(addr i)
let weight_of ctx insns = List.fold_left (fun a i -> a + count ctx i) 0 insns
let entry_flag (ctx : Bfs.ctx) = Config.of_format ctx.entry

let config_of_flagged (ctx : Bfs.ctx) fs =
  List.fold_left (fun acc (i, fl) -> Config.set_insn acc (addr i) fl) ctx.options.base fs

let config_of_insns ctx insns =
  config_of_flagged ctx (List.map (fun i -> (i, entry_flag ctx)) insns)

let by_addr fs = List.sort (fun (a, _) (b, _) -> compare (addr a) (addr b)) fs

(* heaviest first, address ascending on ties — the deterministic order
   every count-driven choice below uses *)
let by_count_desc ctx insns =
  List.sort
    (fun a b ->
      match compare (count ctx b) (count ctx a) with
      | 0 -> compare (addr a) (addr b)
      | c -> c)
    insns

let by_count_asc ctx insns = List.rev (by_count_desc ctx insns)
let mem_addr insns i = List.exists (fun j -> addr j = addr i) insns
let diff all chosen = List.filter (fun i -> not (mem_addr chosen i)) all

let take n xs =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go n [] xs

(* -------------------------------------------------------------- split *)

(* Count-weighted binary splitting over the flat candidate set: the
   paper's own optimization pushed harder. One group holding the whole
   universe seeds the queue; a failing group splits into two halves of
   (approximately) equal dynamic execution weight instead of equal
   cardinality, so the expensive half keeps getting isolated first. *)
module Split_m = struct
  let name = "split"

  type group = { insns : Static.insn_info list; weight : int }
  type state = { queue : group list; inflight : group list; accepted : flagged }

  let group ctx insns = { insns; weight = weight_of ctx insns }

  let init (ctx : Bfs.ctx) resume =
    let accepted = Option.value resume ~default:[] in
    let rest = diff ctx.universe (List.map fst accepted) in
    ctx.say "SPLIT %d candidates, total weight %d" (List.length rest) (weight_of ctx rest);
    { queue = (if rest = [] then [] else [ group ctx rest ]); inflight = []; accepted }

  let propose (ctx : Bfs.ctx) st =
    let sorted =
      List.sort
        (fun a b ->
          match compare b.weight a.weight with
          | 0 -> compare (List.map addr a.insns) (List.map addr b.insns)
          | c -> c)
        st.queue
    in
    let batch, rest = take (max 1 ctx.options.workers) sorted in
    ( List.map (fun g -> config_of_insns ctx g.insns) batch,
      { st with queue = rest; inflight = batch } )

  (* split heaviest-first, each instruction joining the lighter half, so
     both halves carry about the same dynamic weight *)
  let halves ctx g =
    let wa = ref 0 and wb = ref 0 in
    let a = ref [] and b = ref [] in
    List.iter
      (fun i ->
        if !wa <= !wb then begin
          a := i :: !a;
          wa := !wa + count ctx i
        end
        else begin
          b := i :: !b;
          wb := !wb + count ctx i
        end)
      (by_count_desc ctx g.insns);
    (group ctx (List.rev !a), group ctx (List.rev !b))

  let consume (ctx : Bfs.ctx) st verdicts =
    List.fold_left2
      (fun st g v ->
        let size = List.length g.insns in
        match v with
        | Verdict.Pass ->
            ctx.say "SPLIT pass: group of %d (weight %d)" size g.weight;
            { st with accepted = st.accepted @ List.map (fun i -> (i, entry_flag ctx)) g.insns }
        | v ->
            ctx.say "SPLIT %s: group of %d (weight %d)" (Verdict.verdict_label v) size g.weight;
            if size <= 1 then st
            else
              let a, b = halves ctx g in
              { st with queue = a :: b :: st.queue })
      { st with inflight = [] }
      st.inflight verdicts

  let flagged _ st = st.accepted
end

(* -------------------------------------------------------------- delta *)

(* Precimonious-style delta-debugging over the flag set: shrink the
   active set with complements of ever-finer partitions until some subset
   passes, then grow the removed instructions back one at a time,
   coldest first (they are the most likely to be tolerable). *)
module Delta_m = struct
  let name = "delta"

  type phase =
    | Probe  (** test the whole active set next *)
    | Await_probe
    | Await_chunks of int * Static.insn_info list list
        (** granularity, the complement sets proposed this wave ([[]]:
            propose the next complement wave) *)
    | Grow of Static.insn_info list  (** still to try adding back *)
    | Await_grow of Static.insn_info * Static.insn_info list
    | Finished

  type state = { phase : phase; active : Static.insn_info list }

  let init (ctx : Bfs.ctx) = function
    | Some fs ->
        ctx.say "DELTA resume with %d active" (List.length fs);
        { phase = Probe; active = List.map fst fs }
    | None ->
        ctx.say "DELTA %d candidates" (List.length ctx.universe);
        { phase = Probe; active = ctx.universe }

  let chunks g xs =
    let n = List.length xs in
    let size = max 1 ((n + g - 1) / g) in
    let rec go acc cur k = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | x :: rest ->
          if k = size then go (List.rev cur :: acc) [ x ] 1 rest
          else go acc (x :: cur) (k + 1) rest
    in
    go [] [] 0 xs

  let start_grow (ctx : Bfs.ctx) active =
    match by_count_asc ctx (diff ctx.universe active) with
    | [] -> { phase = Finished; active }
    | removed -> { phase = Grow removed; active }

  let propose ctx st =
    match st.phase with
    | Probe -> ([ config_of_insns ctx st.active ], { st with phase = Await_probe })
    | Await_chunks (g, []) -> (
        (* propose every complement of the g-partition at once; consume
           keeps the first passing one (proposal order), exactly the
           choice the sequential ddmin loop would make *)
        match List.filter (( <> ) []) (List.map (diff st.active) (chunks g st.active)) with
        | [] -> ([], start_grow ctx [])
        | cs -> (List.map (config_of_insns ctx) cs, { st with phase = Await_chunks (g, cs) }))
    | Grow (i :: rest) ->
        ([ config_of_insns ctx (i :: st.active) ], { st with phase = Await_grow (i, rest) })
    | Grow [] | Finished -> ([], { st with phase = Finished })
    | Await_probe | Await_chunks _ | Await_grow _ -> ([], st)

  let consume (ctx : Bfs.ctx) st verdicts =
    let n = List.length st.active in
    match (st.phase, verdicts) with
    | Await_probe, [ Verdict.Pass ] ->
        ctx.say "DELTA active set of %d passes" n;
        start_grow ctx st.active
    | Await_probe, [ _ ] when n <= 1 ->
        ctx.say "DELTA active set fails and cannot shrink; growing from empty";
        start_grow ctx []
    | Await_probe, [ _ ] ->
        ctx.say "DELTA active set of %d fails; shrinking" n;
        { st with phase = Await_chunks (2, []) }
    | Await_chunks (g, cs), verdicts -> (
        match List.find_opt (fun (_, v) -> v = Verdict.Pass) (List.combine cs verdicts) with
        | Some (smaller, _) ->
            ctx.say "DELTA complement of %d passes" (List.length smaller);
            start_grow ctx smaller
        | None when g >= n ->
            ctx.say "DELTA no complement passes at granularity %d; growing from empty" g;
            start_grow ctx []
        | None ->
            ctx.say "DELTA granularity %d -> %d" g (2 * g);
            { st with phase = Await_chunks (min n (2 * g), []) })
    | Await_grow (i, rest), [ v ] ->
        ctx.say "DELTA grow 0x%06x: %s" (addr i) (Verdict.verdict_label v);
        if v = Verdict.Pass then { phase = Grow rest; active = i :: st.active }
        else { st with phase = Grow rest }
    | _, _ -> st

  let flagged ctx st =
    match st.phase with
    | Probe | Await_probe | Await_chunks _ ->
        (* mid-shrink the active set is not known to pass; persist nothing *)
        []
    | Grow _ | Await_grow _ | Finished -> List.map (fun i -> (i, entry_flag ctx)) st.active
end

(* ------------------------------------------------------------- anneal *)

(* Shadow-seeded greedy descent with bounded random restarts. The shadow
   report's predicted configuration (when the campaign carries one) seeds
   the current solution; a greedy sweep then offers every remaining
   candidate in seeded-random order; a local optimum triggers a restart
   that randomly evicts ~1/3 of the solution and re-sweeps. Deterministic
   from the explicit seed: every random draw comes from one [Rng] stream,
   and evaluation order is strictly sequential. *)
let anneal_machine seed : (module FLAT) =
  (module struct
    let name = to_string (Anneal seed)

    type state = {
      rng : Rng.t;
      current : Static.insn_info list;
      best : Static.insn_info list;
      sweep : Static.insn_info list;
      restarts_left : int;
      phase : [ `Seed | `Sweep | `Await of Static.insn_info | `Finished ];
    }

    let restarts = 2

    let shuffled rng insns =
      let a = Array.of_list insns in
      Rng.shuffle rng a;
      Array.to_list a

    let init (ctx : Bfs.ctx) resume =
      let rng = Rng.create seed in
      let sweeping current best =
        let sweep = shuffled rng (diff ctx.universe current) in
        { rng; current; best; sweep; restarts_left = restarts; phase = `Sweep }
      in
      match resume with
      | Some fs ->
          ctx.say "ANNEAL resume with %d accepted" (List.length fs);
          let current = List.map fst fs in
          sweeping current current
      | None -> (
          let predicted =
            match ctx.options.shadow with
            | Some s ->
                List.concat_map Static.node_insns (Shadow_report.predicted_nodes s.Bfs.report)
                |> List.filter (mem_addr ctx.universe)
            | None -> []
          in
          match predicted with
          | [] ->
              ctx.say "ANNEAL no shadow seed; greedy sweep from empty";
              sweeping [] []
          | p ->
              ctx.say "ANNEAL shadow seed: %d predicted" (List.length p);
              { rng; current = p; best = []; sweep = []; restarts_left = restarts; phase = `Seed })

    let propose ctx st =
      match st.phase with
      | `Seed -> ([ config_of_insns ctx st.current ], st)
      | `Sweep -> (
          match st.sweep with
          | [] -> ([], st)
          | i :: rest ->
              ([ config_of_insns ctx (i :: st.current) ], { st with sweep = rest; phase = `Await i }))
      | `Await _ | `Finished -> ([], st)

    let larger a b = if List.length a > List.length b then a else b

    (* a sweep ended: either restart (evicting a random ~1/3) or finish *)
    let rec settle (ctx : Bfs.ctx) st =
      if st.sweep <> [] then st
      else begin
        let best = larger st.current st.best in
        if st.restarts_left = 0 then begin
          ctx.say "ANNEAL done: best solution keeps %d" (List.length best);
          { st with best; phase = `Finished }
        end
        else begin
          let keep = List.filter (fun _ -> Rng.int st.rng 3 > 0) st.current in
          ctx.say "ANNEAL restart: evicted %d of %d, %d restarts left"
            (List.length st.current - List.length keep)
            (List.length st.current) (st.restarts_left - 1);
          settle ctx
            {
              st with
              best;
              current = keep;
              sweep = shuffled st.rng (diff ctx.universe keep);
              restarts_left = st.restarts_left - 1;
              phase = `Sweep;
            }
        end
      end

    let consume (ctx : Bfs.ctx) st verdicts =
      match (st.phase, verdicts) with
      | `Seed, [ v ] ->
          let ok = v = Verdict.Pass in
          ctx.say "ANNEAL shadow seed %s" (if ok then "passes" else "fails; starting empty");
          let current = if ok then st.current else [] in
          settle ctx
            { st with current; sweep = shuffled st.rng (diff ctx.universe current); phase = `Sweep }
      | `Await i, [ v ] ->
          let current = if v = Verdict.Pass then i :: st.current else st.current in
          settle ctx { st with current; phase = `Sweep }
      | _, _ -> st

    let flagged ctx st =
      let chosen = match st.phase with `Finished -> st.best | _ -> larger st.current st.best in
      List.map (fun i -> (i, entry_flag ctx)) chosen
  end)

(* ------------------------------------------------ the shared flat tail *)

(* greedy top-up: every candidate the strategy left double gets one
   chance on top of the final set, heaviest first — each strategy ends
   maximal over the same move set, which is what makes the bake-off's
   "no worse than BFS" assertion meaningful *)
let top_up (ctx : Bfs.ctx) fs =
  List.fold_left
    (fun fs i ->
      let trial = (i, entry_flag ctx) :: fs in
      if ctx.eval (config_of_flagged ctx trial) = Verdict.Pass then begin
        ctx.say "TOPUP keep 0x%06x" (addr i);
        by_addr trial
      end
      else fs)
    fs
    (by_count_desc ctx (diff ctx.universe (List.map fst fs)))

(* per-instruction lattice descent, cheapest format first, keeping the
   whole configuration passing after every accepted step *)
let lattice (ctx : Bfs.ctx) fs =
  let lower = List.filter (fun f -> Formats.compare_cost f ctx.entry < 0) ctx.menu in
  List.fold_left
    (fun fs (i, _) ->
      let rec try_fmts = function
        | [] -> fs
        | f :: rest ->
            let flag = Config.of_format f in
            let trial = List.map (fun (j, fl) -> (j, if addr j = addr i then flag else fl)) fs in
            if ctx.eval (config_of_flagged ctx trial) = Verdict.Pass then begin
              ctx.say "LATTICE 0x%06x descends to %s" (addr i) (Formats.name f);
              trial
            end
            else try_fmts rest
      in
      try_fmts lower)
    fs fs

(* A flat machine on the campaign driver: its snapshots carry the accepted
   set one instruction per id, and its finish composes that set, then tops
   it up and lattice-descends it while the union passes. *)
module Flat (M : FLAT) : Bfs.S = struct
  type state = M.state
  type resumed = int * flagged

  let name = M.name
  let propose = M.propose
  let consume = M.consume
  let pending ctx st = fst (M.propose ctx st) <> []
  let nodes fs = List.map (fun (i, fl) -> (Static.Insn i, fl)) fs
  let accepted ctx st = nodes (by_addr (M.flagged ctx st))

  let restore (ctx : Bfs.ctx) (snap : Checkpoint.snapshot) =
    let resolve program id =
      match Checkpoint.resolve_flagged program id with
      | Error why -> Error why
      | Ok (node, fl) -> (
          match Static.node_insns node with
          | [ info ] -> Ok (info, fl)
          | _ -> Error (Printf.sprintf "checkpoint id %S is not one instruction" id))
    in
    Checkpoint.resolve_list resolve ctx.target.program snap.passing
    |> Result.map (fun fs -> (snap.tested, fs))

  let init (ctx : Bfs.ctx) = function
    | None -> M.init ctx None
    | Some (tested, fs) ->
        ctx.say "RESUME from %s checkpoint: %d tested, %d accepted" name tested (List.length fs);
        M.init ctx (Some fs)

  let persist ctx st snap =
    { snap with Checkpoint.passing = List.map Checkpoint.flagged_id (accepted ctx st) }

  let finish (ctx : Bfs.ctx) st ~interrupted =
    if interrupted then ctx.say "STOP requested: composing what was accepted so far";
    let kept, _, final_pass = ctx.compose (accepted ctx st) in
    let fs =
      by_addr
        (List.concat_map (fun (n, fl) -> List.map (fun i -> (i, fl)) (Static.node_insns n)) kept)
    in
    let fs = if final_pass && not interrupted then lattice ctx (top_up ctx fs) else fs in
    ctx.save ();
    (nodes fs, config_of_flagged ctx fs, final_pass)
end

let machine = function
  | Bfs -> Bfs.machine
  | Split -> (module Flat (Split_m) : Bfs.S)
  | Delta -> (module Flat (Delta_m) : Bfs.S)
  | Anneal seed ->
      let module M = (val anneal_machine seed) in
      (module Flat (M) : Bfs.S)

let run ?options token target = Bfs.drive (machine token) ?options target
