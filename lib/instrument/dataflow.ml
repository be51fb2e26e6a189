type state = Bot | Plain | Repl | Either

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Plain, Plain -> Plain
  | Repl, Repl -> Repl
  | _ -> Either

(* states are immediates: physical equality is exact and never calls out *)
let same (a : state) b = a == b

(* Per-function summary: joined argument states over all call sites seen so
   far, and the joined return-register states. *)
type summary = { args : state array; rets : state array }

(* The analysis state doubles as its result. Operand states live in one
   flat slot table: every candidate's deduplicated float operands get
   consecutive slots, laid out in (function, block, instruction) order so
   one function's slots form the range [fn_lo.(fid), fn_lo.(fid + 1)).
   [first]/[width] index it by address, so neither a transfer nor a lookup
   allocates. *)
type t = {
  prog : Ir.program;
  flags : Config.flag array;  (** addr -> effective flag, resolved once *)
  first : int array;  (** addr -> first operand slot, -1 off candidates *)
  width : int array;  (** addr -> number of operand slots *)
  slot_reg : int array;
  states : state array;  (** slot -> joined state before the instruction *)
  fn_lo : int array;
  summaries : summary array;
  mutable mem : state;  (** the heap summary cell *)
  reached : bool array;  (** functions some analyzed call site invokes *)
  loads : bool array;  (** functions containing an [Fload] *)
  callers : int list array;
}

let info_of (f : Ir.func) (b : Ir.block) (i : Ir.instr) =
  {
    Static.addr = i.Ir.addr;
    fid = f.Ir.fid;
    fname = f.Ir.fname;
    module_name = f.Ir.module_name;
    block_label = b.Ir.label;
    disasm = "";
  }

let dedup regs =
  List.fold_left (fun acc r -> if List.mem r acc then acc else r :: acc) [] regs
  |> List.rev

let iter_instrs (prog : Ir.program) fn =
  Array.iter
    (fun (f : Ir.func) ->
      Array.iter (fun (b : Ir.block) -> Array.iter (fn f b) b.Ir.instrs) f.Ir.blocks)
    prog.Ir.funcs

let create (prog : Ir.program) (cfg : Config.t) =
  let nf = Array.length prog.Ir.funcs in
  let na = Static.max_addr prog + 1 in
  let flags = Array.make na Config.Double in
  let first = Array.make na (-1) and width = Array.make na 0 in
  let fn_lo = Array.make (nf + 1) 0 in
  let regs = ref [] and n = ref 0 in
  let loads = Array.make nf false and callers = Array.make nf [] in
  Array.iteri
    (fun fid (f : Ir.func) ->
      fn_lo.(fid) <- !n;
      Array.iter
        (fun (b : Ir.block) ->
          Array.iter
            (fun (i : Ir.instr) ->
              match i.Ir.op with
              | Fload _ -> loads.(fid) <- true
              | Call { callee; _ } ->
                  if not (List.mem fid callers.(callee)) then
                    callers.(callee) <- fid :: callers.(callee)
              | op when Ir.is_candidate op ->
                  let a = i.Ir.addr in
                  let used = dedup (Ir.used_fregs op) in
                  flags.(a) <- Config.effective cfg (info_of f b i);
                  first.(a) <- !n;
                  width.(a) <- List.length used;
                  regs := List.rev_append used !regs;
                  n := !n + width.(a)
              | _ -> ())
            b.Ir.instrs)
        f.Ir.blocks)
    prog.Ir.funcs;
  fn_lo.(nf) <- !n;
  {
    prog;
    flags;
    first;
    width;
    slot_reg = Array.of_list (List.rev !regs);
    (* never-analyzed code reports the conservative state *)
    states = Array.make !n Either;
    fn_lo;
    summaries =
      Array.map
        (fun (f : Ir.func) ->
          {
            args = Array.make (max f.Ir.n_fargs 1) Bot;
            rets = Array.make (max (Array.length f.Ir.ret_fregs) 1) Bot;
          })
        prog.Ir.funcs;
    (* data poked before the run is plain *)
    mem = Plain;
    reached = Array.make nf false;
    loads;
    callers;
  }

let set_defined regs (op : Ir.op) s =
  match op with
  | Fbinp (_, _, d, _, _) ->
      regs.(d) <- s;
      regs.(d + 1) <- s
  | Fbin (_, _, d, _, _) | Funop (_, _, d, _) | Flibm (_, _, d, _) | Fconst (_, d, _)
  | Fcvt_i2f (_, d, _) ->
      regs.(d) <- s
  | Fcmp _ | Fcvt_f2i _ | Fmov _ | Fload _ | Fstore _ | Ibin _ | Icmp _ | Iconst _ | Imov _
  | Iload _ | Istore _ | Call _ | Ftestflag _ | Fdowncast _ | Fupcast _ | Fexpo _ ->
      ()

(* Analyze one function under the current summaries and heap cell,
   recording its operand states afresh. [mark fid] is called for every
   function whose inputs this analysis grew: a callee's arguments or
   reachability, the callers of a grown return summary, the loaders of a
   grown heap cell. *)
let analyze_func t ~mark fid =
  let f = t.prog.Ir.funcs.(fid) in
  let s = t.summaries.(fid) in
  let nb = Array.length f.Ir.blocks in
  let states = t.states and slot_reg = t.slot_reg in
  Array.fill states t.fn_lo.(fid) (t.fn_lo.(fid + 1) - t.fn_lo.(fid)) Bot;
  let transfer regs (i : Ir.instr) =
    match i.Ir.op with
    | (Fbin _ | Fbinp _ | Funop _ | Flibm _ | Fcmp _ | Fconst _ | Fcvt_i2f _ | Fcvt_f2i _)
      as op -> (
        let a = i.Ir.addr in
        let lo = t.first.(a) in
        let hi = lo + t.width.(a) - 1 in
        for k = lo to hi do
          states.(k) <- join states.(k) regs.(slot_reg.(k))
        done;
        match t.flags.(a) with
        | Config.Single | Config.Fmt _ ->
            (* the snippet converts operands in place and flags the result;
               lattice formats share Single's replaced-encoding contract *)
            for k = lo to hi do
              regs.(slot_reg.(k)) <- Repl
            done;
            set_defined regs op Repl
        | Config.Double ->
            for k = lo to hi do
              regs.(slot_reg.(k)) <- Plain
            done;
            set_defined regs op Plain
        | Config.Ignore ->
            (* left untouched: a native double op; operands unchanged *)
            set_defined regs op Plain)
    | Fmov (d, a) -> regs.(d) <- regs.(a)
    | Fload (d, _) -> regs.(d) <- t.mem
    | Fstore (_, a) ->
        let m = join t.mem regs.(a) in
        if not (same m t.mem) then begin
          t.mem <- m;
          Array.iteri (fun g l -> if l then mark g) t.loads
        end
    | Call { callee; fargs; frets; _ } ->
        let c = t.summaries.(callee) in
        if not t.reached.(callee) then begin
          t.reached.(callee) <- true;
          mark callee
        end;
        Array.iteri
          (fun k r ->
            let j = join c.args.(k) regs.(r) in
            if not (same j c.args.(k)) then begin
              c.args.(k) <- j;
              mark callee
            end)
          fargs;
        Array.iteri (fun k r -> regs.(r) <- c.rets.(k)) frets
    | Ibin _ | Icmp _ | Iconst _ | Imov _ | Iload _ | Istore _ -> ()
    | Ftestflag _ | Fdowncast _ | Fupcast _ | Fexpo _ ->
        (* the analysis runs on original (un-patched) programs *)
        ()
  in
  let entry_states = Array.init nb (fun _ -> Array.make f.Ir.n_fregs Bot) in
  (* entry block: args from the summary; all other registers start as the
     VM's 0.0 — plain. The run enters [main] with 0.0 arguments. *)
  let entry0 = Array.make f.Ir.n_fregs Plain in
  for k = 0 to f.Ir.n_fargs - 1 do
    entry0.(k) <- (if fid = t.prog.Ir.main then join Plain s.args.(k) else s.args.(k))
  done;
  entry_states.(f.Ir.entry) <- entry0;
  let visited = Array.make nb false in
  let in_work = Array.make nb false in
  let work = Queue.create () in
  Queue.add f.Ir.entry work;
  in_work.(f.Ir.entry) <- true;
  let regs = Array.make f.Ir.n_fregs Bot in
  let push tgt =
    let dst = entry_states.(tgt) in
    let grew = ref false in
    for k = 0 to f.Ir.n_fregs - 1 do
      let j = join dst.(k) regs.(k) in
      if not (same j dst.(k)) then begin
        dst.(k) <- j;
        grew := true
      end
    done;
    if !grew && not in_work.(tgt) then begin
      in_work.(tgt) <- true;
      Queue.add tgt work
    end
  in
  while not (Queue.is_empty work) do
    let bi = Queue.pop work in
    in_work.(bi) <- false;
    visited.(bi) <- true;
    let b = f.Ir.blocks.(bi) in
    Array.blit entry_states.(bi) 0 regs 0 f.Ir.n_fregs;
    Array.iter (transfer regs) b.Ir.instrs;
    match b.Ir.term with
    | Jmp tgt -> push tgt
    | Br (_, th, el) ->
        push th;
        push el
    | Ret ->
        Array.iteri
          (fun k r ->
            let j = join s.rets.(k) regs.(r) in
            if not (same j s.rets.(k)) then begin
              s.rets.(k) <- j;
              List.iter mark t.callers.(fid)
            end)
          f.Ir.ret_fregs
  done;
  (* operands in blocks the analysis never reached keep the conservative
     state, as in never-analyzed functions *)
  Array.iteri
    (fun bi (b : Ir.block) ->
      if not visited.(bi) then
        Array.iter
          (fun (i : Ir.instr) ->
            if Ir.is_candidate i.Ir.op then
              Array.fill states t.first.(i.Ir.addr) t.width.(i.Ir.addr) Either)
          b.Ir.instrs)
    f.Ir.blocks

(* Chaotic iteration over a function worklist, to the fix point. Every
   mark follows a strict growth of a summary, the heap cell or the reached
   set, all of which only grow by joins on a finite lattice, so the loop
   terminates; a function is re-analyzed whenever one of its inputs grew,
   so each function's last analysis — whose recording stands — saw the
   final inputs. *)
let analyze (prog : Ir.program) (cfg : Config.t) : t =
  let t = create prog cfg in
  let nf = Array.length prog.Ir.funcs in
  let dirty = Array.make nf false in
  let work = Queue.create () in
  let mark fid =
    if t.reached.(fid) && not dirty.(fid) then begin
      dirty.(fid) <- true;
      Queue.add fid work
    end
  in
  t.reached.(prog.Ir.main) <- true;
  mark prog.Ir.main;
  while not (Queue.is_empty work) do
    let fid = Queue.pop work in
    dirty.(fid) <- false;
    analyze_func t ~mark fid
  done;
  t

let at_fixpoint t =
  let copy =
    {
      t with
      states = Array.copy t.states;
      summaries =
        Array.map (fun s -> { args = Array.copy s.args; rets = Array.copy s.rets }) t.summaries;
      reached = Array.copy t.reached;
    }
  in
  let grew = ref false in
  Array.iteri
    (fun fid r -> if r then analyze_func copy ~mark:(fun _ -> grew := true) fid)
    t.reached;
  (not !grew) && copy.states = t.states && copy.summaries = t.summaries && copy.mem = t.mem
  && copy.reached = t.reached

let operand_state t ~addr ~reg =
  if addr < 0 || addr >= Array.length t.first || t.first.(addr) < 0 then Either
  else
    let lo = t.first.(addr) in
    let rec find k =
      if k >= lo + t.width.(addr) then Either
      else if t.slot_reg.(k) = reg then t.states.(k)
      else find (k + 1)
    in
    find lo

let checks_removable t (prog : Ir.program) (cfg : Config.t) =
  let removable = ref 0 and total = ref 0 in
  iter_instrs prog (fun f b i ->
      if Ir.is_candidate i.Ir.op then
        match Config.effective cfg (info_of f b i) with
        | Config.Ignore -> ()
        | Config.Single | Config.Double | Config.Fmt _ ->
            List.iter
              (fun r ->
                incr total;
                if operand_state t ~addr:i.Ir.addr ~reg:r <> Either then incr removable)
              (dedup (Ir.used_fregs i.Ir.op)));
  (!removable, !total)
