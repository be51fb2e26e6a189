type backend = Interp | Compiled

let backend_name = function Interp -> "interp" | Compiled -> "compiled"

let backend_of_string = function
  | "interp" | "interpreter" -> Some Interp
  | "compiled" | "compile" -> Some Compiled
  | _ -> None

(* ------------------------------------------------------------ compiled form *)

(* A compiled terminator keeps the block-index shape of [Ir.terminator];
   resolving indices to closures here would tie a block to one linked
   function instance and defeat cross-config caching.

   [CTestBr] and [CIcmpBr] are fused terminators: when a block's last
   instruction computes exactly the flag the [Br] branches on, the pair
   executes inline in the block driver with no closure dispatch.  The
   patcher's operand-check diamond ends a block with [Ftestflag tf, r]
   + [Br tf] per checked operand — about a third of all executed
   instructions in a patched program — and loop headers end with
   [Icmp] + [Br].  The fused forms keep the instruction's full effect
   (count bump, flag-register write) so state stays bit-identical to
   the interpreter's. *)
type cterm =
  | CJmp of int
  | CBr of int * int * int
  | CRet
  | CTestBr of { addr : int; tf : int; src : int; th : int; el : int }
  | CIcmpBr of { c : Ir.cmpop; addr : int; d : int; a : int; b : int; th : int; el : int }

(* The per-frame execution environment a compiled closure runs against.
   Everything a closure touches at runtime lives here; everything else
   (operand registers, precision mode, bounds, checked-mode tests, trap
   reasons, constants) was resolved when the closure was built.  [lf] is
   the function the frame runs and [rs] the run-wide state, so cached
   closures capture no per-run state.  Each function keeps one spare frame
   per run ([rs.spare]), reused while not [busy].

   Closures do not maintain [Vm.counts]: a block's instructions execute
   exactly [bcounts] times each, except in the one partially-completed
   block of every active frame when a trap, limit or deadline aborts the
   run.  The driver therefore only records the frame's current block
   index ([cur_bidx]) and the body position being executed ([cur_k]) —
   two int stores, no write barrier — and [run] rebuilds exact
   per-instruction counts from [bcounts] in one O(program) pass at the
   end, with a per-frame fixup for the partial blocks on the exception
   path. *)
type env = {
  t : Vm.t;
  fr : float array;
  ir : int array;
  fheap : float array;
  iheap : int array;
  lf : lfunc;
  rs : rstate;
  mutable busy : bool;
  mutable cur_bidx : int;
  mutable cur_k : int;
}

and rstate = {
  lfuncs : lfunc array;
  spare : env option array;  (** per function: its reusable frame *)
  watchdog : (Vm.t -> int -> unit) option;
}

and cblock = {
  clabel : int;
  nsteps : int;  (** instruction count + 1, the interpreter's per-block step charge *)
  body : (env -> unit) array;
  cterm : cterm;
  iaddrs : int array;
      (** addresses of all the source block's instructions, in order,
          including one fused into the terminator — the unit of the
          bcounts-based count reconstruction *)
}

and lfunc = { src : Ir.func; cblocks : cblock array }

(* ------------------------------------------------------------------- cache *)

(* The cache witness: the full block-local slice of everything compilation
   specialized on. Two patched variants of a program share a block's
   compiled form exactly when this record compares equal — the instruction
   array carries every precision decision (the patcher's layout is
   config-invariant, so a BFS wave that flips one function misses only on
   that function's blocks). *)
type witness = {
  w_checked : bool;
  w_plain : bool;
  w_nf : int;
  w_ni : int;
  w_fregs : int;
  w_iregs : int;
  w_instrs : Ir.instr array;
  w_term : Ir.terminator;
}

type cache = (witness, cblock) Code_cache.t

let create_cache () : cache = Code_cache.create ()
let stats = Code_cache.stats
let reset_stats = Code_cache.reset_stats
let report = Code_cache.report

(* -------------------------------------------------------------- primitives *)

let trap addr reason = raise (Vm.Trap (addr, reason))

let oob = "heap access out of bounds"

(* The replaced-value test, bit-identical to [Replaced.is_replaced].  A
   sentinel pattern is a NaN, so the pure-OCaml [v <> v] runs first and the
   bit test (an external C call without flambda) only runs on NaNs: a
   checked double operand passes with no call at all.  The logical shift
   lands in [0, 2^32), where [Int64.to_int] is exact. *)
let[@inline] is_rep (v : float) =
  v <> v && Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 32) = 0x7FF4DEAD

let dreason = "replaced operand reaches a double-precision op"

(* Register accesses in closure bodies are unsafe: every register operand of
   every instruction was range-checked against the function's frame sizes
   when the block was compiled (see [check_registers]), and a cache hit
   requires an identical witness — same instructions, same frame sizes. *)
let[@inline] gf e i = Array.unsafe_get e.fr i
let[@inline] sf e i v = Array.unsafe_set e.fr i v
let[@inline] gi e i = Array.unsafe_get e.ir i
let[@inline] si e i v = Array.unsafe_set e.ir i v

(* D-operand fetch under the block's checked mode; sequenced, not
   [if .. then trap .. else v], whose let-bound result would be boxed *)
let[@inline] dget checked addr e r =
  let v = gf e r in
  if checked && is_rep v then trap addr dreason;
  v

let[@inline] fl b = if b then 1 else 0

(* ---------------------------------------------------------------- op kernels *)

(* Every S and E operation is one [@@noalloc] C kernel call (opkernels.c),
   and so are the double shapes with no inline arm (min/max, packed): a
   double op is a plain op whose rounding is the identity.  A kernel
   returns nonzero on a checked-mode operand fault, having written nothing;
   the closure raises the trap.  The code word packs the op (bits 0–3),
   checked (16), plain (32), packed (64) and the rounding format (bits
   8–16: ebits, mbits; ebits 0 = binary32, 15 = double). *)
external k_fbin :
  float array -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) = "craft_k_fbin_byte" "craft_k_fbin"
[@@noalloc]

external k_fun :
  float array -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "craft_k_fun_byte" "craft_k_fun"
[@@noalloc]

external k_fcmp :
  float array -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "craft_k_fcmp_byte" "craft_k_fcmp"
[@@noalloc]

external k_i2f : float array -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "craft_k_i2f_byte" "craft_k_i2f"
[@@noalloc]

external k_widen : (float[@unboxed]) -> (int[@untagged]) -> (float[@unboxed])
  = "craft_k_widen_byte" "craft_k_widen"
[@@noalloc]

let packed = 64
let k_downcast = 9
let k_upcast = 10

let kcode ~checked ~plain (p : Ir.prec) op =
  let fmt, plain =
    match p with
    | D -> (15, true)
    | E (eb, mb) when not (eb = 8 && mb = 23) ->
        let f = Formats.make ~ebits:eb ~mbits:mb in
        (f.ebits lor (f.mbits lsl 4), plain)
    | _ -> (0, plain) (* S, and e8m23, which Formats.round sends through F32.round *)
  in
  op lor (if checked then 16 else 0) lor (if plain then 32 else 0) lor (fmt lsl 8)

(* trap reasons, matching Vm.opd / Vm.ops / Vm.ope exactly *)
let kreason ~plain (p : Ir.prec) =
  match (p, plain) with
  | D, _ -> dreason
  | E _, false -> "unreplaced operand reaches a reduced-precision op"
  | E _, true -> "replaced operand in a plain reduced-precision binary"
  | S, false -> "unreplaced operand reaches a single-precision op"
  | S, true -> "replaced operand in a plain-single binary"

let fbin_op : Ir.fbinop -> int = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Min -> 4 | Max -> 5

let funop_op : Ir.funop -> int = function Sqrt -> 0 | Neg -> 1 | Abs -> 2

let flibm_op : Ir.flibm -> int = function
  | Sin -> 3 | Cos -> 4 | Tan -> 5 | Exp -> 6 | Log -> 7 | Atan -> 8

let cmp_op : Ir.cmpop -> int = function
  | Eq -> 0 | Ne -> 1 | Lt -> 2 | Le -> 3 | Gt -> 4 | Ge -> 5

(* ----------------------------------------------------------- block driver *)

(* [go]/[go_w] run a frame from block [bidx] until [Ret]; [go_w] also
   heartbeats the watchdog per block (per instruction in the interpreter,
   the label standing in for the address), so the common no-watchdog case
   pays no per-block match.  [bcounts] and the [Br] register access are
   unsafe: any program containing a cached block has a [bcounts] array
   longer than that block's label, and the [Br] register was range-checked
   by [check_registers].  [cur_bidx]/[cur_k] record how far the current
   block got — the instruction the frame is executing is already counted
   (the interpreter bumps before it runs), everything after it is not. *)
let[@inline] enter e bidx =
  let cb = Array.unsafe_get e.lf.cblocks bidx in
  let t = e.t in
  e.cur_bidx <- bidx;
  e.cur_k <- -1;
  let bc = t.Vm.bcounts and l = cb.clabel in
  Array.unsafe_set bc l (Array.unsafe_get bc l + 1);
  t.Vm.steps <- t.Vm.steps + cb.nsteps;
  if t.Vm.steps > t.Vm.max_steps then raise (Vm.Limit t.Vm.max_steps);
  cb

(* the block body, then the successor block index (-1 on [Ret]) *)
let[@inline] body_then_next e cb =
  let body = cb.body in
  for k = 0 to Array.length body - 1 do
    e.cur_k <- k;
    (Array.unsafe_get body k) e
  done;
  match cb.cterm with
  | CJmp tgt -> tgt
  | CBr (r, th, el) -> if gi e r <> 0 then th else el
  | CTestBr { addr = _; tf; src; th; el } ->
      let rep = is_rep (gf e src) in
      si e tf (fl rep);
      if rep then th else el
  | CIcmpBr { c; addr = _; d; a; b; th; el } ->
      let x = gi e a and y = gi e b in
      let v =
        match c with
        | Eq -> x = y
        | Ne -> x <> y
        | Lt -> x < y
        | Le -> x <= y
        | Gt -> x > y
        | Ge -> x >= y
      in
      si e d (fl v);
      if v then th else el
  | CRet -> -1

let rec go e bidx =
  let n = body_then_next e (enter e bidx) in
  if n >= 0 then go e n

let rec go_w w e bidx =
  let cb = enter e bidx in
  w e.t cb.clabel;
  let n = body_then_next e cb in
  if n >= 0 then go_w w e n

(* Run a frame from its entry block.  On an abort, retract the counts of
   the frame's current block for the instructions it did not reach, so the
   final bcounts-based reconstruction yields exactly the interpreter's
   per-instruction counts. *)
let exec e =
  let entry = e.lf.src.Ir.entry in
  try match e.rs.watchdog with None -> go e entry | Some w -> go_w w e entry
  with ex ->
    let counts = e.t.Vm.counts and ia = (Array.unsafe_get e.lf.cblocks e.cur_bidx).iaddrs in
    for i = e.cur_k + 1 to Array.length ia - 1 do
      let a = Array.unsafe_get ia i in
      counts.(a) <- counts.(a) - 1
    done;
    raise ex

let fresh_frame (e : env) lf =
  let f = lf.src in
  let fr = Array.make f.Ir.n_fregs 0.0 and ir = Array.make f.Ir.n_iregs 0 in
  { e with fr; ir; lf; busy = true; cur_bidx = f.Ir.entry; cur_k = -1 }

(* The callee's frame: its spare when free (zero-filled, as a fresh frame
   would be), a fresh one under recursion. *)
let frame e callee =
  let rs = e.rs in
  match rs.spare.(callee) with
  | Some ce when not ce.busy ->
      let fr = ce.fr and ir = ce.ir in
      for i = 0 to Array.length fr - 1 do Array.unsafe_set fr i 0.0 done;
      for i = 0 to Array.length ir - 1 do Array.unsafe_set ir i 0 done;
      ce.busy <- true;
      ce
  | Some _ -> fresh_frame e rs.lfuncs.(callee)
  | None ->
      let ce = fresh_frame e rs.lfuncs.(callee) in
      rs.spare.(callee) <- Some ce;
      ce

(* arguments and returns copy register to register; the caller's side was
   range-checked with the block, the callee's side is checked here *)
let call e callee fargs iargs frets irets =
  let ce = frame e callee in
  let cf = ce.fr and ci = ce.ir in
  for k = 0 to Array.length fargs - 1 do
    cf.(k) <- gf e (Array.unsafe_get fargs k)
  done;
  for k = 0 to Array.length iargs - 1 do
    ci.(k) <- gi e (Array.unsafe_get iargs k)
  done;
  exec ce;
  let f = ce.lf.src in
  for k = 0 to Array.length frets - 1 do
    sf e (Array.unsafe_get frets k) cf.(f.Ir.ret_fregs.(k))
  done;
  for k = 0 to Array.length irets - 1 do
    si e (Array.unsafe_get irets k) ci.(f.Ir.ret_iregs.(k))
  done;
  ce.busy <- false

(* ------------------------------------------------- per-instruction closures *)

(* loads/stores: addressing shape and bounds are burned in; the heap access
   is unsafe after the explicit bounds test (heap length = the witness's
   bound by construction) *)

let compile_fload ~nf addr d (m : Ir.mem) : env -> unit =
  let off = m.offset and scale = m.scale in
  match (m.base, m.index) with
  | None, None ->
      if off < 0 || off >= nf then fun _e -> trap addr oob
      else fun e -> sf e d (Array.unsafe_get e.fheap off)
  | Some r, None ->
      fun e ->
        let a = off + (gi e r) in
        if a < 0 || a >= nf then trap addr oob else sf e d (Array.unsafe_get e.fheap a)
  | None, Some x ->
      fun e ->
        let a = off + ((gi e x) * scale) in
        if a < 0 || a >= nf then trap addr oob else sf e d (Array.unsafe_get e.fheap a)
  | Some r, Some x ->
      fun e ->
        let a = off + (gi e r) + ((gi e x) * scale) in
        if a < 0 || a >= nf then trap addr oob else sf e d (Array.unsafe_get e.fheap a)

let compile_fstore ~nf addr (m : Ir.mem) s : env -> unit =
  let off = m.offset and scale = m.scale in
  match (m.base, m.index) with
  | None, None ->
      if off < 0 || off >= nf then fun _e -> trap addr oob
      else fun e -> Array.unsafe_set e.fheap off (gf e s)
  | Some r, None ->
      fun e ->
        let a = off + (gi e r) in
        if a < 0 || a >= nf then trap addr oob else Array.unsafe_set e.fheap a (gf e s)
  | None, Some x ->
      fun e ->
        let a = off + ((gi e x) * scale) in
        if a < 0 || a >= nf then trap addr oob else Array.unsafe_set e.fheap a (gf e s)
  | Some r, Some x ->
      fun e ->
        let a = off + (gi e r) + ((gi e x) * scale) in
        if a < 0 || a >= nf then trap addr oob else Array.unsafe_set e.fheap a (gf e s)

let compile_iload ~ni addr d (m : Ir.mem) : env -> unit =
  let off = m.offset and scale = m.scale in
  match (m.base, m.index) with
  | None, None ->
      if off < 0 || off >= ni then fun _e -> trap addr oob
      else fun e -> si e d (Array.unsafe_get e.iheap off)
  | Some r, None ->
      fun e ->
        let a = off + (gi e r) in
        if a < 0 || a >= ni then trap addr oob else si e d (Array.unsafe_get e.iheap a)
  | None, Some x ->
      fun e ->
        let a = off + ((gi e x) * scale) in
        if a < 0 || a >= ni then trap addr oob else si e d (Array.unsafe_get e.iheap a)
  | Some r, Some x ->
      fun e ->
        let a = off + (gi e r) + ((gi e x) * scale) in
        if a < 0 || a >= ni then trap addr oob else si e d (Array.unsafe_get e.iheap a)

let compile_istore ~ni addr (m : Ir.mem) s : env -> unit =
  let off = m.offset and scale = m.scale in
  match (m.base, m.index) with
  | None, None ->
      if off < 0 || off >= ni then fun _e -> trap addr oob
      else fun e -> Array.unsafe_set e.iheap off (gi e s)
  | Some r, None ->
      fun e ->
        let a = off + (gi e r) in
        if a < 0 || a >= ni then trap addr oob else Array.unsafe_set e.iheap a (gi e s)
  | None, Some x ->
      fun e ->
        let a = off + ((gi e x) * scale) in
        if a < 0 || a >= ni then trap addr oob else Array.unsafe_set e.iheap a (gi e s)
  | Some r, Some x ->
      fun e ->
        let a = off + (gi e r) + ((gi e x) * scale) in
        if a < 0 || a >= ni then trap addr oob else Array.unsafe_set e.iheap a (gi e s)

let compile_ibin addr (o : Ir.ibinop) d a b : env -> unit =
  match o with
  | Iadd -> fun e -> si e d ((gi e a) + (gi e b))
  | Isub -> fun e -> si e d ((gi e a) - (gi e b))
  | Imul -> fun e -> si e d ((gi e a) * (gi e b))
  | Idiv ->
      fun e ->
        let y = (gi e b) in
        if y = 0 then trap addr "integer division by zero" else si e d ((gi e a) / y)
  | Irem ->
      fun e ->
        let y = (gi e b) in
        if y = 0 then trap addr "integer remainder by zero" else si e d ((gi e a) mod y)
  | Iand -> fun e -> si e d ((gi e a) land (gi e b))
  | Ior -> fun e -> si e d ((gi e a) lor (gi e b))
  | Ixor -> fun e -> si e d ((gi e a) lxor (gi e b))
  | Ishl -> fun e -> si e d ((gi e a) lsl (gi e b))
  | Ishr -> fun e -> si e d ((gi e a) asr (gi e b))
  | Imax -> fun e -> si e d ((let x = (gi e a) and y = (gi e b) in if x >= y then x else y))
  | Imin -> fun e -> si e d ((let x = (gi e a) and y = (gi e b) in if x <= y then x else y))

let compile_icmp _addr (c : Ir.cmpop) d a b : env -> unit =
  match c with
  | Eq -> fun e -> si e d (if (gi e a) = (gi e b) then 1 else 0)
  | Ne -> fun e -> si e d (if (gi e a) <> (gi e b) then 1 else 0)
  | Lt -> fun e -> si e d (if (gi e a) < (gi e b) then 1 else 0)
  | Le -> fun e -> si e d (if (gi e a) <= (gi e b) then 1 else 0)
  | Gt -> fun e -> si e d (if (gi e a) > (gi e b) then 1 else 0)
  | Ge -> fun e -> si e d (if (gi e a) >= (gi e b) then 1 else 0)

let compile_instr ~checked ~plain ~nf ~ni ({ addr; op } : Ir.instr) : env -> unit =
  match op with
  (* the D arithmetic arms are written out in full (register indices and
     checked test burned into one straight-line closure); the other D arms
     inline [dget], and S, E, min/max and packed arms are kernel calls *)
  | Fbin (D, Add, d, a, b) when checked -> fun e -> sf e d (dget true addr e a +. dget true addr e b)
  | Fbin (D, Sub, d, a, b) when checked -> fun e -> sf e d (dget true addr e a -. dget true addr e b)
  | Fbin (D, Mul, d, a, b) when checked -> fun e -> sf e d (dget true addr e a *. dget true addr e b)
  | Fbin (D, Div, d, a, b) when checked -> fun e -> sf e d (dget true addr e a /. dget true addr e b)
  | Fbin (D, Add, d, a, b) -> fun e -> sf e d (gf e a +. gf e b)
  | Fbin (D, Sub, d, a, b) -> fun e -> sf e d (gf e a -. gf e b)
  | Fbin (D, Mul, d, a, b) -> fun e -> sf e d (gf e a *. gf e b)
  | Fbin (D, Div, d, a, b) -> fun e -> sf e d (gf e a /. gf e b)
  | Fbin (p, o, d, a, b) ->
      let c = kcode ~checked ~plain p (fbin_op o) and r = kreason ~plain p in
      fun e -> if k_fbin e.fr d a b c <> 0 then trap addr r
  | Fbinp (p, o, d, a, b) ->
      (* both lanes read before either write — element-wise packed
         semantics, matching the interpreter's fixed Fbinp *)
      let c = kcode ~checked ~plain p (fbin_op o) lor packed and r = kreason ~plain p in
      fun e -> if k_fbin e.fr d a b c <> 0 then trap addr r
  | Funop (D, o, d, a) -> (
      match o with
      | Sqrt -> fun e -> sf e d (sqrt (dget checked addr e a))
      | Neg -> fun e -> sf e d (-.dget checked addr e a)
      | Abs -> fun e -> sf e d (Float.abs (dget checked addr e a)))
  | Flibm (D, o, d, a) -> (
      match o with
      | Sin -> fun e -> sf e d (sin (dget checked addr e a))
      | Cos -> fun e -> sf e d (cos (dget checked addr e a))
      | Tan -> fun e -> sf e d (tan (dget checked addr e a))
      | Exp -> fun e -> sf e d (exp (dget checked addr e a))
      | Log -> fun e -> sf e d (log (dget checked addr e a))
      | Atan -> fun e -> sf e d (atan (dget checked addr e a)))
  | Funop (p, o, d, a) ->
      let c = kcode ~checked ~plain p (funop_op o) and r = kreason ~plain p in
      fun e -> if k_fun e.fr d a c <> 0 then trap addr r
  | Flibm (p, o, d, a) ->
      let c = kcode ~checked ~plain p (flibm_op o) and r = kreason ~plain p in
      fun e -> if k_fun e.fr d a c <> 0 then trap addr r
  | Fcmp (D, c, d, a, b) -> (
      match c with
      | Eq -> fun e -> si e d (fl (dget checked addr e a = dget checked addr e b))
      | Ne -> fun e -> si e d (fl (dget checked addr e a <> dget checked addr e b))
      | Lt -> fun e -> si e d (fl (dget checked addr e a < dget checked addr e b))
      | Le -> fun e -> si e d (fl (dget checked addr e a <= dget checked addr e b))
      | Gt -> fun e -> si e d (fl (dget checked addr e a > dget checked addr e b))
      | Ge -> fun e -> si e d (fl (dget checked addr e a >= dget checked addr e b)))
  | Fcmp (p, c, d, a, b) ->
      let c = kcode ~checked ~plain p (cmp_op c) and r = kreason ~plain p in
      fun e ->
        let v = k_fcmp e.fr a b c in
        if v < 0 then trap addr r else si e d v
  | Fconst (D, d, x) -> fun e -> sf e d x
  | Fconst (p, d, x) ->
      (* the rounded (and, in Flagged mode, encoded) constant is itself a
         compile-time constant *)
      let r =
        match p with
        | E (eb, mb) -> Formats.round (Formats.make ~ebits:eb ~mbits:mb) x
        | _ -> F32.round x
      in
      let v = if plain then r else Replaced.encode r in
      fun e -> sf e d v
  | Fmov (d, a) -> fun e -> sf e d (gf e a)
  | Fload (d, m) -> compile_fload ~nf addr d m
  | Fstore (m, a) -> compile_fstore ~nf addr m a
  | Fcvt_i2f (D, d, a) -> fun e -> sf e d (float_of_int (gi e a))
  | Fcvt_i2f (p, d, a) ->
      let c = kcode ~checked ~plain p 0 in
      fun e -> k_i2f e.fr d (gi e a) c
  | Fcvt_f2i (D, d, a) -> fun e -> si e d (int_of_float (dget checked addr e a))
  | Fcvt_f2i (p, d, a) ->
      (* the operand test is inline here ([is_rep v = plain]: flagged wants
         a replaced operand, plain an unreplaced one) because the
         out-of-range float->int conversion must stay OCaml's *)
      let c = kcode ~checked:false ~plain p 0 and r = kreason ~plain p in
      fun e ->
        let v = gf e a in
        if checked && is_rep v = plain then trap addr r
        else si e d (int_of_float (k_widen v c))
  | Ibin (o, d, a, b) -> compile_ibin addr o d a b
  | Icmp (c, d, a, b) -> compile_icmp addr c d a b
  | Iconst (d, x) -> fun e -> si e d x
  | Imov (d, a) -> fun e -> si e d (gi e a)
  | Iload (d, m) -> compile_iload ~ni addr d m
  | Istore (m, a) -> compile_istore ~ni addr m a
  | Call { callee; fargs; iargs; frets; irets } ->
      fun e -> call e callee fargs iargs frets irets
  | Ftestflag (d, a) -> fun e -> si e d (fl (is_rep (gf e a)))
  | Fdowncast (d, a) -> fun e -> ignore (k_fun e.fr d a k_downcast : int)
  | Fupcast (d, a) ->
      fun e -> if k_fun e.fr d a k_upcast <> 0 then trap addr "upcast of an unreplaced value"
  | Fexpo (d, a) ->
      fun e ->
        si e d
          (Int64.to_int
             (Int64.logand
                (Int64.shift_right_logical (Int64.bits_of_float (gf e a)) 52)
                0x7FFL))

(* ----------------------------------------------------------------- linking *)

(* Register operands are range-checked once per compiled block so the closure
   bodies can use unsafe frame accesses.  This runs only on cache misses: a
   hit requires an identical witness, including the frame sizes the block
   was validated against.  All in-tree program producers (Builder, Asm, the
   patcher) satisfy {!Ir.validate}, so a failure here indicates a
   hand-constructed malformed program. *)
let check_registers ~fregs ~iregs ~fname (b : Ir.block) =
  let bad kind r =
    invalid_arg
      (Printf.sprintf "Compile: %s: block %d: %s register %d out of range" fname
         b.Ir.label kind r)
  in
  let chk_f r = if r < 0 || r >= fregs then bad "float" r in
  let chk_i r = if r < 0 || r >= iregs then bad "int" r in
  Array.iter
    (fun ({ op; _ } : Ir.instr) ->
      List.iter chk_f (Ir.defined_fregs op);
      List.iter chk_f (Ir.used_fregs op);
      List.iter chk_i (Ir.defined_iregs op);
      List.iter chk_i (Ir.used_iregs op))
    b.Ir.instrs;
  match b.Ir.term with Br (r, _, _) -> chk_i r | Jmp _ | Ret -> ()

let compile_block ?cache ~checked ~plain ~nf ~ni ~fregs ~iregs ~fname (b : Ir.block) :
    cblock =
  let build () =
    check_registers ~fregs ~iregs ~fname b;
    let n = Array.length b.instrs in
    (* fuse a flag-computing last instruction into the branch that tests it *)
    let fused, cterm =
      match b.term with
      | Jmp tgt -> (0, CJmp tgt)
      | Ret -> (0, CRet)
      | Br (r, th, el) -> (
          if n = 0 then (0, CBr (r, th, el))
          else
            match b.instrs.(n - 1) with
            | { addr; op = Ftestflag (d, a) } when d = r ->
                (1, CTestBr { addr; tf = d; src = a; th; el })
            | { addr; op = Icmp (c, d, a, b') } when d = r ->
                (1, CIcmpBr { c; addr; d; a; b = b'; th; el })
            | _ -> (0, CBr (r, th, el)))
    in
    {
      clabel = b.label;
      (* the fused instruction still counts toward the step charge *)
      nsteps = n + 1;
      body =
        Array.map (compile_instr ~checked ~plain ~nf ~ni) (Array.sub b.instrs 0 (n - fused));
      cterm;
      iaddrs = Array.map (fun (i : Ir.instr) -> i.addr) b.instrs;
    }
  in
  match cache with
  | None -> build ()
  | Some c ->
      let witness =
        {
          w_checked = checked;
          w_plain = plain;
          w_nf = nf;
          w_ni = ni;
          w_fregs = fregs;
          w_iregs = iregs;
          w_instrs = b.instrs;
          w_term = b.term;
        }
      in
      Code_cache.find_or_add c ~fname ~label:b.label ~witness build

let link ?cache ~checked ~plain (p : Ir.program) : lfunc array =
  let nf = p.fheap_size and ni = p.iheap_size in
  Array.map
    (fun (f : Ir.func) ->
      {
        src = f;
        cblocks =
          Array.map
            (compile_block ?cache ~checked ~plain ~nf ~ni ~fregs:f.n_fregs
               ~iregs:f.n_iregs ~fname:f.fname)
            f.blocks;
      })
    p.funcs

(* --------------------------------------------------------------- execution *)

let run ?cache (t : Vm.t) =
  if t.Vm.hooks <> [] then
    (* hooks observe (or perturb) every executed instruction; compiled code
       has no per-instruction observation point, so any installed hook —
       fault injector, shadow tracer, a test probe — routes the run through
       the interpreter unchanged *)
    Vm.run t
  else begin
    if t.Vm.ran then
      invalid_arg
        "Vm.run: this state has already executed (counters and heaps reflect \
         the previous run); create a fresh VM per run";
    t.Vm.ran <- true;
    let plain = t.Vm.smode = Vm.Plain in
    let lfuncs = link ?cache ~checked:t.Vm.checked ~plain t.Vm.prog in
    let counts = t.Vm.counts and bcounts = t.Vm.bcounts in
    (* one O(program) pass turns block entry counts into exact
       per-instruction counts (plus the per-frame retractions in [exec] on
       the abort path); runs on both the normal and the exceptional exit *)
    let reconstruct () =
      Array.iter
        (fun lf ->
          Array.iter
            (fun cb ->
              let m = Array.unsafe_get bcounts cb.clabel in
              if m <> 0 then
                let ia = cb.iaddrs in
                for i = 0 to Array.length ia - 1 do
                  let a = Array.unsafe_get ia i in
                  counts.(a) <- counts.(a) + m
                done)
            lf.cblocks)
        lfuncs
    in
    let rs =
      {
        lfuncs;
        spare = Array.make (Array.length lfuncs) None;
        (* fetched once per run, exactly like the interpreter *)
        watchdog = Vm.installed_watchdog ();
      }
    in
    let main = lfuncs.(t.Vm.prog.main) in
    let mf = main.src in
    (* main's arguments are zeros, so its fresh frame is already set up *)
    let e =
      {
        t;
        fr = Array.make mf.Ir.n_fregs 0.0;
        ir = Array.make mf.Ir.n_iregs 0;
        fheap = t.Vm.fheap;
        iheap = t.Vm.iheap;
        lf = main;
        rs;
        busy = true;
        cur_bidx = mf.Ir.entry;
        cur_k = -1;
      }
    in
    rs.spare.(t.Vm.prog.main) <- Some e;
    match exec e with
    | () -> reconstruct ()
    | exception ex ->
        reconstruct ();
        raise ex
  end
